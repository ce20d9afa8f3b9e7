"""The mutation tool, loaded by path from tools/: its mutant names, and that
each mutant changes exactly one AST node."""

import ast
import importlib.util
from pathlib import Path

_spec = importlib.util.spec_from_file_location(
    "mutants", Path(__file__).resolve().parent.parent / "tools" / "mutants.py"
)
mutants = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(mutants)

SNIPPET = """def f(n, k):
    if n <= k + 1:
        return (n - k) // 2 == 0
"""


def _changed_nodes(a: str, b: str) -> int:
    """How many nodes differ, in type or constant value, between two sources
    of the same shape."""
    nodes_a, nodes_b = list(ast.walk(ast.parse(a))), list(ast.walk(ast.parse(b)))
    assert len(nodes_a) == len(nodes_b)
    return sum(
        type(x) is not type(y) or (isinstance(x, ast.Constant) and x.value != y.value)
        for x, y in zip(nodes_a, nodes_b)
    )


def test_mutants_are_named_by_function_kind_and_ordinal():
    assert [name for name, _ in mutants.mutants(SNIPPET)] == [
        "f:le#1",
        "f:add#1",
        "f:int#1",
        "f:sub#1",
        "f:floordiv#1",
        "f:int#2",
        "f:eq#1",
        "f:int#3",
    ]


def test_each_mutant_changes_one_node():
    for name, text in mutants.mutants(SNIPPET):
        assert _changed_nodes(SNIPPET, text) == 1, name
