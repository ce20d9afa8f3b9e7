"""The mutation tool, loaded by path from tools/: its mutant names, that
each mutant changes exactly one AST node, its kill matrix and report, and its
tier-1 pass over several copies."""

import ast
import importlib.util
import os
import threading
import time
from pathlib import Path

import pytest

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


#: A hand-made verify pass: each killed mutant with the checks it fails
#: (none named after a crash or a time-out).
FAILED = {
    "m.f:int#1": frozenset({"a"}),
    "m.f:add#1": frozenset({"a"}),
    "m.g:int#1": frozenset({"a", "b"}),
    "m.g:lt#1": frozenset({"b"}),
    "m.h:int#1": frozenset({"c"}),
    "m.h:sub#1": frozenset(),
    "m.C.k:eq#1": frozenset({"b"}),
}
CHECKS = ["a", "b", "c", "d"]


def test_kill_matrix_counts_kills_and_sole_kills_per_check():
    kills, sole, _ = mutants.kill_matrix(FAILED, CHECKS)
    assert kills == {
        "a": ["m.f:int#1", "m.f:add#1", "m.g:int#1"],
        "b": ["m.g:int#1", "m.g:lt#1", "m.C.k:eq#1"],
        "c": ["m.h:int#1"],
        "d": [],
    }
    assert sole == {
        "a": ["m.f:int#1", "m.f:add#1"],
        "b": ["m.g:lt#1", "m.C.k:eq#1"],
        "c": ["m.h:int#1"],
        "d": [],
    }


def test_kill_matrix_names_functions_with_a_single_guard():
    # g's mutants fail {a, b} and {b}: two guards between them. h has a crash,
    # which no check names, so c is not its only guard.
    _, _, single = mutants.kill_matrix(FAILED, CHECKS)
    assert single == {"m.f": ("a", 2), "m.C.k": ("b", 1)}


def test_failing_checks_reads_the_json_report():
    report = '{"overall": false, "checks": [{"name": "a", "ok": true}, {"name": "b", "ok": false}]}'
    assert mutants.failing_checks(0, report) is None
    assert mutants.failing_checks(1, report) == {"b"}
    assert mutants.failing_checks(1, "Traceback (most recent call last):") == frozenset()
    assert mutants.failing_checks(None, "") == frozenset()


def test_report_exits_1_on_an_unexplained_survivor(capsys):
    rows = [("m", 9, 7, 0, 2)]
    explained = list(mutants.EQUIVALENT)
    assert mutants.report(rows, explained, CHECKS, FAILED) == 0
    assert mutants.report(rows, [], CHECKS, FAILED) == 0
    assert mutants.report(rows, [*explained, "m.f:ne#1"], CHECKS, FAILED) == 1
    out = capsys.readouterr().out
    assert "- `m.f:ne#1`: unexplained\n" in out
    assert "| `m` | 9 | 7 | 0 | 2 |\n" in out
    assert "| `a` | 3 | 2 |\n" in out
    assert "- `m.f`: `a` (2 mutants)\n" in out
    assert "1 verify-killed mutants crashed or timed out" in out


def test_equivalent_names_are_mutants_of_the_current_source():
    names = set()
    for module in mutants.MODULES:
        source = (mutants.ROOT / "src" / "indcubes" / f"{module}.py").read_text()
        names.update(f"{module}.{name}" for name, _ in mutants.mutants(source))
    assert set(mutants.EQUIVALENT) <= names


def _copies(root, count):
    """`count` stand-in checkouts, each holding every module's original text."""
    copies = []
    for i in range(count):
        package = root / f"copy{i}" / "src" / "indcubes"
        package.mkdir(parents=True)
        for module in mutants.MODULES:
            (package / f"{module}.py").write_text(f"# {module}\n")
        copies.append(package.parent.parent)
    return copies


@pytest.mark.parametrize("workers", [1, 2])
def test_tier1_pass_gives_each_verdict_in_order_and_one_mutant_per_copy(
    monkeypatch, tmp_path, workers
):
    busy, lock = set(), threading.Lock()

    def stub(copy, args, timeout):
        assert args == mutants.TIER1
        with lock:
            assert copy not in busy, "two jobs share a copy"
            busy.add(copy)
        texts = [(copy / "src" / "indcubes" / f"{m}.py").read_text() for m in mutants.MODULES]
        changed = [text for m, text in zip(mutants.MODULES, texts) if text != f"# {m}\n"]
        time.sleep(0.005)  # long enough for the other worker to start a job
        with lock:
            busy.discard(copy)
        assert len(changed) == 1, changed
        return (0 if "lives" in changed[0] else 1), ""

    monkeypatch.setattr(mutants, "_run", stub)
    jobs = [
        (m, f"# {m} mutant {i}: {'dies' if i % 3 else 'lives'}\n")
        for i, m in enumerate(mutants.MODULES * 4)
    ]
    copies = _copies(tmp_path, workers)
    assert mutants.tier1_pass(copies, jobs) == [i % 3 == 0 for i in range(len(jobs))]
    assert mutants.tier1_pass(copies, []) == []
    for copy in copies:
        for m in mutants.MODULES:
            assert (copy / "src" / "indcubes" / f"{m}.py").read_text() == f"# {m}\n"


def test_usable_cpus_falls_back_to_the_cpu_count(monkeypatch):
    if hasattr(os, "sched_getaffinity"):
        assert mutants.usable_cpus() == len(os.sched_getaffinity(0))
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    assert mutants.usable_cpus() == 3
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert mutants.usable_cpus() == 1
