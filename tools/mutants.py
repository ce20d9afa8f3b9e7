"""Mutation score of the two-route contract: does `verify`, then tier-1,
notice a one-site change in the functions of `counting`, `cubes` and `graphs`?

Run from anywhere, with no options:

    python tools/mutants.py

Each mutant changes one site of one function: an integer constant plus 1,
`+` <-> `-`, `*` <-> `//`, `<` <-> `<=`, `>` <-> `>=` or `==` <-> `!=`. It
is written into a temporary copy of the repository (never into `src/`). A
mutant is killed when `verify --h-max 3 --n-max-formula 60 --n-max-oracle 9`
exits nonzero or runs past 60 s; the survivors then run tier-1 with `-x`.
Mutants are named `module.function:kind#ordinal`, the ordinal counting the
sites of that kind within the function in source order, so a name survives
edits elsewhere. The table is Markdown, for a CI step summary as well as a
terminal; a run took about 20 minutes on a 2-vCPU host.
"""

from __future__ import annotations

import ast
import os
import shutil
import signal
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Iterator

ROOT = Path(__file__).resolve().parent.parent
MODULES = ("counting", "cubes", "graphs")
VERIFY = ("-m", "indcubes", "verify", *"--h-max 3 --n-max-formula 60 --n-max-oracle 9".split())
TIER1 = ("-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", "--continue-on-collection-errors")
VERIFY_TIMEOUT_S = 60
TIER1_TIMEOUT_S = 900  # a survivor that loops in tier-1 counts as killed

#: Site kind -> (AST operator it matches, source text, replacement text).
#: The kind `int` (an integer constant plus 1) is handled apart.
SWAPS = {
    "add": (ast.Add, "+", "-"),
    "sub": (ast.Sub, "-", "+"),
    "mul": (ast.Mult, "*", "//"),
    "floordiv": (ast.FloorDiv, "//", "*"),
    "lt": (ast.Lt, "<", "<="),
    "le": (ast.LtE, "<=", "<"),
    "gt": (ast.Gt, ">", ">="),
    "ge": (ast.GtE, ">=", ">"),
    "eq": (ast.Eq, "==", "!="),
    "ne": (ast.NotEq, "!=", "=="),
}
KIND = {op: kind for kind, (op, _, _) in SWAPS.items()}

#: Survivors of both passes that no test can kill, each with the reason.
EQUIVALENT = {
    "cubes._fibonacci_masks:int#1": "the k = 1 step sets bit 0 of the seed [1] again: [0, 1]",
    "cubes._avoiding_masks:int#1": "the window's extra bit lies above the prefix, always 0",
    "cubes._avoiding_masks:sub#2": "two more wrap bits repeat windows tested one period earlier",
    "cubes._avoiding_masks:int#6": "with no pattern kept, the one wrap bit is never tested",
    "graphs.VertexSubset.__init__:lt#1": "the text is chosen only when bits >> n, never for 0",
    "graphs.VertexSubset.__init__:int#2": "the text is chosen only when bits >> n, never for 0",
    "graphs.SimpleGraph.__init__:lt#2": "the text is chosen only when row >> n, never for 0",
    "graphs.SimpleGraph.__init__:int#2": "the text is chosen only when row >> n, never for 0",
    "graphs.contains_pattern:sub#1": "each start in the longer wrap is, mod n, one already read",
}


def _functions(tree: ast.Module) -> Iterator[tuple[str, ast.FunctionDef]]:
    """The module's functions and its classes' methods, by qualified name."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield node.name, node
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    yield f"{node.name}.{item.name}", item


def mutants(source: str) -> Iterator[tuple[str, str]]:
    """(name, mutated source) for each one-site mutant of the functions in
    `source`; names are `function:kind#ordinal`, in source order."""
    data = source.encode()
    starts = [0]  # byte offset of each line: AST columns count UTF-8 bytes
    for line in data.splitlines(keepends=True):
        starts.append(starts[-1] + len(line))
    for qualname, func in _functions(ast.parse(source)):
        sites = []  # (start, end, kind, replacement) in bytes
        for node in ast.walk(func):
            if isinstance(node, ast.Constant) and type(node.value) is int:
                start = starts[node.lineno - 1] + node.col_offset
                end = starts[node.end_lineno - 1] + node.end_col_offset
                sites.append((start, end, "int", str(node.value + 1)))
            elif isinstance(node, (ast.BinOp, ast.Compare)):
                if isinstance(node, ast.BinOp):
                    operands, ops = [node.left, node.right], [node.op]
                else:
                    operands, ops = [node.left, *node.comparators], node.ops
                for left, op in zip(operands, ops):
                    if type(op) in KIND:
                        kind = KIND[type(op)]
                        _, old, new = SWAPS[kind]
                        # only brackets and blanks lie between an operand and its operator
                        after = starts[left.end_lineno - 1] + left.end_col_offset
                        start = data.index(old.encode(), after)
                        sites.append((start, start + len(old), kind, new))
        seen: dict[str, int] = {}
        for start, end, kind, new in sorted(sites):
            seen[kind] = seen.get(kind, 0) + 1
            mutated = data[:start] + new.encode() + data[end:]
            yield f"{qualname}:{kind}#{seen[kind]}", mutated.decode()


def _killed(copy: Path, args: tuple[str, ...], timeout: float) -> bool:
    """Whether `python args`, run in the copy, exits nonzero or runs past
    `timeout` seconds; on time-out its whole process group is killed, so no
    forked verify worker outlives it."""
    env = dict(os.environ, PYTHONPATH="src", PYTHONDONTWRITEBYTECODE="1")
    quiet = subprocess.DEVNULL
    with subprocess.Popen(
        (sys.executable, *args), cwd=copy, env=env, stdin=quiet, stdout=quiet, stderr=quiet,
        start_new_session=True,
    ) as proc:
        try:
            return proc.wait(timeout) != 0
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            return True


def main() -> int:
    ignore = shutil.ignore_patterns(".git", "__pycache__", ".*_cache", ".hypothesis", ".benchmarks")
    rows, left = [], []
    with tempfile.TemporaryDirectory(prefix="indcubes-mutants-") as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(ROOT, copy, ignore=ignore)
        if _killed(copy, VERIFY, VERIFY_TIMEOUT_S) or _killed(copy, TIER1, TIER1_TIMEOUT_S):
            print("the unmutated copy fails verify or tier-1; no score", file=sys.stderr)
            return 1
        for module in MODULES:
            path = copy / "src" / "indcubes" / f"{module}.py"
            original = path.read_text()
            named = [(f"{module}.{name}", text) for name, text in mutants(original)]
            survivors = []
            for name, text in named:
                path.write_text(text)
                if not _killed(copy, VERIFY, VERIFY_TIMEOUT_S):
                    survivors.append((name, text))
            remaining = []
            for name, text in survivors:
                path.write_text(text)
                if not _killed(copy, TIER1, TIER1_TIMEOUT_S):
                    remaining.append(name)
            path.write_text(original)
            total, alive = len(named), len(survivors)
            rows.append((module, total, total - alive, alive - len(remaining), len(remaining)))
            left += remaining
    print("| module | mutants | killed by `verify` | then by tier-1 | left |")
    print("|---|---|---|---|---|")
    for row in rows:
        print("| `{}` | {} | {} | {} | {} |".format(*row))
    print()
    for name in left:
        reason = EQUIVALENT.get(name)
        print(f"- `{name}`: " + (f"equivalent: {reason}" if reason else "unexplained"))
    return 0


if __name__ == "__main__":
    sys.exit(main())
