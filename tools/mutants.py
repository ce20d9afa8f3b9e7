"""Mutation score of the two-route contract: does `verify`, then tier-1,
notice a one-site change in the functions of `counting`, `cubes` and `graphs`?

Run from anywhere, with no options:

    python tools/mutants.py

Each mutant changes one site of one function: an integer constant plus 1,
`+` <-> `-`, `*` <-> `//`, `<` <-> `<=`, `>` <-> `>=` or `==` <-> `!=`. It
is written into a temporary copy of the repository (never into `src/`). A
mutant is killed when `verify --h-max 3 --n-max-formula 60 --n-max-oracle 9
--json` exits nonzero or runs past 60 s; the survivors then run tier-1 with
`-x`, on one worker thread per usable CPU, each writing its mutants into a
copy of its own. Mutants are named `module.function:kind#ordinal`, the
ordinal counting the sites of that kind within the function in source order,
so a name survives edits elsewhere.

The output is Markdown, for a CI step summary as well as a terminal: the
score per module and each survivor of both passes, then the kill matrix read
from the JSON reports. Per check, it counts the mutants the check kills and
names those it alone kills (a crash or a time-out kills with no check named);
then it names each function whose verify-killed mutants all fail one and the
same single check. The exit status is 1 when a survivor is not in
`EQUIVALENT`, else 0. On a 2-vCPU host a run took about 10 minutes, most of
it in the tier-1 pass (about 16 with the tier-1 runs made one at a time).
"""

from __future__ import annotations

import ast
import json
import os
import queue
import shutil
import signal
import subprocess
import sys
import tempfile
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Iterator, Mapping, Sequence

ROOT = Path(__file__).resolve().parent.parent
MODULES = ("counting", "cubes", "graphs")
VERIFY = ("-m", "indcubes", "verify", *"--h-max 3 --n-max-formula 60 --n-max-oracle 9 --json".split())
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
    "cubes._avoiding_masks:sub#1": "two more wrap bits repeat windows tested one period earlier",
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


def _run(copy: Path, args: tuple[str, ...], timeout: float) -> tuple[int | None, str]:
    """The exit status and stdout of `python args`, run in the copy. Past
    `timeout` seconds the status is None, and the whole process group is
    killed, so no forked verify worker outlives it."""
    env = dict(os.environ, PYTHONPATH="src", PYTHONDONTWRITEBYTECODE="1")
    with subprocess.Popen(
        (sys.executable, *args), cwd=copy, env=env, stdin=subprocess.DEVNULL,
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True, start_new_session=True,
    ) as proc:
        try:
            out = proc.communicate(timeout=timeout)[0]
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            return None, ""
        return proc.returncode, out


def failing_checks(status: int | None, out: str) -> frozenset[str] | None:
    """None when verify exited 0; else the checks its JSON report fails, or
    none after a crash or a time-out, which leave no report to read."""
    if status == 0:
        return None
    try:
        return frozenset(check["name"] for check in json.loads(out)["checks"] if not check["ok"])
    except ValueError:  # verify prints its report whole or not at all
        return frozenset()


def kill_matrix(
    failed: Mapping[str, frozenset[str]], checks: Sequence[str]
) -> tuple[dict[str, list[str]], dict[str, list[str]], dict[str, tuple[str, int]]]:
    """From the checks each verify-killed mutant fails: per check, the mutants
    it kills and those it alone kills; and each `module.function` whose
    verify-killed mutants all fail one and the same single check, with that
    check and the number of those mutants."""
    kills: dict[str, list[str]] = {check: [] for check in checks}
    sole: dict[str, list[str]] = {check: [] for check in checks}
    by_function: dict[str, list[frozenset[str]]] = {}
    for name, names in failed.items():
        for check in names:
            kills[check].append(name)
        if len(names) == 1:
            sole[next(iter(names))].append(name)
        by_function.setdefault(name.partition(":")[0], []).append(names)
    single = {}
    for function, sets in by_function.items():
        guards = frozenset().union(*sets)
        if len(guards) == 1 and all(sets):
            single[function] = (next(iter(guards)), len(sets))
    return kills, sole, single


def report(
    rows: Sequence[tuple[str, int, int, int, int]],
    left: Sequence[str],
    checks: Sequence[str],
    failed: Mapping[str, frozenset[str]],
) -> int:
    """Print the score table, the survivors and the kill matrix, and return
    the exit status: 1 when a survivor is not in EQUIVALENT, else 0."""
    print("| module | mutants | killed by `verify` | then by tier-1 | left |")
    print("|---|---|---|---|---|")
    for row in rows:
        print("| `{}` | {} | {} | {} | {} |".format(*row))
    print()
    for name in left:
        reason = EQUIVALENT.get(name)
        print(f"- `{name}`: " + (f"equivalent: {reason}" if reason else "unexplained"))
    kills, sole, single = kill_matrix(failed, checks)
    print()
    print("| check | kills | kills alone |")
    print("|---|---|---|")
    for check in checks:
        print(f"| `{check}` | {len(kills[check])} | {len(sole[check])} |")
    unnamed = sum(not names for names in failed.values())
    print(f"\n{unnamed} verify-killed mutants crashed or timed out, with no check named.\n")
    for check in checks:
        if sole[check]:
            print(f"- `{check}` alone kills " + ", ".join(f"`{name}`" for name in sole[check]))
    print("\nFunctions whose verify-killed mutants all fail one and the same single check:\n")
    for function, (check, count) in single.items():
        print(f"- `{function}`: `{check}` ({count} mutants)")
    return 1 if any(name not in EQUIVALENT for name in left) else 0


def usable_cpus() -> int:
    """The CPUs this process may run on, or all of them where the platform
    cannot say."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def tier1_pass(copies: Sequence[Path], jobs: Sequence[tuple[str, str]]) -> list[bool]:
    """Whether tier-1 passes with each job's (module, mutated source) in
    place, in job order, on one thread per copy. A job borrows a free copy,
    writes its mutant there and restores the module before handing the copy
    back, so no copy ever holds two mutants."""
    free: queue.SimpleQueue[Path] = queue.SimpleQueue()
    for copy in copies:
        free.put(copy)

    def passes(job: tuple[str, str]) -> bool:
        module, text = job
        copy = free.get()
        path = copy / "src" / "indcubes" / f"{module}.py"
        original = path.read_text()
        try:
            path.write_text(text)
            return _run(copy, TIER1, TIER1_TIMEOUT_S)[0] == 0
        finally:
            path.write_text(original)
            free.put(copy)

    with ThreadPoolExecutor(max_workers=len(copies)) as pool:
        return list(pool.map(passes, jobs))


def main() -> int:
    ignore = shutil.ignore_patterns(".git", "__pycache__", ".*_cache", ".hypothesis", ".benchmarks")
    totals, survivors, failed = {}, [], {}
    with tempfile.TemporaryDirectory(prefix="indcubes-mutants-") as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(ROOT, copy, ignore=ignore)
        status, out = _run(copy, VERIFY, VERIFY_TIMEOUT_S)
        if status != 0 or _run(copy, TIER1, TIER1_TIMEOUT_S)[0] != 0:
            print("the unmutated copy fails verify or tier-1; no score", file=sys.stderr)
            return 1
        checks = [check["name"] for check in json.loads(out)["checks"]]
        for module in MODULES:
            path = copy / "src" / "indcubes" / f"{module}.py"
            original = path.read_text()
            named = [(f"{module}.{name}", text) for name, text in mutants(original)]
            totals[module] = len(named)
            for name, text in named:
                path.write_text(text)
                names = failing_checks(*_run(copy, VERIFY, VERIFY_TIMEOUT_S))
                if names is None:
                    survivors.append((module, name, text))
                else:
                    failed[name] = names
            path.write_text(original)
        copies = [copy]  # and a fresh copy for each further worker
        for i in range(1, min(usable_cpus(), len(survivors))):
            copies.append(shutil.copytree(ROOT, Path(tmp) / f"repo{i}", ignore=ignore))
        passed = tier1_pass(copies, [(module, text) for module, _, text in survivors])
    left = [name for (_, name, _), alive in zip(survivors, passed) if alive]
    after_verify = Counter(module for module, _, _ in survivors)
    after_tier1 = Counter(module for (module, _, _), alive in zip(survivors, passed) if alive)
    rows = []
    for module, total in totals.items():
        alive, remaining = after_verify[module], after_tier1[module]
        rows.append((module, total, total - alive, alive - remaining, remaining))
    return report(rows, left, checks, failed)


if __name__ == "__main__":
    sys.exit(main())
