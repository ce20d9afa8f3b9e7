"""Acceptance suite: one test per release criterion, each at its full stated
parameter range with exact-integer comparisons. Every test prints a single
pass/fail line (visible with `pytest -s` or on failure)."""

import os
import subprocess
import sys
from pathlib import Path

from indcubes import counting, verify


def _line(cid: int, desc: str, counterexample: str | None = None) -> None:
    ok = counterexample is None
    suffix = "" if ok else f"  [{counterexample}]"
    print(f"ACCEPTANCE {cid:02d} {'PASS' if ok else 'FAIL'}: {desc}{suffix}")
    assert ok, f"criterion {cid}: {counterexample}"


def test_criterion_01_path_oracle_equivalence():
    cx = verify.check_path_oracle(h_max=4, n_max=14)
    _line(1, "path-power enumeration equals totals and per-size counts (h<=4, n<=14)", cx)


def test_criterion_02_cycle_oracle_equivalence():
    cx = verify.check_cycle_oracle(h_max=4, n_max=14)
    _line(2, "cycle-power enumeration equals totals and per-size counts (h<=4, n<=14)", cx)


def test_criterion_03_convolution_edge_count():
    cx = verify.check_convolution_agreement(h_max=8, n_max=200)
    if cx is None:
        cx = verify.check_path_cover_counts(h_max=4, n_max=14)
    _line(3, "edge counts by convolution = weighted sum (h<=8, n<=200) = built covers (h<=4, n<=14)", cx)


def test_criterion_04_cycle_closed_form():
    cx = verify.check_cycle_cover_counts(h_max=4, n_max=14)
    if cx is None:
        cx = verify.check_closed_form_agreement(h_max=8, n_max=200)
    if cx is None:
        for h in range(9):
            for n in range(h + 1, 201):
                closed = counting.cycle_hasse_edges_closed(n, h)
                if closed != n * counting.hfib(h, n - h)[-1]:
                    cx = f"n={n} h={h}: closed form is not n * term(n-h)"
                    break
            if cx:
                break
    _line(4, "cycle edge counts: built covers = sum = closed form n*F(n-h) (h<n<=200)", cx)


def test_criterion_05_recurrences():
    cx = verify.check_path_recurrence(h_max=8, n_max=200)
    if cx is None:
        cx = verify.check_cycle_recurrence(h_max=8, n_max=200)
    _line(5, "recurrence-only totals equal summed totals (h<=8, n<=200)", cx)


def test_criterion_06_cube_identities():
    cx = verify.check_fibonacci_cube(h_max=1, n_max=14)
    if cx is None:
        cx = verify.check_lucas_cube(h_max=1, n_max=14)
    _line(6, "Fibonacci/Lucas cube counts and labeled match with the power diagrams (n<=14)", cx)


def test_criterion_07_generalized_cubes():
    cx = verify.check_pattern_cubes(h_max=3, n_max=14)
    _line(7, "pattern-avoidance vertex sets equal independence strings, h in {2,3} (n<=14)", cx)


def test_criterion_08_bijection_roundtrip():
    cx = verify.check_bijection_roundtrip(h_max=3, n_max=12)
    _line(8, "index-list correspondence roundtrips both ways (h<=3, n<=12)", cx)


def test_criterion_09_containing_vertex_sums():
    cx = verify.check_containing_row_sum(h_max=4, n_max=14)
    if cx is None:
        cx = verify.check_containing_column_sum(h_max=4, n_max=14)
    _line(9, "per-vertex counts sum to k-weighted and split products (h<=4, n<=14)", cx)


def test_criterion_10_byte_deterministic_cli():
    commands = [
        ["table", "--family", "path", "--h", "2", "--n-max", "20", "--per-k"],
        ["table", "--family", "cycle", "--h", "3", "--n-max", "20"],
        ["seq", "--kind", "hedges", "--h", "2", "--count", "25"],
        ["seq", "--kind", "hfib", "--h", "0", "--count", "12"],
        ["export", "--family", "gen-cube", "--n", "7", "--patterns", "11,101",
         "--circular", "--what", "graph", "--format", "dot"],
        ["export", "--family", "cycle", "--n", "6", "--h", "1",
         "--what", "hasse", "--format", "json"],
    ]
    # the package under test, whether it is installed or not
    src = str(Path(verify.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    env = {**os.environ, "PYTHONPATH": path}
    cx = None
    for argv in commands:
        runs = [
            subprocess.run(
                [sys.executable, "-m", "indcubes", *argv],
                env=env,
                capture_output=True,
                check=False,
            )
            for _ in range(2)
        ]
        if any(r.returncode != 0 for r in runs):
            cx = f"{' '.join(argv)}: exit codes {[r.returncode for r in runs]}"
            break
        if runs[0].stdout != runs[1].stdout or not runs[0].stdout:
            cx = f"{' '.join(argv)}: outputs differ between runs"
            break
    _line(10, "table/seq/export emit byte-identical output across repeated runs", cx)
