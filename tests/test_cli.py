import bisect
import gc
import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from indcubes import cli, counting, verify
from indcubes.cli import main
from indcubes.cubes import (
    avoiding_strings,
    fibonacci_cube,
    fibonacci_strings,
    generalized_cube,
    lucas_cube,
    lucas_strings,
    power_patterns,
)
from indcubes.graphs import power_cycle, power_path


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_at_limit(capsys, limit, *argv):
    """run_cli with Python's int-to-str digit limit set to `limit`."""
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(limit)
    try:
        return run_cli(capsys, *argv)
    finally:
        sys.set_int_max_str_digits(saved)


def first_over(limit, value):
    """Smallest i >= 1 at which the nondecreasing value(i), at least
    2^(i-1), has more than `limit` digits, counted by str() with no limit."""
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        indices = range(1, 4 * limit)
        return indices[bisect.bisect_left(indices, True, key=lambda i: len(str(value(i))) > limit)]
    finally:
        sys.set_int_max_str_digits(saved)


def count_pulls(monkeypatch, name):
    """Wrap the generator counting.<name>; the returned list holds the
    number of items pulled from it so far."""
    real = getattr(counting, name)
    pulled = [0]

    def wrapped(*args):
        for item in real(*args):
            pulled[0] += 1
            yield item

    monkeypatch.setattr(counting, name, wrapped)
    return pulled


def count_conversions(monkeypatch):
    """Count the calls to `str` made by the cli module."""
    calls = [0]

    def counted(*args):
        calls[0] += 1
        return str(*args)

    monkeypatch.setattr(cli, "str", counted, raising=False)
    return calls


def parse_tsv(text):
    lines = text.strip("\n").split("\n")
    header = lines[0].split("\t")
    rows = [line.split("\t") for line in lines[1:]]
    return header, rows


class TestTable:
    def test_path_totals(self, capsys):
        code, out, _ = run_cli(capsys, "table", "--family", "path", "--h", "1", "--n-max", "4")
        assert code == 0
        header, rows = parse_tsv(out)
        assert header == ["n", "total", "edges"]
        assert [r[1] for r in rows] == ["1", "2", "3", "5", "8"]

    def test_cycle_totals(self, capsys):
        code, out, _ = run_cli(capsys, "table", "--family", "cycle", "--h", "1", "--n-max", "5")
        assert code == 0
        _, rows = parse_tsv(out)
        assert [r[1] for r in rows] == ["1", "2", "3", "4", "7", "11"]
        assert [r[2] for r in rows] == ["0", "1", "2", "3", "8", "15"]

    def test_path_order_two_totals(self, capsys):
        code, out, _ = run_cli(capsys, "table", "--family", "path", "--h", "2", "--n-max", "5")
        assert code == 0
        _, rows = parse_tsv(out)
        assert [r[1] for r in rows] == ["1", "2", "3", "4", "6", "9"]

    def test_per_k_columns_reproduce_counts(self, capsys):
        code, out, _ = run_cli(
            capsys, "table", "--family", "path", "--h", "1", "--n-max", "8", "--per-k"
        )
        assert code == 0
        header, rows = parse_tsv(out)
        k_cols = [c for c in header if c.startswith("k")]
        assert k_cols == [f"k{k}" for k in range(len(k_cols))]
        for row in rows:
            n = int(row[0])
            per_k = [int(x) for x in row[3:]]
            assert per_k == [counting.path_count_k(n, 1, k) for k in range(len(per_k))]
            assert sum(per_k) == int(row[1])

    def test_per_k_cycle(self, capsys):
        code, out, _ = run_cli(
            capsys, "table", "--family", "cycle", "--h", "2", "--n-max", "9", "--per-k"
        )
        assert code == 0
        _, rows = parse_tsv(out)
        for row in rows:
            n = int(row[0])
            per_k = [int(x) for x in row[3:]]
            assert per_k == [counting.cycle_count_k(n, 2, k) for k in range(len(per_k))]
            assert sum(per_k) == int(row[1])

    def test_unknown_family_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["table", "--family", "tree", "--h", "1", "--n-max", "3"])
        assert exc.value.code == 2

    def test_negative_argument_is_usage_error(self, capsys):
        for h in (["--h", "-1"], ["--h=-1"]):
            with pytest.raises(SystemExit) as exc:
                main(["table", "--family", "path", *h, "--n-max", "3"])
            assert exc.value.code == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.splitlines()[-1].endswith("argument --h: must be nonnegative (got -1)")

    def test_internal_fault_has_its_own_exit_code(self, capsys, monkeypatch):
        # a binom that breaks the cycle_count_k divisibility invariant
        monkeypatch.setattr(counting, "binom", lambda m, k: 3)
        argv = ("table", "--family", "cycle", "--h", "1", "--n-max", "6", "--per-k")
        code, out, err = run_cli(capsys, *argv)
        assert code == 3
        assert out == ""
        assert err.count("\n") == 1
        assert err.startswith("error: internal fault in table (family=cycle, h=1, n_max=6, per_k=True): ")
        assert "(n=1, h=1, k=2)" in err


class TestSeq:
    def test_hfib_order_zero(self, capsys):
        code, out, _ = run_cli(capsys, "seq", "--kind", "hfib", "--h", "0", "--count", "5")
        assert code == 0
        assert out == "1\n2\n4\n8\n16\n"

    def test_hedges(self, capsys):
        code, out, _ = run_cli(capsys, "seq", "--kind", "hedges", "--h", "1", "--count", "3")
        assert code == 0
        assert out == "1\n2\n5\n"

    def test_medges(self, capsys):
        code, out, _ = run_cli(capsys, "seq", "--kind", "medges", "--h", "1", "--count", "5")
        assert code == 0
        assert out == "1\n2\n3\n8\n15\n"

    def test_totals_kinds(self, capsys):
        code, out, _ = run_cli(capsys, "seq", "--kind", "p", "--h", "1", "--count", "6")
        assert code == 0
        assert out == "2\n3\n5\n8\n13\n21\n"
        code, out, _ = run_cli(capsys, "seq", "--kind", "q", "--h", "1", "--count", "7")
        assert code == 0
        assert out == "2\n3\n4\n7\n11\n18\n29\n"

    def test_over_digit_limit_prints_nothing(self, capsys):
        # Output is all or nothing: 2^2199 has 663 digits, past a 640 limit.
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        try:
            code, out, err = run_cli(capsys, "seq", "--kind", "hfib", "--h", "0", "--count", "2200")
        finally:
            sys.set_int_max_str_digits(limit)
        assert code == 2  # a usage error, not an internal fault
        assert out == ""
        assert err.startswith("error:") and "internal fault" not in err

    def test_unknown_kind_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["seq", "--kind", "primes", "--h", "1", "--count", "3"])
        assert exc.value.code == 2


class TestDigitLimit:
    """Every value is checked against the int-to-str digit limit before any
    is converted; over it, a command prints nothing and exits 2."""

    LIMIT = 640  # the lowest limit Python accepts

    def test_hfib_boundary(self, capsys):
        # term i of the order-0 sequence is 2^(i-1)
        first = first_over(self.LIMIT, lambda i: 2 ** (i - 1))
        argv = ("seq", "--kind", "hfib", "--h", "0", "--count")
        code, out, err = run_at_limit(capsys, self.LIMIT, *argv, str(first - 1))
        assert (code, err) == (0, "")
        lines = out.split("\n")
        assert len(lines) == first  # first - 1 terms and the final newline
        assert len(lines[-2]) == self.LIMIT and int(lines[-2]) == 2 ** (first - 2)
        code, out, err = run_at_limit(capsys, self.LIMIT, *argv, str(first))
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1
        assert f"term {first} has more than {self.LIMIT} digits" in err

    @pytest.mark.parametrize("per_k", [False, True])
    def test_table_names_first_offending_row(self, capsys, monkeypatch, per_k):
        # edges n 2^(n-1) passes the limit before the total 2^n does
        first = first_over(self.LIMIT, lambda n: n * 2 ** (n - 1))
        assert first < first_over(self.LIMIT, lambda n: 2**n)
        calls = [0]
        real = counting.path_count_k

        def counted(*args):
            calls[0] += 1
            return real(*args)

        monkeypatch.setattr(counting, "path_count_k", counted)
        argv = ["table", "--family", "path", "--h", "0", "--n-max", str(first)]
        code, out, err = run_at_limit(capsys, self.LIMIT, *argv, *["--per-k"] * per_k)
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1
        assert f"edges at n={first} has more than {self.LIMIT} digits" in err
        assert calls == [0]  # no per-size count for a table that fails

    def test_table_just_under_the_limit_prints_in_full(self, capsys):
        n_max = first_over(self.LIMIT, lambda n: n * 2 ** (n - 1)) - 1
        argv = ("table", "--family", "path", "--h", "0", "--n-max", str(n_max))
        code, out, err = run_at_limit(capsys, self.LIMIT, *argv)
        assert (code, err) == (0, "")
        _, rows = parse_tsv(out)
        assert len(rows) == n_max + 1
        assert rows[-1] == [str(n_max), str(2**n_max), str(n_max * 2 ** (n_max - 1))]

    def test_seq_stops_at_first_over_limit_term(self, capsys, monkeypatch):
        first = first_over(self.LIMIT, lambda i: 2 ** (i - 1))
        pulled = count_pulls(monkeypatch, "_hfib_terms")
        converted = count_conversions(monkeypatch)
        argv = ("seq", "--kind", "hfib", "--h", "0", "--count", "1000000")
        code, out, _ = run_at_limit(capsys, self.LIMIT, *argv)
        assert (code, out) == (2, "")
        assert pulled == [first]
        assert converted == [0]

    def test_table_stops_at_first_over_limit_row(self, capsys, monkeypatch):
        first = first_over(self.LIMIT, lambda n: n * 2 ** (n - 1))
        pulled = count_pulls(monkeypatch, "_rows")
        converted = count_conversions(monkeypatch)
        argv = ("table", "--family", "path", "--h", "0", "--n-max", "1000000")
        code, out, _ = run_at_limit(capsys, self.LIMIT, *argv)
        assert (code, out) == (2, "")
        assert pulled == [first + 1]  # rows n = 0..first
        assert converted == [0]

    def test_default_limit(self, capsys):
        assert first_over(4300, lambda i: 2 ** (i - 1)) == 14286
        argv = ("seq", "--kind", "hfib", "--h", "0", "--count", "14300")
        code, out, err = run_at_limit(capsys, sys.int_info.default_max_str_digits, *argv)
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1
        assert "term 14286 has more than 4300 digits" in err
        assert "PYTHONINTMAXSTRDIGITS" in err and "-X int_max_str_digits" in err

    def test_limit_zero_turns_the_check_off(self, capsys):
        argv = ("seq", "--kind", "hfib", "--h", "0", "--count", "2200")
        assert run_at_limit(capsys, self.LIMIT, *argv)[0] == 2
        unlimited = run_at_limit(capsys, 0, *argv)
        assert unlimited == run_at_limit(capsys, sys.int_info.default_max_str_digits, *argv)
        assert unlimited[0] == 0 and unlimited[1].count("\n") == 2200


class TestVerifyCommand:
    def test_small_pass(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--h-max", "1", "--n-max-formula", "20", "--n-max-oracle", "6"
        )
        assert code == 0
        assert out.strip().splitlines()[-1] == "overall: PASS"

    def test_json_report(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--h-max", "0", "--n-max-formula", "50",
            "--n-max-oracle", "10", "--json",
        )
        assert code == 0
        report = json.loads(out)
        assert report["overall"] is True
        assert {"boolean-lattice-counts", "path-oracle-agreement"} <= {
            c["name"] for c in report["checks"]
        }

    @pytest.mark.parametrize("broken", [False, True])
    def test_json_report_bytes(self, capsys, monkeypatch, broken):
        if broken:  # a failing report, so counterexample strings are pinned too
            real = counting.binom
            monkeypatch.setattr(counting, "binom", lambda m, k: real(m, k) + (m == 4 and k == 2))
        bounds = ("--h-max", "1", "--n-max-formula", "20", "--n-max-oracle", "6")
        code, out, _ = run_cli(capsys, "verify", *bounds, "--json")
        report = verify.run_all(1, 20, 6)
        checks = [
            {"name": c.name, "params": c.params, "ok": c.ok, "counterexample": c.counterexample}
            for c in report.checks
        ]
        assert report.overall is not broken and code == int(broken)
        assert out == json.dumps({"overall": report.overall, "checks": checks}, indent=2) + "\n"

    def test_bounds_not_given_take_run_alls_defaults(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--h-max", "2")
        report = verify.run_all(h_max=2)
        assert code == 0 and out == report.render_text() + "\n"

    def test_oracle_bound_over_cube_cap_is_usage_error(self, capsys):
        code, out, err = run_cli(capsys, "verify", "--n-max-oracle", "21")
        assert code == 2
        assert out == ""
        assert "21" in err and "cap of 20" in err

    def test_failure_exit_code(self, capsys, monkeypatch):
        real = counting.binom
        monkeypatch.setattr(counting, "binom", lambda m, k: real(m, k) + (m == 4 and k == 2))
        code, out, _ = run_cli(
            capsys, "verify", "--h-max", "1", "--n-max-formula", "20", "--n-max-oracle", "6"
        )
        assert code == 1
        assert "FAIL" in out and "counterexample" in out


class TestExport:
    def test_path_graph_json(self, capsys):
        code, out, _ = run_cli(
            capsys, "export", "--family", "path", "--n", "3", "--h", "1",
            "--what", "graph", "--format", "json",
        )
        assert code == 0
        assert json.loads(out) == {
            "n": 3, "labels": ["1", "2", "3"], "edges": [[1, 2], [2, 3]],
        }

    def test_cycle_complete_graph(self, capsys):
        code, out, _ = run_cli(
            capsys, "export", "--family", "cycle", "--n", "5", "--h", "2",
            "--what", "graph", "--format", "json",
        )
        assert code == 0
        assert len(json.loads(out)["edges"]) == 10  # K_5

    @pytest.mark.parametrize("family", ["path", "cycle"])
    def test_huge_h_prints_the_complete_graph(self, capsys, family):
        outputs = []
        for h in ("64", "1000000000", str(2**70)):
            code, out, _ = run_cli(
                capsys, "export", "--family", family, "--n", "64", "--h", h,
                "--what", "graph", "--format", "json",
            )
            assert code == 0
            outputs.append(out)
        assert outputs[1] == outputs[2] == outputs[0]
        assert len(json.loads(outputs[0])["edges"]) == 64 * 63 // 2

    def test_fib_cube_dot(self, capsys):
        code, out, _ = run_cli(
            capsys, "export", "--family", "fib-cube", "--n", "2",
            "--what", "graph", "--format", "dot",
        )
        assert code == 0
        assert out == (
            "graph G {\n"
            '  "00";\n'
            '  "10";\n'
            '  "01";\n'
            '  "00" -- "10";\n'
            '  "00" -- "01";\n'
            "}\n"
        )

    def test_hasse_export(self, capsys):
        code, out, _ = run_cli(
            capsys, "export", "--family", "path", "--n", "3", "--h", "1",
            "--what", "hasse", "--format", "json",
        )
        assert code == 0
        data = json.loads(out)
        assert data["labels"] == ["000", "100", "010", "001", "101"]
        assert data["edges"] == [[1, 2], [1, 3], [1, 4], [2, 5], [4, 5]]

    def test_gen_cube_circular(self, capsys):
        code, out, _ = run_cli(
            capsys, "export", "--family", "gen-cube", "--n", "5", "--patterns", "11",
            "--circular", "--what", "graph", "--format", "json",
        )
        assert code == 0
        data = json.loads(out)
        assert data["n"] == 11 and len(data["edges"]) == 15  # Lucas cube of order 5

    def test_gen_cube_requires_patterns(self):
        with pytest.raises(SystemExit) as exc:
            main(["export", "--family", "gen-cube", "--n", "4",
                  "--what", "graph", "--format", "dot"])
        assert exc.value.code == 2

    def test_patterns_only_for_gen_cube(self):
        with pytest.raises(SystemExit) as exc:
            main(["export", "--family", "path", "--n", "4", "--patterns", "11",
                  "--what", "graph", "--format", "dot"])
        assert exc.value.code == 2

    def test_hasse_only_for_path_and_cycle(self):
        with pytest.raises(SystemExit) as exc:
            main(["export", "--family", "fib-cube", "--n", "4",
                  "--what", "hasse", "--format", "dot"])
        assert exc.value.code == 2

    def test_h_only_for_path_and_cycle(self):
        with pytest.raises(SystemExit) as exc:
            main(["export", "--family", "fib-cube", "--n", "4", "--h", "1",
                  "--what", "graph", "--format", "dot"])
        assert exc.value.code == 2

    def test_capacity_error_is_usage_error(self, capsys):
        code, out, err = run_cli(
            capsys, "export", "--family", "path", "--n", "65", "--h", "1",
            "--what", "graph", "--format", "json",
        )
        assert code == 2
        assert out == ""
        assert "error" in err

    def test_bad_pattern_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["export", "--family", "gen-cube", "--n", "4", "--patterns", "1,2x",
                  "--what", "graph", "--format", "dot"])
        assert exc.value.code == 2


def _export_args(family, n):
    """Export arguments for a family at order n; path and cycle at h = 2."""
    if family == "gen-cube":
        return ["--family", family, "--n", str(n), "--patterns", "11,101", "--circular"]
    if family in ("path", "cycle"):
        return ["--family", family, "--n", str(n), "--h", "2"]
    return ["--family", family, "--n", str(n)]


def _public_export(family, what, n, patterns=("11", "101"), circular=True):
    """Labels and 1-based edges of an export, read from the public objects
    instead of the CLI's own route; path and cycle at h = 2.

    The h = 2 diagram is read as the cube on the strings avoiding 11 and 101
    (circularly for the cycle), so it comes from the pattern generator and the
    Hamming-1 pairs, not from the diagram builder that the CLI calls."""
    if family in ("path", "cycle") and what == "graph":
        g = (power_path if family == "path" else power_cycle)(n, 2)
        return [str(i) for i in range(1, n + 1)], list(g.edges())
    if family == "fib-cube":
        strings, cube = fibonacci_strings(n), fibonacci_cube(n)
    elif family == "lucas-cube":
        strings, cube = lucas_strings(n), lucas_cube(n)
    else:
        if family in ("path", "cycle"):
            patterns, circular = power_patterns(2), family == "cycle"
        strings = avoiding_strings(n, patterns, circular)
        cube = generalized_cube(n, patterns, circular)
    return [s.to_string() for s in strings], list(cube.edges())


def _dot_text(labels, edges):
    """The DOT layout: a `graph G` block, one quoted label per line, then one
    line per edge, each indented by two spaces."""
    lines = ["graph G {"] + [f'  "{lab}";' for lab in labels]
    lines += [f'  "{labels[i - 1]}" -- "{labels[j - 1]}";' for i, j in edges]
    return "\n".join(lines + ["}"]) + "\n"


def _json_text(labels, edges):
    """The JSON layout: json.dumps's default one of n, labels, 1-based edges."""
    edges = [[i, j] for i, j in edges]
    return json.dumps({"n": len(labels), "labels": labels, "edges": edges}) + "\n"


_LAYOUT_CASES = pytest.mark.parametrize(
    "family, what",
    [("path", "graph"), ("path", "hasse"), ("cycle", "graph"), ("cycle", "hasse"),
     ("fib-cube", "graph"), ("lucas-cube", "graph"), ("gen-cube", "graph")],
)


class TestExportJson:
    """The JSON export prints exactly what json.dumps makes of the public
    object's labels and 1-based edges, in its default layout."""

    @pytest.mark.parametrize("n", [0, 1, 2, 9])
    @_LAYOUT_CASES
    def test_matches_json_dumps(self, capsys, family, what, n):
        labels, edges = _public_export(family, what, n)
        code, out, _ = run_cli(
            capsys, "export", *_export_args(family, n), "--what", what, "--format", "json"
        )
        assert code == 0 and out == _json_text(labels, edges)

    @pytest.mark.parametrize(
        "argv, n, labels",
        [
            (["--family", "path", "--n", "0", "--h", "1", "--what", "graph"], 0, "[]"),
            (["--family", "path", "--n", "1", "--h", "1", "--what", "graph"], 1, '["1"]'),
            (["--family", "cycle", "--n", "2", "--h", "0", "--what", "graph"], 2, '["1", "2"]'),
            (["--family", "fib-cube", "--n", "0", "--what", "graph"], 1, '[""]'),
        ],
    )
    def test_no_edges_print_as_empty_list(self, capsys, argv, n, labels):
        code, out, _ = run_cli(capsys, "export", *argv, "--format", "json")
        assert code == 0 and out == f'{{"n": {n}, "labels": {labels}, "edges": []}}\n'


class TestExportDot:
    @pytest.mark.parametrize("n", [0, 1, 2, 9])
    @_LAYOUT_CASES
    def test_matches_the_spelled_out_layout(self, capsys, family, what, n):
        labels, edges = _public_export(family, what, n)
        code, out, _ = run_cli(
            capsys, "export", *_export_args(family, n), "--what", what, "--format", "dot"
        )
        assert code == 0 and out == _dot_text(labels, edges)


@pytest.mark.parametrize("fmt", ["dot", "json"])
@pytest.mark.parametrize(
    "patterns, n, nodes",
    [("0,1", 1, 0), ("0,1", 9, 0), ("1", 0, 1), ("1", 9, 1)],
    ids=["no-strings-1", "no-strings-9", "no-edges-0", "no-edges-9"],
)
def test_gen_cube_without_strings_or_edges(capsys, patterns, n, nodes, fmt):
    labels, edges = _public_export("gen-cube", "graph", n, patterns.split(","), False)
    assert (len(labels), edges) == (nodes, [])
    code, out, _ = run_cli(
        capsys, "export", "--family", "gen-cube", "--n", str(n), "--patterns", patterns,
        "--what", "graph", "--format", fmt,
    )
    assert code == 0 and out == (_dot_text if fmt == "dot" else _json_text)(labels, edges)


def _child_env():
    """The environment with this checkout's package first on PYTHONPATH."""
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return {**os.environ, "PYTHONPATH": path}


#: Runs the CLI in a fresh process and prints its exit code and peak resident
#: memory (VmHWM, kB) on stderr at exit.
PEAK_SCRIPT = (
    "import sys\n"
    "from indcubes import cli\n"
    "code = cli.main(sys.argv[1:])\n"
    "sys.stdout.flush()\n"
    "with open('/proc/self/status') as f:\n"
    "    hwm = next(line.split()[1] for line in f if line.startswith('VmHWM:'))\n"
    "print(code, hwm, file=sys.stderr)\n"
)


def _peak_kb(argv, code=0):
    """The peak resident memory (kB) of a fresh process running the CLI with
    argv, stdout discarded; the command must exit with `code`."""
    done = subprocess.run(
        [sys.executable, "-c", PEAK_SCRIPT, *argv],
        env=_child_env(), stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
        timeout=120,
    )
    *_, got, peak = done.stderr.split()
    assert got == str(code), done.stderr
    return int(peak)


needs_proc = pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs Linux /proc")


@needs_proc
class TestExportMemory:
    """A fresh process's peak resident memory (VmHWM), read at exit."""

    @staticmethod
    def _fib_cube_dot_kb(n):
        return _peak_kb(["export", "--family", "fib-cube", "--n", str(n), "--what", "graph", "--format", "dot"])

    def test_fib_cube_20_dot_export_grows_by_less_than_12_mb(self):
        # 100,610 edges: 29.5 MB over the n = 2 run when each edge had its
        # own tuple and string, about 20 MB with per-node up-lists and the
        # text built whole, about 7.6 MB with the text written in blocks
        assert self._fib_cube_dot_kb(20) - self._fib_cube_dot_kb(2) < 12_000


@needs_proc
class TestCountMemory:
    """table and seq hold no rows: neither the digit check nor the writing
    keeps more than a block of text, whatever the row count."""

    BASE = ["table", "--family", "path", "--h", "0", "--n-max", "0"]

    @pytest.mark.parametrize(
        "argv, code",
        [
            # fails the digit check at term 14286 (about 13 MB of terms
            # held before the check kept none)
            (["seq", "--kind", "hfib", "--h", "0", "--count", "14300"], 2),
            (["table", "--family", "cycle", "--h", "2", "--n-max", "3000"], 0),
        ],
        ids=["hfib-over-limit", "cycle-table"],
    )
    def test_peaks_within_3_mb_of_a_one_row_table(self, argv, code):
        assert _peak_kb(argv, code) - _peak_kb(self.BASE) < 3_000


class _WriteLog:
    """A stand-in for sys.stdout that keeps each write."""

    def __init__(self):
        self.writes = []

    def write(self, text):
        self.writes.append(text)
        return len(text)

    def flush(self):
        pass


@pytest.mark.parametrize(
    "argv, digest, size",
    [
        (("export", "--family", "fib-cube", "--n", "16", "--what", "graph", "--format", "dot"),
         "a7c2d2573aa31f1d5fa7d50a2947c05217de8ccd4fddddd1faf49f5a928a1a40", 577028),
        (("export", "--family", "fib-cube", "--n", "16", "--what", "graph", "--format", "json"),
         "f99b4c4735b71d9f829e923979b53e76763283e1a38d70b69b603e0a01ccdc20", 205538),
        (("seq", "--kind", "p", "--h", "1", "--count", "4000"),
         "22b13ca26610df9cdd432d9a017ae6300ad4b4bc180e3749ea71c37028b72400", 1678593),
    ],
    ids=["export", "export-json", "seq"],
)
def test_output_is_written_in_pipe_sized_blocks(monkeypatch, argv, digest, size):
    log = _WriteLog()
    monkeypatch.setattr(sys, "stdout", log)
    assert main(list(argv)) == 0
    data = "".join(log.writes).encode()
    assert (hashlib.sha256(data).hexdigest(), len(data)) == (digest, size)
    assert len(log.writes) <= -(-size // 65_536) + 1


class TestWriter:
    """cli._write draws pieces in batches, yet writes what it is given, in
    blocks of at least cli._BLOCK characters but the last."""

    @staticmethod
    def _writes(monkeypatch, pieces):
        log = _WriteLog()
        monkeypatch.setattr(sys, "stdout", log)
        cli._write(iter(pieces))
        return log.writes

    @pytest.mark.parametrize("length", [1, 7, 100, 4096])
    def test_equal_pieces_overshoot_a_block_by_less_than_one_piece(self, monkeypatch, length):
        pieces = [str(i % 10) * length for i in range(3 * cli._BLOCK // length + 5)]
        writes = self._writes(monkeypatch, pieces)
        assert "".join(writes) == "".join(pieces)
        assert all(cli._BLOCK <= len(w) < cli._BLOCK + length for w in writes[:-1])
        assert 0 < len(writes[-1]) < cli._BLOCK + length

    def test_a_piece_longer_than_a_block_is_written_alone(self, monkeypatch):
        pieces = ["a" * (cli._BLOCK + 1), "b" * (2 * cli._BLOCK), "c" * (cli._BLOCK + 3)]
        assert self._writes(monkeypatch, pieces) == pieces

    def test_empty_pieces_do_not_end_the_output(self, monkeypatch):
        # more empty pieces in a row than the largest batch
        pieces = [""] * (3 * cli._BATCH) + ["x"] + [""] * cli._BATCH + ["y" * cli._BLOCK] * 2 + ["z"]
        writes = self._writes(monkeypatch, pieces)
        assert "".join(writes) == "x" + "y" * (2 * cli._BLOCK) + "z"
        assert all(len(w) >= cli._BLOCK for w in writes[:-1])

    def test_nothing_to_write_makes_no_write(self, monkeypatch):
        assert self._writes(monkeypatch, []) == []
        assert self._writes(monkeypatch, [""] * 5) == []


#: Runs the CLI in a fresh process, stdout discarded, and prints its exit code
#: and the indcubes modules and json it loaded, sorted, on stderr at exit.
MODULES_SCRIPT = (
    "import sys\n"
    "from indcubes import cli\n"
    "code = cli.main(sys.argv[1:])\n"
    "sys.stdout.flush()\n"
    "loaded = sorted(m for m in sys.modules if m == 'json' or m.split('.')[0] == 'indcubes')\n"
    "print(code, *loaded, file=sys.stderr)\n"
)


class TestColdStart:
    """Every CLI call is a fresh process, so importing the CLI loads nothing
    that only some commands use."""

    def _run(self, *args):
        return subprocess.run(
            [sys.executable, *args], env=_child_env(), capture_output=True, text=True, timeout=120
        )

    def test_import_loads_no_unused_modules(self):
        script = (
            "import sys\n"
            "before = set(sys.modules)\n"
            "import indcubes.cli\n"
            "print(' '.join(sorted(set(sys.modules) - before)))\n"
        )
        done = self._run("-c", script)
        assert done.returncode == 0, done.stderr
        loaded = set(done.stdout.split())
        assert "indcubes.cli" in loaded
        assert not loaded & {"dataclasses", "inspect", "indcubes.verify", "json"}
        assert not loaded & {"indcubes.counting", "indcubes.cubes", "indcubes.graphs"}

    @pytest.mark.parametrize(
        "argv, modules",
        [
            (["table", "--family", "cycle", "--h", "2", "--n-max", "12", "--per-k"], "counting"),
            (["seq", "--kind", "hfib", "--h", "2", "--count", "20"], "counting"),
            (["export", "--family", "fib-cube", "--n", "5", "--what", "graph", "--format", "dot"], "cubes graphs"),
            (["export", "--family", "path", "--n", "6", "--h", "2", "--what", "hasse", "--format", "json"],
             "cubes graphs"),
        ],
        ids=["table", "seq", "export-dot", "export-json"],
    )
    def test_each_command_loads_only_its_own_modules(self, argv, modules):
        done = self._run("-c", MODULES_SCRIPT, *argv)
        code, *loaded = done.stderr.split()
        assert code == "0", done.stderr
        assert loaded == ["indcubes", "indcubes.cli", *(f"indcubes.{m}" for m in modules.split())]

    def test_verify_still_runs_from_a_fresh_process(self):
        done = self._run(
            "-m", "indcubes", "verify", "--h-max", "1", "--n-max-formula", "10",
            "--n-max-oracle", "4",
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines()[-1] == "overall: PASS"

    @pytest.mark.parametrize(
        "args",
        [
            ["seq", "--kind", "p", "--h", "1", "--count", "4000"],
            ["export", "--family", "fib-cube", "--n", "16", "--what", "graph", "--format", "dot"],
        ],
        ids=["seq", "export"],
    )
    def test_closed_stdout_exits_141_without_a_traceback(self, args):
        # both outputs are far larger than a pipe's buffer, so the reader
        # closes the pipe while the command is still writing
        proc = subprocess.Popen(
            [sys.executable, "-m", "indcubes", *args],
            env=_child_env(),
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
        )
        assert proc.stdout.read(10)
        proc.stdout.close()
        stderr = proc.stderr.read().decode()
        proc.stderr.close()
        assert proc.wait(timeout=120) == 141
        assert "Traceback" not in stderr and "Error" not in stderr, stderr


#: Runs the CLI in a fresh process and exits with its code, or with a
#: message if the CLI left a child process, running or unreaped.
ORPHAN_SCRIPT = (
    "import os, sys\n"
    "from indcubes import cli\n"
    "code = cli.main(sys.argv[1:])\n"
    "try:\n"
    "    os.waitpid(-1, os.WNOHANG)\n"
    "except ChildProcessError:\n"
    "    sys.exit(code)\n"
    "sys.exit('a child process outlived the command')\n"
)


class TestVerifyWorkers:
    """verify runs its checks in forked workers when more than one CPU is
    usable; the report cannot tell."""

    def _run(self, *args, script=ORPHAN_SCRIPT, cpus=None):
        pin = None if cpus is None else (lambda: os.sched_setaffinity(0, cpus))
        # without PYTHONUNBUFFERED, stdout to a pipe is block-buffered, as a user's is
        env = {k: v for k, v in _child_env().items() if k != "PYTHONUNBUFFERED"}
        return subprocess.run(
            [sys.executable, "-c", script, *args],
            env=env, capture_output=True, timeout=300, preexec_fn=pin,
        )

    @pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no CPU affinity")
    @pytest.mark.parametrize("args", [[], ["--json"]], ids=["text", "json"])
    def test_report_pinned_to_one_cpu_is_byte_identical(self, args):
        pinned = self._run("verify", *args, cpus={min(os.sched_getaffinity(0))})
        free = self._run("verify", *args)
        assert (pinned.returncode, pinned.stderr) == (free.returncode, free.stderr) == (0, b"")
        assert pinned.stdout == free.stdout
        if args:
            assert json.loads(free.stdout)["overall"] is True
        else:
            assert len(free.stdout.splitlines()) == len(verify.CHECKS) + 1
            assert free.stdout.endswith(b"\noverall: PASS\n")

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="no os.fork")
    def test_unflushed_output_before_verify_appears_once(self):
        # stdout is a pipe, so the line waits in the buffer that a fork copies
        script = (
            "import os, sys\n"
            "os.sched_getaffinity = lambda pid: {0, 1}  # fork a worker whatever the host\n"
            "sys.stdout.write('written before verify\\n')\n"
        ) + ORPHAN_SCRIPT
        done = self._run(
            "verify", "--h-max", "1", "--n-max-formula", "10", "--n-max-oracle", "4", script=script
        )
        assert (done.returncode, done.stderr) == (0, b"")
        lines = done.stdout.decode().splitlines()
        assert lines[0] == "written before verify"
        assert done.stdout.count(b"written before verify") == 1
        assert len(lines) == len(verify.CHECKS) + 2 and lines[-1] == "overall: PASS"


def _twin_cases():
    """(string route, Hasse route) export arguments that must print the same
    labelled graph: the cube families against the order-h diagrams."""
    for n in range(13):
        yield ["--family", "fib-cube", "--n", str(n)], ["--family", "path", "--n", str(n), "--h", "1"]
    for n in range(2, 13):
        yield ["--family", "lucas-cube", "--n", str(n)], ["--family", "cycle", "--n", str(n), "--h", "1"]
    for h in (2, 3):
        patterns = ",".join(power_patterns(h))
        for n in range(13):
            yield (
                ["--family", "gen-cube", "--n", str(n), "--patterns", patterns, "--circular"],
                ["--family", "cycle", "--n", str(n), "--h", str(h)],
            )


class TestExportCollector:
    """export switches the cyclic collector off while it runs and leaves it
    as it found it, also when the export fails."""

    ARGV = ["export", "--family", "fib-cube", "--n", "4", "--what", "graph", "--format", "dot"]

    @pytest.mark.parametrize("enabled", [True, False])
    def test_collector_state_is_restored(self, capsys, monkeypatch, enabled):
        seen = []
        real = cli._export_pieces
        monkeypatch.setattr(cli, "_export_pieces", lambda args: seen.append(gc.isenabled()) or real(args))
        (gc.enable if enabled else gc.disable)()
        try:
            assert main(self.ARGV) == 0
            assert gc.isenabled() == enabled
        finally:
            gc.enable()
        assert seen == [False]

    def test_collector_is_back_on_after_a_usage_error(self, capsys):
        assert main(["export", "--family", "fib-cube", "--n", "21", "--what", "graph", "--format", "dot"]) == 2
        assert gc.isenabled()


def _script_target():
    """(module, function) of the `indcubes` entry of [project.scripts]."""
    text = (Path(cli.__file__).resolve().parents[2] / "pyproject.toml").read_text()
    return re.search(r'^indcubes = "([\w.]+):(\w+)"$', text, re.M).groups()


def _entry_points():
    """The argv prefix of each way to start the CLI as a process; the script
    runs its target as the wrapper pip installs for it does."""
    module, function = _script_target()
    return {
        "python -m indcubes": ["-m", "indcubes"],
        "python -m indcubes.cli": ["-m", "indcubes.cli"],
        "indcubes script": ["-c", f"import sys; from {module} import {function}; sys.exit({function}())"],
    }


class TestEntryPoints:
    """Every way to start the CLI as a process prints the same bytes, exits
    with the same code, and freezes the heap at exit; `main` run in-process
    freezes nothing."""

    @pytest.mark.parametrize(
        "argv, code, least",
        [
            (["table", "--family", "cycle", "--h", "2", "--n-max", "12", "--per-k"], 0, 1),
            # written in more than one block
            (["export", "--family", "fib-cube", "--n", "14", "--what", "graph", "--format", "dot"], 0,
             cli._BLOCK + 1),
            (["export", "--family", "fib-cube", "--n", "3", "--what", "hasse", "--format", "dot"], 2, 0),
            (["export", "--family", "fib-cube", "--n", "21", "--what", "graph", "--format", "dot"], 2, 0),
        ],
        ids=["table", "export-dot", "parser-error", "capacity-error"],
    )
    def test_entry_points_agree(self, argv, code, least):
        runs = {
            name: subprocess.run(
                [sys.executable, *prefix, *argv], env=_child_env(), capture_output=True, timeout=120
            )
            for name, prefix in _entry_points().items()
        }
        outcomes = {(done.returncode, done.stdout, done.stderr) for done in runs.values()}
        assert len(outcomes) == 1, runs
        got, out, err = outcomes.pop()
        assert (got, len(out) >= least, bool(out), bool(err)) == (code, True, not code, bool(code))

    def test_closed_stdout_exits_141_from_every_entry_point(self):
        argv = ["export", "--family", "fib-cube", "--n", "16", "--what", "graph", "--format", "dot"]
        outcomes = set()
        for prefix in _entry_points().values():
            proc = subprocess.Popen(
                [sys.executable, *prefix, *argv],
                env=_child_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            )
            head = proc.stdout.read(10)
            proc.stdout.close()
            stderr = proc.stderr.read()
            proc.stderr.close()
            outcomes.add((proc.wait(timeout=120), head, stderr))
        assert outcomes == {(141, b"graph G {\n", b"")}

    @pytest.mark.parametrize("name", list(_entry_points()))
    @pytest.mark.parametrize("argv", [["seq", "--kind", "p", "--h", "1", "--count", "5"], ["bogus"]])
    def test_each_entry_point_freezes_the_heap_at_exit(self, name, argv):
        # an exit hook runs before the final collection; `-m` is replayed by runpy
        prefix = _entry_points()[name]
        start = (
            f"runpy.run_module({prefix[1]!r}, run_name='__main__', alter_sys=True)"
            if prefix[0] == "-m" else prefix[1]
        )
        script = (
            "import atexit, gc, runpy, sys\n"
            "atexit.register(lambda: print('frozen', gc.get_freeze_count(), file=sys.stderr))\n"
            f"sys.argv[1:] = {argv!r}\n"
            f"{start}\n"
        )
        done = subprocess.run(
            [sys.executable, "-c", script], env=_child_env(), capture_output=True, text=True, timeout=120
        )
        *_, word, count = done.stderr.split()
        assert word == "frozen" and int(count) > 0, done.stderr

    @pytest.mark.parametrize("enabled", [True, False])
    @pytest.mark.parametrize(
        "argv",
        [
            ["table", "--family", "path", "--h", "1", "--n-max", "9"],
            ["export", "--family", "fib-cube", "--n", "4", "--what", "graph", "--format", "json"],
            ["seq", "--kind", "p", "--h", "-1", "--count", "4"],
        ],
        ids=["table", "export", "usage-error"],
    )
    def test_main_in_process_freezes_nothing(self, capsys, argv, enabled):
        assert gc.get_freeze_count() == 0
        (gc.enable if enabled else gc.disable)()
        try:
            try:
                main(argv)
            except SystemExit:
                pass
            assert gc.get_freeze_count() == 0
            assert gc.isenabled() == enabled
        finally:
            gc.enable()


class TestTwinExports:
    @pytest.mark.parametrize("fmt", ["dot", "json"])
    def test_cube_and_hasse_routes_print_the_same_bytes(self, capsys, fmt):
        for cube, hasse in _twin_cases():
            code, by_strings, err = run_cli(capsys, "export", *cube, "--what", "graph", "--format", fmt)
            assert (code, err) == (0, ""), cube
            code, by_hasse, err = run_cli(capsys, "export", *hasse, "--what", "hasse", "--format", fmt)
            assert (code, err) == (0, ""), hasse
            assert by_strings == by_hasse, (cube, hasse)
            if fmt == "json":
                edges = [tuple(e) for e in json.loads(by_strings)["edges"]]
                assert all(a < b for a, b in zip(edges, edges[1:])), cube
                assert all(i < j for i, j in edges), cube


class TestDeterminism:
    @pytest.mark.parametrize(
        "argv",
        [
            ["table", "--family", "cycle", "--h", "2", "--n-max", "12", "--per-k"],
            ["seq", "--kind", "hfib", "--h", "3", "--count", "30"],
            ["export", "--family", "lucas-cube", "--n", "6", "--what", "graph",
             "--format", "dot"],
        ],
    )
    def test_repeat_runs_match(self, capsys, argv):
        _, first, _ = run_cli(capsys, *argv)
        _, second, _ = run_cli(capsys, *argv)
        assert first == second


#: (argv, SHA-256 of stdout, stdout length in bytes) for a fixed list of
#: commands: default `verify` and two smaller sweeps, `table` for both
#: families with and without per-size columns, `seq` for every kind, and
#: `export` for every family in both formats at n = 7. A refactor must leave
#: every byte of them as it is.
GOLDEN_STDOUT = (
    (("verify",),
     "77401eeb99f86e944d54b089e737d333e753b905d013dd7b2d7f96e70952d22f", 1235),
    (("verify", "--h-max", "2", "--n-max-formula", "60", "--n-max-oracle", "8", "--json"),
     "26de987758822e26a9429e7feaf6b54f729685c3a6a979c1a3c99e5c6133979e", 3585),
    (("verify", "--h-max", "0", "--n-max-oracle", "4"),
     "7e21a55f1f63356066320114813457285ad313052bf074c7f71050b41d6d4f8e", 1218),
    (("table", "--family", "path", "--h", "2", "--n-max", "30"),
     "c9a6395dda519d09b44c6bacc0ac2a730173ff73ec9084e0f02850b727b775f7", 365),
    (("table", "--family", "path", "--h", "2", "--n-max", "30", "--per-k"),
     "2c52ced8eb5d48ee9477f887ad169b1e8d12e2c409550525799fd4fbba1927df", 1370),
    (("table", "--family", "cycle", "--h", "2", "--n-max", "30"),
     "2add17a8b16349b421a200c004b4d31fef43751819a6bd65b126b63d0994696b", 357),
    (("table", "--family", "cycle", "--h", "2", "--n-max", "30", "--per-k"),
     "257869e206913caff0d5f06f0713bdd904a339b4ca664cb35df84fa234285ad9", 1332),
    (("seq", "--kind", "hfib", "--h", "2", "--count", "40"),
     "9b94eae3739dd70976038c518eb6fb45cd82731106f40043b35374bd7cf0f4ed", 182),
    (("seq", "--kind", "p", "--h", "2", "--count", "40"),
     "947ff3a2586910130f71414d3072000d2e2f412edb52b8d4f5861f538b1e104d", 200),
    (("seq", "--kind", "q", "--h", "2", "--count", "40"),
     "38f4149517e4b1c27f0da0d493866db61d6d8526492e141134930ac2c4254480", 195),
    (("seq", "--kind", "hedges", "--h", "2", "--count", "40"),
     "3b4fabfc062bb65659e6e613ab5887da71c14840fd6771f6aa02de02621614a2", 223),
    (("seq", "--kind", "medges", "--h", "2", "--count", "40"),
     "07c58c5026a6ff756eb6f2b5ed73040ebad38793fb077d5fffb7b0731999d436", 217),
    (("export", "--family", "path", "--n", "7", "--h", "2", "--what", "graph", "--format", "dot"),
     "ba462b79e142866b580c3679b4fa7cdb5a462d271dea12d409e0c5b659a5b1cf", 215),
    (("export", "--family", "path", "--n", "7", "--h", "2", "--what", "hasse", "--format", "dot"),
     "c716a6a6961c363abb9c1c3bdf39b9210760a538ecfe6bcfa40fdeaf1c832895", 1039),
    (("export", "--family", "cycle", "--n", "7", "--h", "2", "--what", "graph", "--format", "dot"),
     "49bf8e4458875dd1d9968e71560d8a9c7b726bdec941dc3f4170604df864b09a", 257),
    (("export", "--family", "cycle", "--n", "7", "--h", "2", "--what", "hasse", "--format", "dot"),
     "bdb7bd4f8c014bef3d554407d8cd101e78994d290dd65d8987d68a4b32c23196", 753),
    (("export", "--family", "fib-cube", "--n", "7", "--what", "graph", "--format", "dot"),
     "a0c92c6957f7c8f4a5fe1ed5a209a93ddcbd35ecfcadc026b559c29c8a32f089", 2300),
    (("export", "--family", "lucas-cube", "--n", "7", "--what", "graph", "--format", "dot"),
     "63df4b0534590d58a17684b97f95dc02750fae40d02967ab17920621e44f93eb", 1845),
    (("export", "--family", "gen-cube", "--n", "7", "--patterns", "11,101", "--circular",
      "--what", "graph", "--format", "dot"),
     "bdb7bd4f8c014bef3d554407d8cd101e78994d290dd65d8987d68a4b32c23196", 753),
    (("export", "--family", "gen-cube", "--n", "7", "--patterns", "11,101",
      "--what", "graph", "--format", "dot"),
     "c716a6a6961c363abb9c1c3bdf39b9210760a538ecfe6bcfa40fdeaf1c832895", 1039),
    (("export", "--family", "gen-cube", "--n", "7", "--patterns", "11,101",
      "--what", "graph", "--format", "json"),
     "e3974db2878d5fe6e93c7269696eeb4f9c9d5a430f6f171d83d0ca3e426da57f", 505),
    (("export", "--family", "gen-cube", "--n", "3", "--patterns", "11,1001", "--circular",
      "--what", "graph", "--format", "dot"),
     "8abf81471af54e2532010934d04ccea82fac39b6225641dbe7702f113af54b8e", 102),
    (("export", "--family", "path", "--n", "7", "--h", "2", "--what", "graph", "--format", "json"),
     "78822ac49ed18ff590124ed2af3482b34b1b143f1c2b5ae559f2c2082e5d1f26", 155),
    (("export", "--family", "path", "--n", "7", "--h", "2", "--what", "hasse", "--format", "json"),
     "e3974db2878d5fe6e93c7269696eeb4f9c9d5a430f6f171d83d0ca3e426da57f", 505),
    (("export", "--family", "cycle", "--n", "7", "--h", "2", "--what", "graph", "--format", "json"),
     "80fecec33a4d9e000deaa469317997551cdf784b7668f060940b049217b5d8cd", 179),
    (("export", "--family", "cycle", "--n", "7", "--h", "2", "--what", "hasse", "--format", "json"),
     "3a9a5ab32b60a55a871db9eabc3be3e795fc8747b4ee1209c8b9b4ff8accd2f7", 378),
    (("export", "--family", "fib-cube", "--n", "7", "--what", "graph", "--format", "json"),
     "b3214f6c4287deda36ff1e2aad632f4bbcfe9eddb2f435d4781597464917553c", 1068),
    (("export", "--family", "lucas-cube", "--n", "7", "--what", "graph", "--format", "json"),
     "66f34005f72c52f866411f79f1507453b760e3938a973a5bb3f7c2c79fb8ce5f", 866),
    (("export", "--family", "gen-cube", "--n", "7", "--patterns", "11,101", "--circular",
      "--what", "graph", "--format", "json"),
     "3a9a5ab32b60a55a871db9eabc3be3e795fc8747b4ee1209c8b9b4ff8accd2f7", 378),
)


class TestGoldenStdout:
    @pytest.mark.parametrize(
        "argv, digest, size", GOLDEN_STDOUT, ids=[" ".join(argv) for argv, _, _ in GOLDEN_STDOUT]
    )
    def test_stdout_matches_its_pinned_digest(self, capsys, argv, digest, size):
        code, out, err = run_cli(capsys, *argv)
        assert (code, err) == (0, "")
        data = out.encode()
        assert (hashlib.sha256(data).hexdigest(), len(data)) == (digest, size)
