import types

import pytest

from indcubes import counting, cubes, graphs, verify

DEFAULT_REPORT = [
    "PASS  path-oracle-agreement  [h<=4, n<=14]",
    "PASS  cycle-oracle-agreement  [h<=4, n<=14]",
    "PASS  path-subgraph-of-cycle  [h<=4, n<=14]",
    "PASS  cycle-degree-regular  [h<=4, n<=14]",
    "PASS  enumeration-order-strict  [h<=4, n<=14]",
    "PASS  independence-matches-enumeration  [h<=4, n<=14]",
    "PASS  containing-vertex-row-sum  [h<=4, n<=14]",
    "PASS  containing-vertex-column-sum  [h<=4, n<=14]",
    "PASS  bijection-roundtrip  [h<=3, n<=14]",
    "PASS  hasse-cover-grading  [h<=4, n<=14]",
    "PASS  path-cover-counts  [h<=4, n<=14]",
    "PASS  cycle-cover-counts  [h<=4, n<=14]",
    "PASS  fibonacci-cube-structure  [h<=1, n<=14]",
    "PASS  lucas-cube-structure  [h<=1, n<=14]",
    "PASS  pattern-cube-identity  [h<=3, n<=14]",
    "PASS  single-pattern-cube-identity  [h<=1, n<=14]",
    "PASS  cube-edges-comparable  [h<=1, n<=14]",
    "PASS  path-recurrence-agreement  [h<=4, n<=200]",
    "PASS  cycle-recurrence-agreement  [h<=4, n<=200]",
    "PASS  edge-convolution-agreement  [h<=4, n<=200]",
    "PASS  edge-closed-form-agreement  [h<=4, n<=200]",
    "PASS  hfib-prefix-structure  [h<=4, n<=200]",
    "PASS  order-reduction-identity  [h<=4, n<=50]",
    "PASS  cycle-decomposition-identity  [h<=4, n<=200]",
    "PASS  classic-sequence-identities  [h<=1, n<=200]",
    "PASS  boolean-lattice-counts  [h<=0, n<=200]",
    "PASS  divisibility  [h<=4, n<=400]",
    "overall: PASS",
]


def _recording_checks(monkeypatch):
    """Replace every check with a stub that records the (h_max, n_max) it
    was called with and passes; returns check name -> recorded bounds."""
    calls = {}

    def stub(name):
        def record(h_max, n_max):
            calls[name] = (h_max, n_max)

        return record

    monkeypatch.setattr(
        verify, "CHECKS", tuple((name, bounds, stub(name)) for name, bounds, _ in verify.CHECKS)
    )
    return calls


def test_small_sweep_passes():
    report = verify.run_all(h_max=2, n_max_formula=40, n_max_oracle=8)
    assert report.overall
    assert all(c.ok and c.counterexample is None for c in report.checks)


def test_divisibility_at_full_range():
    assert verify.check_divisibility(h_max=8, n_max=400) is None


def test_default_ranges_pass():
    # the documented default sweep: h<=4, formulas to 200, enumeration to 14
    report = verify.run_all()
    assert report.overall
    assert report.render_text().split("\n") == DEFAULT_REPORT


def test_params_are_the_bounds_each_check_swept(monkeypatch):
    calls = _recording_checks(monkeypatch)
    report = verify.run_all(9, 70, 16)
    assert len(calls) == len(report.checks) == len(verify.CHECKS)
    for c in report.checks:
        h, n = calls[c.name]
        assert c.params == f"h<={h}, n<={n}"


@pytest.mark.parametrize("bounds", [(-1, -1, -1), (-1, 200, 14), (4, -1, 14), (4, 200, -1)])
def test_negative_bounds_rejected_before_any_check(monkeypatch, bounds):
    calls = _recording_checks(monkeypatch)
    with pytest.raises(ValueError):
        verify.run_all(*bounds)
    assert calls == {}


def test_oracle_bound_over_cube_cap_rejected_before_any_check(monkeypatch):
    calls = _recording_checks(monkeypatch)
    with pytest.raises(graphs.CapacityError, match="cap of 20"):
        verify.run_all(4, 200, 21)
    assert calls == {}
    verify.run_all(4, 200, 20)
    assert len(calls) == len(verify.CHECKS)


def test_report_shape():
    report = verify.run_all(h_max=1, n_max_formula=10, n_max_oracle=5)
    names = [c.name for c in report.checks]
    assert len(names) == len(set(names)) == len(verify.CHECKS)
    d = report.to_dict()
    assert d["overall"] is True
    assert len(d["checks"]) == len(verify.CHECKS)
    text = report.render_text()
    assert text.count("PASS") == len(verify.CHECKS) + 1  # one per check + overall
    assert text.splitlines()[-1] == "overall: PASS"


def test_overall_is_conjunction():
    good = verify.CheckResult("a", "r", True)
    bad = verify.CheckResult("b", "r", False, "n=1")
    assert verify.VerificationReport((good, good)).overall
    assert not verify.VerificationReport((good, bad)).overall


def test_injected_mutation_is_caught(monkeypatch):
    # An off-by-one binomial must fail with a concrete counterexample.
    real = counting.binom
    monkeypatch.setattr(counting, "binom", lambda m, k: real(m, k + 1) if k > 0 else real(m, k))
    report = verify.run_all(h_max=2, n_max_formula=20, n_max_oracle=6)
    assert not report.overall
    failed = [c for c in report.checks if not c.ok]
    assert failed
    assert all(c.counterexample for c in failed)
    text = report.render_text()
    assert "FAIL" in text and "counterexample" in text
    assert text.splitlines()[-1] == "overall: FAIL"


def test_mutated_totals_are_caught(monkeypatch):
    real = counting.path_count
    monkeypatch.setattr(counting, "path_count", lambda n, h: real(n, h) + (n == 5))
    report = verify.run_all(h_max=1, n_max_formula=20, n_max_oracle=6)
    assert not report.overall
    first_bad = next(c for c in report.checks if not c.ok)
    assert "n=5" in (first_bad.counterexample or "")


def _off_by_one(monkeypatch, module, name, at):
    """Make module.name return one more than the real route at the arguments `at`."""
    real = getattr(module, name)
    monkeypatch.setattr(module, name, lambda *args: real(*args) + (args == at))


def _frozen(monkeypatch, module, name, h_max, n_max):
    """Replace module.name(n, h) by a table of its current values, so that a
    later mutation of the routes it calls does not reach it."""
    fn = getattr(module, name)
    table = {(n, h): fn(n, h) for h in range(h_max + 1) for n in range(n_max + 1)}
    monkeypatch.setattr(module, name, lambda n, h: table[(n, h)])


@pytest.mark.parametrize(
    "check, route, at, bounds, counterexample",
    [
        ("check_path_oracle", "path_count", (5, 1), (1, 6), "n=5 h=1: total 13 != 14"),
        ("check_cycle_oracle", "cycle_count", (6, 2), (2, 7), "n=6 h=2: total 10 != 11"),
        (
            "check_path_cover_counts",
            "path_hasse_edges_conv",
            (6, 2),
            (2, 8),
            "n=6 h=2: covers=18 sum=18 conv=19",
        ),
        (
            "check_cycle_cover_counts",
            "cycle_hasse_edges_closed",
            (7, 2),
            (2, 8),
            "n=7 h=2: covers=21 sum=21 closed=22",
        ),
        ("check_path_recurrence", "path_count_rec", (9, 3), (3, 12), "n=9 h=3: 26 != 27"),
        ("check_cycle_recurrence", "cycle_count_rec", (9, 3), (3, 12), "n=9 h=3: 19 != 20"),
        (
            "check_closed_form_agreement",
            "cycle_hasse_edges_closed",
            (7, 2),
            (2, 8),
            "n=7 h=2: sum 21 != closed 22",
        ),
    ],
)
def test_counterexample_text(monkeypatch, check, route, at, bounds, counterexample):
    _off_by_one(monkeypatch, counting, route, at)
    assert getattr(verify, check)(*bounds) == counterexample


@pytest.mark.parametrize(
    "check, total, count_k, at, bounds, counterexample",
    [
        (
            "check_path_oracle",
            "path_count",
            "path_count_k",
            (6, 1, 2),
            (1, 7),
            "n=6 h=1 k=2: enumerated 10 != 11",
        ),
        (
            "check_cycle_oracle",
            "cycle_count",
            "cycle_count_k",
            (7, 2, 2),
            (2, 8),
            "n=7 h=2 k=2: enumerated 7 != 8",
        ),
    ],
)
def test_per_size_counterexample_text(monkeypatch, check, total, count_k, at, bounds, counterexample):
    _frozen(monkeypatch, counting, total, *bounds)
    _off_by_one(monkeypatch, counting, count_k, at)
    assert getattr(verify, check)(*bounds) == counterexample


def test_enumeration_order_counterexample_text(monkeypatch):
    real = graphs.enumerate_independent
    cycle = graphs.power_cycle(4, 1)
    monkeypatch.setattr(
        graphs, "enumerate_independent", lambda g: real(g)[::-1] if g == cycle else real(g)
    )
    assert verify.check_enumeration_order(1, 5) == "n=4 h=1 cyclic=True: output not strictly sorted"


def test_membership_counterexample_text(monkeypatch):
    real = graphs.is_independent
    monkeypatch.setattr(
        graphs, "is_independent", lambda g, s: True if (s.n, s.bits) == (3, 0b101) else real(g, s)
    )
    assert verify.check_membership_equivalence(1, 4) == "n=3 h=1 cyclic=True mask=101"


@pytest.mark.parametrize(
    "tamper, counterexample",
    [
        (
            lambda masks, covers: (masks, covers[:-1]),
            "n=5 h=1 cyclic=True: covers 14 != weighted levels 15",
        ),
        (
            lambda masks, covers: (masks, [covers[0][::-1]] + covers[1:]),
            "n=5 h=1 cyclic=True: bad cover 10000 -> 00000",
        ),
        (
            lambda masks, covers: (masks[1:2] + masks[1:], covers),
            "n=5 h=1 cyclic=True: level 0 is not [empty]",
        ),
    ],
)
def test_hasse_grading_counterexample_text(monkeypatch, tamper, counterexample):
    real = cubes._hasse_masks
    cycle = graphs.power_cycle(5, 1)

    def tampered(g):
        masks, covers = real(g)
        return tamper(masks, covers) if g == cycle else (masks, covers)

    monkeypatch.setattr(cubes, "_hasse_masks", tampered)
    assert verify.check_hasse_grading(1, 6) == counterexample


def test_pattern_cube_counterexample_text(monkeypatch):
    real = cubes.avoiding_strings
    def tampered(n, patterns, circular=False):
        strings = real(n, patterns, circular)
        return strings[:-1] if (n, circular) == (6, True) else strings

    monkeypatch.setattr(cubes, "avoiding_strings", tampered)
    assert verify.check_pattern_cubes(2, 7) == "n=6 h=2 circular=True: vertex sets differ"


def test_checks_are_public_module_functions():
    # perfbench/trace_child.py finds each check in verify under its own
    # __name__ and rebinds it there; a partial or lambda would escape it.
    for name, _, fn in verify.CHECKS:
        assert isinstance(fn, types.FunctionType), name
        assert fn.__module__ == verify.__name__, name
        assert not fn.__name__.startswith("_"), name
        assert getattr(verify, fn.__name__) is fn, name


@pytest.mark.parametrize(
    "check", ["check_hasse_grading", "check_path_cover_counts", "check_cycle_cover_counts"]
)
def test_cover_checks_count_from_masks(monkeypatch, check):
    def refuse(g):
        raise AssertionError("built a PosetDiagram only to count it")

    monkeypatch.setattr(cubes, "hasse_diagram", refuse)
    assert getattr(verify, check)(2, 8) is None
