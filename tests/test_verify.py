import pytest

from indcubes import counting, graphs, verify

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
