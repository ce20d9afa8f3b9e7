import ast
import io
import itertools
import math
import os
import signal
import threading
import time
import types
from pathlib import Path

import pytest

from indcubes import cli, counting, cubes, graphs, verify

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


@pytest.fixture(autouse=True)
def no_process_left_behind():
    """run_all may fork workers; none may outlive the test, running or unreaped."""
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _recording_checks(monkeypatch, tmp_path, in_worker=None, in_parent=lambda name: None):
    """Replace every check with a stub that appends its name, the (h_max,
    n_max) it was called with and its process id to a file under tmp_path,
    which every process of run_all can reach, then passes. If in_worker is
    given, a stub run in a forked worker returns in_worker(name), and a stub
    run in the calling process waits until a worker has recorded a call, so
    that the workers take checks, then returns in_parent(name). Returns a
    reader of the calls so far, as (name, h_max, n_max, pid) tuples in call
    order."""
    log = tmp_path / "calls"
    log.touch()
    parent = os.getpid()

    def recorded():
        return [
            (name, int(h), int(n), int(pid))
            for name, h, n, pid in map(str.split, log.read_text().splitlines())
        ]

    def stub(name):
        def record(h_max, n_max):
            with open(log, "a") as f:
                f.write(f"{name} {h_max} {n_max} {os.getpid()}\n")
            if in_worker is None:
                return None
            if os.getpid() != parent:
                return in_worker(name)
            deadline = time.monotonic() + 60
            while all(pid == parent for *_, pid in recorded()):
                assert time.monotonic() < deadline, "no worker took a check"
                time.sleep(0.005)
            return in_parent(name)

        return record

    monkeypatch.setattr(
        verify, "CHECKS", tuple((name, bounds, stub(name)) for name, bounds, _ in verify.CHECKS)
    )
    return recorded


def test_small_sweep_passes():
    report = verify.run_all(h_max=2, n_max_formula=40, n_max_oracle=8)
    assert report.overall
    assert all(c.ok and c.counterexample is None for c in report.checks)


def test_divisibility_at_full_range():
    assert verify.check_divisibility(h_max=8, n_max=400) is None


def test_divisibility_walk_equals_binom_at_every_cell():
    # each sweep compares every walked column with binom at its own n_max,
    # so together they compare every cell
    for n_max in range(60):
        assert verify.check_divisibility(h_max=4, n_max=n_max) is None


def test_divisibility_names_the_first_non_divisible_cell(monkeypatch):
    monkeypatch.setattr(counting, "binom", lambda m, k: 3)
    assert verify.check_divisibility(h_max=4, n_max=400) == "n=1 h=0 k=2"


@pytest.mark.parametrize(
    "cell, wrong, counterexample",
    [
        # the seed of column k = 3 at h = 0 is C(1, 2) = 0; a seed of k keeps
        # every cell divisible and multiplies the walk by k + 1
        ((1, 2), 3, f"n=20 h=0 k=3: walked {4 * math.comb(19, 2)} != binom {math.comb(19, 2)}"),
        # C(19, 4) is read only at the close of column k = 5
        ((19, 4), 0, f"n=20 h=0 k=5: walked {math.comb(19, 4)} != binom 0"),
    ],
    ids=["seed", "close"],
)
def test_divisibility_reports_a_seed_or_close_fault_at_the_close(
    monkeypatch, cell, wrong, counterexample
):
    real = counting.binom
    monkeypatch.setattr(counting, "binom", lambda m, k: wrong if (m, k) == cell else real(m, k))
    assert verify.check_divisibility(h_max=2, n_max=20) == counterexample


@pytest.mark.parametrize("h_max, n_max", [(0, 0), (4, 400), (8, 400)])
def test_divisibility_calls_binom_twice_per_column(monkeypatch, h_max, n_max):
    """Once where a column enters the sweep, once at its close."""
    calls = _counted(monkeypatch, [((counting,), "binom")])
    assert verify.check_divisibility(h_max, n_max) is None
    assert calls["binom"] == 2 * sum(counting._max_size(n_max, h) for h in range(h_max + 1))


@pytest.mark.parametrize("cell", [(4, 2), (30, 7)])
def test_one_cell_binom_fault_fails_default_verify(monkeypatch, cell):
    real = counting.binom
    monkeypatch.setattr(counting, "binom", lambda m, k: real(m, k) + ((m, k) == cell))
    report = verify.run_all()
    assert not report.overall
    assert {c.name for c in report.checks if not c.ok} - {"divisibility"}


def _bumped_comb(monkeypatch, cell):
    """Make the binomial primitive counting._comb one too large at `cell`."""
    real = counting._comb
    monkeypatch.setattr(counting, "_comb", lambda m, k: real(m, k) + ((m, k) == cell))


@pytest.mark.parametrize(
    "check, cell, counterexample",
    [
        ("check_path_recurrence", (5, 1), "n=5 h=0: 33 != 32"),
        ("check_cycle_recurrence", (5, 1), "n=6 h=0: 67 != 64"),
        ("check_path_recurrence", (30, 7), f"n=30 h=0: {2**30 + 1} != {2**30}"),
    ],
)
def test_one_cell_primitive_fault_reaches_the_sums(monkeypatch, check, cell, counterexample):
    # the sums map counting._comb, so one bad cell shows in their totals
    _bumped_comb(monkeypatch, cell)
    assert getattr(verify, check)(4, 200) == counterexample


def test_indivisible_primitive_names_the_cycle_cell(monkeypatch, capsys):
    # 5 * (C(4, 2) + 1) = 35 is not divisible by k = 3
    _bumped_comb(monkeypatch, (4, 2))
    message = "divisibility invariant violated: 3 does not divide 35 (n=5, h=0, k=3)"
    routes = (
        lambda: counting.cycle_count(5, 0),
        lambda: counting.cycle_count_k(5, 0, 3),
        lambda: verify.check_cycle_recurrence(4, 200),
    )
    for route in routes:
        with pytest.raises(ArithmeticError) as exc:
            route()
        assert str(exc.value) == message
    assert cli.main(["verify"]) == 1
    out = capsys.readouterr().out
    assert "FAIL  cycle-recurrence-agreement  [h<=4, n<=200]" in out
    assert f"exception: {message}" in out
    assert out.splitlines()[-1] == "overall: FAIL"


def test_default_ranges_pass():
    # the documented default sweep: h<=4, formulas to 200, enumeration to 14
    report = verify.run_all()
    assert report.overall
    assert report.render_text().split("\n") == DEFAULT_REPORT


def test_params_are_the_bounds_each_check_swept(monkeypatch, tmp_path):
    recorded = _recording_checks(monkeypatch, tmp_path)
    report = verify.run_all(9, 70, 16)
    calls = {name: (h, n) for name, h, n, _ in recorded()}
    assert len(recorded()) == len(calls) == len(report.checks) == len(verify.CHECKS)
    for c in report.checks:
        h, n = calls[c.name]
        assert c.params == f"h<={h}, n<={n}"


@pytest.mark.parametrize("bounds", [(-1, -1, -1), (-1, 200, 14), (4, -1, 14), (4, 200, -1)])
def test_negative_bounds_rejected_before_any_check(monkeypatch, tmp_path, bounds):
    recorded = _recording_checks(monkeypatch, tmp_path)
    with pytest.raises(ValueError):
        verify.run_all(*bounds)
    assert recorded() == []


def test_oracle_bound_over_cube_cap_rejected_before_any_check(monkeypatch, tmp_path):
    recorded = _recording_checks(monkeypatch, tmp_path)
    with pytest.raises(graphs.CapacityError, match="cap of 20"):
        verify.run_all(4, 200, 21)
    assert recorded() == []
    verify.run_all(4, 200, 20)
    assert len(recorded()) == len({name for name, *_ in recorded()}) == len(verify.CHECKS)


def _two_cpus(monkeypatch):
    """Make run_all see two usable CPUs, so that it forks one worker whatever
    the host has; skip where processes cannot be forked."""
    if not hasattr(os, "fork"):
        pytest.skip("no os.fork")
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)


def _expected_report(failed):
    """DEFAULT_REPORT with the checks in `failed` (name -> counterexample) failing."""
    lines = []
    for (name, _, _), line in zip(verify.CHECKS, DEFAULT_REPORT):
        if name in failed:
            line = f"FAIL{line[4:]}  counterexample: {failed[name]}"
        lines.append(line)
    return lines + [f"overall: {'FAIL' if failed else 'PASS'}"]


def _raise(exc):
    raise exc


def _taken_by_workers(recorded):
    """The names of the checks run in a worker, once it is asserted that
    every check was run exactly once."""
    calls = recorded()
    names = [name for name, *_ in calls]
    assert sorted(names) == sorted(name for name, _, _ in verify.CHECKS)
    return {name for name, *_, pid in calls if pid != os.getpid()}


def test_a_check_raising_in_a_worker_reports_its_own_exception(monkeypatch, tmp_path):
    _two_cpus(monkeypatch)

    def boom(name):
        raise RuntimeError(f"{name} blew up")

    recorded = _recording_checks(monkeypatch, tmp_path, in_worker=boom)
    report = verify.run_all()
    in_worker = _taken_by_workers(recorded)
    assert in_worker
    failed = {name: f"exception: {name} blew up" for name in in_worker}
    assert report.render_text().splitlines() == _expected_report(failed)


@pytest.mark.parametrize(
    "end, status",
    [
        (lambda: os._exit(9), 9),
        (lambda: os._exit(0), 0),  # a clean exit before reporting is a loss too
        (lambda: os.kill(os.getpid(), signal.SIGKILL), -signal.SIGKILL),
    ],
    ids=["exit-9", "exit-0", "sigkill"],
)
def test_a_lost_worker_fails_only_the_checks_it_took(monkeypatch, tmp_path, capsys, end, status):
    _two_cpus(monkeypatch)
    recorded = _recording_checks(monkeypatch, tmp_path, in_worker=lambda name: end())
    assert cli.main(["verify"]) == 1
    lines = capsys.readouterr().out.splitlines()
    # the one worker ends inside the first check it takes; this process
    # takes every other check, and reports each
    in_worker = _taken_by_workers(recorded)
    assert len(in_worker) == 1
    failed = {name: f"worker process lost: exit status {status}" for name in in_worker}
    assert lines == _expected_report(failed)


def test_a_worker_that_reports_all_it_took_but_exits_nonzero_fails_them_all(monkeypatch, tmp_path):
    _two_cpus(monkeypatch)
    leave = os._exit

    def exit_7_when_done(name):  # rebinds os._exit in the worker's copy of os only
        os._exit = lambda code: leave(7)

    recorded = _recording_checks(monkeypatch, tmp_path, in_worker=exit_7_when_done)
    report = verify.run_all()
    in_worker = _taken_by_workers(recorded)
    assert in_worker
    failed = {name: "worker process lost: exit status 7" for name in in_worker}
    assert report.render_text().splitlines() == _expected_report(failed)


def test_every_check_runs_once_with_more_workers_than_cores(monkeypatch, tmp_path):
    _two_cpus(monkeypatch)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)), raising=False)
    recorded = _recording_checks(monkeypatch, tmp_path, in_worker=lambda name: None)
    report = verify.run_all()
    assert _taken_by_workers(recorded)  # and each check exactly once
    assert report.render_text().splitlines() == DEFAULT_REPORT


def _wait_for(path):
    deadline = time.monotonic() + 60
    while not path.exists():
        assert time.monotonic() < deadline, f"{path.name} never appeared"
        time.sleep(0.005)


def test_an_interrupted_run_starts_no_more_checks_and_waits_for_its_workers(monkeypatch, tmp_path):
    _two_cpus(monkeypatch)
    drained = tmp_path / "drained"
    parent = os.getpid()
    read = os.read

    def read_and_mark_the_drain(fd, n):
        data = read(fd, n)
        if os.getpid() == parent and n > 1:  # the only wide read is of the left-over jobs
            drained.touch()
        return data

    monkeypatch.setattr(os, "read", read_and_mark_the_drain)

    def interrupt(name):
        raise KeyboardInterrupt

    def finish_after_the_drain(name):
        _wait_for(drained)

    recorded = _recording_checks(
        monkeypatch, tmp_path, in_worker=finish_after_the_drain, in_parent=interrupt
    )
    with pytest.raises(KeyboardInterrupt):
        verify.run_all()
    # this process's first check and the worker's, which it finishes; the
    # worker is reaped (no_process_left_behind)
    assert len(recorded()) == 2


def test_a_worker_whose_report_write_fails_fails_every_check_it_ran(monkeypatch, tmp_path):
    _two_cpus(monkeypatch)
    recorded = _recording_checks(monkeypatch, tmp_path, in_worker=lambda name: None)
    parent = os.getpid()
    fdopen = os.fdopen

    class BrokenSink(io.BytesIO):  # the worker's report pipe, failing on its one write
        def write(self, data):
            raise OSError("report pipe broken")

    def fdopen_broken_in_workers(fd, mode="r", *args, **kwargs):
        if os.getpid() != parent and mode == "wb":
            return BrokenSink()
        return fdopen(fd, mode, *args, **kwargs)

    monkeypatch.setattr(os, "fdopen", fdopen_broken_in_workers)
    report = verify.run_all()
    # the worker ran its checks, then exited 1 without reporting them
    in_worker = _taken_by_workers(recorded)
    assert in_worker
    failed = {name: "worker process lost: exit status 1" for name in in_worker}
    assert report.render_text().splitlines() == _expected_report(failed)


def test_when_every_worker_is_lost_exactly_the_checks_they_ran_fail(monkeypatch, tmp_path):
    _two_cpus(monkeypatch)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)), raising=False)
    recorded = _recording_checks(monkeypatch, tmp_path, in_worker=lambda name: os._exit(5))
    report = verify.run_all()
    in_worker = _taken_by_workers(recorded)
    # each worker ends inside the first check it takes
    assert len(in_worker) == len({pid for *_, pid in recorded() if pid != os.getpid()}) >= 1
    failed = {name: "worker process lost: exit status 5" for name in in_worker}
    assert report.render_text().splitlines() == _expected_report(failed)


def test_with_several_workers_lost_their_checks_name_the_last_one_forked(monkeypatch, tmp_path):
    _two_cpus(monkeypatch)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(4)), raising=False)
    forked = []  # in a worker, len(forked) is its place in the fork order, from 1
    fork = os.fork
    monkeypatch.setattr(os, "fork", lambda: forked.append(fork()) or forked[-1])

    def exit_with_10_plus_fork_place(name):
        os._exit(10 + len(forked))

    recorded = _recording_checks(monkeypatch, tmp_path, in_worker=exit_with_10_plus_fork_place)
    report = verify.run_all()
    in_worker = _taken_by_workers(recorded)
    lost = {pid for *_, pid in recorded() if pid != os.getpid()}
    status = 10 + max(forked.index(pid) + 1 for pid in lost)
    failed = {name: f"worker process lost: exit status {status}" for name in in_worker}
    assert report.render_text().splitlines() == _expected_report(failed)


@pytest.mark.parametrize("cpus, jobs, workers", [(4, 27, 3), (64, 3, 2), (2, 1, 0)])
def test_one_process_per_usable_cpu_and_at_most_one_per_check(monkeypatch, cpus, jobs, workers):
    _two_cpus(monkeypatch)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
    forks = []
    fork = os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(None) or fork())
    checks = [(lambda h, n: f"job {h} {n}", i, i) for i in range(jobs)]
    assert verify._counterexamples(checks) == [f"job {i} {i}" for i in range(jobs)]
    assert len(forks) == workers


@pytest.mark.parametrize("setting", ["one-cpu", "no-fork", "fork-fails", "threads"])
def test_checks_run_in_this_process_when_forking_is_not_safe_useful_or_possible(
    monkeypatch, tmp_path, setting
):
    _two_cpus(monkeypatch)
    release = threading.Event()
    other = threading.Thread(target=release.wait)
    if setting == "one-cpu":
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    if setting == "no-fork":
        monkeypatch.delattr(os, "fork")
    elif setting == "fork-fails":  # as when the process limit is reached
        monkeypatch.setattr(os, "fork", lambda: _raise(BlockingIOError(11, "no process to spare")))
    else:
        monkeypatch.setattr(os, "fork", lambda: pytest.fail("forked a worker"))
    if setting == "threads":  # a fork would copy only this thread
        other.start()
    recorded = _recording_checks(monkeypatch, tmp_path)
    try:
        report = verify.run_all()
    finally:
        release.set()
        if other.is_alive():
            other.join(timeout=10)
    assert not other.is_alive()
    assert report.render_text().splitlines() == DEFAULT_REPORT
    # in report order, one after another
    assert [name for name, *_ in recorded()] == [name for name, _, _ in verify.CHECKS]


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
        # the formula checks read streams: (family, column, n, h) of _rows,
        # and (n, h) of the closed form
        ("check_path_recurrence", "_rows", ("path", 0, 9, 3), (3, 12), "n=9 h=3: 26 != 27"),
        ("check_cycle_recurrence", "_rows", ("cycle", 0, 9, 3), (3, 12), "n=9 h=3: 19 != 20"),
        (
            "check_closed_form_agreement",
            "_cycle_edges_closed",
            (7, 2),
            (2, 8),
            "n=7 h=2: sum 21 != closed 22",
        ),
    ],
)
def test_counterexample_text(monkeypatch, check, route, at, bounds, counterexample):
    streams = {"_rows": _bumped_rows, "_cycle_edges_closed": _bumped_closed}
    if route in streams:
        streams[route](monkeypatch, *at)
    else:
        _off_by_one(monkeypatch, counting, route, at)
    assert getattr(verify, check)(*bounds) == counterexample


@pytest.mark.parametrize(
    "check, at, counterexample",
    [
        ("check_path_cover_counts", (6, 2), "n=6 h=2: covers=19 sum=18 conv=18"),
        ("check_cycle_cover_counts", (7, 2), "n=7 h=2: covers=22 sum=21 closed=21"),
    ],
)
def test_cover_pair_counterexample_text(monkeypatch, check, at, counterexample):
    real = verify._cover_count
    monkeypatch.setattr(
        verify, "_cover_count", lambda build: lambda n, h: real(build)(n, h) + ((n, h) == at)
    )
    assert getattr(verify, check)(2, 8) == counterexample


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
    real = graphs._independent_masks
    cycle = graphs.power_cycle(4, 1)
    monkeypatch.setattr(
        graphs, "_independent_masks", lambda g: real(g)[::-1] if g == cycle else real(g)
    )
    assert verify.check_enumeration_order(1, 5) == "n=4 h=1 cyclic=True: output not strictly sorted"


def test_membership_counterexample_text(monkeypatch):
    real = graphs._is_independent_mask
    monkeypatch.setattr(
        graphs,
        "_is_independent_mask",
        lambda adj, m: True if (len(adj), m) == (3, 0b101) else real(adj, m),
    )
    assert verify.check_membership_equivalence(1, 4) == "n=3 h=1 cyclic=True mask=101"


def test_membership_counterexample_names_b1_first(monkeypatch):
    real = graphs._is_independent_mask
    monkeypatch.setattr(
        graphs,
        "_is_independent_mask",
        lambda adj, m: True if (len(adj), m) == (4, 0b0011) else real(adj, m),
    )
    assert verify.check_membership_equivalence(1, 4) == "n=4 h=1 cyclic=False mask=1100"


@pytest.mark.parametrize(
    "module, route, tamper, counterexample",
    [
        (
            graphs,
            "_is_independent_mask",
            lambda real: lambda adj, m: False if (len(adj), m) == (3, 0b101) else real(adj, m),
            "n=3 h=0 indices=[1, 3]: image not independent",
        ),
        (
            counting,
            "_indices_to_mask",
            lambda real: lambda n, h, idx: 0b001 if (n, h, idx) == (3, 1, [1, 2]) else real(n, h, idx),
            "n=3 h=1 subset=101: roundtrip gave 100",
        ),
    ],
)
def test_bijection_counterexample_text(monkeypatch, module, route, tamper, counterexample):
    monkeypatch.setattr(module, route, tamper(getattr(module, route)))
    assert verify.check_bijection_roundtrip(1, 4) == counterexample


def _edited(ups, drop=None, add=None):
    """A copy of the up-lists without the cover `drop` and with the cover
    `add`, each a (low, high) index pair; every list stays ascending."""
    ups = [list(js) for js in ups]
    if drop:
        ups[drop[0]].remove(drop[1])
    if add:
        ups[add[0]] = sorted(ups[add[0]] + [add[1]])
    return ups


def _last_cover(ups):
    """The last cover in (low, high) order, as a (low, high) index pair."""
    low = max(i for i, js in enumerate(ups) if js)
    return low, ups[low][-1]


@pytest.mark.parametrize(
    "tamper, counterexample",
    [
        (
            lambda masks, ups: (masks, _edited(ups, drop=_last_cover(ups))),
            "n=5 h=1 cyclic=True: covers 14 != weighted levels 15",
        ),
        (  # the first cover, from the empty set to {v_1}, turned downward
            lambda masks, ups: (masks, _edited(ups, drop=(0, 1), add=(1, 0))),
            "n=5 h=1 cyclic=True: bad cover 10000 -> 00000",
        ),
        (
            lambda masks, ups: (masks[1:2] + masks[1:], ups),
            "n=5 h=1 cyclic=True: level 0 is not [empty]",
        ),
        pytest.param(  # masks[6] is {v_1, v_3}: a "cover" from the empty set skips level 1
            lambda masks, ups: (masks, _edited(ups, drop=(0, 1), add=(0, 6))),
            "n=5 h=1 cyclic=True: bad cover 00000 -> 10100",
            id="cover-skips-a-level",
        ),
        pytest.param(  # a node "covering" itself adds no vertex
            lambda masks, ups: (masks, _edited(ups, drop=(0, 1), add=(1, 1))),
            "n=5 h=1 cyclic=True: bad cover 10000 -> 10000",
            id="cover-of-itself",
        ),
    ],
)
def test_hasse_grading_counterexample_text(monkeypatch, tamper, counterexample):
    real = cubes._hasse_masks
    cycle = graphs.power_cycle(5, 1)

    def tampered(g):
        masks, ups = real(g)
        return tamper(masks, ups) if g == cycle else (masks, ups)

    monkeypatch.setattr(cubes, "_hasse_masks", tampered)
    assert verify.check_hasse_grading(1, 6) == counterexample


def test_diagram_builder_stays_checked_by_default_verify(monkeypatch):
    # `export --what hasse` reads _hasse_masks; dropping one cover of one
    # graph must fail the grading check and both Lucas-cube comparisons
    real = cubes._hasse_masks
    cycle = graphs.power_cycle(5, 1)

    def tampered(g):
        masks, ups = real(g)
        return (masks, _edited(ups, drop=(0, 1))) if g == cycle else (masks, ups)

    monkeypatch.setattr(cubes, "_hasse_masks", tampered)
    failed = {c.name: c.counterexample for c in verify.run_all(1, 20, 6).checks if not c.ok}
    assert failed == {
        "hasse-cover-grading": "n=5 h=1 cyclic=True: covers 14 != weighted levels 15",
        "lucas-cube-structure": "n=5: cube differs from the cycle-power diagram",
        "single-pattern-cube-identity": "n=5: circular 11-cube differs from the Lucas cube",
    }


def test_order_1_pattern_set_is_checked(monkeypatch):
    # pattern-cube-identity sweeps h >= 2 only, so the order-1 set is read
    # by the single-pattern check; one pattern too many there must fail it
    real = cubes.power_patterns
    monkeypatch.setattr(cubes, "power_patterns", lambda h: real(h) + (["101"] if h == 1 else []))
    failed = {c.name: c.counterexample for c in verify.run_all(1, 20, 8).checks if not c.ok}
    assert failed == {
        "single-pattern-cube-identity": "n=3: linear 11-avoiders differ from Fibonacci strings",
    }


def test_up_graph_fault_fails_two_checks(monkeypatch):
    # one edge too many in the n = 3 Fibonacci cube, between 100 and 010
    real = cubes._up_graph

    def tampered(ups):
        g = real(ups)
        return graphs.SimpleGraph.from_edges(g.n, [*g.edges(), (2, 3)]) if len(ups) == 5 else g

    monkeypatch.setattr(cubes, "_up_graph", tampered)
    failed = {c.name: c.counterexample for c in verify.run_all(1, 20, 8).checks if not c.ok}
    assert failed == {
        "single-pattern-cube-identity": "n=3: linear 11-cube differs from the Fibonacci cube",
        "cube-edges-comparable": "n=3: edge joins incomparable strings 100, 010",
    }


def test_pattern_cube_counterexample_text(monkeypatch):
    real = cubes._avoiding_masks
    def tampered(n, patterns, circular=False):
        masks = real(n, patterns, circular)
        return masks[:-1] if (n, circular) == (6, True) else masks

    monkeypatch.setattr(cubes, "_avoiding_masks", tampered)
    assert verify.check_pattern_cubes(2, 7) == "n=6 h=2 circular=True: vertex sets differ"


def test_checks_are_public_module_functions():
    # perfbench/trace_child.py finds each check in verify under its own
    # __name__ and rebinds it there; a partial or lambda would escape it.
    for name, _, fn in verify.CHECKS:
        assert isinstance(fn, types.FunctionType), name
        assert fn.__module__ == verify.__name__, name
        assert not fn.__name__.startswith("_"), name
        assert getattr(verify, fn.__name__) is fn, name


def test_report_names_are_the_benchmarks():
    # perfbench's verify-default output check rejects a report whose lines
    # differ from its VERIFY_CHECKS, so adding, renaming or reordering a check
    # must change that tuple too. The module is read, not imported: its frozen
    # dataclass needs the module registered in sys.modules.
    path = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
    (value,) = (
        node.value
        for node in ast.parse(path.read_text()).body
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["VERIFY_CHECKS"]
    )
    assert ast.literal_eval(value) == tuple(name for name, _, _ in verify.CHECKS)


@pytest.mark.parametrize(
    "check",
    [
        "check_hasse_grading",
        "check_path_cover_counts",
        "check_cycle_cover_counts",
        "check_fibonacci_cube",
        "check_lucas_cube",
        "check_single_pattern_cubes",
        "check_cube_edges_comparable",
    ],
)
def test_cover_checks_count_from_masks(monkeypatch, check):
    def refuse(*args, **kwargs):
        raise AssertionError("built a diagram object only to count or compare it")

    monkeypatch.setattr(cubes, "hasse_diagram", refuse)
    assert getattr(verify, check)(2, 8) is None


@pytest.mark.parametrize(
    "check",
    [
        "check_path_oracle",
        "check_cycle_oracle",
        "check_enumeration_order",
        "check_membership_equivalence",
        "check_bijection_roundtrip",
        "check_hasse_grading",
        "check_path_cover_counts",
        "check_cycle_cover_counts",
    ],
)
def test_oracle_checks_read_masks(monkeypatch, check):
    def refuse(*args, **kwargs):
        raise AssertionError("wrapped every independent set only to read its mask")

    monkeypatch.setattr(graphs, "enumerate_independent", refuse)
    monkeypatch.setattr(cubes, "enumerate_independent", refuse, raising=False)
    assert getattr(verify, check)(2, 8) is None


@pytest.mark.parametrize(
    "route",
    [
        "check_fibonacci_cube",
        "check_lucas_cube",
        "check_pattern_cubes",
        "check_single_pattern_cubes",
        "check_cube_edges_comparable",
        "check_enumeration_order",
        "check_membership_equivalence",
        "check_bijection_roundtrip",
        "run_all",
        "fib-cube",
        "lucas-cube",
        "gen-cube",
    ],
)
def test_cube_routes_build_no_vertex_subset(monkeypatch, route):
    """The cube checks, the oracle checks (which call the mask cores that
    the public subset routes wrap) and the cube exports work on int masks
    throughout; run_all would report a refused construction as a failure."""
    def refuse(*args, **kwargs):
        raise AssertionError("wrapped a mask in a VertexSubset only to read it back")

    for module in (cubes, graphs, counting):
        monkeypatch.setattr(module, "VertexSubset", refuse)
    if route == "run_all":
        assert [c.name for c in verify.run_all(2, 20, 8).checks if not c.ok] == []
    elif route.startswith("check_"):
        assert getattr(verify, route)(3, 9) is None
    else:
        argv = ["export", "--family", route, "--n", "9", "--what", "graph", "--format", "dot"]
        if route == "gen-cube":
            argv += ["--patterns", "11,101", "--circular"]
        labels, ups = cli._export_object(cli.build_parser().parse_args(argv))
        assert len(labels) == len(ups) > 1


def _drop_last(result):
    return result[:-1]


@pytest.mark.parametrize(
    "check, route, when, tamper, counterexample",
    [
        (
            "check_fibonacci_cube",
            "_fibonacci_masks",
            lambda n: n == 4,
            _drop_last,
            "n=4: 7 vertices != F_6",
        ),
        (
            "check_fibonacci_cube",
            "_hamming_pairs",
            lambda masks: len(masks) == 8,  # the F_6 strings of length 4
            lambda ups: _edited(ups, drop=_last_cover(ups)),
            "n=4: 9 edges != 10",
        ),
        (
            "check_lucas_cube",
            "_hasse_masks",
            lambda g: g == graphs.power_cycle(5, 1),
            lambda result: (result[0], _edited(result[1], drop=_last_cover(result[1]))),
            "n=5: cube differs from the cycle-power diagram",
        ),
        (
            "check_lucas_cube",
            "_lucas_masks",
            lambda n: n == 6,
            _drop_last,
            "n=6: 17 vertices != L_6",
        ),
        (
            "check_single_pattern_cubes",
            "_avoiding_masks",
            lambda n, patterns, circular=False: (n, circular) == (5, True),
            _drop_last,
            "n=5: circular 11-avoiders differ from Lucas strings",
        ),
        (
            "check_single_pattern_cubes",
            "generalized_cube",
            lambda n, patterns, circular=False: n == 3,
            lambda g: graphs.SimpleGraph(g.n, (0,) * g.n),
            "n=3: linear 11-cube differs from the Fibonacci cube",
        ),
        (
            # every cube builder ends in _up_graph, so a fault there shows
            # only against a route that does not: the diagram covers
            "check_single_pattern_cubes",
            "_up_graph",
            lambda ups: len(ups) == 8,  # the F_6 strings of length 4
            lambda g: graphs.SimpleGraph.from_edges(g.n, list(g.edges())[:-1]),
            "n=4: linear 11-cube differs from the Fibonacci cube",
        ),
        (
            "check_cube_edges_comparable",
            "_hamming_pairs",
            lambda masks: len(masks) == 5,  # the F_5 strings of length 3
            lambda ups: _edited(ups, add=(1, 2)),
            "n=3: edge joins incomparable strings 100, 010",
        ),
    ],
    ids=[
        "fib-strings",
        "fib-pairs",
        "lucas-diagram",
        "lucas-strings",
        "circular-avoiders",
        "edgeless-cube",
        "up-graph-fault",
        "incomparable-edge",
    ],
)
def test_cube_counterexample_text(monkeypatch, check, route, when, tamper, counterexample):
    real = getattr(cubes, route)

    def tampered(*args, **kwargs):
        result = real(*args, **kwargs)
        return tamper(result) if when(*args, **kwargs) else result

    monkeypatch.setattr(cubes, route, tampered)
    assert getattr(verify, check)(1, 7) == counterexample


def _bumped_rows(monkeypatch, family, column, n_at, h_at):
    """Make counting._rows(family, h_at) yield one more in `column` at row n_at."""
    real = counting._rows

    def bumped(fam, h):
        for n, row in enumerate(real(fam, h)):
            if (fam, n, h) == (family, n_at, h_at):
                row = tuple(v + (i == column) for i, v in enumerate(row))
            yield row

    monkeypatch.setattr(counting, "_rows", bumped)


def _bumped_closed(monkeypatch, n_at, h_at):
    """Make counting._cycle_edges_closed(h_at) yield one more at n_at."""
    real = counting._cycle_edges_closed

    def bumped(h):
        for n, value in enumerate(real(h)):
            yield value + ((n, h) == (n_at, h_at))

    monkeypatch.setattr(counting, "_cycle_edges_closed", bumped)


@pytest.mark.parametrize(
    "family, column, n, h",
    [("path", 0, 9, 3), ("cycle", 0, 9, 3), ("path", 1, 6, 2), ("cycle", 1, 7, 2)],
)
def test_every_printed_column_is_verified(monkeypatch, family, column, n, h):
    # `table` and `seq` print both columns of _rows for both families; a
    # fault in any one value must fail the default-shaped sweep.
    _bumped_rows(monkeypatch, family, column, n, h)
    report = verify.run_all(4, 40, 6)
    assert not report.overall
    assert all(c.counterexample for c in report.checks if not c.ok)


def test_closed_form_check_names_the_rows_value(monkeypatch):
    _bumped_rows(monkeypatch, "cycle", 1, 7, 2)
    assert verify.check_closed_form_agreement(2, 8) == "n=7 h=2: sum 21 != rows 22"


def test_hfib_prefix_names_the_tampered_term(monkeypatch):
    # Term 7 of the order-2 sequence is the path total at n = 4, which is 6;
    # one too many there must be named by h, i and the value the sequence gave.
    terms = counting._hfib_terms

    def tampered(h):
        rest = terms(h)
        head = list(itertools.islice(rest, 7))
        if h == 2:
            head[6] += 1
        return itertools.chain(head, rest)

    monkeypatch.setattr(counting, "_hfib_terms", tampered)
    assert verify.check_hfib_prefix(4, 30) == "h=2 i=7: 7 != clamped total"


@pytest.mark.parametrize("h", range(1, 6))
def test_hfib_prefix_with_fewer_terms_than_leading_ones(h):
    for f in range(h):
        assert verify.check_hfib_prefix(h, f) is None
        assert verify.run_all(h, f, 2).overall


def _counted(monkeypatch, targets):
    """Wrap each (module, name) route, patched in every listed module, with
    a call counter; returns name -> number of calls so far."""
    calls = {}
    for modules, name in targets:
        real = getattr(modules[0], name)
        calls[name] = 0

        def counted(*args, _real=real, _name=name):
            calls[_name] += 1
            return _real(*args)

        for module in modules:
            monkeypatch.setattr(module, name, counted)
    return calls


def _path_total(n, h):
    return sum(counting.binom(n - h * k + h, k) for k in range(n + 1))


@pytest.mark.parametrize("h_max, n_max", [(0, 0), (2, 7), (3, 9)])
def test_checks_make_every_call_their_sweeps_imply(monkeypatch, h_max, n_max):
    """Speed work may make each call cheaper, but no call may be skipped."""
    targets = [
        ((graphs,), "_is_independent_mask"),
        ((graphs, counting), "VertexSubset"),
        ((counting,), "_mask_to_indices"),
        ((counting,), "_indices_to_mask"),
        ((counting,), "path_count_k"),
        ((counting,), "cycle_count_k"),
        ((counting,), "_comb"),
    ]
    sweep = [(n, h) for h in range(h_max + 1) for n in range(n_max + 1)]

    calls = _counted(monkeypatch, targets)
    assert verify.check_membership_equivalence(h_max, n_max) is None
    # every mask of the path power, then of the cycle power
    assert calls["_is_independent_mask"] == sum(2 << n for n, _ in sweep)
    assert calls["VertexSubset"] == 0

    calls = _counted(monkeypatch, targets)
    assert verify.check_bijection_roundtrip(h_max, n_max) is None
    subsets = sum(_path_total(n, h) for n, h in sweep)
    # each independent set once from the enumerator and once as an index
    # list's image; each index list once as an image and once back
    assert calls["_mask_to_indices"] == calls["_indices_to_mask"] == 2 * subsets
    assert calls["_is_independent_mask"] == subsets
    assert calls["VertexSubset"] == 0

    # the sums map the binomial primitive over each column, so count it, and
    # no per-k function call at all
    sizes = sum((n + h) // (h + 1) + 1 for n, h in sweep)  # k = 0..max size
    calls = _counted(monkeypatch, targets)
    assert verify.check_path_recurrence(h_max, n_max) is None
    assert calls["_comb"] == sizes
    assert calls["path_count_k"] == calls["cycle_count_k"] == 0
    # c_0 = 1 and c_1 = n need no binomial; k = 2..n // (h + 1) one each
    binomials = sum(max(n // (h + 1) - 1, 0) for n, h in sweep)
    calls = _counted(monkeypatch, targets)
    assert verify.check_cycle_recurrence(h_max, n_max) is None
    assert calls["_comb"] == binomials
    assert calls["path_count_k"] == calls["cycle_count_k"] == 0


@pytest.mark.parametrize("h_max, n_max", [(0, 0), (2, 7), (4, 10)])
def test_only_the_grading_check_builds_diagrams(monkeypatch, h_max, n_max):
    """The cover-count checks count cover pairs from the enumerated masks;
    the grading check builds one diagram per swept graph, path and cycle."""
    diagrams = {
        "check_path_cover_counts": 0,
        "check_cycle_cover_counts": 0,
        "check_hasse_grading": 2 * (h_max + 1) * (n_max + 1),
    }
    for check, expected in diagrams.items():
        calls = _counted(monkeypatch, [((cubes,), "_hasse_masks")])
        assert getattr(verify, check)(h_max, n_max) is None
        assert calls == {"_hasse_masks": expected}, check


@pytest.mark.parametrize("h_max", [0, 2, 4])
@pytest.mark.parametrize("n_max", [0, 1, 9, 60])
def test_formula_checks_walk_each_stream_once_per_order(monkeypatch, h_max, n_max):
    """Whatever n_max, each formula check starts each stream it reads once
    per h: its own _rows column, the closed-form stream, and one hfib
    sequence, each of which walks the path rows once more."""
    targets = [((counting,), "_rows"), ((counting,), "_cycle_edges_closed"), ((counting,), "hfib")]
    passes = {
        "check_path_recurrence": {"_rows": 1, "_cycle_edges_closed": 0, "hfib": 0},
        "check_cycle_recurrence": {"_rows": 1, "_cycle_edges_closed": 0, "hfib": 0},
        "check_convolution_agreement": {"_rows": 2, "_cycle_edges_closed": 0, "hfib": 1},
        "check_closed_form_agreement": {"_rows": 2, "_cycle_edges_closed": 1, "hfib": 0},
    }
    for check, per_order in passes.items():
        calls = _counted(monkeypatch, targets)
        assert getattr(verify, check)(h_max, n_max) is None
        assert calls == {name: k * (h_max + 1) for name, k in per_order.items()}, check
