"""End-to-end and per-layer benchmark of the `indcubes` command line.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from anywhere; the repository is the parent of this directory and the
program is taken from its `src/`. Every command runs as a fresh process that
runs `indcubes` as `python -m indcubes ...` does, one at a time, because
users pay the cold start and empty caches on every invocation. A round is the
workload's command list; rounds repeat until the next one would end after
`--seconds`.

`--trace 0` reports the end-to-end metrics. Their times are normalised to a
fixed host speed by the speedometer in speed_child.py, because the host's
speed drifts by up to a factor of two. `--trace 1` alternates plain and
traced rounds (see trace_child.py) and reports the per-layer metrics in
plain seconds. Either way every output is checked (workloads.py) and the last
stdout line is one JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import statistics
import subprocess
import sys
import threading
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Callable

from speed_child import MARKER as SPEED_MARKER
from trace_child import MARKER as TRACE_MARKER
from workloads import DEFAULT_SEED, VERIFY_CHECKS, WORKLOADS, Command

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TRACE_CHILD = Path(__file__).resolve().parent / "trace_child.py"
SPEED_CHILD = Path(__file__).resolve().parent / "speed_child.py"

#: Fresh interpreters timed for setup_s; one more runs first, untimed, to
#: compile the bytecode cache.
SETUP_IMPORTS = 15
MB = 1 << 20
#: Normalised times are in seconds of a host on which one reference pass of
#: speed_child.py takes this long.
REFERENCE_PASS_S = 0.001
#: The host speed at a reference pass is the median of the passes up to this
#: many places either side of it, which drops single disturbed passes.
SMOOTH = 2


@dataclass
class Result:
    """One finished child process. Times leave out the speedometer's
    reference passes; the normalised ones are None when the child ran none."""

    returncode: int
    stdout: bytes
    stderr: bytes
    wall_s: float
    cpu_s: float
    rss_mb: float
    norm_wall_s: float | None = None
    norm_cpu_s: float | None = None


def speed_normalised(spawned: float, reaped: float, samples: list[list[float]]) -> float:
    """Wall time from spawn to reap without the reference passes, each
    stretch between two passes divided by the host's reference time there and
    multiplied by REFERENCE_PASS_S. The stretches before the first and after
    the last pass take the speed at that pass."""
    times = [duration for _, duration in samples]
    local = [statistics.median(times[max(0, i - SMOOTH) : i + SMOOTH + 1]) for i in range(len(times))]
    pace = [local[0], *((a + b) / 2 for a, b in zip(local, local[1:])), local[-1]]
    stretch_starts = [spawned, *(start + duration for start, duration in samples)]
    stretch_ends = [*(start for start, _ in samples), reaped]
    return REFERENCE_PASS_S * sum((b - a) / p for a, b, p in zip(stretch_starts, stretch_ends, pace))


def run_child(argv: list[str]) -> Result:
    """Run argv to completion with the program on PYTHONPATH; wall time runs
    from spawn to reap, CPU time and peak RSS come from the child's rusage.
    If the child is speed_child.py, its reference passes are taken out of
    both times and the normalised times are filled in; CPU time is
    normalised by the same factor as wall time."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    start = perf_counter()
    proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    stderr: list[bytes] = []
    reader = threading.Thread(target=lambda: stderr.append(proc.stderr.read()))
    reader.start()
    stdout = proc.stdout.read()
    _, status, usage = os.wait4(proc.pid, 0)
    reaped = perf_counter()
    reader.join()
    proc.returncode = os.waitstatus_to_exitcode(status)
    proc.stdout.close()
    proc.stderr.close()
    result = Result(
        proc.returncode,
        stdout,
        stderr[0],
        reaped - start,
        usage.ru_utime + usage.ru_stime,
        usage.ru_maxrss / 1024,
    )
    samples = marked_payload(result.stderr, SPEED_MARKER)
    if samples:
        reference_s = sum(duration for _, duration in samples)
        result.wall_s -= reference_s
        result.cpu_s -= reference_s
        result.norm_wall_s = speed_normalised(start, reaped, samples)
        result.norm_cpu_s = result.cpu_s * result.norm_wall_s / result.wall_s
    return result


def marked_payload(stderr: bytes, marker: str):
    """The JSON after the last stderr line that starts with marker, or None."""
    lines = stderr.decode(errors="replace").splitlines()
    payload = next((line[len(marker) :] for line in reversed(lines) if line.startswith(marker)), None)
    return None if payload is None else json.loads(payload)


@dataclass
class Round:
    """Totals over one pass through the workload's command list."""

    wall_s: float = 0.0
    cpu_s: float = 0.0
    norm_wall_s: float = 0.0
    norm_cpu_s: float = 0.0
    good_bytes: int = 0
    out_bytes: int = 0
    uncovered_s: float = 0.0
    functions: dict[str, dict[str, float]] = field(default_factory=dict)
    checks: dict[str, str] = field(default_factory=dict)


class Bench:
    """Runs rounds of one workload and keeps the tallies that every round
    adds to: attempts, failures, peak RSS and the first output of each
    command, which later rounds must repeat byte for byte."""

    def __init__(self, commands: list[Command], seed: int) -> None:
        self.commands = commands
        self.seed = seed
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.peak_rss_mb = 0.0
        self.digests: dict[tuple[str, ...], str] = {}

    def round(self, traced: bool) -> Round:
        totals = Round()
        twins: dict[str, str] = {}
        for command in self.commands:
            if traced:
                argv = [sys.executable, str(TRACE_CHILD), *command.argv]
            else:
                argv = [sys.executable, str(SPEED_CHILD), *command.argv]
            result = run_child(argv)
            totals.wall_s += result.wall_s
            totals.cpu_s += result.cpu_s
            totals.out_bytes += len(result.stdout)
            self.attempted += 1
            problem = self._check(command, result)
            if not traced:
                self.peak_rss_mb = max(self.peak_rss_mb, result.rss_mb)
                if result.norm_wall_s is None:  # killed before it could report
                    problem = problem or "the command reported no speed samples"
                    result.norm_wall_s, result.norm_cpu_s = result.wall_s, result.cpu_s
                totals.norm_wall_s += result.norm_wall_s
                totals.norm_cpu_s += result.norm_cpu_s
            elif not self._add_trace(totals, result):
                problem = problem or "the traced command reported no trace"
            if problem is None and command.twin:
                digest = twins.setdefault(command.twin, self.digests[command.argv])
                if digest != self.digests[command.argv]:
                    problem = f"output differs from its twin in {command.twin}"
                    self.correct = False
            if problem is None:
                totals.good_bytes += len(result.stdout)
            else:
                self.failed += 1
                print(f"FAIL {' '.join(command.argv)}: {problem}", file=sys.stderr)
        if traced:
            print(f"traced round: wall {totals.wall_s:.3f} s, cpu {totals.cpu_s:.3f} s", file=sys.stderr)
        else:
            print(
                f"plain round: wall {totals.wall_s:.3f} s (normalised {totals.norm_wall_s:.3f} s),"
                f" cpu {totals.cpu_s:.3f} s (normalised {totals.norm_cpu_s:.3f} s)",
                file=sys.stderr,
            )
        return totals

    def _check(self, command: Command, result: Result) -> str | None:
        """Why the command failed, or None. A zero exit with wrong or
        changed output also marks the whole run incorrect."""
        if result.returncode != 0:
            lines = result.stderr.decode(errors="replace").splitlines()
            markers = (SPEED_MARKER, TRACE_MARKER)
            tail = [line for line in lines if line and not line.startswith(markers)][-1:]
            return f"exit {result.returncode} {tail}"
        digest = hashlib.sha256(result.stdout).hexdigest()
        if command.argv in self.digests:
            problem = None if self.digests[command.argv] == digest else "output differs from the first round"
        else:  # first output of this command: check it in full
            rng = random.Random(f"{self.seed}:{' '.join(command.argv)}")
            problem = command.check(result.stdout, rng)
            if problem is None:
                self.digests[command.argv] = digest
        if problem is not None:
            self.correct = False
        return problem

    @staticmethod
    def _add_trace(totals: Round, result: Result) -> bool:
        """Add the child's trace to the round; False if it printed none."""
        trace = marked_payload(result.stderr, TRACE_MARKER)
        if trace is None:
            return False
        # Time of the child process that no span covers: start-up, imports, exit.
        totals.uncovered_s += result.wall_s - trace["root_s"]
        totals.checks.update(trace["checks"])
        for key, stats in trace["functions"].items():
            entry = totals.functions.setdefault(key, {})
            for stat, value in stats.items():
                entry[stat] = entry.get(stat, 0) + value
        return True


def repeat(seconds: float, started: float, step: Callable[[], float]) -> None:
    """Call step() at least once, then again while one more step of the
    length the last one reported still ends within `seconds` of `started`.
    A step reports the time its commands ran, which leaves out the one-off
    full output checks of the first round."""
    while True:
        length = step()
        if perf_counter() - started + length > seconds:
            return


def measure_setup() -> float | None:
    """Median normalised wall time for a fresh interpreter to import the CLI
    module; None when the import fails."""
    argv = [sys.executable, str(SPEED_CHILD), "--import-only"]
    times = []
    for _ in range(SETUP_IMPORTS + 1):
        result = run_child(argv)
        if result.returncode != 0 or result.norm_wall_s is None:
            print(result.stderr.decode(errors="replace"), file=sys.stderr)
            return None
        times.append(result.norm_wall_s)
    return statistics.median(times[1:])


# --- metrics -----------------------------------------------------------------

END_TO_END = {
    "wall_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "goodput_mb_s": "MB/s",
    "pass_frac": "ratio",
    "setup_s": "s",
}

#: Per-layer metrics: module -> function -> stats. Every module also reports
#: <module>.self_s, the summed self time of its functions, and verify reports
#: the inclusive time of each check, verify.<check name>.total_s.
LAYERS = {
    "counting": {
        "convolve_self": ("calls", "self_s", "mults"),
        "path_count_rec": ("calls", "self_s"),
        "cycle_count_rec": ("calls", "self_s"),
        "hfib": ("self_s",),
        "subset_to_indices": ("calls", "self_s"),
        "indices_to_subset": ("calls", "self_s"),
        "path_count": ("self_s",),
        "cycle_count": ("self_s",),
        "path_hasse_edges": ("self_s",),
        "cycle_hasse_edges": ("self_s",),
    },
    "graphs": {
        "power_path": ("calls", "self_s"),
        "power_cycle": ("calls",),
        "enumerate_independent": ("calls", "self_s", "subsets"),
        "is_independent": ("calls",),
    },
    "cubes": {
        "hasse_diagram": ("calls", "self_s", "covers"),
        "avoiding_strings": ("calls", "self_s", "yield"),
        "fibonacci_strings": ("self_s",),
        "lucas_strings": ("self_s",),
        "fibonacci_cube": ("self_s",),
        "lucas_cube": ("self_s",),
        "generalized_cube": ("self_s",),
        "diagram_as_graph": ("self_s",),
        "same_labeled_graph": ("self_s",),
    },
    "verify": {},
    "cli": {
        "render_table": ("self_s",),
        "render_seq": ("self_s",),
        "render_export": ("self_s",),
    },
}
UNITS = {"self_s": "s", "total_s": "s", "yield": "ratio", "out_bytes": "bytes", "overhead_s": "s", "uncovered_s": "s"}


def per_layer_names() -> list[str]:
    names = []
    for module, functions in LAYERS.items():
        names.append(f"{module}.self_s")
        names += [f"{module}.{fn}.{stat}" for fn, stats in functions.items() for stat in stats]
        if module == "verify":
            names += [f"verify.{check}.total_s" for check in VERIFY_CHECKS]
    return names + ["cli.out_bytes", "trace.overhead_s", "trace.uncovered_s"]


def layer_values(traced: Round, overhead_s: float) -> dict[str, float]:
    """Every per-layer metric of one traced round."""
    functions = traced.functions
    values: dict[str, float] = {}
    for module in LAYERS:
        values[f"{module}.self_s"] = sum(
            stats.get("self_s", 0.0) for key, stats in functions.items() if key.split(".")[0] == module
        )
    for key, stats in functions.items():
        for stat, value in stats.items():
            values[f"{key}.{stat}"] = value
    for check in VERIFY_CHECKS:
        key = traced.checks.get(check)
        values[f"verify.{check}.total_s"] = functions.get(key, {}).get("total_s", 0.0)
    scanned = functions.get("cubes.avoiding_strings", {}).get("scanned", 0)
    kept = functions.get("cubes.avoiding_strings", {}).get("kept", 0)
    values["cubes.avoiding_strings.yield"] = kept / scanned if scanned else 0.0
    values["cli.out_bytes"] = traced.out_bytes
    values["trace.overhead_s"] = overhead_s
    values["trace.uncovered_s"] = traced.uncovered_s
    return {name: values.get(name, 0) for name in per_layer_names()}


def unit(name: str) -> str:
    stat = name.rsplit(".", 1)[-1]
    return UNITS.get(stat, "count")


def end_to_end_metrics(bench: Bench, seconds: float, started: float) -> dict[str, float]:
    """Plain rounds only; each timing is normalised and the median over
    rounds."""
    rounds: list[Round] = []

    def step() -> float:
        rounds.append(bench.round(traced=False))
        return rounds[-1].wall_s

    repeat(seconds, started, step)
    return {
        "wall_s": statistics.median(r.norm_wall_s for r in rounds),
        "cpu_s": statistics.median(r.norm_cpu_s for r in rounds),
        "peak_rss_mb": bench.peak_rss_mb,
        "goodput_mb_s": statistics.median(r.good_bytes / MB / r.norm_wall_s for r in rounds),
        "pass_frac": (bench.attempted - bench.failed) / bench.attempted,
    }


def layer_metrics(bench: Bench, seconds: float, started: float) -> dict[str, float]:
    """Pairs of a plain and a traced round; each metric is the median over
    the traced rounds, and the overhead the median traced-minus-plain wall."""
    pairs: list[tuple[Round, Round]] = []

    def step() -> float:
        pairs.append((bench.round(traced=False), bench.round(traced=True)))
        return pairs[-1][0].wall_s + pairs[-1][1].wall_s

    repeat(seconds, started, step)
    overhead = statistics.median(traced.wall_s - plain.wall_s for plain, traced in pairs)
    rows = [layer_values(traced, overhead) for _, traced in pairs]
    return {name: statistics.median(row[name] for row in rows) for name in per_layer_names()}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=42.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    started = perf_counter()
    # The count checks print and parse integers far beyond the default limit.
    sys.set_int_max_str_digits(0)
    if not (SRC / "indcubes" / "cli.py").is_file():
        print(f"error: no indcubes sources under {SRC}", file=sys.stderr)
        return 1
    setup_s = measure_setup()
    if setup_s is None:
        print("error: the CLI module does not import", file=sys.stderr)
        return 1

    bench = Bench(WORKLOADS[args.workload](args.seed), args.seed)
    if args.trace:
        metrics = layer_metrics(bench, args.seconds, started)
        units = {name: unit(name) for name in metrics}
    else:
        metrics = end_to_end_metrics(bench, args.seconds, started)
        metrics["setup_s"] = setup_s
        units = END_TO_END
    print(
        json.dumps(
            {
                "correct": bench.correct,
                "attempted": bench.attempted,
                "failed": bench.failed,
                "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
