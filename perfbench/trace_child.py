"""Run one `indcubes` CLI command with every public function of the five
modules wrapped, then report per-function statistics on stderr.

    python3 perfbench/trace_child.py <indcubes arguments...>

stdout is the command's own, byte for byte. The last stderr line is
`PERFBENCH-TRACE <json>`. Spans (name, start, end, parent) are kept in memory
while the command runs and reduced to per-function calls, self time and
inclusive time when it ends. Functions called hundreds of thousands of times
only count their calls; their time falls in the caller's self time.
"""

from __future__ import annotations

import importlib
import json
import sys
import types
from array import array
from time import perf_counter

MODULES = ("cli", "verify", "cubes", "graphs", "counting")
MARKER = "PERFBENCH-TRACE "

COUNT_ONLY = {
    "graphs.is_independent",
    "graphs.contains_pattern",
    "counting.binom",
    "counting.path_count_k",
    "counting.path_count_k_clamped",
    "counting.cycle_count_k",
}

#: Work counts taken from a call's arguments and result: key -> [(stat, fn)].
EXTRA = {
    "counting.convolve_self": [("mults", lambda args, result: args[1])],
    "graphs.enumerate_independent": [("subsets", lambda args, result: len(result))],
    "cubes.hasse_diagram": [("covers", lambda args, result: result.cover_count)],
    # avoiding_strings tests all 2^n masks and keeps the avoiders.
    "cubes.avoiding_strings": [
        ("kept", lambda args, result: len(result)),
        ("scanned", lambda args, result: 1 << args[0]),
    ],
}


class Recorder:
    """Spans as parallel arrays indexed by span number, plus named counts."""

    def __init__(self) -> None:
        self.keys: list[str] = []
        self.span_key = array("l")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.stack: list[int] = []
        self.counts: dict[str, int] = {}

    def span(self, key: str, fn: types.FunctionType):
        key_id = len(self.keys)
        self.keys.append(key)
        extras = [(f"{key}.{stat}", extra) for stat, extra in EXTRA.get(key, [])]
        span_key, start, end, parent, stack = self.span_key, self.start, self.end, self.parent, self.stack
        counts = self.counts

        def wrapper(*args, **kwargs):
            index = len(start)
            span_key.append(key_id)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(index)
            start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[index] = perf_counter()
                stack.pop()
            for name, extra in extras:
                counts[name] = counts.get(name, 0) + extra(args, result)
            return result

        return wrapper

    def counter(self, key: str, fn: types.FunctionType):
        counts = self.counts
        name = f"{key}.calls"
        counts[name] = 0

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def summary(self) -> dict:
        """Per key: calls, self_s and total_s, plus the extra counts; and
        root_s, the time covered by spans that have no parent."""
        stats = {key: {"calls": 0, "self_s": 0.0, "total_s": 0.0} for key in self.keys}
        self_s = [e - s for s, e in zip(self.start, self.end)]
        root_s = 0.0
        for i, p in enumerate(self.parent):
            if p >= 0:
                self_s[p] -= self.end[i] - self.start[i]
            else:
                root_s += self.end[i] - self.start[i]
        for i, key_id in enumerate(self.span_key):
            entry = stats[self.keys[key_id]]
            entry["calls"] += 1
            entry["self_s"] += self_s[i]
            entry["total_s"] += self.end[i] - self.start[i]
        for name, value in self.counts.items():
            key, stat = name.rsplit(".", 1)
            stats.setdefault(key, {})[stat] = value
        return {"functions": stats, "root_s": root_s}


def install(recorder: Recorder) -> dict[str, str]:
    """Wrap each public function and rebind every reference to it: module
    attributes in the whole package (names imported with `from ... import`
    included) and the check registry in `verify`. Returns check name -> key."""
    from indcubes import verify

    wrapped = {}
    checks = {name: f"verify.{fn.__name__}" for name, _, fn in verify.CHECKS}
    for short in MODULES:
        module = importlib.import_module(f"indcubes.{short}")
        for name, fn in vars(module).items():
            if isinstance(fn, types.FunctionType) and fn.__module__ == module.__name__ and not name.startswith("_"):
                key = f"{short}.{name}"
                make = recorder.counter if key in COUNT_ONLY else recorder.span
                wrapped[fn] = make(key, fn)
    for module_name, module in list(sys.modules.items()):
        if module_name == "indcubes" or module_name.startswith("indcubes."):
            for name, value in list(vars(module).items()):
                if isinstance(value, types.FunctionType) and value in wrapped:
                    setattr(module, name, wrapped[value])
    verify.CHECKS = tuple((name, scale, wrapped[fn]) for name, scale, fn in verify.CHECKS)
    return checks


def main(argv: list[str]) -> int:
    recorder = Recorder()
    checks = install(recorder)
    from indcubes import cli

    try:
        return cli.main(argv)
    finally:  # also after an argparse exit or an uncaught exception
        sys.stdout.flush()
        payload = {**recorder.summary(), "checks": checks}
        print(MARKER + json.dumps(payload), file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
