"""Run one `indcubes` CLI command exactly as `python -m indcubes` would, while
a speedometer samples how fast the host runs Python at that moment.

    python3 perfbench/speed_child.py <indcubes arguments...>
    python3 perfbench/speed_child.py --import-only

The host this benchmark was written on shares its cores: the same code runs
up to twice as slow from one second to the next, and the slow spells last
from seconds to minutes. So a timer signal interrupts the command every
TICK_S of its CPU time and times one pass of a fixed reference loop (about
1 ms); run.py divides each stretch of the command's wall time by the
reference time measured around it (see speed_normalised in run.py). Passes
are also timed at the start and at the end. The reference time is left out
of every measurement.

The timer counts user CPU time (ITIMER_VIRTUAL), not wall time, so it never
fires while the command sleeps in a system call. A signal that interrupts a
blocked write to a pipe makes Python 3.11's buffered stdout drop the rest of
a large `print`, without an error.

stdout is the command's own, byte for byte. The last stderr line is
`PERFBENCH-SPEED <json>`: the perf_counter (start, duration) of every
reference pass. `--import-only` imports `indcubes.cli` and exits, which
times the CLI's set-up.
"""

from __future__ import annotations

import json
import runpy
import signal
import sys
from array import array
from time import perf_counter

MARKER = "PERFBENCH-SPEED "
TICK_S = 0.1
#: One pass of the reference loop; a fixed mix of what the CLI spends its
#: time on: bytecode, small big-int arithmetic and indexed stores.
REFERENCE_ITERATIONS = 3000

# A pass and its record allocate no object that the garbage collector
# tracks, so the speedometer does not move the command's collections and
# with them its peak RSS.
slots = [0] * 512
starts = array("d")
durations = array("d")


def reference_pass() -> int:
    x = 1
    for i in range(REFERENCE_ITERATIONS):
        x = (x * 3 + i) & ((1 << 256) - 1)
        slots[i & 511] = x
    return x


def sample(*_signal_args) -> None:
    start = perf_counter()
    reference_pass()
    durations.append(perf_counter() - start)
    starts.append(start)


def main(argv: list[str]) -> None:
    # The first pass runs cold and slow; the second gives the speed at the
    # start, and run.py's smoothing median drops the first.
    sample()
    sample()
    signal.signal(signal.SIGVTALRM, sample)
    signal.setitimer(signal.ITIMER_VIRTUAL, TICK_S, TICK_S)
    try:
        if argv == ["--import-only"]:
            import indcubes.cli  # noqa: F401
        else:
            sys.argv = ["indcubes", *argv]
            runpy.run_module("indcubes", run_name="__main__", alter_sys=True)
    finally:  # also after sys.exit, an argparse exit or an uncaught exception
        signal.setitimer(signal.ITIMER_VIRTUAL, 0, 0)
        sys.stdout.flush()
        sample()
        print(MARKER + json.dumps(list(zip(starts, durations))), file=sys.stderr)


if __name__ == "__main__":
    main(sys.argv[1:])
