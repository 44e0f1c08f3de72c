"""The machine under the benchmark: CPU steal, and keeping CPUs awake.

On a shared virtual machine a virtual CPU with nothing to run halts,
and the hypervisor must schedule it again before it can handle the
next interrupt.  The kernel counts that wait, and any other time the
host held a physical CPU another guest wanted, as ``steal`` in
``/proc/stat``.  The served table workloads keep only about a quarter
of the machine busy and wake a halted CPU several times per request,
so on a loaded host those waits made up most of their tail latency.
:class:`IdlePoll` keeps every CPU running instead (the ``idle=poll``
boot option, done from user space), and :func:`steal_share` measures
what steal remains.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

#: A timed phase with a larger share of its CPU time stolen makes the
#: run invalid: at that share a quarter-bounded metric can move by
#: close to half its bound for reasons outside the program.
STEAL_LIMIT = 0.10

#: One spinner: lowest scheduling class (any runnable thread of the
#: benchmark or the server preempts it at once), and it ends when its
#: parent does.
_SPIN = """\
import os, sys
os.sched_setscheduler(0, os.SCHED_IDLE, os.sched_param(0))
parent = int(sys.argv[1])
while os.getppid() == parent:
    for _ in range(100_000):
        pass
"""


def cpu_times(stat: Path = Path("/proc/stat")) -> list[int] | None:
    """The aggregate ``cpu`` line of ``/proc/stat`` in clock ticks
    (user, nice, system, idle, iowait, irq, softirq, steal, ...), or
    ``None`` where there is no such file."""
    try:
        first = stat.read_text().splitlines()[0]
    except (OSError, IndexError):
        return None
    fields = first.split()
    if not fields or fields[0] != "cpu" or len(fields) < 9:
        return None
    return [int(x) for x in fields[1:]]


def steal_share(before: list[int] | None, after: list[int] | None) -> float | None:
    """Steal ticks over all ticks between two :func:`cpu_times`
    readings, or ``None`` when either is unknown or no time passed.
    Guest time (fields 9 and 10) is already counted in user time."""
    if before is None or after is None:
        return None
    delta = [b - a for a, b in zip(before[:8], after[:8])]
    total = sum(delta)
    return delta[7] / total if total > 0 else None


class IdlePoll:
    """Within the ``with`` block, one idle-priority spinner process per
    CPU keeps every CPU from halting.  Where the idle scheduling class
    is missing (outside Linux) nothing is started."""

    def __init__(self) -> None:
        self.procs: list[subprocess.Popen] = []

    def __enter__(self) -> "IdlePoll":
        if hasattr(os, "SCHED_IDLE"):
            self.procs = [
                subprocess.Popen([sys.executable, "-c", _SPIN, str(os.getpid())])
                for _ in range(os.cpu_count() or 1)
            ]
        return self

    def running(self) -> int:
        """Spinners still running (one that could not take the idle
        class has exited with an error)."""
        return sum(p.poll() is None for p in self.procs)

    def __exit__(self, *exc) -> None:
        for proc in self.procs:
            if proc.poll() is None:
                proc.terminate()
        for proc in self.procs:
            proc.wait()
