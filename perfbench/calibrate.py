"""Fixed units of work that tell how fast the machine runs at the moment.

On a shared virtual machine the same code runs up to twice as fast at
one moment as at another, and the speed drifts over minutes. The
benchmark times a unit between the processes it times and scales each
process's times by the unit's reference time over its measured time on
either side of the process. The end-to-end times are therefore in
seconds of a machine that runs the unit in its reference time. Each
unit matches the kind of work it scales: ``PYTHON`` (in-process dict,
string and JSON work) scales the ``report`` runs, ``STARTUP`` (a fresh
interpreter that imports numpy) scales the set-up probes, whose time is
mostly interpreter start and imports. Neither imports ``textpersona``,
so no change to the program moves them.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from typing import Callable

REPEATS = 3


def _python_work() -> None:
    counts: dict[str, int] = {}
    total = 0
    for i in range(60_000):
        key = str(i * 7919 % 100_003)
        counts[key] = counts.get(key, 0) + 1
        total += len(key)
    text = json.dumps(sorted(counts.items())[:20_000])
    for piece in text.split(",")[:30_000]:
        total += piece.find("1")


def _startup_work() -> None:
    subprocess.run([sys.executable, "-c", "import numpy"], check=True,
                   stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL)


@dataclass(frozen=True)
class Unit:
    work: Callable[[], None]
    reference_s: float  # about the unit's median time on a shared 2-core Xeon virtual machine


PYTHON = Unit(_python_work, 0.1)
STARTUP = Unit(_startup_work, 0.2)


def unit_time(unit: Unit) -> float:
    """Median wall time of ``REPEATS`` runs of the unit."""
    times = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        unit.work()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


class Speed:
    """Unit times taken between timed processes.

    Create it just before the first timed process and call ``scale``
    just after each one.
    """

    def __init__(self, unit: Unit):
        self.unit = unit
        self.times: list[float] = [unit_time(unit)]

    def scale(self) -> float:
        """Factor for the process that just ended: the reference time over the mean unit time on its two sides."""
        self.times.append(unit_time(self.unit))
        return 2 * self.unit.reference_s / (self.times[-2] + self.times[-1])
