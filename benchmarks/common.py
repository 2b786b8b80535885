"""Shared pieces of the benchmark: the op and workload records, and env pinning."""

from __future__ import annotations

import bisect
import os
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

# The benchmark keeps one process busy at a time; a multi-threaded BLAS would
# make timings depend on how many cores are free.
BLAS_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}

# A reference unit's time on the 2-core VM of the README's reference numbers,
# at its usual speed.
LOOP_REFERENCE_S = 0.007
PROCESS_REFERENCE_S = 0.066
REFERENCE_SHARE = 0.08  # of a run's time spent on reference units


def loop_reference() -> float:
    """Slowdown of a fixed unit of interpreter and numpy work.

    It shares no code with fockcalc and allocates no objects the garbage
    collector tracks, so no change to the program can move it; only the
    speed the host gives this process can.
    """
    import numpy as np

    a = np.ones((2, 2), dtype=complex)
    t0 = time.perf_counter()
    acc: dict[int, int] = {}
    for i in range(30_000):
        k = i % 97
        acc[k] = acc.get(k, 0) + (i * 7) % 13
    for _ in range(800):
        a @ a
    return (time.perf_counter() - t0) / LOOP_REFERENCE_S


def process_reference() -> float:
    """Slowdown of starting and ending an interpreter that imports nothing,
    the part of a CLI call no change to the program can move."""
    import subprocess
    import sys

    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "pass"], env=child_env(), check=True)
    return (time.perf_counter() - t0) / PROCESS_REFERENCE_S


class HostClock:
    """Samples a reference unit all through a run.

    On the 2-core VM of the README's reference numbers the same work runs at
    anywhere from ~0.7x to ~1.5x its usual speed, in spells of seconds to
    minutes.  A time divided by the slowdown sampled around it reads as on
    the host at its usual speed, which takes most of that drift out of the
    spread between runs.  Samples are spaced so that they take about
    REFERENCE_SHARE of the run.
    """

    def __init__(self, reference: Callable[[], float]):
        self.reference = reference
        self.times: list[float] = []
        self.samples: list[float] = []
        self.spent = 0.0
        self._cost = 0.0
        self._last = time.perf_counter()

    def sample(self) -> None:
        t0 = time.perf_counter()
        self.samples.append(self.reference())
        self._last = time.perf_counter()
        self.times.append(0.5 * (t0 + self._last))
        self._cost = self._last - t0
        self.spent += self._cost

    def tick(self) -> None:
        if time.perf_counter() - self._last >= self._cost / REFERENCE_SHARE:
            self.sample()

    def at(self, t: float) -> float:
        """Mean slowdown of the two samples before and the two after time t."""
        j = bisect.bisect_left(self.times, t)
        return statistics.fmean(self.samples[max(0, j - 2) : j + 2])

    @property
    def slowdown(self) -> float:
        return statistics.fmean(self.samples)


def child_env() -> dict[str, str]:
    """Environment for every process the benchmark starts."""
    env = dict(os.environ)
    env.update(BLAS_ENV)
    env["PYTHONPATH"] = str(SRC)
    return env


def call(name: str, *args, **kwargs):
    """Call ``fockcalc.<name>`` as bound when the op runs, not when it was built,
    so that the traced run's wrappers see the call."""
    import fockcalc

    return getattr(fockcalc, name)(*args, **kwargs)


@dataclass
class Op:
    """One timed operation.

    ``fn`` does the work and returns its result.  ``judge`` (optional) maps
    that result to ``None`` when the op behaved, or to the reason it failed;
    an in-process op fails only by raising.
    """

    name: str
    fn: Callable[[], object]
    judge: Callable[[object], str | None] | None = None


@dataclass
class Workload:
    """A fixed op list plus the check of one pass's results.

    ``check`` receives the results of one pass (``None`` where an op
    failed) and returns a list of error strings, empty when every output is
    right.  ``warm`` fills the program's caches before the first timed op.
    ``reference`` samples the host's slowdown on work like the ops'.  A CLI
    workload gives each op's argv (``replay_argv``), which the traced run
    replays in-process, and the ops that fail by known program faults.
    """

    ops: list[Op]
    check: Callable[[list], list[str]]
    warm: Callable[[], None] = lambda: None
    reference: Callable[[], float] = loop_reference
    replay_argv: dict[str, list[str]] | None = None
    known_faults: dict[str, str] = field(default_factory=dict)
