"""Time one fresh-interpreter set-up of a workload and print it in seconds.

    python3 benchmarks/setup_probe.py <workload> <seed> <workdir>

Set-up is importing ``fockcalc``, building the workload's inputs through
the program's constructors or JSON loaders, and filling its caches.  The
clock starts before the first import.  A second number follows: the host's
slowdown on a reference unit, sampled in this same process right after.
"""

import time

T0 = time.perf_counter()

import importlib  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

from common import SRC, loop_reference  # noqa: E402

sys.path.insert(0, str(SRC))
workload = importlib.import_module(sys.argv[1]).setup(int(sys.argv[2]), Path(sys.argv[3]))
workload.warm()
elapsed = time.perf_counter() - T0
print(repr(elapsed), repr(sum(loop_reference() for _ in range(3)) / 3))
