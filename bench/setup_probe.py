"""Set-up time of one workload in a fresh interpreter.

    python3 bench/setup_probe.py <workload>

Run from the root of a checkout. Prints the seconds it took to import
mecoffload from src/ and build the workload's configs.
"""

import time

_T0 = time.perf_counter()

import os  # noqa: E402
import sys  # noqa: E402

from sweep import WORKLOADS, import_package  # noqa: E402

pkg = import_package(os.getcwd())
if pkg is None:
    sys.exit("setup_probe: no mecoffload source tree under ./src")
WORKLOADS[sys.argv[1]].configs(pkg.ScenarioConfig)
print(time.perf_counter() - _T0)
