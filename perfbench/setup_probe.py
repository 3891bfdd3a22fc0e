"""One cold start of padicgabor: seconds from the first line to the first op being ready.

Usage: python3 perfbench/setup_probe.py SRC_DIR   (prints one float)
"""
import time

T0 = time.perf_counter()

import sys  # noqa: E402

sys.path.insert(0, sys.argv[1])
from padicgabor import cli  # noqa: E402,F401

print(time.perf_counter() - T0)
