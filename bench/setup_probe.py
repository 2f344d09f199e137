"""Time the benchmark set-up once in this fresh interpreter.

Usage: python3 bench/setup_probe.py <src-dir>
Prints the seconds `env.set_up` took, import of the package included, and
the factor to reference seconds that reference passes around it give.
"""
import sys
import time

sys.path.insert(0, sys.argv[1])

from env import set_up  # noqa: E402  (env imports nothing from the package at load)
from reference import reference_pass, scale  # noqa: E402

reference_pass()  # the first pass in a fresh interpreter runs slower
before = [reference_pass() for _ in range(2)]
start = time.perf_counter()
set_up()
elapsed = time.perf_counter() - start
after = [reference_pass() for _ in range(2)]
print(repr(elapsed), repr(scale(before + after)))
