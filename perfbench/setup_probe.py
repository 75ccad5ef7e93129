"""Child process for setup_s: import qviterbi and load the given codes.

Prints the CLOCK_MONOTONIC reading at which the first request could start.
The parent reads the same clock just before it starts this process, so the
difference covers interpreter start-up, ``import qviterbi`` and ``load_code``.

Usage: python3 perfbench/setup_probe.py CODE_SOURCE...
"""
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import qviterbi  # noqa: E402

for source in sys.argv[1:]:
    qviterbi.load_code(source)
print(repr(time.clock_gettime(time.CLOCK_MONOTONIC)))
