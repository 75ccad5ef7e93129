"""Time each CLI subcommand as a fresh process, import included, under two source trees.

    python tests/cold_start.py PARENT_SRC CHANGE_SRC [RUNS]

PARENT_SRC and CHANGE_SRC are each a directory that holds the ``qviterbi``
package (a checkout's ``src``). Every command below runs RUNS times (default
12) per tree as ``python -m qviterbi.cli`` in a fresh interpreter, alternating
between the trees and swapping which goes first each round, so drift in the
host's speed falls on both alike. The script prints the median and quartiles of
each command's wall time in milliseconds, and how many runs printed the same
stdout bytes under both trees; it exits 1 if any run's stdout differs. The
Golay [24,12,8] code file and the conv20 codeword-list file (the terminated
rate-1/2 [20,8,5] convolutional code, the median request of the benchmark's
oracle_bulk workload) are written by ``perfbench/workloads``, which the script
imports and does not change. Its name does not start with ``test_``,
so pytest does not collect it.
"""
from __future__ import annotations

import os
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
PERFBENCH = os.path.join(os.path.dirname(HERE), "perfbench")
GOLAY_RECEIVED = "101100111000101011110000"
CONV20_RECEIVED = "11011001110100101100"


def commands(codes_dir: str) -> dict[str, list[str]]:
    """Label -> the CLI argv to time."""
    sys.path.insert(0, PERFBENCH)
    from workloads import write_code_files

    files = write_code_files(["golay24", "conv20"], codes_dir)
    return {
        "oracle lbc_633": ["oracle", "--code", "lbc_633", "--received", "111011"],
        "oracle golay24": ["oracle", "--code", files["golay24"], "--received", GOLAY_RECEIVED],
        "oracle conv20": ["oracle", "--code", files["conv20"], "--received", CONV20_RECEIVED],
        "decode lbc_633": ["decode", "--code", "lbc_633", "--received", "111011", "--p", "2", "--q", "2",
                           "--seed", "3"],
        "landscape lbc_633": ["landscape", "--code", "lbc_633", "--received", "111011", "--p", "1",
                              "--grid", "16"],
    }


def run_once(src: str, argv: list[str]) -> tuple[float, str]:
    """Wall seconds of one fresh ``python -m qviterbi.cli`` process, and its stdout."""
    env = {**os.environ, "PYTHONPATH": os.path.abspath(src)}
    start = time.perf_counter()
    out = subprocess.run([sys.executable, "-m", "qviterbi.cli", *argv], env=env, capture_output=True,
                         text=True, check=True).stdout
    return time.perf_counter() - start, out


def summary(seconds: list[float]) -> str:
    q1, median, q3 = statistics.quantiles([1000 * s for s in seconds], n=4)
    return f"{median:7.1f} [{q1:6.1f}, {q3:6.1f}]"


def main(argv: list[str]) -> int:
    if len(argv) not in (2, 3):
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    trees = argv[:2]
    runs = int(argv[2]) if len(argv) == 3 else 12
    if runs < 2:
        print("RUNS must be at least 2", file=sys.stderr)
        return 2
    mismatches = 0
    print(f"{'command':18s} {'parent ms: median [q1, q3]':>28s} {'change ms: median [q1, q3]':>28s}  stdout")
    with tempfile.TemporaryDirectory() as codes_dir:
        for label, cli_argv in commands(codes_dir).items():
            times: list[list[float]] = [[], []]
            same = 0
            for r in range(runs):
                order = (0, 1) if r % 2 == 0 else (1, 0)
                outs = {}
                for side in order:
                    seconds, outs[side] = run_once(trees[side], cli_argv)
                    times[side].append(seconds)
                same += outs[0] == outs[1]
            mismatches += runs - same
            print(f"{label:18s} {summary(times[0]):>28s} {summary(times[1]):>28s}  {same}/{runs} identical")
    return 1 if mismatches else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
