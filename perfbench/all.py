"""Run every workload, each in a fresh interpreter, and print one metric table.

    python3 perfbench/all.py --seed 1 --seconds 20 [--trace 1]

Exits non-zero if any run fails or reports an incorrect output.
"""
import argparse
import json
import os
import subprocess
import sys

from workloads import WORKLOADS

RUN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    ok = True
    for workload in WORKLOADS:
        done = subprocess.run(
            [sys.executable, RUN, "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, check=False)
        lines = done.stdout.splitlines()
        if done.returncode != 0 or not lines:
            print(f"{workload}: exit {done.returncode}\n{done.stderr}", file=sys.stderr)
            ok = False
            continue
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        print(f"{workload:15s} {'correct':45s} {result['correct']!s:>14} "
              f"({result['failed']} of {result['attempted']} failed)")
        ok = ok and result["correct"]
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
