"""Time one evaluation of a bound decode objective in two source trees.

    python tests/objective_timing.py PARENT_SRC CHANGE_SRC [ROUNDS]

PARENT_SRC and CHANGE_SRC are each a directory that holds the ``qviterbi``
package (a checkout's ``src``). The cases are every code of the benchmark's
decode workloads (``perfbench/workloads.py``) at p = 1, 2 and 3, in exact and
in sampled mode (256 shots, the decode_sampled setting). A case binds
``DecodeProblem(code, received).cost()``, or ``cost(shots=256, rng=...)``, on
a seeded received word and times calls at one uniform angle pair, the UPO
evaluation: the number of calls doubles until a batch takes 20 ms, and the
case's time is the best of 5 such batches. Each round (default 5) runs one
fresh process per tree, the two trees alternating which goes first. The
script prints, per case, the median over rounds of each tree's microseconds
per evaluation and the change's time as a fraction of the parent's. It
imports ``perfbench`` and changes nothing in it. Its name does not start
with ``test_``, so pytest does not collect it.
"""
from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import timeit

HERE = os.path.dirname(os.path.abspath(__file__))
PERFBENCH = os.path.join(os.path.dirname(HERE), "perfbench")
SHOTS = 256
BATCH_S = 0.02
REPEATS = 5


def decode_codes() -> list[str]:
    from workloads import WORKLOADS

    return list(dict.fromkeys(t.code for ts in WORKLOADS.values() for t in ts if t.command == "decode"))


def time_tree() -> dict[str, float]:
    """Case name -> best microseconds per evaluation, in this process's ``qviterbi``."""
    import numpy as np

    from qviterbi import BitVector, Gf2Matrix, code_from_codewords, code_from_generator
    from qviterbi.problem import DecodeProblem
    from workloads import SPECS

    times = {}
    for name in decode_codes():
        body = SPECS[name][1]
        if "generator" in body:
            code = code_from_generator(Gf2Matrix.from_rows(body["generator"]))
        else:
            code = code_from_codewords([BitVector.from_string(w) for w in body["codewords"]])
        rng = np.random.default_rng(0)
        problem = DecodeProblem(code, BitVector(code.n, int(rng.integers(1 << code.n))))
        beta, gamma = rng.uniform(0.0, 6.28, 2).tolist()
        for p in (1, 2, 3):
            for mode in ("exact", "sampled"):
                cost = problem.cost() if mode == "exact" else problem.cost(shots=SHOTS, rng=rng)
                betas, gammas = (beta,) * p, (gamma,) * p
                timer = timeit.Timer(lambda: cost(betas, gammas))
                number = 1
                while timer.timeit(number) < BATCH_S:
                    number *= 2
                best = min(timer.repeat(REPEATS, number)) / number
                times[f"{name} k={code.k} p={p} {mode}"] = best * 1e6
    return times


def run_tree(src: str) -> dict[str, float]:
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, __file__, "--tree"], env=env, capture_output=True, text=True,
                         timeout=1800, check=True)
    return json.loads(out.stdout)


def main(argv: list[str]) -> int:
    if argv == ["--tree"]:
        sys.path.insert(0, PERFBENCH)
        print(json.dumps(time_tree()))
        return 0
    if len(argv) not in (2, 3):
        print(__doc__, file=sys.stderr)
        return 2
    trees = argv[:2]
    rounds = int(argv[2]) if len(argv) == 3 else 5
    runs: dict[str, list[dict[str, float]]] = {src: [] for src in trees}
    for r in range(rounds):
        for src in (trees if r % 2 == 0 else trees[::-1]):
            runs[src].append(run_tree(src))
    parent, change = (runs[src] for src in trees)
    print(f"{'case':34} {'parent us':>10} {'change us':>10} {'ratio':>6}   (median of {rounds} rounds)")
    for case in parent[0]:
        a = statistics.median(r[case] for r in parent)
        b = statistics.median(r[case] for r in change)
        print(f"{case:34} {a:10.2f} {b:10.2f} {b / a:6.3f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
