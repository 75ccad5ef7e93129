"""The benchmark's own correctness checks and exact re-scoring.

The ML oracle here is a numpy distance scan over the codewords that
``workloads.analyse`` enumerated itself; it shares no code with the library's
trellis or brute-force decoders.
"""
from __future__ import annotations

from workloads import CodeInfo, Request, popcount

DISTRIBUTION_TOL = 1e-9


def ml_oracle(code: CodeInfo, received: str) -> tuple[int, set[str]]:
    """Minimum distance to ``received`` and every codeword attaining it."""
    dist = popcount(code.codewords ^ int(received, 2))
    best = int(dist.min())
    return best, {format(int(w), f"0{code.n}b") for w in code.codewords[dist == best]}


def _top_state(distribution: dict[str, float]) -> str:
    return sorted(distribution.items(), key=lambda kv: (-kv[1], kv[0]))[0][0]


def check_report(req: Request, code: CodeInfo, report: dict) -> list[str]:
    """Problems found in one CLI report; an empty list means it is correct."""
    best, words = ml_oracle(code, req.received)
    oracle = report["oracle"] if req.template.command == "decode" else report
    problems = []
    if oracle["best_metric"] != best:
        problems.append(f"best_metric {oracle['best_metric']} != {best}")
    if set(oracle["best_codewords"]) != words or len(oracle["best_codewords"]) != len(words):
        problems.append("best_codewords differ from the ML set")
    if req.template.command != "decode":
        return problems
    dist = report["result"]["distribution"]
    total = sum(dist.values())
    if req.template.mode == "exact":
        if abs(total - 1.0) > DISTRIBUTION_TOL:
            problems.append(f"distribution sums to {total!r}")
    elif total != req.template.shots:
        problems.append(f"sampled distribution counts {total!r} shots, asked for {req.template.shots}")
    if any(len(state) != code.n or set(state) - {"0", "1"} for state in dist):
        problems.append("distribution has a malformed state")
    if report["oracle_agrees"] != (_top_state(dist) in words):
        problems.append("oracle_agrees does not match the distribution's top state")
    return problems


def rescore(qv, code_obj, code: CodeInfo, req: Request, report: dict) -> tuple[float, float | None]:
    """Exact ML mass and <cost>/f_min at the report's best_params.

    ``qv`` is the imported qviterbi package; its public ``run_pqc`` and
    ``expectation_exact`` are called directly, so tracing wrappers installed
    on the engine module never see these calls.
    """
    bp = report["result"]["best_params"]
    params = qv.QaoaParams(tuple(bp["betas"]), tuple(bp["gammas"]))
    received = qv.BitVector.from_string(req.received)
    sv = qv.run_pqc(code_obj, received, params)
    best, words = ml_oracle(code, req.received)
    probs = sv.probabilities()
    mass = float(sum(probs[int(w, 2)] for w in words))
    ratio = qv.expectation_exact(sv, received) / best if best > 0 else None
    return mass, ratio
