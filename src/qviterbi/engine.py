"""Layered circuit assembly, cost expectations, and parameter training.

The three training strategies are one staged loop, ``_train``: a round runs
q Nelder-Mead draws over the angles of the layers it adds, with the layers
earlier rounds chose frozen and their output computed once, and keeps the
best draw. The uniform strategy ("upo") is one round of all p layers sharing
one (beta, gamma) pair, so its search is 2-dimensional at any depth. The
staged strategy ("fpo") is p rounds of one layer each. The random baseline is
one round over all 2p coordinates.

Training, the final measurement and the landscape scan evaluate the circuit on
a ``DecodeProblem``, compiled once per call onto the code's 2^k codespace: for
k up to ``problem.DENSE_WALSH_MAX_K`` each of its transforms is one
single-threaded matrix product, above that a butterfly. One evaluation of a
draw's objective at p = 1 to 3 and uniform angles took 5-12 us exact and
8-18 us sampled (256 shots) for k <= 5, 11-37 us exact and 19-49 us sampled
for k = 6 and 7, and 0.3-0.8 ms for Hamming [15, 11] (k = 11): medians of five
fresh-process rounds of ``tests/objective_timing.py`` on a 2-vCPU Xeon VM. At
that size worker threads only contend for the interpreter lock, so the draws
run one after another. Each draw binds its objective once,
``problem.cost(start)``, or ``problem.cost(start, shots=shots, rng=rng)`` in
sampled mode, and Nelder-Mead calls it through the strategy's ``layers``
alone; the landscape scan reads the exact cost the same way. The final
measurement reads the ML optimum and its codewords off the problem's distance
vector, which already holds every codeword's distance.

``run_pqc`` and the ``expectation_*`` functions run the same circuit on the
folded n-qubit statevector of ``statevector``, which writes the codespace
superposition directly and takes the mixer as its tuple of X-masks; no gate
and no Pauli form of either generator exists in the package. It serves
``--dump-state``, the benchmark re-scores reports with it
(``perfbench/checks.py``), and the tests check the compiled problem against
it. The gates, the 2n-qubit full-register circuit and the plain expectation
compositions the bound objective is checked against are test references
(``tests/reference.py``). The ``statevector`` names imported here,
``minimize`` and ``trellis.ml_brute_force`` are looked up in this module
because ``perfbench/spans.py`` wraps them here; ``ml_brute_force`` also stays
the tests' independent oracle.

All randomness flows from one master seed through counter-based splits, so a
run is reproducible bit for bit. Draw j of round s starts from
``child_seed(master, INIT, s, j)``; in sampled mode it also builds one
generator, ``default_rng(child_seed(master, EVAL, s, j))``, and every
evaluation of the draw takes its shots from it in call order. A draw's noise
therefore depends only on its own evaluations, not on how many the other draws
made. The final measurement uses ``child_seed(master, MEASURE)``.
"""
from __future__ import annotations

import math
from collections.abc import Callable, Sequence
from dataclasses import dataclass

import numpy as np

from .codes import BitVector, Code
from .errors import LengthError
from .nelder_mead import minimize
from .problem import DecodeProblem
from .statevector import (
    Statevector,
    apply_cost_unitary,
    apply_mixer_unitary,
    build_mixer_hamiltonian,
    distances_to,
    measure_counts,
    prepare_uniform_codespace,
)
from .trellis import ml_brute_force  # noqa: F401 - perfbench/spans.py wraps this name

TWO_PI = 2.0 * math.pi

# Most measurement shots: a sampled expectation sums shots * distance in int64,
# and distances are at most n, so shots * n must stay below 2^63.
MAX_SHOTS = 1 << 32

# Most circuit layers; every evaluation applies p layers, and the random
# strategy's simplex holds (2p + 1) x 2p floats.
MAX_LAYERS = 64

# Largest landscape grid, in (beta, gamma) rows.
MAX_LANDSCAPE_ROWS = 1 << 20

# Seed-split roles, combined with stage and draw indices.
_ROLE_INIT = 1
_ROLE_EVAL = 2
_ROLE_MEASURE = 3


@dataclass(frozen=True)
class QaoaParams:
    """Per-layer mixer and cost angles, in radians."""

    betas: tuple[float, ...]
    gammas: tuple[float, ...]
    uniform: bool = False

    def __post_init__(self):
        if len(self.betas) != len(self.gammas):
            raise ValueError("betas and gammas must have equal length")
        if self.uniform and self.p > 1:
            if len(set(self.betas)) != 1 or len(set(self.gammas)) != 1:
                raise ValueError("uniform flag requires all betas equal and all gammas equal")

    @property
    def p(self) -> int:
        return len(self.betas)

    def canonical(self) -> QaoaParams:
        """Angles reduced modulo 2*pi into [0, 2*pi) (both unitaries are 2*pi-periodic).

        A tiny negative angle rounds to exactly 2*pi under one ``%``; the
        second maps that to 0 and leaves every other value as it is.
        """
        return QaoaParams(
            tuple(float(b) % TWO_PI % TWO_PI for b in self.betas),
            tuple(float(g) % TWO_PI % TWO_PI for g in self.gammas),
            self.uniform,
        )

    def to_json_dict(self) -> dict:
        return {"p": self.p, "betas": list(self.betas), "gammas": list(self.gammas), "uniform": self.uniform}


@dataclass(frozen=True)
class DrawRecord:
    """One optimizer run: where it started, where it ended, what it achieved."""

    initial_params: QaoaParams
    final_params: QaoaParams
    expectation: float
    converged: bool

    def to_json_dict(self) -> dict:
        return {
            "initial_params": self.initial_params.to_json_dict(),
            "final_params": self.final_params.to_json_dict(),
            "expectation": self.expectation,
            "converged": self.converged,
        }


@dataclass(frozen=True)
class TrainingResult:
    strategy: str
    best_params: QaoaParams
    best_expectation: float
    approximation_ratio: float | None
    samples: tuple[DrawRecord, ...]
    distribution: dict[str, float]
    solution_hits: int
    shots: int

    def to_json_dict(self) -> dict:
        return {
            "strategy": self.strategy,
            "best_params": self.best_params.to_json_dict(),
            "best_expectation": self.best_expectation,
            "approximation_ratio": self.approximation_ratio,
            "samples": [rec.to_json_dict() for rec in self.samples],
            "distribution": self.distribution,
            "solution_hits": self.solution_hits,
            "shots": self.shots,
        }


def child_seed(master: int, *path: int) -> int:
    """Deterministic 32-bit seed derived from a master seed and an index path."""
    return int(np.random.SeedSequence([int(master), *map(int, path)]).generate_state(1)[0])


def run_pqc(code: Code, received: BitVector, params: QaoaParams) -> Statevector:
    """Prepare the codespace superposition on n qubits and apply p layers.

    Each layer applies the mixer first, then the cost unitary.
    """
    if len(received) != code.n:
        raise LengthError(f"received length {len(received)} != n = {code.n}")
    sv = prepare_uniform_codespace(code)
    if params.p == 0:
        return sv
    mixer = build_mixer_hamiltonian(code)
    for beta, gamma in zip(params.betas, params.gammas):
        apply_mixer_unitary(sv, beta, mixer)
        apply_cost_unitary(sv, gamma, received)
    return sv


def expectation_exact(sv: Statevector, received: BitVector) -> float:
    """Exact cost expectation: sum over basis states of prob * distance."""
    if sv.num_qubits != len(received):
        raise LengthError(f"state has {sv.num_qubits} qubits, received has {len(received)} bits")
    return float(np.dot(sv.probabilities(), distances_to(received)))


def expectation_sampled(sv: Statevector, received: BitVector, shots: int, seed: int) -> float:
    """Cost expectation estimated from a seeded finite-shot measurement."""
    if sv.num_qubits != len(received):
        raise LengthError(f"state has {sv.num_qubits} qubits, received has {len(received)} bits")
    counts = measure_counts(sv, shots, seed)
    r_int = received.to_index()
    total = sum(c * (int(state, 2) ^ r_int).bit_count() for state, c in counts.items())
    return total / shots


def _finish(
    strategy: str,
    problem: DecodeProblem,
    records: list[DrawRecord],
    best: DrawRecord,
    shots: int,
    seed: int,
    mode: str,
) -> TrainingResult:
    # The ML optimum and its codewords, read off the distances the problem holds.
    f_min = int(problem.distances.min())
    ratio = (best.expectation / f_min) if f_min > 0 else None

    probs = problem.probabilities(best.final_params.betas, best.final_params.gammas)
    counts = problem.sample(probs, shots, child_seed(seed, _ROLE_MEASURE))
    hits = int(counts[problem.distances == f_min].sum())

    if mode == "exact":
        weights = probs.tolist()
        kept = [i for i, p in enumerate(weights) if p > 1e-15]
    else:
        weights = counts.astype(float).tolist()
        kept = np.flatnonzero(counts).tolist()
    distribution = {problem.bit_string(i): weights[i] for i in kept}

    return TrainingResult(
        strategy=strategy,
        best_params=best.final_params,
        best_expectation=best.expectation,
        approximation_ratio=ratio,
        samples=tuple(records),
        distribution=distribution,
        solution_hits=hits,
        shots=shots,
    )


def _train(strategy: str, code: Code, received: BitVector, p: int, q: int, shots: int, seed: int, mode: str,
           stages: int, dim: int, layers: Callable[[np.ndarray], tuple[Sequence[float], Sequence[float]]],
           uniform: bool = False) -> TrainingResult:
    """Best of q Nelder-Mead draws, in ``stages`` rounds that each add layers.

    A round freezes the previous round's winning parameters as a prefix and
    computes the prefix's output once; each evaluation applies only the new
    layers ``layers(x) -> (betas, gammas)`` of a point x in ``dim``
    coordinates. Draw j of round s starts from
    ``default_rng(child_seed(seed, INIT, s, j)).uniform(0, 2*pi, dim)``. The
    first record attaining a round's minimum wins, so selection is
    deterministic; the reported samples are the last round's records.
    """
    if not 1 <= p <= MAX_LAYERS:
        raise ValueError(f"p must be between 1 and {MAX_LAYERS}")
    if q < 1:
        raise ValueError("q must be at least 1")
    if not 1 <= shots <= MAX_SHOTS:
        raise ValueError(f"shots must be between 1 and {MAX_SHOTS}")
    if mode not in ("exact", "sampled"):
        raise ValueError("mode must be 'exact' or 'sampled'")
    problem = DecodeProblem(code, received)
    prefix = QaoaParams((), ())
    for stage in range(stages):
        start = problem.amplitudes(prefix.betas, prefix.gammas)

        def params(x) -> QaoaParams:
            betas, gammas = layers(x)
            return QaoaParams(prefix.betas + tuple(betas), prefix.gammas + tuple(gammas), uniform)

        records = []
        for j in range(q):
            x0 = np.random.default_rng(child_seed(seed, _ROLE_INIT, stage, j)).uniform(0.0, TWO_PI, dim)
            if mode == "sampled":
                rng = np.random.default_rng(child_seed(seed, _ROLE_EVAL, stage, j))
                cost = problem.cost(start, shots=shots, rng=rng)
            else:
                cost = problem.cost(start)
            res = minimize(lambda v: cost(*layers(v)), x0)
            records.append(DrawRecord(params(x0), params(res.x).canonical(), res.fun, res.success))
        best = min(records, key=lambda rec: rec.expectation)
        prefix = best.final_params
    return _finish(strategy, problem, records, best, shots, seed, mode)


def train_upo(
    code: Code,
    received: BitVector,
    p: int,
    q: int,
    shots: int,
    seed: int,
    mode: str = "exact",
) -> TrainingResult:
    """Uniform-parameter training: all p layers share one (beta, gamma) pair.

    q independent random starts are each refined by Nelder-Mead over the
    2-dimensional shared-parameter space; the draw with the lowest cost
    expectation wins.
    """
    return _train("UPO", code, received, p, q, shots, seed, mode, stages=1, dim=2,
                  layers=lambda v: ((v[0],) * p, (v[1],) * p), uniform=True)


def train_fpo(
    code: Code,
    received: BitVector,
    p: int,
    q: int,
    shots: int,
    seed: int,
    mode: str = "exact",
) -> TrainingResult:
    """Staged training: grow the circuit one layer at a time.

    At stage l the l-1 previously chosen pairs stay frozen and only
    (beta_l, gamma_l) is optimized, again as the best of q random starts.
    The reported samples are the final stage's records.
    """
    return _train("FPO", code, received, p, q, shots, seed, mode, stages=p, dim=2,
                  layers=lambda v: ((v[0],), (v[1],)))


def train_random(
    code: Code,
    received: BitVector,
    p: int,
    q: int,
    shots: int,
    seed: int,
    mode: str = "exact",
) -> TrainingResult:
    """Random-start baseline over the full 2p-dimensional parameter space."""
    return _train("RANDOM", code, received, p, q, shots, seed, mode, stages=1, dim=2 * p,
                  layers=lambda v: (v[:p], v[p:]))


TRAINERS = {"upo": train_upo, "fpo": train_fpo, "random": train_random}


def landscape_scan(code: Code, received: BitVector, p: int, grid: int) -> np.ndarray:
    """Exact cost expectation over a uniform (beta, gamma) grid on [0, 2*pi)^2.

    Returns an array of (beta, gamma, expectation) rows, beta-major, with
    grid**2 rows; all p layers share the grid point's parameter pair.
    """
    if not 1 <= p <= MAX_LAYERS:
        raise ValueError(f"p must be between 1 and {MAX_LAYERS}")
    if grid < 2:
        raise ValueError("grid must be at least 2")
    if grid * grid > MAX_LANDSCAPE_ROWS:
        raise ValueError(f"grid**2 = {grid * grid} rows exceeds the limit of {MAX_LANDSCAPE_ROWS}")
    cost = DecodeProblem(code, received).cost()
    axis = np.linspace(0.0, TWO_PI, grid, endpoint=False)
    rows = np.empty((grid * grid, 3), dtype=float)
    i = 0
    for beta in axis:
        for gamma in axis:
            rows[i] = (beta, gamma, cost((beta,) * p, (gamma,) * p))
            i += 1
    return rows
