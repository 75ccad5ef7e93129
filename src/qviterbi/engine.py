"""Layered circuit assembly, cost expectations, and parameter training.

Three training strategies are provided. The uniform strategy ("upo") shares a
single (beta, gamma) pair across all layers, so the search stays 2-dimensional
at any depth. The staged strategy ("fpo") optimizes one layer at a time with
earlier layers frozen at their chosen values; it computes the frozen layers'
output once per stage, and each evaluation applies only the layer being
optimized to it. The random baseline optimizes all 2p coordinates from random
starts.

Training, the final measurement and the landscape scan evaluate the circuit on
a ``DecodeProblem``, compiled once per call onto the code's 2^k codespace, so
an evaluation takes microseconds: for k up to ``problem.DENSE_WALSH_MAX_K``
each of its transforms is one single-threaded matrix product, above that a
butterfly. At that size worker threads only contend for the interpreter lock,
so the draws run one after another. The final measurement reads the ML optimum and its codewords off the
problem's distance vector, which already holds every codeword's distance.
``run_pqc`` and the ``expectation_*`` functions keep the dense statevector path
as the reference that tests and state dumps use; ``trellis.ml_brute_force``
stays the tests' independent oracle.

All randomness flows from one master seed through counter-based splits, so a
run is reproducible bit for bit.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .codes import BitVector, Code
from .errors import LengthError
from .hamiltonians import build_mixer_hamiltonian
from .nelder_mead import minimize
from .problem import DecodeProblem
from .statevector import (
    CircuitMode,
    Statevector,
    apply_cost_unitary,
    apply_mixer_unitary,
    distances_to,
    measure_counts,
    prepare_full_register,
    prepare_uniform_codespace,
)
from .trellis import ml_brute_force  # noqa: F401 - perfbench/spans.py wraps this name

TWO_PI = 2.0 * math.pi

# Nelder-Mead settings: derivative-free, bounded iteration budget, simplex
# tolerances on parameters and cost.
_NM_OPTIONS = {"maxiter": 300, "xatol": 1e-4, "fatol": 1e-6}

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

    @classmethod
    def uniform_params(cls, p: int, beta: float, gamma: float) -> QaoaParams:
        return cls((float(beta),) * p, (float(gamma),) * p, uniform=True)

    def canonical(self) -> QaoaParams:
        """Angles reduced modulo 2*pi (both unitaries are 2*pi-periodic)."""
        return QaoaParams(
            tuple(float(b) % TWO_PI for b in self.betas),
            tuple(float(g) % TWO_PI for g in self.gammas),
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


def run_pqc(
    code: Code,
    received: BitVector,
    params: QaoaParams,
    mode: CircuitMode = CircuitMode.FOLDED,
) -> Statevector:
    """Prepare the codespace superposition and apply p layers.

    Each layer applies the mixer first, then the cost unitary. Folded mode
    simulates n qubits with the direct basis-pair mixer; full mode simulates
    2n qubits with the gate-level circuits.
    """
    if len(received) != code.n:
        raise LengthError(f"received length {len(received)} != n = {code.n}")
    if mode is CircuitMode.FOLDED:
        sv = prepare_uniform_codespace(code)
        method = "pairing"
    else:
        sv = prepare_full_register(code, received)
        method = "gates"
    if params.p == 0:
        return sv
    mixer = build_mixer_hamiltonian(code)
    for beta, gamma in zip(params.betas, params.gammas):
        apply_mixer_unitary(sv, beta, mixer, method=method)
        apply_cost_unitary(sv, gamma, received, mode)
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


class _Evaluator:
    """Cost of one parameter point, with counter-split seeds in sampled mode."""

    def __init__(self, problem: DecodeProblem, mode: str, shots: int, master: int, stage: int, draw: int):
        if mode not in ("exact", "sampled"):
            raise ValueError("mode must be 'exact' or 'sampled'")
        self.problem = problem
        self.mode = mode
        self.shots = shots
        self.master = master
        self.stage = stage
        self.draw = draw
        self.calls = 0
        # SeedSequence turns a list of ints below 2**32 into this uint32 array,
        # one word each; building it once skips that per-call conversion.
        path = (master, _ROLE_EVAL, stage, draw, 0)
        self._entropy = np.array(path, dtype=np.uint32) if 0 <= master < 1 << 32 else None

    def generator(self) -> np.random.Generator:
        """The next evaluation's generator, ``default_rng(child_seed(master, EVAL, stage, draw, calls))``."""
        if self._entropy is None:
            seed = child_seed(self.master, _ROLE_EVAL, self.stage, self.draw, self.calls)
        else:
            self._entropy[-1] = self.calls
            seed = np.random.SeedSequence(self._entropy).generate_state(1)
        self.calls += 1
        return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))

    def __call__(self, betas, gammas, start: np.ndarray | None = None) -> float:
        probs = self.problem.probabilities(betas, gammas, start)
        if self.mode == "exact":
            return self.problem.expectation(probs)
        return self.problem.expectation_sampled(probs, self.shots, self.generator())


def _optimize(objective, x0: np.ndarray) -> tuple[np.ndarray, float, bool]:
    res = minimize(objective, x0, **_NM_OPTIONS)
    return res.x, res.fun, res.success


def _best_index(records: list[DrawRecord]) -> int:
    # First record attaining the minimum keeps selection deterministic.
    best = min(rec.expectation for rec in records)
    return next(i for i, rec in enumerate(records) if rec.expectation == best)


def _finish(
    strategy: str,
    problem: DecodeProblem,
    records: list[DrawRecord],
    best_params: QaoaParams,
    best_expectation: float,
    shots: int,
    seed: int,
    mode: str,
) -> TrainingResult:
    # The ML optimum and its codewords, read off the distances the problem holds.
    f_min = int(problem.distances.min())
    ratio = (best_expectation / f_min) if f_min > 0 else None

    probs = problem.probabilities(best_params.betas, best_params.gammas)
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
        best_params=best_params,
        best_expectation=best_expectation,
        approximation_ratio=ratio,
        samples=tuple(records),
        distribution=distribution,
        solution_hits=hits,
        shots=shots,
    )


def _check_training_args(p: int, q: int, shots: int) -> None:
    if p < 1:
        raise ValueError("p must be at least 1")
    if q < 1:
        raise ValueError("q must be at least 1")
    if shots < 1:
        raise ValueError("shots must be at least 1")


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
    _check_training_args(p, q, shots)
    problem = DecodeProblem(code, received)

    def run_draw(j: int) -> DrawRecord:
        rng = np.random.default_rng(child_seed(seed, _ROLE_INIT, 0, j))
        x0 = rng.uniform(0.0, TWO_PI, 2)
        evaluator = _Evaluator(problem, mode, shots, seed, 0, j)

        def objective(v):
            return evaluator((v[0],) * p, (v[1],) * p)

        x, fx, ok = _optimize(objective, x0)
        return DrawRecord(
            initial_params=QaoaParams.uniform_params(p, x0[0], x0[1]),
            final_params=QaoaParams.uniform_params(p, x[0], x[1]).canonical(),
            expectation=fx,
            converged=ok,
        )

    records = [run_draw(j) for j in range(q)]
    best = records[_best_index(records)]
    return _finish("UPO", problem, records, best.final_params, best.expectation,
                   shots, seed, mode)


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
    The frozen layers' output is computed once per stage and is the start
    state of every evaluation in it. The reported samples are the final
    stage's records.
    """
    _check_training_args(p, q, shots)
    problem = DecodeProblem(code, received)

    fixed_b: list[float] = []
    fixed_g: list[float] = []
    records: list[DrawRecord] = []
    best_expectation = math.nan
    for stage in range(p):
        base_b, base_g = tuple(fixed_b), tuple(fixed_g)
        frozen = problem.amplitudes(base_b, base_g)

        def run_draw(j: int) -> DrawRecord:
            rng = np.random.default_rng(child_seed(seed, _ROLE_INIT, stage, j))
            x0 = rng.uniform(0.0, TWO_PI, 2)
            evaluator = _Evaluator(problem, mode, shots, seed, stage, j)

            def objective(v):
                return evaluator((v[0],), (v[1],), frozen)

            x, fx, ok = _optimize(objective, x0)
            return DrawRecord(
                initial_params=QaoaParams(base_b + (x0[0],), base_g + (x0[1],)),
                final_params=QaoaParams(base_b + (x[0],), base_g + (x[1],)).canonical(),
                expectation=fx,
                converged=ok,
            )

        records = [run_draw(j) for j in range(q)]
        best = records[_best_index(records)]
        fixed_b.append(best.final_params.betas[-1])
        fixed_g.append(best.final_params.gammas[-1])
        best_expectation = best.expectation

    best_params = QaoaParams(tuple(fixed_b), tuple(fixed_g))
    return _finish("FPO", problem, records, best_params, best_expectation,
                   shots, seed, mode)


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
    _check_training_args(p, q, shots)
    problem = DecodeProblem(code, received)

    def run_draw(j: int) -> DrawRecord:
        rng = np.random.default_rng(child_seed(seed, _ROLE_INIT, 0, j))
        x0 = rng.uniform(0.0, TWO_PI, 2 * p)
        evaluator = _Evaluator(problem, mode, shots, seed, 0, j)

        def objective(v):
            return evaluator(v[:p], v[p:])

        x, fx, ok = _optimize(objective, x0)
        return DrawRecord(
            initial_params=QaoaParams(tuple(x0[:p]), tuple(x0[p:])),
            final_params=QaoaParams(tuple(x[:p]), tuple(x[p:])).canonical(),
            expectation=fx,
            converged=ok,
        )

    records = [run_draw(j) for j in range(q)]
    best = records[_best_index(records)]
    return _finish("RANDOM", problem, records, best.final_params, best.expectation,
                   shots, seed, mode)


TRAINERS = {"upo": train_upo, "fpo": train_fpo, "random": train_random}


def landscape_scan(code: Code, received: BitVector, p: int, grid: int) -> np.ndarray:
    """Exact cost expectation over a uniform (beta, gamma) grid on [0, 2*pi)^2.

    Returns an array of (beta, gamma, expectation) rows, beta-major, with
    grid**2 rows; all p layers share the grid point's parameter pair.
    """
    if grid < 2:
        raise ValueError("grid must be at least 2")
    if grid * grid > MAX_LANDSCAPE_ROWS:
        raise ValueError(f"grid**2 = {grid * grid} rows exceeds the limit of {MAX_LANDSCAPE_ROWS}")
    problem = DecodeProblem(code, received)
    axis = np.linspace(0.0, TWO_PI, grid, endpoint=False)
    rows = np.empty((grid * grid, 3), dtype=float)
    i = 0
    for beta in axis:
        for gamma in axis:
            rows[i] = (beta, gamma, problem.expectation(problem.probabilities((beta,) * p, (gamma,) * p)))
            i += 1
    return rows
