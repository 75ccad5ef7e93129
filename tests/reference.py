"""Test references for the decoder circuit: gates, the 2n-qubit full register and the Pauli cost.

The package ships one dense circuit, the folded n-qubit statevector of
``qviterbi.statevector``, which writes its codespace superposition directly.
This module holds the gates (H, X, CX, Rz) as functions on a ``Statevector``
and builds from them the circuit the paper draws, on a codeword register
(qubits 0 .. n-1) and an ancilla register holding the received word (qubits
n .. 2n-1): the codespace preparation, Hadamards on the generator's pivot
qubits and a CX fan-out of each row; the cost, a CX - Rz(-gamma) - CX
sandwich on each codeword/ancilla pair; and each mixer term, an X-mask over
the codeword register, a Hadamard-conjugated CX chain around one Rz. It also
holds the Pauli form of the cost, Z_i Z_(n+i) terms as (coefficient, Z-mask)
pairs whose eigenvalue is the Hamming distance between the registers, the
Fourier expansion of the XOR clause it comes from, and the plain
compositions of a compiled problem's probabilities into an exact or a sampled
cost expectation.

The tests check the folded circuit and the compiled codespace simulator
against these. Its name does not start with ``test_``, so pytest does not
collect it; test modules import it as ``reference``.
"""
from __future__ import annotations

import math
from itertools import product

import numpy as np

from qviterbi import (
    BitVector,
    Code,
    LengthError,
    QaoaParams,
    Statevector,
    build_mixer_hamiltonian,
)
from qviterbi.problem import DecodeProblem

SQRT2_INV = 1.0 / math.sqrt(2.0)


def basis_state(num_qubits: int, index: int) -> Statevector:
    """The computational basis state |index> on ``num_qubits`` qubits."""
    amps = np.zeros(1 << num_qubits, dtype=np.complex128)
    amps[index] = 1.0
    return Statevector(num_qubits, amps)


def _check(sv: Statevector, qubit: int) -> None:
    if not 0 <= qubit < sv.num_qubits:
        raise ValueError(f"qubit {qubit} out of range")


def _split(sv: Statevector, qubit: int) -> np.ndarray:
    """The amplitudes as a (2^qubit, 2, rest) view whose middle axis is ``qubit``'s bit.

    Writing to the view writes to the state; no index array is built.
    """
    _check(sv, qubit)
    return sv.amplitudes.reshape(1 << qubit, 2, -1)


def apply_h(sv: Statevector, qubit: int) -> None:
    """Hadamard on ``qubit``, in place."""
    split = _split(sv, qubit)
    lo, hi = split[:, 0], split[:, 1]
    a0 = lo.copy()
    lo[...] = SQRT2_INV * (a0 + hi)
    hi[...] = SQRT2_INV * (a0 - hi)


def apply_cx(sv: Statevector, control: int, target: int) -> None:
    """CX from ``control`` to ``target``, in place: the target's pairs swap where the control bit is 1."""
    _check(sv, control)
    _check(sv, target)
    if control == target:
        raise ValueError("CX needs two different qubits")
    first, last = sorted((control, target))
    split = sv.amplitudes.reshape(1 << first, 2, 1 << (last - first - 1), 2, -1)
    # The pairs with the control bit set, target bit 0 and 1.
    if control < target:
        lo, hi = split[:, 1, :, 0], split[:, 1, :, 1]
    else:
        lo, hi = split[:, 0, :, 1], split[:, 1, :, 1]
    a0 = lo.copy()
    lo[...] = hi
    hi[...] = a0


def apply_x(sv: Statevector, qubit: int) -> None:
    """Pauli X on ``qubit``, in place: amplitude i moves to i with that bit flipped."""
    split = _split(sv, qubit)
    split[...] = split[:, ::-1].copy()


def apply_rz(sv: Statevector, theta: float, qubit: int) -> None:
    """Rz(theta) = diag(exp(-i theta/2), exp(+i theta/2)) on ``qubit``, in place."""
    split = _split(sv, qubit)
    split *= np.exp(1j * theta * np.array([[-0.5], [0.5]]))


def apply_codespace_prep(sv: Statevector, code: Code) -> None:
    """The codespace preparation circuit on qubits 0 .. n-1 of ``sv``, which starts in |0>.

    Hadamards go on the generator's pivot-column qubits; each generator row
    then fans out from its pivot with CX gates, leaving every codeword at
    amplitude 2^(-k/2). The circuit is right only for a generator in RREF with
    no zero rows, which row reduction returns unchanged; any other generator
    is a ValueError.
    """
    reduced, pivots = code.generator.rref()
    if reduced != code.generator:
        raise ValueError("generator not in reduced row-echelon form")
    for p in pivots:
        apply_h(sv, p)
    for row, pivot in zip(code.generator.words, pivots):
        for i in range(code.n):
            if (row >> (code.n - 1 - i)) & 1 and i != pivot:
                apply_cx(sv, pivot, i)


def prepare_full_register(code: Code, received: BitVector) -> Statevector:
    """Codespace superposition on the first n qubits, |received> on the last n.

    Built gate by gate: the codespace preparation on the codeword register,
    then one X per set bit of the received vector on the ancilla register.
    """
    if len(received) != code.n:
        raise LengthError(f"received length {len(received)} != n = {code.n}")
    sv = Statevector(2 * code.n)
    apply_codespace_prep(sv, code)
    for i, bit in enumerate(str(received)):
        if bit == "1":
            apply_x(sv, code.n + i)
    return sv


def apply_full_cost_unitary(sv: Statevector, gamma: float, received: BitVector) -> Statevector:
    """The cost unitary as CX - Rz(-gamma) - CX on each codeword/ancilla qubit pair.

    It agrees with the folded ``apply_cost_unitary`` on the codeword register
    up to a global phase.
    """
    n = len(received)
    if sv.num_qubits != 2 * n:
        raise LengthError(f"full register needs {2 * n} qubits, state has {sv.num_qubits}")
    for i in range(n):
        apply_cx(sv, i, n + i)
        apply_rz(sv, -gamma, n + i)
        apply_cx(sv, i, n + i)
    return sv


def apply_mixer_gates(sv: Statevector, beta: float, mixer: tuple[int, ...], n: int) -> Statevector:
    """exp(-i beta H_m) term by term, each X-string as H, a CX chain, Rz and back.

    Each mask acts on the n-qubit codeword register, qubit q at bit
    ``1 << (n - 1 - q)``. It must agree with the pairing rotation of
    ``apply_mixer_unitary`` to 1e-12.
    """
    for mask in mixer:
        qubits = [q for q in range(n) if (mask >> (n - 1 - q)) & 1]
        for q in qubits:
            apply_h(sv, q)
        for a, b in zip(qubits, qubits[1:]):
            apply_cx(sv, a, b)
        apply_rz(sv, 2.0 * beta, qubits[-1])
        for a, b in reversed(list(zip(qubits, qubits[1:]))):
            apply_cx(sv, a, b)
        for q in qubits:
            apply_h(sv, q)
    return sv


def run_full_register(code: Code, received: BitVector, params: QaoaParams) -> Statevector:
    """``run_pqc`` on 2n qubits: each layer is the gate-level mixer, then the gate-level cost."""
    sv = prepare_full_register(code, received)
    mixer = build_mixer_hamiltonian(code)
    for beta, gamma in zip(params.betas, params.gammas):
        apply_mixer_gates(sv, beta, mixer, code.n)
        apply_full_cost_unitary(sv, gamma, received)
    return sv


def extract_codeword_register(sv: Statevector, received: BitVector) -> Statevector:
    """Codeword-register state of a full-register simulation.

    Exact because the ancilla register stays in the basis state |received>
    throughout the circuit, so the full state is a tensor product.
    """
    n = len(received)
    if sv.num_qubits != 2 * n:
        raise LengthError(f"expected a {2 * n}-qubit full-register state")
    block = sv.amplitudes.reshape(1 << n, 1 << n)
    reduced = block[:, received.to_index()].copy()
    leak = 1.0 - float(np.sum(np.abs(reduced) ** 2))
    if leak > 1e-9:
        raise ValueError(f"ancilla register left its basis state (leak {leak:.2e})")
    return Statevector(n, reduced)


def allclose_up_to_global_phase(a: np.ndarray, b: np.ndarray, atol: float = 1e-10) -> bool:
    """True when the two amplitude arrays differ by one unit complex factor."""
    a = np.asarray(a, dtype=np.complex128)
    b = np.asarray(b, dtype=np.complex128)
    if a.shape != b.shape:
        return False
    overlap = np.vdot(a, b)
    if abs(overlap) < 1e-15:
        return bool(np.allclose(a, 0, atol=atol) and np.allclose(b, 0, atol=atol))
    phase = overlap / abs(overlap)
    return bool(np.allclose(a * phase, b, atol=atol))


def build_cost_hamiltonian(n: int) -> tuple[int, tuple[tuple[float, int], ...]]:
    """Diagonal cost observable on an n-qubit codeword and n-qubit ancilla register.

    Returned as (register width 2n, terms), each term a (coefficient, Z-mask)
    pair over the 2n qubits, qubit q at bit ``1 << (2n - 1 - q)``. One term of
    coefficient -1/2 couples codeword qubit i to ancilla qubit i, plus an
    identity term (mask 0) of n/2, so the eigenvalue on |x>|r> is the Hamming
    distance between x and r.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    terms = [(n / 2.0, 0)] + [(-0.5, (1 << (2 * n - 1 - i)) | (1 << (n - 1 - i))) for i in range(n)]
    return 2 * n, tuple(terms)


def eigenvalue_of(h: tuple[int, tuple[tuple[float, int], ...]], basis_state: BitVector) -> float:
    """Eigenvalue of a diagonal Hamiltonian on a basis state: sum of c * (-1)^popcount(mask & state)."""
    width, terms = h
    if len(basis_state) != width:
        raise LengthError(f"basis state has {len(basis_state)} bits, Hamiltonian acts on {width}")
    return sum(coeff * (-1) ** (mask & basis_state.value).bit_count() for coeff, mask in terms)


def fourier_expand_xor(output_range: str = "pm1") -> dict[tuple[int, ...], float]:
    """Multilinear expansion of the two-variable XOR clause.

    Coefficients are computed by corner interpolation over {-1, 1}^2 and keyed
    by monomial: () for the constant, (1,), (2,) and (1, 2). ``output_range``
    selects the +/-1-valued clause or its 0/1-valued range shift.
    """
    if output_range not in ("pm1", "zero_one"):
        raise ValueError("output_range must be 'pm1' or 'zero_one'")

    def clause(a1: int, a2: int) -> int:
        # +/-1 encoding: input value a corresponds to bit (1 - a) / 2; the
        # clause returns +1 when the bits differ and -1 when they agree.
        b1, b2 = (1 - a1) // 2, (1 - a2) // 2
        return 1 if b1 ^ b2 else -1

    coeffs = {(): 0.0, (1,): 0.0, (2,): 0.0, (1, 2): 0.0}
    for a1, a2 in product((-1, 1), repeat=2):
        # C(a) * (1 + a1 x1)(1 + a2 x2) / 4 expands over the four monomials.
        c = clause(a1, a2) / 4.0
        coeffs[()] += c
        coeffs[(1,)] += c * a1
        coeffs[(2,)] += c * a2
        coeffs[(1, 2)] += c * a1 * a2

    if output_range == "zero_one":
        coeffs = {m: v / 2.0 for m, v in coeffs.items()}
        coeffs[()] += 0.5
    return coeffs


def problem_expectation(problem: DecodeProblem, probs: np.ndarray) -> float:
    """Exact cost expectation: sum over codewords of prob * distance."""
    return float(np.dot(probs, problem.distances.astype(np.float64)))


def problem_expectation_sampled(problem: DecodeProblem, probs: np.ndarray, shots: int,
                                seed: int | np.random.Generator) -> float:
    """Cost expectation estimated from ``problem.sample``'s seeded finite-shot counts."""
    return int(np.dot(problem.sample(probs, shots, seed), problem.distances)) / shots
