"""Test references for the decoder circuit: the 2n-qubit full register and the Pauli cost.

The package ships one dense circuit, the folded n-qubit statevector of
``qviterbi.statevector``. This module builds the circuit the paper draws, on
a codeword register (qubits 0 .. n-1) and an ancilla register holding the
received word (qubits n .. 2n-1), gate by gate: the cost is a CX - Rz(-gamma)
- CX sandwich on each codeword/ancilla pair and each mixer term, an X-mask
over the codeword register, a Hadamard-conjugated CX chain around one Rz. It
also holds the Pauli form of the cost, Z_i Z_(n+i) terms as (coefficient,
Z-mask) pairs whose eigenvalue is the Hamming distance between the registers,
and the Fourier expansion of the XOR clause it comes from.

The tests check the folded circuit and the compiled codespace simulator
against these. Its name does not start with ``test_``, so pytest does not
collect it; test modules import it as ``reference``.
"""
from __future__ import annotations

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
from qviterbi.statevector import _apply_codespace_prep


def apply_x(sv: Statevector, qubit: int) -> None:
    """Pauli X on ``qubit``, in place: amplitude i moves to i with that bit flipped."""
    split = sv._split(qubit)
    split[...] = split[:, ::-1].copy()


def apply_rz(sv: Statevector, theta: float, qubit: int) -> None:
    """Rz(theta) = diag(exp(-i theta/2), exp(+i theta/2)) on ``qubit``, in place."""
    split = sv._split(qubit)
    split *= np.exp(1j * theta * np.array([[-0.5], [0.5]]))


def prepare_full_register(code: Code, received: BitVector) -> Statevector:
    """Codespace superposition on the first n qubits, |received> on the last n.

    Built gate by gate: the codespace preparation on the codeword register,
    then one X per set bit of the received vector on the ancilla register.
    """
    if len(received) != code.n:
        raise LengthError(f"received length {len(received)} != n = {code.n}")
    sv = Statevector(2 * code.n)
    _apply_codespace_prep(sv, code)
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
        sv.apply_cx(i, n + i)
        apply_rz(sv, -gamma, n + i)
        sv.apply_cx(i, n + i)
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
            sv.apply_h(q)
        for a, b in zip(qubits, qubits[1:]):
            sv.apply_cx(a, b)
        apply_rz(sv, 2.0 * beta, qubits[-1])
        for a, b in reversed(list(zip(qubits, qubits[1:]))):
            sv.apply_cx(a, b)
        for q in qubits:
            sv.apply_h(q)
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
