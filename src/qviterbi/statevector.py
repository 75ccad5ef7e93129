"""Exact dense statevector simulation of the decoder circuits: the reference.

Training and measurement run on the compiled codespace simulator in
``problem``. This module is the independent, gate-level reference it is
tested against, and it produces the ``--dump-state`` amplitudes.

Basis convention: amplitude index i encodes the bit string whose qubit q
(0-based, leftmost printed bit first) is ``(i >> (num_qubits - 1 - q)) & 1``.
Gates mutate the state in place; a Statevector must not be shared mutably.

Two circuit modes exist. Folded-ancilla simulates only the n codeword qubits:
the received vector is a fixed basis state, so its Z operators reduce to known
scalar phases. Full-register simulates all 2n qubits with the literal
CX / Rz / CX cost construction and is kept for cross-validation.
"""
from __future__ import annotations

import enum
import math

import numpy as np

from .codes import BitVector, Code, popcounts
from .errors import LengthError, StatePrepError
from .hamiltonians import PauliHamiltonian

MAX_QUBITS = 24

_SQRT2_INV = 1.0 / math.sqrt(2.0)


class CircuitMode(enum.Enum):
    FOLDED = "folded-ancilla"
    FULL = "full-register"


class Statevector:
    """Dense complex amplitude array over all basis states of ``num_qubits``."""

    __slots__ = ("num_qubits", "amplitudes")

    def __init__(self, num_qubits: int, amplitudes: np.ndarray | None = None):
        if not 1 <= num_qubits <= MAX_QUBITS:
            raise ValueError(f"num_qubits must be in [1, {MAX_QUBITS}]")
        self.num_qubits = num_qubits
        dim = 1 << num_qubits
        if amplitudes is None:
            amplitudes = np.zeros(dim, dtype=np.complex128)
            amplitudes[0] = 1.0
        else:
            amplitudes = np.asarray(amplitudes, dtype=np.complex128)
            if amplitudes.shape != (dim,):
                raise ValueError(f"expected {dim} amplitudes, got {amplitudes.shape}")
        self.amplitudes = amplitudes

    @classmethod
    def basis(cls, num_qubits: int, index: int) -> Statevector:
        sv = cls(num_qubits)
        if index:
            sv.amplitudes[0] = 0.0
            sv.amplitudes[index] = 1.0
        return sv

    @property
    def dim(self) -> int:
        return 1 << self.num_qubits

    def copy(self) -> Statevector:
        return Statevector(self.num_qubits, self.amplitudes.copy())

    def probabilities(self) -> np.ndarray:
        return np.abs(self.amplitudes) ** 2

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def _mask(self, qubit: int) -> int:
        if not 0 <= qubit < self.num_qubits:
            raise ValueError(f"qubit {qubit} out of range")
        return 1 << (self.num_qubits - 1 - qubit)

    def _zero_side(self, mask: int) -> np.ndarray:
        idx = np.arange(self.dim)
        return idx[(idx & mask) == 0]

    def apply_h(self, qubit: int) -> None:
        mask = self._mask(qubit)
        lo = self._zero_side(mask)
        hi = lo | mask
        a0 = self.amplitudes[lo].copy()
        a1 = self.amplitudes[hi]
        self.amplitudes[lo] = _SQRT2_INV * (a0 + a1)
        self.amplitudes[hi] = _SQRT2_INV * (a0 - a1)

    def apply_x(self, qubit: int) -> None:
        mask = self._mask(qubit)
        lo = self._zero_side(mask)
        hi = lo | mask
        a0 = self.amplitudes[lo].copy()
        self.amplitudes[lo] = self.amplitudes[hi]
        self.amplitudes[hi] = a0

    def apply_cx(self, control: int, target: int) -> None:
        cmask, tmask = self._mask(control), self._mask(target)
        idx = np.arange(self.dim)
        lo = idx[((idx & cmask) != 0) & ((idx & tmask) == 0)]
        hi = lo | tmask
        a0 = self.amplitudes[lo].copy()
        self.amplitudes[lo] = self.amplitudes[hi]
        self.amplitudes[hi] = a0

    def apply_rz(self, theta: float, qubit: int) -> None:
        """Rz(theta) = diag(exp(-i theta/2), exp(+i theta/2))."""
        mask = self._mask(qubit)
        idx = np.arange(self.dim)
        bit = ((idx & mask) != 0).astype(np.float64)
        self.amplitudes *= np.exp(1j * theta * (bit - 0.5))

    def apply_xstring_rotation(self, beta: float, qubits) -> None:
        """exp(-i beta X...X) on the given qubits, by direct basis-pair rotation."""
        mask = 0
        for q in qubits:
            mask |= self._mask(q)
        if mask == 0:
            self.amplitudes *= np.exp(-1j * beta)
            return
        pick = mask & (-mask)
        sel = self._zero_side(pick)
        partner = sel ^ mask
        c, s = math.cos(beta), math.sin(beta)
        a = self.amplitudes[sel].copy()
        b = self.amplitudes[partner].copy()
        self.amplitudes[sel] = c * a - 1j * s * b
        self.amplitudes[partner] = -1j * s * a + c * b

    def to_json_entries(self) -> list[list[float]]:
        """Amplitude dump as [index, real, imag] rows."""
        return [
            [int(i), float(a.real), float(a.imag)]
            for i, a in enumerate(self.amplitudes)
        ]


def distances_to(received: BitVector) -> np.ndarray:
    """Hamming distance from every length-n basis state to ``received``."""
    n = len(received)
    idx = np.arange(1 << n)
    return popcounts(idx ^ received.to_index(), n)


def _apply_codespace_prep(sv: Statevector, code: Code) -> None:
    # Row reduction returns G itself exactly when G is in RREF with no zero rows.
    reduced, pivots = code.generator.rref()
    if reduced != code.generator:
        raise StatePrepError("generator not in reduced row-echelon form")
    for p in pivots:
        sv.apply_h(p)
    for row, pivot in zip(code.generator.words, pivots):
        for i in range(code.n):
            if (row >> (code.n - 1 - i)) & 1 and i != pivot:
                sv.apply_cx(pivot, i)


def prepare_uniform_codespace(code: Code) -> Statevector:
    """Equal superposition of all codespace states, built from gates.

    Hadamards go on the generator's pivot-column qubits; each generator row
    then fans out from its pivot with CX gates, so the resulting amplitudes
    are 2**(-k/2) on every codeword and zero elsewhere.
    """
    sv = Statevector(code.n)
    _apply_codespace_prep(sv, code)
    return sv


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
            sv.apply_x(code.n + i)
    return sv


def apply_cost_unitary(
    sv: Statevector, gamma: float, received: BitVector, mode: CircuitMode = CircuitMode.FOLDED
) -> Statevector:
    """One application of the diagonal cost unitary at angle ``gamma``.

    Folded mode multiplies each codeword basis amplitude by the product of the
    per-bit phases exp(i gamma/2 * (-1)^(x_i xor r_i)); full mode applies the
    CX - Rz(-gamma) - CX sandwich on each codeword/ancilla qubit pair. The two
    agree on the codeword register up to a global phase.
    """
    n = len(received)
    if mode is CircuitMode.FOLDED:
        if sv.num_qubits != n:
            raise LengthError(f"folded mode needs {n} qubits, state has {sv.num_qubits}")
        dist = distances_to(received)
        sv.amplitudes *= np.exp(1j * 0.5 * gamma * (n - 2 * dist))
        return sv
    if sv.num_qubits != 2 * n:
        raise LengthError(f"full mode needs {2 * n} qubits, state has {sv.num_qubits}")
    for i in range(n):
        sv.apply_cx(i, n + i)
        sv.apply_rz(-gamma, n + i)
        sv.apply_cx(i, n + i)
    return sv


def apply_mixer_unitary(
    sv: Statevector, beta: float, mixer: PauliHamiltonian, method: str = "pairing"
) -> Statevector:
    """exp(-i beta H_m) for an all-X mixer, term by term in the stored order.

    The term order is exact because X-strings commute. ``method`` selects the
    direct basis-pair rotation or the Hadamard-conjugated CX-chain circuit;
    both must agree to 1e-12.
    """
    if not all(string.is_all("X") for _, string in mixer.terms):
        raise ValueError("mixer must contain only X factors")
    for coeff, string in mixer.terms:
        angle = beta * coeff
        qubits = string.qubits
        if method == "pairing":
            sv.apply_xstring_rotation(angle, qubits)
        elif method == "gates":
            for q in qubits:
                sv.apply_h(q)
            for a, b in zip(qubits, qubits[1:]):
                sv.apply_cx(a, b)
            sv.apply_rz(2.0 * angle, qubits[-1])
            for a, b in reversed(list(zip(qubits, qubits[1:]))):
                sv.apply_cx(a, b)
            for q in qubits:
                sv.apply_h(q)
        else:
            raise ValueError(f"unknown method {method!r}")
    return sv


def measure_counts(
    sv: Statevector, shots: int, seed: int, qubits: tuple[int, ...] | None = None
) -> dict[str, int]:
    """Multinomial sample of ``shots`` outcomes; deterministic in ``seed``.

    With ``qubits`` given, probabilities are first marginalized onto those
    qubits (in the order listed). Keys are bit strings; zero-count outcomes
    are omitted.
    """
    if shots < 1:
        raise ValueError("shots must be at least 1")
    probs = sv.probabilities()
    width = sv.num_qubits
    if qubits is not None:
        shaped = probs.reshape((2,) * sv.num_qubits)
        keep = tuple(qubits)
        drop = tuple(q for q in range(sv.num_qubits) if q not in keep)
        if drop:
            shaped = shaped.sum(axis=drop)
        order = [sorted(keep).index(q) for q in keep]
        probs = shaped.transpose(order).reshape(-1)
        width = len(keep)
    probs = probs / probs.sum()
    rng = np.random.default_rng(seed)
    counts = rng.multinomial(shots, probs)
    return {
        format(i, f"0{width}b"): int(c)
        for i, c in enumerate(counts)
        if c
    }


def extract_codeword_register(sv: Statevector, received: BitVector) -> Statevector:
    """Codeword-register state of a full-register simulation.

    Exact because the ancilla register stays in the basis state |received>
    throughout the circuit, so the full state is a tensor product.
    """
    n = len(received)
    if sv.num_qubits != 2 * n:
        raise LengthError(f"expected a {2 * n}-qubit full-register state")
    r_index = received.to_index()
    block = sv.amplitudes.reshape(1 << n, 1 << n)
    reduced = block[:, r_index].copy()
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
