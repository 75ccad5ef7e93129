"""Dense statevector simulation of the folded decoder circuit on n qubits.

Training and measurement run on the compiled codespace simulator in
``problem``. This module simulates the same circuit on all 2^n basis states
of the n codeword qubits, gate by gate for the codespace preparation and term
by term for the mixer, and produces the ``--dump-state`` amplitudes. The
benchmark re-scores reports with it (``perfbench/checks.py``), and the tests
check the compiled simulator against it.

The mixer is a tuple of X-masks: each minimum-weight codeword, as an int,
marks the qubits of one X-string. No Pauli form of the mixer or of the cost
exists in the package. The received vector is a fixed basis state, so the Z
operators of the cost's ancilla register reduce to known scalar phases and no
ancilla qubits are simulated ("folded"). The 2n-qubit full-register circuit,
with the literal CX / Rz / CX cost and the H / CX / Rz mixer chain, and the
cost's Pauli form are test references in ``tests/reference.py``, where the
folded circuit is checked against them.

Basis convention: amplitude index i encodes the bit string whose qubit q
(0-based, leftmost printed bit first) is ``(i >> (num_qubits - 1 - q)) & 1``,
so a codeword's int is also its X-mask. Gates mutate the state in place; a
Statevector must not be shared mutably.
"""
from __future__ import annotations

import math

import numpy as np

from .codes import BitVector, Code
from .errors import EmptyMixerError, LengthError, StatePrepError
from .problem import popcounts

MAX_QUBITS = 24

_SQRT2_INV = 1.0 / math.sqrt(2.0)


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
            # Contiguous, so the gates' reshaped views write through to it.
            amplitudes = np.ascontiguousarray(amplitudes, dtype=np.complex128)
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

    def _mask(self, qubit: int) -> int:
        if not 0 <= qubit < self.num_qubits:
            raise ValueError(f"qubit {qubit} out of range")
        return 1 << (self.num_qubits - 1 - qubit)

    def _split(self, qubit: int) -> np.ndarray:
        """The amplitudes as a (2^qubit, 2, rest) view whose middle axis is ``qubit``'s bit.

        Writing to the view writes to the state; no index array is built.
        """
        self._mask(qubit)
        return self.amplitudes.reshape(1 << qubit, 2, -1)

    def apply_h(self, qubit: int) -> None:
        split = self._split(qubit)
        lo, hi = split[:, 0], split[:, 1]
        a0 = lo.copy()
        lo[...] = _SQRT2_INV * (a0 + hi)
        hi[...] = _SQRT2_INV * (a0 - hi)

    def apply_cx(self, control: int, target: int) -> None:
        cmask, tmask = self._mask(control), self._mask(target)
        if cmask == tmask:
            raise ValueError("CX needs two different qubits")
        first, last = sorted((control, target))
        split = self.amplitudes.reshape(1 << first, 2, 1 << (last - first - 1), 2, -1)
        # The pairs with the control bit set, target bit 0 and 1.
        if control < target:
            lo, hi = split[:, 1, :, 0], split[:, 1, :, 1]
        else:
            lo, hi = split[:, 0, :, 1], split[:, 1, :, 1]
        a0 = lo.copy()
        lo[...] = hi
        hi[...] = a0

    def to_json_entries(self) -> list[list[float]]:
        """Amplitude dump as [index, real, imag] rows."""
        return [
            [int(i), float(a.real), float(a.imag)]
            for i, a in enumerate(self.amplitudes)
        ]


def distances_to(received: BitVector) -> np.ndarray:
    """Hamming distance from every length-n basis state to ``received``."""
    return popcounts(np.arange(1 << len(received)) ^ received.to_index())


def _apply_codespace_prep(sv: Statevector, code: Code) -> None:
    # Acts on qubits 0 .. n-1 of any register, so the full-register test
    # reference prepares its codeword register with it too. Row reduction
    # returns G itself exactly when G is in RREF with no zero rows.
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


def apply_cost_unitary(sv: Statevector, gamma: float, received: BitVector) -> Statevector:
    """One application of the diagonal cost unitary at angle ``gamma``.

    Multiplies each basis amplitude by the product of the per-bit phases
    exp(i gamma/2 * (-1)^(x_i xor r_i)), which is exp(i gamma/2 * (n - 2 d))
    for a basis state at Hamming distance d from ``received``.
    """
    n = len(received)
    if sv.num_qubits != n:
        raise LengthError(f"cost unitary needs {n} qubits, state has {sv.num_qubits}")
    sv.amplitudes *= np.exp(1j * 0.5 * gamma * (n - 2 * distances_to(received)))
    return sv


def build_mixer_hamiltonian(code: Code) -> tuple[int, ...]:
    """The mixer's X-strings as masks: the nonzero codewords of weight ``code.d``, ascending.

    Mask bit ``1 << (n - 1 - q)`` puts an X on qubit q, so each term acts on
    exactly the support of its codeword. The order is exact since X-strings
    commute.
    """
    masks = tuple(w for w in code.codewords if w and w.bit_count() == code.d)
    if not masks:
        raise EmptyMixerError("degenerate code has no nonzero codewords")
    return masks


def apply_mixer_unitary(sv: Statevector, beta: float, mixer: tuple[int, ...]) -> Statevector:
    """exp(-i beta H_m) for a mixer of X-masks, term by term in the stored order.

    The term order is exact because X-strings commute. Each term rotates the
    basis-state pairs (i, i ^ mask) its X-string exchanges; the first member
    of a pair is an index whose bit at the mask's lowest set bit is 0.
    """
    amps = sv.amplitudes
    index = np.arange(sv.dim)
    c, s = math.cos(beta), math.sin(beta)
    for mask in mixer:
        # Contiguous: numpy gathers through a flat index faster than a strided one.
        first = index.reshape(-1, 2, mask & -mask)[:, 0].ravel()
        second = first ^ mask
        a, b = amps[first], amps[second]
        # Two formulas, not c * amps - 1j * s * amps[index ^ mask] over all
        # pairs at once: that gives the same values but other signs on the
        # zeros outside the codespace, which --dump-state prints.
        amps[first] = c * a - 1j * s * b
        amps[second] = -1j * s * a + c * b
    return sv


def measure_counts(sv: Statevector, shots: int, seed: int) -> dict[str, int]:
    """Multinomial sample of ``shots`` outcomes; deterministic in ``seed``.

    Keys are bit strings; zero-count outcomes are omitted.
    """
    if shots < 1:
        raise ValueError("shots must be at least 1")
    probs = sv.probabilities()
    probs = probs / probs.sum()
    rng = np.random.default_rng(seed)
    counts = rng.multinomial(shots, probs)
    return {
        format(i, f"0{sv.num_qubits}b"): int(c)
        for i, c in enumerate(counts)
        if c
    }
