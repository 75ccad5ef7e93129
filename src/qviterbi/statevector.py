"""Dense statevector simulation of the folded decoder circuit on n qubits.

Training and measurement run on the compiled codespace simulator in
``problem``. This module simulates the same circuit on all 2^n basis states
of the n codeword qubits: it writes the codespace superposition directly and
applies the mixer term by term, and it produces the ``--dump-state``
amplitudes. The benchmark re-scores reports with it
(``perfbench/checks.py``), and the tests check the compiled simulator
against it.

The mixer is a tuple of X-masks: each minimum-weight codeword, as an int,
marks the qubits of one X-string. No Pauli form of the mixer or of the cost
exists in the package. The received vector is a fixed basis state, so the Z
operators of the cost's ancilla register reduce to known scalar phases and no
ancilla qubits are simulated ("folded"). The gates and the 2n-qubit
full-register circuit built from them (the H / CX codespace preparation, the
literal CX / Rz / CX cost and the H / CX / Rz mixer chain) and the cost's
Pauli form are test references in ``tests/reference.py``, where the folded
circuit is checked against them.

Basis convention: amplitude index i encodes the bit string whose qubit q
(0-based, leftmost printed bit first) is ``(i >> (num_qubits - 1 - q)) & 1``,
so a codeword's int is also its X-mask. The unitaries mutate the state in
place; a Statevector must not be shared mutably.
"""
from __future__ import annotations

import math

import numpy as np

from .codes import BitVector, Code
from .errors import EmptyMixerError, LengthError
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
            # Contiguous, so a reshaped view of it writes through to it.
            amplitudes = np.ascontiguousarray(amplitudes, dtype=np.complex128)
            if amplitudes.shape != (dim,):
                raise ValueError(f"expected {dim} amplitudes, got {amplitudes.shape}")
        self.amplitudes = amplitudes

    @property
    def dim(self) -> int:
        return 1 << self.num_qubits

    def probabilities(self) -> np.ndarray:
        return np.abs(self.amplitudes) ** 2

    def to_json_entries(self) -> list[list[float]]:
        """Amplitude dump as [index, real, imag] rows."""
        return [
            [int(i), float(a.real), float(a.imag)]
            for i, a in enumerate(self.amplitudes)
        ]


def distances_to(received: BitVector) -> np.ndarray:
    """Hamming distance from every length-n basis state to ``received``."""
    return popcounts(np.arange(1 << len(received)) ^ received.to_index())


def prepare_uniform_codespace(code: Code) -> Statevector:
    """Equal superposition of all codewords: one amplitude at each codeword's index, zeros elsewhere.

    The amplitude is 1/sqrt(2) multiplied in k times, left to right, which is
    the value the paper's preparation circuit leaves: one Hadamard on each
    generator pivot qubit, then each row fanned out from its pivot with CX
    gates. The closed forms round differently: ``2 ** (-k / 2)`` differs in
    the last bit for every k >= 1, and ``_SQRT2_INV ** k`` at k = 6 and
    k >= 9. Every zero is +0, as the gates leave it.
    """
    sv = Statevector(code.n)
    sv.amplitudes[list(code.codewords)] = math.prod([_SQRT2_INV] * code.k)
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
