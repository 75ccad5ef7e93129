"""The mixer Hamiltonian as a weighted sum of Pauli strings.

The mixer is a sum of X-strings, one per minimum-weight codeword, so its
matrix action never leaves the codespace; ``statevector`` applies it term by
term. The cost needs no Pauli form here: its eigenvalue on a basis state is
the Hamming distance to the received word, which the simulators read off a
distance vector. The Pauli cost mapping, Z_i Z_(n+i) terms on a codeword and
an ancilla register with the XOR clause's Fourier expansion, is a test
reference in ``tests/reference.py``.
"""
from __future__ import annotations

from dataclasses import dataclass

from .codes import Code, min_weight_codewords
from .errors import EmptyMixerError


@dataclass(frozen=True)
class PauliString:
    """Tensor product of single-qubit X/Z factors; the empty product is identity."""

    paulis: tuple[tuple[int, str], ...]

    def __post_init__(self):
        qubits = [q for q, _ in self.paulis]
        if sorted(set(qubits)) != sorted(qubits):
            raise ValueError("duplicate qubit index in Pauli string")
        if any(q < 0 for q in qubits):
            raise ValueError("negative qubit index")
        if any(axis not in ("X", "Z") for _, axis in self.paulis):
            raise ValueError("axis must be 'X' or 'Z'")
        object.__setattr__(self, "paulis", tuple(sorted(self.paulis)))

    @classmethod
    def from_axes(cls, axis: str, qubits) -> PauliString:
        return cls(tuple((int(q), axis) for q in qubits))

    @property
    def qubits(self) -> tuple[int, ...]:
        return tuple(q for q, _ in self.paulis)

    def is_all(self, axis: str) -> bool:
        return all(a == axis for _, a in self.paulis)


@dataclass(frozen=True)
class PauliHamiltonian:
    """Real-weighted sum of Pauli strings (Hermitian by construction)."""

    terms: tuple[tuple[float, PauliString], ...]
    num_qubits: int

    @classmethod
    def from_terms(cls, terms, num_qubits: int) -> PauliHamiltonian:
        merged: dict[PauliString, float] = {}
        order: list[PauliString] = []
        for coeff, string in terms:
            if string not in merged:
                merged[string] = 0.0
                order.append(string)
            merged[string] += float(coeff)
        kept = tuple((merged[s], s) for s in order if merged[s] != 0.0)
        return cls(kept, num_qubits)


def build_mixer_hamiltonian(code: Code) -> PauliHamiltonian:
    """Sum of unit-coefficient X-strings, one per minimum-weight codeword.

    Each term acts on the codeword register only, with X on exactly the
    support of its codeword. Terms are ordered lexicographically; this is
    exact since X-strings commute.
    """
    words = min_weight_codewords(code)
    if not words:
        raise EmptyMixerError("degenerate code has no nonzero codewords")
    terms = [
        (1.0, PauliString.from_axes("X", (i for i, b in enumerate(str(w)) if b == "1")))
        for w in words
    ]
    return PauliHamiltonian.from_terms(terms, num_qubits=code.n)
