"""Cost and mixer Hamiltonians as weighted sums of Pauli strings.

The cost Hamiltonian is diagonal and its eigenvalue on a basis state equals
the Hamming distance between the codeword register and the ancilla register.
The mixer is a sum of X-strings, one per minimum-weight codeword, so its
matrix action never leaves the codespace.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from .codes import BitVector, Code, min_weight_codewords
from .errors import EmptyMixerError, LengthError, NotDiagonalError


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

    @property
    def is_identity(self) -> bool:
        return not self.paulis

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

    @property
    def is_diagonal(self) -> bool:
        return all(s.is_all("Z") for _, s in self.terms)


def build_cost_hamiltonian(n: int) -> PauliHamiltonian:
    """Diagonal cost observable on an n-qubit codeword and n-qubit ancilla register.

    One term of coefficient -1/2 couples codeword qubit i to ancilla qubit i,
    plus an identity term of n/2, so the eigenvalue on |x>|r> is the Hamming
    distance between x and r.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    terms: list[tuple[float, PauliString]] = [(n / 2.0, PauliString(()))]
    for i in range(n):
        terms.append((-0.5, PauliString(((i, "Z"), (n + i, "Z")))))
    return PauliHamiltonian.from_terms(terms, num_qubits=2 * n)


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
        (1.0, PauliString.from_axes("X", (i for i, b in enumerate(w.bits) if b)))
        for w in words
    ]
    return PauliHamiltonian.from_terms(terms, num_qubits=code.n)


def eigenvalue_of(h: PauliHamiltonian, basis_state: BitVector) -> float:
    """Eigenvalue of a diagonal Hamiltonian on a computational basis state."""
    if not h.is_diagonal:
        raise NotDiagonalError("Hamiltonian has non-Z factors")
    if len(basis_state) != h.num_qubits:
        raise LengthError(f"basis state has {len(basis_state)} bits, Hamiltonian acts on {h.num_qubits}")
    value = 0.0
    for coeff, string in h.terms:
        sign = 1
        for q, _ in string.paulis:
            if basis_state.bits[q]:
                sign = -sign
        value += coeff * sign
    return value


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
