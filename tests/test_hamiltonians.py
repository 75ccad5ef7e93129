import numpy as np
import pytest

from qviterbi import (
    BitVector,
    EmptyMixerError,
    LengthError,
    PauliHamiltonian,
    PauliString,
    build_mixer_hamiltonian,
    code_from_codewords,
)
from qviterbi.problem import DecodeProblem, fwht
from conftest import BUILTIN_NAMES
from reference import build_cost_hamiltonian, eigenvalue_of, fourier_expand_xor


def bv(s):
    return BitVector.from_string(s)


def g_matrix(code):
    """The paper's G matrix, read off the compiled mixer W diag(lambda) W / 2^k.

    Rows and columns follow ``code.codespace``.
    """
    problem = DecodeProblem(code, BitVector(code.n, 0))
    size = problem.codewords.size
    g = np.array([fwht(fwht(e) * problem.spectrum) / size for e in np.eye(size)])
    assert np.allclose(g, np.rint(g), atol=1e-12)
    return np.rint(g).astype(int)


def term_supports(h):
    """X-term supports as 1-based position sets, for readable comparisons."""
    return {frozenset(q + 1 for q in string.qubits) for _, string in h.terms}


class TestCostHamiltonian:
    def test_single_bit_structure(self):
        h = build_cost_hamiltonian(1)
        terms = {string: coeff for coeff, string in h.terms}
        assert terms[PauliString(())] == 0.5
        assert terms[PauliString(((0, "Z"), (1, "Z")))] == -0.5
        assert len(terms) == 2

    def test_term_count_and_coefficients(self):
        h = build_cost_hamiltonian(6)
        assert len(h.terms) == 7
        identity = [c for c, s in h.terms if not s.paulis]
        assert identity == [3.0]
        assert all(c == -0.5 for c, s in h.terms if s.paulis)

    def test_matched_registers_eigenvalue_zero(self):
        h = build_cost_hamiltonian(6)
        x = "011011"
        assert eigenvalue_of(h, bv(x + x)) == 0.0

    def test_distance_from_zero_word(self):
        h = build_cost_hamiltonian(6)
        assert eigenvalue_of(h, bv("000000" + "111011")) == 5.0

    def test_known_distance(self):
        h = build_cost_hamiltonian(6)
        assert eigenvalue_of(h, bv("110110" + "111011")) == 3.0

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_eigenvalue_equals_distance_exhaustive(self, n):
        h = build_cost_hamiltonian(n)
        for x in range(1 << n):
            for r in range(1 << n):
                state = BitVector(2 * n, (x << n) | r)
                assert eigenvalue_of(h, state) == (x ^ r).bit_count()

    def test_locality(self):
        h = build_cost_hamiltonian(8)
        assert all(len(s.qubits) <= 2 for _, s in h.terms)


class TestEigenvalueOf:
    def test_rejects_non_diagonal(self, lbc_633):
        mixer = build_mixer_hamiltonian(lbc_633)
        with pytest.raises(ValueError, match="non-Z"):
            eigenvalue_of(mixer, bv("000000"))

    def test_rejects_wrong_length(self):
        with pytest.raises(LengthError):
            eigenvalue_of(build_cost_hamiltonian(3), bv("000"))


class TestFourierExpansion:
    def test_pm1_range(self):
        coeffs = fourier_expand_xor("pm1")
        assert coeffs == {(): 0.0, (1,): 0.0, (2,): 0.0, (1, 2): -1.0}

    def test_zero_one_range(self):
        coeffs = fourier_expand_xor("zero_one")
        assert coeffs == {(): 0.5, (1,): 0.0, (2,): 0.0, (1, 2): -0.5}

    def test_corner_evaluation(self):
        coeffs = fourier_expand_xor("pm1")

        def value(x1, x2):
            return (
                coeffs[()]
                + coeffs[(1,)] * x1
                + coeffs[(2,)] * x2
                + coeffs[(1, 2)] * x1 * x2
            )

        # Both bits zero encode to (+1, +1); equal bits give -1.
        assert value(1, 1) == -1.0
        assert value(-1, -1) == -1.0
        assert value(1, -1) == 1.0
        assert value(-1, 1) == 1.0

    def test_zero_one_matches_xor_truth_table(self):
        coeffs = fourier_expand_xor("zero_one")
        for b1 in (0, 1):
            for b2 in (0, 1):
                x1, x2 = 1 - 2 * b1, 1 - 2 * b2
                value = coeffs[()] + coeffs[(1, 2)] * x1 * x2
                assert value == b1 ^ b2

    def test_unknown_range(self):
        with pytest.raises(ValueError):
            fourier_expand_xor("binary")


class TestMixerHamiltonian:
    def test_633_terms(self, lbc_633):
        h = build_mixer_hamiltonian(lbc_633)
        assert term_supports(h) == {
            frozenset({1, 2, 3}),
            frozenset({1, 5, 6}),
            frozenset({3, 4, 5}),
            frozenset({2, 4, 6}),
        }
        assert all(c == 1.0 for c, _ in h.terms)

    def test_convolutional_terms(self, conv_code):
        h = build_mixer_hamiltonian(conv_code)
        assert term_supports(h) == {
            frozenset({1, 2, 4, 5, 6}),
            frozenset({3, 4, 6, 7, 8}),
            frozenset({5, 6, 8, 9, 10}),
        }

    def test_321_single_term(self, lbc_321):
        h = build_mixer_hamiltonian(lbc_321)
        assert term_supports(h) == {frozenset({2})}

    def test_zero_code_raises(self):
        code = code_from_codewords([BitVector(3, 0)])
        with pytest.raises(EmptyMixerError):
            build_mixer_hamiltonian(code)

    @pytest.mark.parametrize("name", BUILTIN_NAMES)
    def test_terms_touch_exactly_d_qubits(self, name, all_builtins):
        code = all_builtins[name]
        h = build_mixer_hamiltonian(code)
        assert all(len(s.qubits) == code.d for _, s in h.terms)

    @pytest.mark.parametrize("name", BUILTIN_NAMES)
    def test_action_stays_in_codespace(self, name, all_builtins):
        code = all_builtins[name]
        h = build_mixer_hamiltonian(code)
        members = {c.to_index() for c in code.codespace}
        masks = [
            sum(1 << (code.n - 1 - q) for q in string.qubits)
            for _, string in h.terms
        ]
        for c in code.codespace:
            for mask in masks:
                assert (c.to_index() ^ mask) in members


class TestGMatrix:
    """Min-distance adjacency between codewords, as the compiled mixer applies it."""

    def test_633_row_sums(self, lbc_633):
        g = g_matrix(lbc_633)
        assert g.shape == (8, 8)
        assert (g.sum(axis=1) == 4).all()

    def test_321_zero_row(self, lbc_321):
        g = g_matrix(lbc_321)
        words = lbc_321.codespace
        row = g[words.index(bv("000"))]
        assert row.sum() == 1
        assert row[words.index(bv("010"))] == 1

    def test_zero_code(self):
        # The zero code has no minimum-weight word, so there is no mixer to compile.
        with pytest.raises(EmptyMixerError):
            g_matrix(code_from_codewords([BitVector(3, 0)]))

    @pytest.mark.parametrize("name", BUILTIN_NAMES)
    def test_symmetric_zero_diagonal(self, name, all_builtins):
        g = g_matrix(all_builtins[name])
        assert (np.diag(g) == 0).all()
        assert (g == g.T).all()

    @pytest.mark.parametrize("name", BUILTIN_NAMES)
    def test_matches_mixer_restricted_to_codespace(self, name, all_builtins):
        # The Pauli mixer's matrix elements between codewords must reproduce
        # the compiled operator exactly.
        code = all_builtins[name]
        h = build_mixer_hamiltonian(code)
        masks = {
            sum(1 << (code.n - 1 - q) for q in string.qubits)
            for _, string in h.terms
        }
        index_of = {w: i for i, w in enumerate(code.codewords)}
        expected = np.zeros((len(code.codewords),) * 2, dtype=int)
        for j, w in enumerate(code.codewords):
            for mask in masks:
                expected[j, index_of[w ^ mask]] += 1
        assert (g_matrix(code) == expected).all()

    @pytest.mark.parametrize("name", BUILTIN_NAMES)
    def test_entries_definition(self, name, all_builtins):
        code = all_builtins[name]
        g = g_matrix(code)
        words = code.codespace
        for j, a in enumerate(words):
            for k, b in enumerate(words):
                assert g[j, k] == int(j != k and (a.to_index() ^ b.to_index()).bit_count() == code.d)


class TestSerialization:
    def test_duplicate_terms_merge(self):
        s = PauliString(((0, "Z"),))
        h = PauliHamiltonian.from_terms([(1.0, s), (0.5, s)], num_qubits=1)
        assert h.terms == ((1.5, s),)

    def test_cancelling_terms_drop(self):
        s = PauliString(((0, "X"),))
        h = PauliHamiltonian.from_terms([(1.0, s), (-1.0, s)], num_qubits=1)
        assert h.terms == ()


class TestPauliString:
    def test_orders_and_validates(self):
        s = PauliString(((2, "X"), (0, "X")))
        assert s.qubits == (0, 2)
        with pytest.raises(ValueError):
            PauliString(((0, "X"), (0, "Z")))
        with pytest.raises(ValueError):
            PauliString(((0, "Y"),))

    def test_identity(self):
        # The empty product has no factors and eigenvalue 1 on every basis state.
        identity = PauliString(())
        assert identity.qubits == ()
        h = PauliHamiltonian.from_terms([(1.0, identity)], num_qubits=2)
        assert [eigenvalue_of(h, BitVector(2, v)) for v in range(4)] == [1.0] * 4
