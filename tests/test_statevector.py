import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qviterbi import (
    BitVector,
    Code,
    Statevector,
    apply_cost_unitary,
    apply_mixer_unitary,
    build_mixer_hamiltonian,
    builtin_code,
    code_from_json,
    measure_counts,
    prepare_uniform_codespace,
)
from conftest import (
    BUILTIN_NAMES,
    CODESPACE_633,
    CODESPACE_CONV,
    cyclic_generator,
    generators,
    reed_muller_1,
    span_words,
    words_of,
)
from reference import (
    SQRT2_INV,
    allclose_up_to_global_phase,
    apply_codespace_prep,
    apply_cx,
    apply_full_cost_unitary,
    apply_h,
    apply_mixer_gates,
    apply_rz,
    apply_x,
    basis_state,
    extract_codeword_register,
    prepare_full_register,
    state_from,
)


def bv(s):
    return BitVector.from_string(s)


def random_state(num_qubits, seed):
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=1 << num_qubits) + 1j * rng.normal(size=1 << num_qubits)
    return state_from(amps / np.linalg.norm(amps))


def random_codespace_state(code, seed):
    rng = np.random.default_rng(seed)
    amps = np.zeros(1 << code.n, dtype=complex)
    coeffs = rng.normal(size=len(code.codespace)) + 1j * rng.normal(size=len(code.codespace))
    for c, a in zip(code.codespace, coeffs):
        amps[c.to_index()] = a
    return state_from(amps / np.linalg.norm(amps))


class TestStatevectorBasics:
    def test_initial_state(self):
        sv = Statevector(3)
        assert sv.amplitudes[0] == 1.0
        assert np.linalg.norm(sv.amplitudes) == pytest.approx(1.0)

    def test_qubit_zero_is_most_significant(self):
        sv = Statevector(3)
        apply_x(sv, 0)
        assert np.flatnonzero(sv.amplitudes).tolist() == [0b100]

    def test_rz_convention(self):
        # Rz(theta) = diag(exp(-i theta/2), exp(+i theta/2))
        theta = 0.37
        sv = Statevector(1)
        apply_rz(sv, theta, 0)
        assert sv.amplitudes[0] == pytest.approx(np.exp(-1j * theta / 2))
        sv = basis_state(1, 1)
        apply_rz(sv, theta, 0)
        assert sv.amplitudes[1] == pytest.approx(np.exp(1j * theta / 2))

    def test_qubit_limit(self):
        # np.zeros asks the OS for zeroed pages, so of the 256 MB only the
        # page holding amplitude 0 is written.
        assert Statevector(24).dim == 1 << 24
        with pytest.raises(ValueError):
            Statevector(25)

    def test_norm_preserved_under_random_gates(self):
        sv = random_state(5, 0)
        rng = np.random.default_rng(1)
        for _ in range(400):
            gate = rng.integers(0, 4)
            q = int(rng.integers(0, 5))
            if gate == 0:
                apply_h(sv, q)
            elif gate == 1:
                apply_x(sv, q)
            elif gate == 2:
                apply_rz(sv, float(rng.uniform(0, 2 * math.pi)), q)
            else:
                t = int(rng.integers(0, 5))
                if t != q:
                    apply_cx(sv, q, t)
        assert abs(np.linalg.norm(sv.amplitudes) - 1.0) < 1e-12

    def test_gates_match_index_array_forms_bit_for_bit(self):
        # The gates act on reshaped views; their index-array forms are the reference.
        def h(a, n, q):
            mask = 1 << (n - 1 - q)
            idx = np.arange(1 << n)
            lo = idx[(idx & mask) == 0]
            a0, a1 = a[lo], a[lo | mask]
            a[lo], a[lo | mask] = SQRT2_INV * (a0 + a1), SQRT2_INV * (a0 - a1)

        def cx(a, n, c, t):
            idx = np.arange(1 << n)
            lo = idx[((idx >> (n - 1 - c)) & 1 == 1) & ((idx >> (n - 1 - t)) & 1 == 0)]
            a[lo], a[lo | (1 << (n - 1 - t))] = a[lo | (1 << (n - 1 - t))], a[lo]

        def x(a, n, q):
            a[:] = a[np.arange(1 << n) ^ (1 << (n - 1 - q))]

        def rz(a, n, theta, q):
            bit = ((np.arange(1 << n) >> (n - 1 - q)) & 1).astype(np.float64)
            a *= np.exp(1j * theta * (bit - 0.5))

        rng = np.random.default_rng(4)
        for n in (1, 2, 5):
            sv = random_state(n, n)
            ref = sv.amplitudes.copy()
            for _ in range(200):
                q = int(rng.integers(n))
                gate = int(rng.integers(4 if n > 1 else 3))
                if gate == 0:
                    h(ref, n, q)
                    apply_h(sv, q)
                elif gate == 1:
                    x(ref, n, q)
                    apply_x(sv, q)
                elif gate == 2:
                    theta = float(rng.uniform(-7, 7))
                    rz(ref, n, theta, q)
                    apply_rz(sv, theta, q)
                else:
                    t = (q + 1 + int(rng.integers(n - 1))) % n
                    cx(ref, n, q, t)
                    apply_cx(sv, q, t)
                assert sv.amplitudes.tobytes() == ref.tobytes()

    def test_cx_needs_two_qubits(self):
        with pytest.raises(ValueError):
            apply_cx(Statevector(2), 1, 1)

    def test_gates_act_on_a_strided_input(self):
        amps = np.zeros(8, dtype=complex)
        amps[0] = 1.0
        sv = state_from(amps[::2])
        apply_h(sv, 0)
        apply_cx(sv, 0, 1)
        assert np.allclose(sv.amplitudes, [SQRT2_INV, 0, 0, SQRT2_INV])

    def test_json_entries(self):
        sv = basis_state(2, 2)
        entries = sv.to_json_entries()
        assert entries[2] == [2, 1.0, 0.0]
        assert len(entries) == 4


# Codes beyond the built-ins, as generator rows and their (n, k).
NAMED_CODES = {
    "hamming_7_4": (cyclic_generator([1, 1, 0, 1], 7), (7, 4)),  # 1 + x + x^3
    "bch_15_7": (cyclic_generator([1, 0, 0, 0, 1, 0, 1, 1, 1], 15), (15, 7)),  # 1 + x^4 + x^6 + x^7 + x^8
    "rm_16_5": (reed_muller_1(4), (16, 5)),
    "hamming_15_11": (cyclic_generator([1, 1, 0, 0, 1], 15), (15, 11)),  # 1 + x + x^4
}


def gate_built(code):
    sv = Statevector(code.n)
    apply_codespace_prep(sv, code)
    return sv


class TestStatePreparation:
    @pytest.mark.parametrize("name", BUILTIN_NAMES + sorted(NAMED_CODES))
    def test_prepared_state_is_the_gate_built_state_byte_for_byte(self, name):
        # Every bit of every amplitude, the signs of the zeros included: the
        # codeword amplitude is 1/sqrt(2) multiplied in k times, as the
        # Hadamards leave it, which 2 ** (-k / 2) misses in the last bit.
        if name in NAMED_CODES:
            rows, nk = NAMED_CODES[name]
            code = code_from_json({"generator": rows})
            assert (code.n, code.k) == nk
        else:
            code = builtin_code(name)
        assert prepare_uniform_codespace(code).amplitudes.tobytes() == gate_built(code).amplitudes.tobytes()

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(generators(max_n=12), st.booleans())
    def test_prepared_state_is_the_gate_built_state_on_generated_codes(self, rows, as_codewords):
        # Both code JSON shapes store an RREF generator, which the gate-built
        # preparation needs.
        if as_codewords:
            code = code_from_json({"codewords": span_words(rows)})
        else:
            code = code_from_json({"generator": rows})
        assert prepare_uniform_codespace(code).amplitudes.tobytes() == gate_built(code).amplitudes.tobytes()

    def test_633_uniform_support(self, lbc_633):
        sv = prepare_uniform_codespace(lbc_633)
        expected = {bv(s).to_index() for s in CODESPACE_633}
        for i, amp in enumerate(sv.amplitudes):
            if i in expected:
                assert amp == pytest.approx(1 / math.sqrt(8))
            else:
                assert amp == 0

    def test_convolutional_uniform_support(self, conv_code):
        sv = prepare_uniform_codespace(conv_code)
        expected = {bv(s).to_index() for s in CODESPACE_CONV}
        nonzero = set(np.flatnonzero(np.abs(sv.amplitudes) > 1e-12).tolist())
        assert nonzero == expected
        assert np.allclose(np.abs(sv.amplitudes[sorted(expected)]), 1 / math.sqrt(8))

    def test_zero_code_untouched(self):
        code = code_from_json({"codewords": ["000"]})
        sv = prepare_uniform_codespace(code)
        assert sv.amplitudes[0] == 1.0

    @pytest.mark.parametrize("rows", [
        pytest.param([[1, 1], [1, 0]], id="pivots_out_of_order"),
        pytest.param([[1, 0], [0, 0]], id="zero_row"),
        pytest.param([[1, 1], [0, 1]], id="pivot_column_not_unit"),
    ])
    def test_non_rref_generator_rejected(self, rows):
        # The gate-built preparation of the test reference is right only for
        # an RREF generator; both code JSON shapes store one.
        bad = Code(n=2, k=2, generator=tuple(words_of(rows)), parity_check=(), branch_bits=1)
        with pytest.raises(ValueError, match="reduced row-echelon"):
            apply_codespace_prep(Statevector(2), bad)


class TestCostUnitary:
    def test_zero_angle_is_identity(self, lbc_633):
        sv = prepare_uniform_codespace(lbc_633)
        before = sv.amplitudes.copy()
        apply_cost_unitary(sv, 0.0, bv("111011"))
        assert np.array_equal(sv.amplitudes, before)

    def test_single_pair_phase_full_mode(self):
        # Matching codeword and ancilla bits pick up exp(i gamma / 2).
        gamma = 1.234
        sv = basis_state(2, 0b11)
        apply_full_cost_unitary(sv, gamma, bv("1"))
        assert sv.amplitudes[0b11] == pytest.approx(np.exp(1j * gamma / 2))

    def test_folded_phase_values(self):
        gamma = 0.81
        r = bv("10")
        sv = state_from(np.full(4, 0.5, dtype=complex))
        apply_cost_unitary(sv, gamma, r)
        for i in range(4):
            d = (i ^ r.to_index()).bit_count()
            expected = 0.5 * np.exp(1j * 0.5 * gamma * (2 - 2 * d))
            assert sv.amplitudes[i] == pytest.approx(expected)

    @pytest.mark.parametrize("name", BUILTIN_NAMES)
    def test_folded_matches_full_register(self, name, all_builtins):
        code = all_builtins[name]
        rng = np.random.default_rng(5)
        r = BitVector.from_string("".join(map(str, rng.integers(0, 2, code.n).tolist())))
        gamma = float(rng.uniform(0, 2 * math.pi))

        folded = prepare_uniform_codespace(code)
        apply_cost_unitary(folded, gamma, r)

        full = prepare_full_register(code, r)
        apply_full_cost_unitary(full, gamma, r)
        reduced = extract_codeword_register(full, r)

        assert allclose_up_to_global_phase(folded.amplitudes, reduced.amplitudes, atol=1e-10)


class TestMixerUnitary:
    def test_zero_angle_is_identity(self, lbc_633):
        mixer = build_mixer_hamiltonian(lbc_633)
        sv = random_state(6, 2)
        before = sv.amplitudes.copy()
        apply_mixer_unitary(sv, 0.0, mixer)
        assert np.allclose(sv.amplitudes, before)

    def test_half_period_flip(self):
        sv = Statevector(3)
        apply_mixer_unitary(sv, math.pi / 2, (0b111,))
        assert sv.amplitudes[0b111] == pytest.approx(-1j)
        assert abs(sv.amplitudes[0]) < 1e-15

    @pytest.mark.parametrize("name", BUILTIN_NAMES)
    @pytest.mark.parametrize("method", ["pairing", "gates"])
    def test_support_stays_in_codespace(self, name, method, all_builtins):
        code = all_builtins[name]
        mixer = build_mixer_hamiltonian(code)
        members = [c.to_index() for c in code.codespace]
        rng = np.random.default_rng(8)
        for trial in range(20):
            sv = random_codespace_state(code, 100 + trial)
            beta = float(rng.uniform(0, 2 * math.pi))
            if method == "pairing":
                apply_mixer_unitary(sv, beta, mixer)
            else:
                apply_mixer_gates(sv, beta, mixer, code.n)
            outside = np.delete(sv.probabilities(), members).sum()
            assert outside < 1e-10

    @pytest.mark.parametrize("name", BUILTIN_NAMES)
    def test_pairing_matches_gate_decomposition(self, name, all_builtins):
        code = all_builtins[name]
        mixer = build_mixer_hamiltonian(code)
        rng = np.random.default_rng(9)
        for trial in range(10):
            beta = float(rng.uniform(0, 2 * math.pi))
            sv_a = random_state(code.n, 200 + trial)
            sv_b = state_from(sv_a.amplitudes.copy())
            apply_mixer_unitary(sv_a, beta, mixer)
            apply_mixer_gates(sv_b, beta, mixer, code.n)
            assert np.allclose(sv_a.amplitudes, sv_b.amplitudes, atol=1e-12)

    def test_unitarity_round_trip(self, lbc_633):
        mixer = build_mixer_hamiltonian(lbc_633)
        r = bv("111011")
        sv = prepare_uniform_codespace(lbc_633)
        start = sv.amplitudes.copy()
        angles = [(0.3, 1.1), (2.0, 0.4), (5.5, 3.3)]
        for beta, gamma in angles:
            apply_mixer_unitary(sv, beta, mixer)
            apply_cost_unitary(sv, gamma, r)
        for beta, gamma in reversed(angles):
            apply_cost_unitary(sv, -gamma, r)
            apply_mixer_unitary(sv, -beta, mixer)
        assert np.allclose(sv.amplitudes, start, atol=1e-10)

    @pytest.mark.parametrize("name", BUILTIN_NAMES)
    def test_rotation_keeps_the_signs_of_zeros(self, name, all_builtins):
        # --dump-state prints every amplitude, the signed zeros outside the
        # codespace included. The reference is the pair rotation on index
        # arrays: the pairs' first members selected by a boolean mask, and
        # the two formulas of the rotation.
        def rotate(a, n, beta, mask):
            idx = np.arange(1 << n)
            sel = idx[(idx & (mask & -mask)) == 0]
            partner = sel ^ mask
            c, s = math.cos(beta), math.sin(beta)
            x, y = a[sel].copy(), a[partner].copy()
            a[sel] = c * x - 1j * s * y
            a[partner] = -1j * s * x + c * y

        code = all_builtins[name]
        mixer = build_mixer_hamiltonian(code)
        members = [c.to_index() for c in code.codespace]
        rng = np.random.default_rng(11)
        for trial in range(20):
            sv = random_codespace_state(code, 300 + trial)
            # Every entry outside the codespace is a zero of random sign, in
            # each of its real and imaginary parts.
            parts = sv.amplitudes.view(np.float64).reshape(-1, 2)
            outside = np.delete(np.arange(sv.dim), members)
            parts[outside] = np.copysign(0.0, rng.choice([-1.0, 1.0], size=(outside.size, 2)))
            ref = sv.amplitudes.copy()
            beta = float(rng.uniform(-2 * math.pi, 2 * math.pi))
            for mask in mixer:
                rotate(ref, code.n, beta, mask)
            apply_mixer_unitary(sv, beta, mixer)
            assert sv.amplitudes.tobytes() == ref.tobytes()


class TestMeasureCounts:
    def test_basis_state_deterministic(self):
        sv = basis_state(3, 0b101)
        counts = measure_counts(sv, 2000, seed=0)
        assert counts == {"101": 2000}

    def test_uniform_counts_within_binomial_bounds(self, lbc_633):
        sv = prepare_uniform_codespace(lbc_633)
        counts = measure_counts(sv, 2000, seed=1)
        assert sum(counts.values()) == 2000
        sigma = math.sqrt(2000 * (1 / 8) * (7 / 8))
        for s in CODESPACE_633:
            assert abs(counts.get(s, 0) - 250) <= 5 * sigma

    def test_seed_determinism(self, lbc_633):
        sv = prepare_uniform_codespace(lbc_633)
        assert measure_counts(sv, 500, seed=42) == measure_counts(sv, 500, seed=42)

    def test_shots_validation(self):
        with pytest.raises(ValueError):
            measure_counts(Statevector(1), 0, seed=0)

    def test_one_shot(self):
        assert measure_counts(basis_state(2, 0b11), 1, seed=0) == {"11": 1}

    def test_probabilities_are_normalised_before_sampling(self):
        # |amplitude|^2 is (4, 1), so the outcomes are drawn with (0.8, 0.2).
        sv = state_from(np.array([2.0, 1.0j]))
        expected = np.random.default_rng(3).multinomial(1000, [0.8, 0.2])
        assert measure_counts(sv, 1000, seed=3) == {"0": int(expected[0]), "1": int(expected[1])}


class TestGlobalPhaseComparison:
    def test_detects_equal_up_to_phase(self):
        a = random_state(4, 3).amplitudes
        assert allclose_up_to_global_phase(a, a * np.exp(0.7j))

    def test_detects_difference(self):
        a = random_state(4, 3).amplitudes
        b = random_state(4, 4).amplitudes
        assert not allclose_up_to_global_phase(a, b)
