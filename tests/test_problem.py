"""The compiled codespace simulator against the dense statevector reference."""
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qviterbi import (
    BitVector,
    EmptyMixerError,
    Gf2Matrix,
    QaoaParams,
    code_from_codewords,
    code_from_generator,
    measure_counts,
    run_pqc,
    train_fpo,
    train_random,
    train_upo,
)
from qviterbi.engine import TWO_PI
from qviterbi.problem import DENSE_WALSH_MAX_K, DecodeProblem, fwht, walsh_matrix, walsh_transform
from conftest import BUILTIN_NAMES, bit_array, generators, reed_muller_1, span_words
from reference import allclose_up_to_global_phase, extract_codeword_register, run_full_register


def scattered(problem, betas, gammas):
    """Compiled amplitudes placed at their codewords' indices in the 2^n register."""
    full = np.zeros(1 << problem.n, dtype=np.complex128)
    full[problem.codewords] = problem.amplitudes(betas, gammas)
    return full


def assert_matches_dense(code, received, betas, gammas, full_register=False):
    problem = DecodeProblem(code, received)
    compiled = scattered(problem, betas, gammas)
    params = QaoaParams(tuple(betas), tuple(gammas))
    folded = run_pqc(code, received, params).amplitudes
    assert np.max(np.abs(compiled - folded)) <= 1e-12
    if full_register:
        full = extract_codeword_register(run_full_register(code, received, params), received)
        assert allclose_up_to_global_phase(compiled, full.amplitudes, atol=1e-10)


@st.composite
def decode_cases(draw):
    rows = draw(generators())
    n = len(rows[0])
    if draw(st.booleans()):
        code = code_from_generator(Gf2Matrix.from_rows(rows))
    else:
        # The same code ingested as an explicit codeword list.
        code = code_from_codewords([BitVector.from_string(w) for w in span_words(rows)])
    received = BitVector.from_string("".join(map(str, draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)))))
    p = draw(st.integers(1, 3))
    angle = st.floats(0.0, TWO_PI, allow_nan=False)
    betas = draw(st.lists(angle, min_size=p, max_size=p))
    gammas = draw(st.lists(angle, min_size=p, max_size=p))
    return code, received, betas, gammas


@settings(max_examples=80, deadline=None, derandomize=True)
@given(decode_cases())
def test_random_codes_match_dense_and_full_register(case):
    code, received, betas, gammas = case
    assert_matches_dense(code, received, betas, gammas, full_register=True)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(decode_cases())
def test_frozen_prefix_start_equals_full_recomputation(case):
    # FPO's evaluations apply their last layer to the frozen layers' output.
    code, received, betas, gammas = case
    problem = DecodeProblem(code, received)
    full = problem.probabilities(betas, gammas)
    for cut in range(len(betas)):
        frozen = problem.amplitudes(betas[:cut], gammas[:cut])
        assert np.array_equal(problem.probabilities(betas[cut:], gammas[cut:], frozen), full)
        assert np.array_equal(frozen, problem.amplitudes(betas[:cut], gammas[:cut]))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(decode_cases(), st.integers(0, 2**6 - 1))
def test_translation_by_a_codeword_permutes_the_probabilities(case, pick):
    # Codeword c = codewords[j] turns the distances for r into those for r xor c, permuted by the
    # message shift i -> i xor j; the mixer and the start state do not depend on r.
    code, received, betas, gammas = case
    j = pick % len(code.codewords)
    shifted = BitVector(code.n, received.value ^ code.codewords[j])
    probs = DecodeProblem(code, received).probabilities(betas, gammas)
    moved = DecodeProblem(code, shifted).probabilities(betas, gammas)
    assert np.max(np.abs(moved - probs[np.arange(probs.size) ^ j])) <= 1e-12


@settings(max_examples=40, deadline=None, derandomize=True)
@given(decode_cases(), st.data())
def test_expectation_is_invariant_under_a_coordinate_permutation(case, data):
    # Permuting the coordinates of G and r relabels the codewords and keeps every distance.
    code, received, betas, gammas = case
    perm = data.draw(st.permutations(range(code.n)))
    rows = bit_array(code.generator).tolist()
    permuted = code_from_generator(Gf2Matrix.from_rows([[row[q] for q in perm] for row in rows]))
    moved = BitVector.from_string("".join(str(received)[q] for q in perm))
    original = DecodeProblem(code, received)
    relabelled = DecodeProblem(permuted, moved)
    expected = original.expectation(original.probabilities(betas, gammas))
    assert abs(relabelled.expectation(relabelled.probabilities(betas, gammas)) - expected) <= 1e-12


angles = st.lists(st.floats(0.0, TWO_PI, allow_nan=False), min_size=1, max_size=2)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(decode_cases(), angles, angles, st.integers(0, 2**32 - 1))
def test_compiled_cost_is_the_reference_composition(case, prefix_betas, prefix_gammas, seed):
    # An optimizer draw's objective, after a frozen prefix, in exact and in sampled mode.
    code, received, betas, gammas = case
    problem = DecodeProblem(code, received)
    start = problem.amplitudes(prefix_betas, prefix_gammas)
    probs = problem.probabilities(betas, gammas, start)
    exact = problem.cost(start)(betas, gammas)
    assert exact == problem.expectation(probs) == float(np.dot(probs, problem.distances))
    sampled = problem.cost(start, 64, np.random.default_rng(seed))
    reference = np.random.default_rng(seed)
    for _ in range(3):
        assert sampled(betas, gammas) == problem.expectation_sampled(probs, 64, reference)


def per_layer_amplitudes(problem, betas, gammas):
    """Reference circuit in which every layer computes its phase vectors afresh."""
    size = problem.codewords.size
    psi = np.full(size, 1.0 / np.sqrt(size), dtype=np.complex128)
    weights = problem.n - 2 * problem.distances
    for beta, gamma in zip(betas, gammas):
        psi = problem.transform(problem.transform(psi) * (np.exp(-1j * beta * problem.spectrum) / size))
        psi *= np.exp(1j * 0.5 * gamma * weights)
    return psi


@pytest.mark.parametrize("betas,gammas", [
    ((0.7,) * 4, (2.3,) * 4),  # uniform angles
    ((0.7, 1.1, 5.2), (2.3, 0.4, 3.9)),  # every layer different
    ((0.7, 0.7, 0.7), (2.3, 4.0, 2.3)),  # same beta, gamma changes
    ((0.7, 0.7, 1.1, 0.7), (2.3, 2.3, 0.4, 2.3)),  # a pair comes back after another
])
def test_shared_phases_equal_per_layer_recomputation(betas, gammas, conv_code):
    problem = DecodeProblem(conv_code, BitVector.from_string("1101100111"))
    assert np.array_equal(problem.amplitudes(betas, gammas), per_layer_amplitudes(problem, betas, gammas))


def test_start_state_is_left_unchanged(lbc_633):
    problem = DecodeProblem(lbc_633, BitVector.from_string("111011"))
    before = problem.start.copy()
    empty = problem.amplitudes((), ())
    empty[0] = 0.0
    problem.amplitudes((0.3, 0.3), (1.2, 1.2))
    assert np.array_equal(problem.start, before)
    assert np.array_equal(problem.start, per_layer_amplitudes(problem, (), ()))


def cyclic_generator(poly, n):
    r = len(poly) - 1
    return [[0] * i + list(poly) + [0] * (n - r - 1 - i) for i in range(n - r)]


@pytest.mark.parametrize("rows,nkd", [
    (cyclic_generator([1, 0, 0, 0, 1, 0, 1, 1, 1], 15), (15, 7, 5)),  # BCH, 1 + x^4 + x^6 + x^7 + x^8
    (reed_muller_1(4), (16, 5, 8)),
    (cyclic_generator([1, 1, 0, 0, 1], 15), (15, 11, 3)),  # Hamming, 1 + x + x^4: the butterfly path
])
def test_wide_codes_match_dense(rows, nkd):
    code = code_from_generator(Gf2Matrix.from_rows(rows))
    assert (code.n, code.k, code.d) == nkd
    assert (DecodeProblem(code, BitVector(code.n, 0)).transform is fwht) == (code.k > DENSE_WALSH_MAX_K)
    rng = np.random.default_rng(5)
    received = BitVector.from_string("".join(map(str, rng.integers(0, 2, code.n).tolist())))
    for p in (1, 2):
        assert_matches_dense(code, received, rng.uniform(0, TWO_PI, p), rng.uniform(0, TWO_PI, p))


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_codewords_follow_codespace_order(name, all_builtins):
    code = all_builtins[name]
    problem = DecodeProblem(code, code.codespace[-1])
    assert [BitVector(code.n, int(w)) for w in problem.codewords] == list(code.codespace)
    assert problem.distances.tolist() == [
        (w.to_index() ^ code.codespace[-1].to_index()).bit_count() for w in code.codespace
    ]


def test_spectrum_is_mixer_eigenvalues(lbc_633):
    # lambda_t = sum over min-weight messages mu of (-1)^popcount(t & mu).
    problem = DecodeProblem(lbc_633, BitVector(6, 0))
    messages = [m for m, w in enumerate(problem.codewords) if bin(int(w)).count("1") == lbc_633.d]
    expected = [sum((-1) ** bin(t & m).count("1") for m in messages) for t in range(8)]
    assert problem.spectrum.tolist() == expected


def test_fwht_is_hadamard_matrix():
    h = np.array([[1.0]])
    for _ in range(4):
        h = np.block([[h, h], [h, -h]])
    x = np.random.default_rng(0).normal(size=16)
    assert np.allclose(fwht(x), h @ x, atol=1e-12)


@pytest.mark.parametrize("k", range(1, DENSE_WALSH_MAX_K + 2))
def test_dense_transform_equals_butterfly(k):
    size = 1 << k
    w = walsh_matrix(k)
    assert not w.flags.writeable
    assert np.array_equal(w @ w, size * np.eye(size))
    s, t = np.indices((size, size))
    assert np.array_equal(w, (-1.0) ** np.bitwise_count(s & t))
    rng = np.random.default_rng(k)
    x = rng.normal(size=size) + 1j * rng.normal(size=size)
    x /= np.linalg.norm(x)
    assert np.max(np.abs(w @ x - fwht(x))) <= 1e-13
    assert np.max(np.abs(walsh_transform(k)(x) - fwht(x))) <= 1e-13
    assert (walsh_transform(k) is fwht) == (k > DENSE_WALSH_MAX_K)


def test_import_builds_no_walsh_matrix():
    # Nor does it import numpy.random, which costs 9-15 ms.
    code = (
        "import sys, qviterbi, qviterbi.cli\n"
        "from qviterbi.problem import walsh_matrix, walsh_transform\n"
        "print(walsh_matrix.cache_info().currsize, walsh_transform.cache_info().currsize,\n"
        "      'numpy.random' in sys.modules)\n"
    )
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    out = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
                         capture_output=True, text=True, timeout=60, check=True)
    assert out.stdout.split() == ["0", "0", "False"]


def test_sampled_counts_match_dense_measurement(conv_code):
    received = BitVector.from_string("1101100111")
    params = QaoaParams((0.4, 1.9), (2.2, 0.7))
    problem = DecodeProblem(conv_code, received)
    probs = problem.probabilities(params.betas, params.gammas)
    dense = measure_counts(run_pqc(conv_code, received, params), 500, seed=21)
    counts = problem.sample(probs, 500, seed=21)
    assert {problem.bit_string(i): int(c) for i, c in enumerate(counts) if c} == dense


@pytest.mark.parametrize("trainer", [train_upo, train_fpo, train_random])
def test_zero_code_raises_empty_mixer(trainer):
    code = code_from_codewords([BitVector(3, 0)])
    with pytest.raises(EmptyMixerError):
        trainer(code, BitVector.from_string("101"), p=2, q=1, shots=10, seed=0)
