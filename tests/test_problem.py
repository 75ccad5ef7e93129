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
from qviterbi.problem import DENSE_WALSH_MAX_K, DecodeProblem, fwht, walsh_matrix, walsh_transforms
from conftest import BUILTIN_NAMES, bit_array, cyclic_generator, generators, reed_muller_1, span_words
from reference import (
    allclose_up_to_global_phase,
    extract_codeword_register,
    problem_expectation,
    problem_expectation_sampled,
    run_full_register,
)


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
    expected = problem_expectation(original, original.probabilities(betas, gammas))
    assert abs(problem_expectation(relabelled, relabelled.probabilities(betas, gammas)) - expected) <= 1e-12


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
    assert exact == problem_expectation(problem, probs) == float(np.dot(probs, problem.distances))
    sampled = problem.cost(start, shots=64, rng=np.random.default_rng(seed))
    reference = np.random.default_rng(seed)
    for _ in range(3):
        assert sampled(betas, gammas) == problem_expectation_sampled(problem, probs, 64, reference)


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


# One code on each transform path: the complex product (k <= 5), the product on
# the real view (k = 6 to 8) and the butterfly (k > 8).
PATH_CODES = {
    "complex_product": ([[1, 0, 0, 0, 1, 1], [0, 1, 0, 1, 0, 1], [0, 0, 1, 1, 1, 0]], 3),  # lbc_633
    "real_product": (cyclic_generator([1, 0, 0, 0, 1, 0, 1, 1, 1], 15), 7),  # BCH [15, 7, 5]
    "butterfly": (cyclic_generator([1, 1, 0, 0, 1], 15), 11),  # Hamming [15, 11, 3]
}


def path_problem(path):
    rows, k = PATH_CODES[path]
    code = code_from_generator(Gf2Matrix.from_rows(rows))
    assert code.k == k
    rng = np.random.default_rng(k)
    return DecodeProblem(code, BitVector(code.n, int(rng.integers(1 << code.n)))), rng


@pytest.mark.parametrize("path", PATH_CODES)
def test_bound_objective_is_the_reference_composition_on_every_path(path):
    # Exact and sampled, with and without a frozen prefix, at uniform and at per-layer angles.
    problem, rng = path_problem(path)
    for p in (1, 2, 3):
        for frozen in (0, 2):
            for uniform in (True, False):
                betas, gammas = (rng.uniform(0.0, TWO_PI, p + frozen).tolist() for _ in range(2))
                if uniform:
                    betas[frozen:], gammas[frozen:] = [betas[-1]] * p, [gammas[-1]] * p
                start = problem.amplitudes(betas[:frozen], gammas[:frozen]) if frozen else None
                betas, gammas = betas[frozen:], gammas[frozen:]
                probs = problem.probabilities(betas, gammas, start)
                assert problem.cost(start)(betas, gammas) == problem_expectation(problem, probs)
                seed = int(rng.integers(1 << 32))
                sampled = problem.cost(start, shots=256, rng=np.random.default_rng(seed))
                reference = np.random.default_rng(seed)
                for _ in range(3):
                    assert sampled(betas, gammas) == problem_expectation_sampled(problem, probs, 256, reference)


@pytest.mark.parametrize("path", PATH_CODES)
def test_inverse_that_carries_the_scale_equals_the_divided_mixer_phase(path):
    # Scaling by 2^-k is exact, so W / 2^k after the mixer phase gives the bits
    # of W after the mixer phase divided by 2^k.
    problem, rng = path_problem(path)
    for p in (1, 3):
        betas, gammas = rng.uniform(0.0, TWO_PI, p), rng.uniform(0.0, TWO_PI, p)
        assert np.array_equal(problem.amplitudes(betas, gammas), per_layer_amplitudes(problem, betas, gammas))


def binding(problem, start, mode, seed):
    if mode == "exact":
        return problem.cost(start)
    return problem.cost(start, shots=64, rng=np.random.default_rng(seed))


@pytest.mark.parametrize("mode", ["exact", "sampled"])
def test_interleaved_bindings_return_what_each_returns_alone(mode, lbc_633):
    problem = DecodeProblem(lbc_633, BitVector.from_string("111011"))
    frozen = problem.amplitudes((0.9,), (2.6,))
    points = [((0.3,), (1.2,)), ((2.0, 2.0, 2.0), (0.5, 0.5, 0.5)), ((4.1, 1.7), (5.9, 0.8))]
    first, second = binding(problem, None, mode, 1), binding(problem, frozen, mode, 2)
    first_alone = [first(*point) for point in points]
    second_alone = [second(*point) for point in points]
    first, second = binding(problem, None, mode, 1), binding(problem, frozen, mode, 2)
    assert [(first(*point), second(*point)) for point in points] == list(zip(first_alone, second_alone))


@pytest.mark.parametrize("path", PATH_CODES)
def test_bindings_leave_both_starts_unchanged(path):
    problem, _ = path_problem(path)
    uniform = problem.start.copy()
    frozen = problem.amplitudes((0.9,), (2.6,))
    kept = frozen.copy()
    for start in (None, frozen):
        for mode in ("exact", "sampled"):
            cost = binding(problem, start, mode, 3)
            for point in [((), ()), ((0.3, 0.3), (1.2, 1.2)), ((1.1,), (0.2,))]:
                cost(*point)
    assert np.array_equal(problem.start, uniform)
    assert np.array_equal(frozen, kept)


def test_returned_arrays_are_not_overwritten_by_later_evaluations(lbc_633):
    # At p = 1 the probabilities stay uniform (the mixer acts first, on its
    # eigenvector), so the later evaluations here use two layers.
    problem = DecodeProblem(lbc_633, BitVector.from_string("111011"))
    returned = [
        problem.amplitudes((), ()),
        problem.amplitudes((0.3, 1.1), (1.2, 0.4)),
        problem.probabilities((0.3, 1.1), (1.2, 0.4)),
        problem.probabilities((), ()),
    ]
    kept = [a.copy() for a in returned]
    for mode in ("exact", "sampled"):
        binding(problem, None, mode, 4)((2.2, 0.5), (0.7, 1.9))
    problem.amplitudes((1.0, 2.0), (1.0, 0.3))
    assert not np.allclose(problem.probabilities((1.0, 2.0), (1.0, 0.3)), kept[3])
    assert all(np.array_equal(a, b) for a, b in zip(returned, kept))


def test_cost_takes_shots_and_rng_together(lbc_633):
    problem = DecodeProblem(lbc_633, BitVector.from_string("111011"))
    with pytest.raises(ValueError, match="together"):
        problem.cost(shots=64)
    with pytest.raises(ValueError, match="together"):
        problem.cost(rng=np.random.default_rng(0))
    with pytest.raises(TypeError):
        problem.cost(None, 64, np.random.default_rng(0))


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_codewords_follow_codespace_order(name, all_builtins):
    code = all_builtins[name]
    problem = DecodeProblem(code, code.codespace[-1])
    assert [BitVector(code.n, int(w)) for w in problem.codewords] == list(code.codespace)
    assert problem.distances.tolist() == [
        (w.to_index() ^ code.codespace[-1].to_index()).bit_count() for w in code.codespace
    ]


def test_word_limit_accepts_63_bits_and_rejects_64():
    # Codewords are held as int64: the [63, 1] repetition code compiles, with
    # its all-ones word intact, and the [64, 1] one is refused before any
    # int64 array is made.
    problem = DecodeProblem(code_from_generator(Gf2Matrix.from_rows([[1] * 63])), BitVector(63, 1))
    assert problem.codewords.tolist() == [0, (1 << 63) - 1]
    assert problem.distances.tolist() == [1, 62]
    with pytest.raises(ValueError, match="64"):
        DecodeProblem(code_from_generator(Gf2Matrix.from_rows([[1] * 64])), BitVector(64, 1))


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
    transform, inverse = walsh_transforms(k)
    assert np.max(np.abs(transform(x) - fwht(x))) <= 1e-13
    assert np.max(np.abs(inverse(x) - fwht(x) / size)) <= 1e-13 / size
    assert np.max(np.abs(inverse(transform(x)) - x)) <= 1e-13
    assert (transform is fwht) == (k > DENSE_WALSH_MAX_K)


def test_import_builds_no_walsh_matrix():
    # Nor does it import numpy.random, which costs 9-15 ms.
    code = (
        "import sys, qviterbi, qviterbi.cli\n"
        "from qviterbi.problem import walsh_matrix, walsh_transforms\n"
        "print(walsh_matrix.cache_info().currsize, walsh_transforms.cache_info().currsize,\n"
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
