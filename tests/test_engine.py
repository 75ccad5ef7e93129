import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qviterbi import (
    BitVector,
    LengthError,
    QaoaParams,
    expectation_exact,
    expectation_sampled,
    landscape_scan,
    ml_brute_force,
    prepare_uniform_codespace,
    run_pqc,
    train_fpo,
    train_random,
    train_upo,
)
from qviterbi._seedseq import pcg64_seed_words
from qviterbi.engine import _FIRST_BLOCK, _ROLE_EVAL, TWO_PI, _Evaluator, _fixed_seed_type, child_seed
from qviterbi.problem import DecodeProblem
from qviterbi.statevector import CircuitMode, allclose_up_to_global_phase, extract_codeword_register
from conftest import BUILTIN_NAMES


def bv(s):
    return BitVector.from_string(s)


def top_states(distribution, count=1):
    return [s for s, _ in sorted(distribution.items(), key=lambda kv: (-kv[1], kv[0]))[:count]]


class TestQaoaParams:
    def test_uniform_factory(self):
        params = QaoaParams.uniform_params(3, 0.5, 1.5)
        assert params.p == 3
        assert params.betas == (0.5, 0.5, 0.5)
        assert params.uniform

    def test_uniform_flag_enforced(self):
        with pytest.raises(ValueError):
            QaoaParams((0.1, 0.2), (0.3, 0.3), uniform=True)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            QaoaParams((0.1,), (0.2, 0.3))

    def test_canonical_mod_two_pi(self):
        params = QaoaParams((-0.5, TWO_PI + 1.0), (7.0, 7.0)).canonical()
        assert params.betas[0] == pytest.approx(TWO_PI - 0.5)
        assert params.betas[1] == pytest.approx(1.0)
        assert params.gammas[0] == pytest.approx(7.0 - TWO_PI)


class TestRunPqc:
    def test_zero_layers_returns_initial_state(self, lbc_633):
        r = bv("111011")
        sv = run_pqc(lbc_633, r, QaoaParams((), ()))
        assert np.allclose(sv.amplitudes, prepare_uniform_codespace(lbc_633).amplitudes)

    def test_zero_beta_leaves_probabilities_uniform(self, lbc_633):
        r = bv("111011")
        sv = run_pqc(lbc_633, r, QaoaParams.uniform_params(1, 0.0, 1.3))
        uniform = prepare_uniform_codespace(lbc_633).probabilities()
        assert np.allclose(sv.probabilities(), uniform, atol=1e-12)

    @pytest.mark.parametrize("name", BUILTIN_NAMES)
    def test_folded_matches_full_register(self, name, all_builtins):
        code = all_builtins[name]
        rng = np.random.default_rng(17)
        r = BitVector(tuple(rng.integers(0, 2, code.n).tolist()))
        params = QaoaParams.uniform_params(2, float(rng.uniform(0, TWO_PI)), float(rng.uniform(0, TWO_PI)))
        folded = run_pqc(code, r, params, CircuitMode.FOLDED)
        full = run_pqc(code, r, params, CircuitMode.FULL)
        reduced = extract_codeword_register(full, r)
        assert allclose_up_to_global_phase(folded.amplitudes, reduced.amplitudes, atol=1e-10)

    def test_received_length_checked(self, lbc_633):
        with pytest.raises(LengthError):
            run_pqc(lbc_633, bv("111"), QaoaParams((), ()))


class TestExpectations:
    def test_uniform_vs_zero_vector(self, lbc_633):
        sv = prepare_uniform_codespace(lbc_633)
        assert expectation_exact(sv, bv("000000")) == pytest.approx(3.0)

    def test_uniform_vs_received(self, lbc_633):
        sv = prepare_uniform_codespace(lbc_633)
        assert expectation_exact(sv, bv("111011")) == pytest.approx(3.0)

    def test_basis_state_zero_distance(self):
        from qviterbi import Statevector

        sv = Statevector.basis(4, bv("1010").to_index())
        assert expectation_exact(sv, bv("1010")) == 0.0

    def test_sampled_deterministic_on_basis_state(self):
        from qviterbi import Statevector

        sv = Statevector.basis(4, bv("1010").to_index())
        assert expectation_sampled(sv, bv("0010"), shots=50, seed=3) == 1.0

    def test_sampled_close_to_exact(self, lbc_633):
        sv = prepare_uniform_codespace(lbc_633)
        r = bv("111011")
        # Distance spectrum over the codespace has variance 1.5.
        sigma = math.sqrt(1.5 / 2000)
        est = expectation_sampled(sv, r, shots=2000, seed=10)
        assert abs(est - 3.0) < 3 * sigma

    def test_sampled_seed_determinism(self, lbc_633):
        sv = prepare_uniform_codespace(lbc_633)
        r = bv("111011")
        assert expectation_sampled(sv, r, 2000, 5) == expectation_sampled(sv, r, 2000, 5)


class TestTrainUpo:
    def test_decodes_single_error(self, lbc_633):
        result = train_upo(lbc_633, bv("111011"), p=3, q=5, shots=2000, seed=0)
        assert top_states(result.distribution) == ["011011"]
        assert result.solution_hits > 1000
        assert result.strategy == "UPO"

    def test_argmax_in_oracle_set(self, lbc_633, lbc_321):
        for code, r in ((lbc_633, bv("111011")), (lbc_321, bv("011"))):
            result = train_upo(code, r, p=3, q=5, shots=2000, seed=1)
            oracle = {str(c) for c in ml_brute_force(code, r).best_codewords}
            assert top_states(result.distribution)[0] in oracle

    def test_tied_minimizers_both_amplified(self, lbc_321):
        result = train_upo(lbc_321, bv("011"), p=3, q=5, shots=2000, seed=0)
        assert set(top_states(result.distribution, 2)) == {"010", "111"}

    def test_monotone_selection(self, lbc_633):
        result = train_upo(lbc_633, bv("111011"), p=3, q=5, shots=2000, seed=2)
        assert result.best_expectation == min(rec.expectation for rec in result.samples)
        assert len(result.samples) == 5

    def test_approximation_ratio(self, lbc_633):
        r = bv("111011")
        result = train_upo(lbc_633, r, p=3, q=3, shots=2000, seed=3)
        f_min = ml_brute_force(lbc_633, r).best_metric
        assert result.approximation_ratio == pytest.approx(result.best_expectation / f_min)
        assert result.approximation_ratio >= 1.0

    def test_ratio_none_when_received_is_codeword(self, lbc_633):
        result = train_upo(lbc_633, bv("011011"), p=1, q=2, shots=100, seed=4)
        assert result.approximation_ratio is None

    def test_deterministic_given_seed(self, lbc_633):
        a = train_upo(lbc_633, bv("111011"), p=2, q=2, shots=500, seed=9)
        b = train_upo(lbc_633, bv("111011"), p=2, q=2, shots=500, seed=9)
        assert a == b

    def test_single_draw(self, lbc_633):
        result = train_upo(lbc_633, bv("111011"), p=2, q=1, shots=500, seed=6)
        assert len(result.samples) == 1
        assert result.best_expectation == result.samples[0].expectation

    def test_exact_distribution_sums_to_one(self, lbc_633):
        result = train_upo(lbc_633, bv("111011"), p=3, q=2, shots=2000, seed=0)
        assert sum(result.distribution.values()) == pytest.approx(1.0, abs=1e-9)

    def test_sampled_mode_counts(self, lbc_633):
        result = train_upo(lbc_633, bv("111011"), p=1, q=2, shots=400, seed=0, mode="sampled")
        assert sum(result.distribution.values()) == 400
        assert all(float(v).is_integer() for v in result.distribution.values())

    def test_argument_validation(self, lbc_633):
        with pytest.raises(ValueError):
            train_upo(lbc_633, bv("111011"), p=0, q=1, shots=10, seed=0)
        with pytest.raises(ValueError):
            train_upo(lbc_633, bv("111011"), p=1, q=0, shots=10, seed=0)
        with pytest.raises(LengthError):
            train_upo(lbc_633, bv("11"), p=1, q=1, shots=10, seed=0)


class TestTrainFpo:
    def test_single_layer_matches_upo(self, lbc_633):
        r = bv("111011")
        upo = train_upo(lbc_633, r, p=1, q=3, shots=500, seed=42)
        fpo = train_fpo(lbc_633, r, p=1, q=3, shots=500, seed=42)
        assert fpo.best_params.betas == upo.best_params.betas
        assert fpo.best_params.gammas == upo.best_params.gammas
        assert fpo.best_expectation == upo.best_expectation

    def test_layers_grow_one_at_a_time(self, lbc_633):
        result = train_fpo(lbc_633, bv("111011"), p=3, q=2, shots=500, seed=0)
        assert result.best_params.p == 3
        assert not result.best_params.uniform
        assert len(result.samples) == 2
        assert result.strategy == "FPO"

    def test_final_stage_selection(self, lbc_633):
        result = train_fpo(lbc_633, bv("111011"), p=2, q=3, shots=500, seed=1)
        assert result.best_expectation == min(rec.expectation for rec in result.samples)


class TestTrainRandom:
    def test_search_dimension(self, lbc_633):
        result = train_random(lbc_633, bv("111011"), p=3, q=2, shots=500, seed=0)
        assert result.best_params.p == 3
        record = result.samples[0]
        assert len(record.initial_params.betas) == 3
        assert len(record.initial_params.gammas) == 3
        assert result.strategy == "RANDOM"

    def test_single_draw_matches_upo_at_p1(self, lbc_633):
        r = bv("111011")
        rnd = train_random(lbc_633, r, p=1, q=1, shots=500, seed=7)
        upo = train_upo(lbc_633, r, p=1, q=1, shots=500, seed=7)
        assert rnd.best_params.betas == upo.best_params.betas
        assert rnd.best_expectation == upo.best_expectation

    def test_best_not_worse_than_mean(self, lbc_633):
        result = train_random(lbc_633, bv("111011"), p=3, q=4, shots=500, seed=5)
        mean = sum(rec.expectation for rec in result.samples) / len(result.samples)
        assert result.best_expectation <= mean


@pytest.mark.parametrize("trainer", [train_upo, train_fpo, train_random])
def test_solution_hits_count_every_ml_codeword(trainer, lbc_321):
    # Two codewords tie at the minimum distance; the sampled distribution holds raw counts.
    r = bv("011")
    oracle = ml_brute_force(lbc_321, r)
    assert len(oracle.best_codewords) == 2
    result = trainer(lbc_321, r, p=2, q=2, shots=500, seed=7, mode="sampled")
    assert result.solution_hits == sum(result.distribution.get(str(c), 0) for c in oracle.best_codewords)
    assert result.approximation_ratio == result.best_expectation / oracle.best_metric


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_variational_lower_bound(name, all_builtins):
    code = all_builtins[name]
    rng = np.random.default_rng(23)
    r = BitVector(tuple(rng.integers(0, 2, code.n).tolist()))
    f_min = ml_brute_force(code, r).best_metric
    for _ in range(15):
        p = int(rng.integers(1, 4))
        params = QaoaParams(
            tuple(rng.uniform(0, TWO_PI, p).tolist()),
            tuple(rng.uniform(0, TWO_PI, p).tolist()),
        )
        sv = run_pqc(code, r, params)
        assert expectation_exact(sv, r) >= f_min - 1e-9


class TestLandscape:
    def test_grid_shape_and_origin(self, lbc_321):
        r = bv("011")
        rows = landscape_scan(lbc_321, r, p=3, grid=8)
        assert rows.shape == (64, 3)
        uniform = expectation_exact(prepare_uniform_codespace(lbc_321), r)
        origin = rows[(rows[:, 0] == 0.0) & (rows[:, 1] == 0.0)]
        assert origin[0, 2] == pytest.approx(uniform)

    def test_bound_and_nonflat(self, lbc_321):
        r = bv("011")
        rows = landscape_scan(lbc_321, r, p=3, grid=16)
        f_min = ml_brute_force(lbc_321, r).best_metric
        assert rows[:, 2].min() >= f_min - 1e-9
        assert rows[:, 2].max() - rows[:, 2].min() > 0.1

    def test_grid_validation(self, lbc_321):
        with pytest.raises(ValueError):
            landscape_scan(lbc_321, bv("011"), p=1, grid=1)


class TestSeedSplit:
    def test_child_seed_deterministic(self):
        assert child_seed(7, 1, 2) == child_seed(7, 1, 2)
        assert child_seed(7, 1, 2) != child_seed(7, 1, 3)

    @pytest.mark.parametrize("master", [0, 2**32 - 1, 2**32, 2**64 + 3])
    def test_evaluation_generator_equals_child_seed_stream(self, master, lbc_633):
        # Seed words are derived one block at a time, the first on the first
        # call; calls on both sides of each block boundary keep the stream.
        problem = DecodeProblem(lbc_633, bv("111011"))
        probs = problem.probabilities((0.4, 1.3), (2.1, 0.6))
        evaluator = _Evaluator(problem, "sampled", 500, master, stage=1, draw=3)
        assert len(evaluator._words) == 0
        first = _FIRST_BLOCK
        # Call -> seed words derived once it has returned.
        derived = {0: first, 2: first, first - 1: first, first: 2 * first,
                   2 * first - 1: 2 * first, 2 * first: 4 * first}
        for call in range(max(derived) + 1):
            fast = evaluator.generator()
            if call in derived:
                assert len(evaluator._words) == derived[call]
                seed = child_seed(master, _ROLE_EVAL, 1, 3, call)
                assert fast.bit_generator.state == np.random.default_rng(seed).bit_generator.state
                assert np.array_equal(problem.sample(probs, 500, fast), problem.sample(probs, 500, seed))
        assert evaluator((0.4, 1.3), (2.1, 0.6)) == problem.expectation_sampled(
            probs, 500, child_seed(master, _ROLE_EVAL, 1, 3, max(derived) + 1))

    def test_exact_mode_derives_no_seeds(self, lbc_633):
        problem = DecodeProblem(lbc_633, bv("111011"))
        evaluator = _Evaluator(problem, "exact", 500, 5, stage=0, draw=0)
        assert evaluator((0.4,), (2.1,)) == problem.expectation(problem.probabilities((0.4,), (2.1,)))
        assert len(evaluator._words) == 0 and evaluator.calls == 0

    def test_negative_master_raises(self, lbc_633):
        evaluator = _Evaluator(DecodeProblem(lbc_633, bv("111011")), "sampled", 10, -1, stage=0, draw=0)
        with pytest.raises(ValueError):
            evaluator.generator()

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        master=st.integers(0, 2**70 - 1),
        stage=st.integers(0, 4999),
        draw=st.integers(0, 4999),
        counters=st.lists(st.integers(0, 4999), min_size=1, max_size=5),
    )
    def test_seed_words_equal_numpy_chain(self, master, stage, draw, counters):
        words = pcg64_seed_words((master, _ROLE_EVAL, stage, draw), np.array(counters))
        probs = np.array([0.1, 0.0, 0.25, 0.4, 0.25])
        for row, c in zip(words, counters):
            seed = child_seed(master, _ROLE_EVAL, stage, draw, c)
            assert np.array_equal(row, np.random.SeedSequence(seed).generate_state(4, np.uint64))
            fast = np.random.PCG64(_fixed_seed_type()(row))
            reference = np.random.default_rng(seed)
            assert fast.state == reference.bit_generator.state
            assert np.array_equal(np.random.Generator(fast).multinomial(300, probs),
                                  reference.multinomial(300, probs))

    def test_json_round_trip_shape(self, lbc_633):
        result = train_upo(lbc_633, bv("111011"), p=1, q=1, shots=100, seed=0)
        obj = result.to_json_dict()
        assert set(obj) == {
            "strategy", "best_params", "best_expectation", "approximation_ratio",
            "samples", "distribution", "solution_hits", "shots",
        }
        assert obj["best_params"]["p"] == 1
