import math

import numpy as np
import pytest

from qviterbi import (
    BitVector,
    LengthError,
    QaoaParams,
    engine,
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
from qviterbi.engine import _ROLE_EVAL, _ROLE_INIT, _ROLE_MEASURE, TWO_PI, child_seed
from qviterbi.nelder_mead import minimize
from qviterbi.problem import DecodeProblem
from conftest import BUILTIN_NAMES
from reference import allclose_up_to_global_phase, extract_codeword_register, run_full_register


def bv(s):
    return BitVector.from_string(s)


def top_states(distribution, count=1):
    return [s for s, _ in sorted(distribution.items(), key=lambda kv: (-kv[1], kv[0]))[:count]]


class TestQaoaParams:
    def test_uniform_factory(self):
        params = QaoaParams((0.5,) * 3, (1.5,) * 3, uniform=True)
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
        # A tiny negative angle rounds to exactly 2*pi under a single %.
        raw = QaoaParams((-0.5, TWO_PI + 1.0, -1e-17, -4e-16), (7.0, 7.0, TWO_PI, 0.0))
        params = raw.canonical()
        assert params.betas[0] == pytest.approx(TWO_PI - 0.5)
        assert params.betas[1] == pytest.approx(1.0)
        assert params.gammas[0] == pytest.approx(7.0 - TWO_PI)
        assert all(0.0 <= a < TWO_PI for a in params.betas + params.gammas)
        assert params.canonical() == params


class TestRunPqc:
    def test_zero_layers_returns_initial_state(self, lbc_633):
        r = bv("111011")
        sv = run_pqc(lbc_633, r, QaoaParams((), ()))
        assert np.allclose(sv.amplitudes, prepare_uniform_codespace(lbc_633).amplitudes)

    def test_zero_beta_leaves_probabilities_uniform(self, lbc_633):
        r = bv("111011")
        sv = run_pqc(lbc_633, r, QaoaParams((0.0,), (1.3,), uniform=True))
        uniform = prepare_uniform_codespace(lbc_633).probabilities()
        assert np.allclose(sv.probabilities(), uniform, atol=1e-12)

    @pytest.mark.parametrize("name", BUILTIN_NAMES)
    def test_folded_matches_full_register(self, name, all_builtins):
        code = all_builtins[name]
        rng = np.random.default_rng(17)
        r = BitVector.from_string("".join(map(str, rng.integers(0, 2, code.n).tolist())))
        beta, gamma = float(rng.uniform(0, TWO_PI)), float(rng.uniform(0, TWO_PI))
        params = QaoaParams((beta,) * 2, (gamma,) * 2, uniform=True)
        folded = run_pqc(code, r, params)
        full = run_full_register(code, r, params)
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

    def test_layer_limit_accepts_64_layers_and_rejects_65(self, lbc_321):
        assert engine.MAX_LAYERS == 64
        result = train_upo(lbc_321, bv("011"), p=64, q=1, shots=10, seed=0)
        assert len(result.best_params.betas) == len(result.best_params.gammas) == 64
        with pytest.raises(ValueError, match="64"):
            train_upo(lbc_321, bv("011"), p=65, q=1, shots=10, seed=0)

    def test_shot_limit_accepts_max_shots_and_rejects_one_more(self, lbc_321):
        # A sampled evaluation sums shots * distance in int64.
        assert engine.MAX_SHOTS == 1 << 32
        result = train_upo(lbc_321, bv("011"), p=1, q=1, shots=engine.MAX_SHOTS, seed=0, mode="sampled")
        assert result.shots == engine.MAX_SHOTS
        assert sum(result.distribution.values()) == engine.MAX_SHOTS
        assert 0.0 <= result.best_expectation <= lbc_321.n
        with pytest.raises(ValueError, match=str(engine.MAX_SHOTS)):
            train_upo(lbc_321, bv("011"), p=1, q=1, shots=engine.MAX_SHOTS + 1, seed=0, mode="sampled")

    def test_a_sampled_draw_stops_at_maxiter(self, lbc_321, monkeypatch):
        # Shot noise keeps this draw's simplex from meeting the tolerances, so it
        # runs the whole iteration budget and is reported as not converged.
        results = []

        def recording_minimize(fun, x0, **options):
            results.append(minimize(fun, x0, **options))
            return results[-1]

        monkeypatch.setattr(engine, "minimize", recording_minimize)
        result = train_upo(lbc_321, bv("011"), p=1, q=1, shots=256, seed=0, mode="sampled")
        assert [(r.nit, r.success) for r in results] == [(300, False)]
        assert not result.samples[0].converged


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


@pytest.mark.parametrize("mode", ["exact", "sampled"])
@pytest.mark.parametrize("trainer", [train_upo, train_fpo, train_random])
def test_every_draw_starts_from_its_own_seed(trainer, mode, lbc_633):
    # Draw j of stage s starts at default_rng(child_seed(seed, INIT, s, j)).uniform(0, 2*pi, dim).
    # FPO runs one stage per layer, each after the earlier stages' winning layers.
    r, p, q, seed = bv("111011"), 3, 2, 11
    result = trainer(lbc_633, r, p=p, q=q, shots=200, seed=seed, mode=mode)
    stage, dim = {train_upo: (0, 2), train_fpo: (p - 1, 2), train_random: (0, 2 * p)}[trainer]
    if trainer is train_fpo:
        earlier = train_fpo(lbc_633, r, p=p - 1, q=q, shots=200, seed=seed, mode=mode).best_params
    for j, rec in enumerate(result.samples):
        start = rec.initial_params
        new = {
            train_upo: (start.betas[0], start.gammas[0]),
            train_fpo: (start.betas[-1], start.gammas[-1]),
            train_random: start.betas + start.gammas,
        }[trainer]
        expected = np.random.default_rng(child_seed(seed, _ROLE_INIT, stage, j)).uniform(0.0, TWO_PI, dim)
        assert np.array_equal(new, expected)
        if trainer is train_fpo:
            for params in (rec.initial_params, rec.final_params):
                assert (params.betas[:-1], params.gammas[:-1]) == (earlier.betas, earlier.gammas)
    winner = min(result.samples, key=lambda rec: rec.expectation)
    assert result.best_params == winner.final_params
    assert result.best_expectation == winner.expectation


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_variational_lower_bound(name, all_builtins):
    code = all_builtins[name]
    rng = np.random.default_rng(23)
    r = BitVector.from_string("".join(map(str, rng.integers(0, 2, code.n).tolist())))
    f_min = ml_brute_force(code, r).best_metric
    for _ in range(15):
        p = int(rng.integers(1, 4))
        params = QaoaParams(
            tuple(rng.uniform(0, TWO_PI, p).tolist()),
            tuple(rng.uniform(0, TWO_PI, p).tolist()),
        )
        sv = run_pqc(code, r, params)
        assert expectation_exact(sv, r) >= f_min - 1e-9


@pytest.mark.parametrize("trainer", [train_upo, train_random])
@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_trained_expectation_is_translation_invariant(trainer, name, all_builtins):
    # r and r xor c pose the same problem for a codeword c (tests/test_problem.py). FPO is left out:
    # its first stage is flat, Nelder-Mead picks the stage's winner on rounding noise, and the frozen
    # prefix carries that choice (ROADMAP item 3).
    code = all_builtins[name]
    rng = np.random.default_rng(0)
    for _ in range(4):
        r = int(rng.integers(0, 1 << code.n))
        for c in code.codewords[1:3]:
            for p in (2, 3):
                base = trainer(code, BitVector(code.n, r), p=p, q=2, shots=2000, seed=3)
                moved = trainer(code, BitVector(code.n, r ^ c), p=p, q=2, shots=2000, seed=3)
                assert abs(moved.best_expectation - base.best_expectation) <= 1e-8


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

    def test_rows_are_beta_major(self, lbc_321):
        # Row beta_index * grid + gamma_index holds that grid point, and its
        # expectation is the circuit's at that point.
        r = bv("011")
        grid, p = 4, 2
        rows = landscape_scan(lbc_321, r, p=p, grid=grid)
        axis = np.linspace(0.0, TWO_PI, grid, endpoint=False)
        assert rows[:, 0].tolist() == np.repeat(axis, grid).tolist()
        assert rows[:, 1].tolist() == np.tile(axis, grid).tolist()
        for i in (1, grid, grid * grid - 1):
            beta, gamma = rows[i, :2]
            state = run_pqc(lbc_321, r, QaoaParams((beta,) * p, (gamma,) * p))
            assert rows[i, 2] == pytest.approx(expectation_exact(state, r))

    def test_grid_validation(self, lbc_321):
        with pytest.raises(ValueError):
            landscape_scan(lbc_321, bv("011"), p=1, grid=1)
        with pytest.raises(ValueError):
            landscape_scan(lbc_321, bv("011"), 0, 2)

    def test_layer_limit_accepts_64_layers_and_rejects_65(self, lbc_321):
        assert landscape_scan(lbc_321, bv("011"), p=64, grid=2).shape == (4, 3)
        with pytest.raises(ValueError, match="64"):
            landscape_scan(lbc_321, bv("011"), p=65, grid=2)

    def test_grid_limit_accepts_2_and_rejects_1(self, lbc_321):
        assert landscape_scan(lbc_321, bv("011"), p=1, grid=2).shape == (4, 3)
        with pytest.raises(ValueError, match="grid"):
            landscape_scan(lbc_321, bv("011"), p=1, grid=1)

    def test_row_limit_accepts_grid_squared_at_the_cap_and_rejects_one_more(self, lbc_321, monkeypatch):
        assert engine.MAX_LANDSCAPE_ROWS == 1 << 20
        monkeypatch.setattr(engine, "MAX_LANDSCAPE_ROWS", 9)
        assert landscape_scan(lbc_321, bv("011"), p=1, grid=3).shape == (9, 3)
        monkeypatch.setattr(engine, "MAX_LANDSCAPE_ROWS", 8)
        with pytest.raises(ValueError, match="9 rows"):
            landscape_scan(lbc_321, bv("011"), p=1, grid=3)


class TestSeedSplit:
    def test_child_seed_deterministic(self):
        assert child_seed(7, 1, 2) == child_seed(7, 1, 2)
        assert child_seed(7, 1, 2) != child_seed(7, 1, 3)

    @pytest.mark.parametrize("trainer", [train_upo, train_fpo, train_random])
    def test_sampled_draw_takes_its_shots_from_one_generator(self, trainer, lbc_633, monkeypatch):
        # Every evaluation of draw j in round s samples, in call order, from one
        # default_rng(child_seed(seed, EVAL, s, j)).
        r, p, q, shots, seed = bv("111011"), 2, 2, 200, 2**64 + 3
        draws = []

        def recording_minimize(fun, x0, **options):
            evaluations = []
            draws.append(evaluations)

            def recorded(v):
                value = fun(v)
                evaluations.append((v.copy(), value))
                return value

            return minimize(recorded, x0, **options)

        monkeypatch.setattr(engine, "minimize", recording_minimize)
        result = trainer(lbc_633, r, p=p, q=q, shots=shots, seed=seed, mode="sampled")
        last = result.samples[0].initial_params
        prefixes = [((), ()), (last.betas[:-1], last.gammas[:-1])] if trainer is train_fpo else [((), ())]
        layers = {
            train_upo: lambda v: ((v[0],) * p, (v[1],) * p),
            train_fpo: lambda v: ((v[0],), (v[1],)),
            train_random: lambda v: (tuple(v[:p]), tuple(v[p:])),
        }[trainer]
        assert len(draws) == len(prefixes) * q
        problem = DecodeProblem(lbc_633, r)
        for i, evaluations in enumerate(draws):
            stage, j = divmod(i, q)
            g = np.random.default_rng(child_seed(seed, _ROLE_EVAL, stage, j))
            prefix_b, prefix_g = prefixes[stage]
            for v, value in evaluations:
                betas, gammas = layers(v)
                probs = problem.probabilities(prefix_b + tuple(betas), prefix_g + tuple(gammas))
                assert value == problem.expectation_sampled(probs, shots, g)

    @pytest.mark.parametrize("trainer", [train_upo, train_fpo, train_random])
    def test_draw_noise_does_not_depend_on_other_draws(self, trainer, lbc_633, monkeypatch):
        # Each draw owns its generator, so evaluations made outside a draw (here,
        # extra ones after every optimizer run) leave every draw's result unchanged.
        # Running the q draws in lockstep relies on this.
        args = dict(code=lbc_633, received=bv("111011"), p=2, q=3, shots=200, seed=5, mode="sampled")
        plain = trainer(**args)

        def wasteful_minimize(fun, x0, **options):
            res = minimize(fun, x0, **options)
            for _ in range(7):
                fun(x0)
            return res

        monkeypatch.setattr(engine, "minimize", wasteful_minimize)
        assert trainer(**args) == plain

    def test_exact_mode_builds_no_generator(self, lbc_633, monkeypatch):
        problem = DecodeProblem(lbc_633, bv("111011"))
        assert problem.cost()((0.4,), (2.1,)) == problem.expectation(problem.probabilities((0.4,), (2.1,)))
        seeds = []
        default_rng = np.random.default_rng
        monkeypatch.setattr(np.random, "default_rng", lambda s: seeds.append(s) or default_rng(s))
        train_upo(lbc_633, bv("111011"), p=1, q=2, shots=500, seed=5)
        # The draws' starting points and the final measurement; no draw builds an EVAL generator.
        assert seeds == [child_seed(5, _ROLE_INIT, 0, 0), child_seed(5, _ROLE_INIT, 0, 1),
                         child_seed(5, _ROLE_MEASURE)]

    def test_negative_master_raises(self, lbc_633):
        with pytest.raises(ValueError):
            train_upo(lbc_633, bv("111011"), p=1, q=1, shots=10, seed=-1, mode="sampled")
        # The draw's EVAL generator is derived from the master too.
        with pytest.raises(ValueError):
            child_seed(-1, _ROLE_EVAL, 0, 0)

    def test_json_round_trip_shape(self, lbc_633):
        result = train_upo(lbc_633, bv("111011"), p=1, q=1, shots=100, seed=0)
        obj = result.to_json_dict()
        assert set(obj) == {
            "strategy", "best_params", "best_expectation", "approximation_ratio",
            "samples", "distribution", "solution_hits", "shots",
        }
        assert obj["best_params"]["p"] == 1
