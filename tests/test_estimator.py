import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from selfcal import (
    MeasurementSet,
    RfGains,
    ScenarioParams,
    crlb_closed_form,
    draw_gains,
    estimation_error,
    make_daisy,
    make_star,
    ml_estimate,
    synthesize,
)
from selfcal.errors import DivisionHazard
from selfcal.estimator import mean_sq_errors, ml_estimate_batch, work_size
from selfcal.simulate import draw_gain_batch

from helpers import (
    collapsed_draw,
    random_gains,
    random_scenario,
    random_tree,
    trees,
    walked_estimates,
)

UNIT = ScenarioParams()
NOISELESS = ScenarioParams(noise_variance=0.0)


def estimate(t, ms, s, gains):
    return ml_estimate(ms, t, s, ref_alpha=gains.alpha[t.reference - 1],
                       ref_beta=gains.beta[t.reference - 1])


def _estimate_batch(t, s, gains, seed):
    """One single-round observation per trial, estimated in one call."""
    ref = t.reference - 1
    return ml_estimate_batch(collapsed_draw(t, gains, s, 1, seed), t, s,
                             gains[:, 0, ref], gains[:, 1, ref])


class TestCollapse:
    """An R-round set estimates bit for bit like the one-round set of its
    means: `ml_estimate` takes the per-direction mean itself."""

    @pytest.mark.parametrize("reps", [1, 2, 8])
    def test_estimates_like_the_one_round_set_of_its_means(self, reps):
        rng = np.random.default_rng(reps)
        t = random_tree(rng, 9)
        s = random_scenario(rng)
        g = random_gains(rng, 9, s)
        ms = synthesize(t, g, s, repetitions=reps, seed=reps)
        sounding = complex(rng.normal(), rng.normal())
        rounds = MeasurementSet(ms.pairs, sounding * ms.values,
                                sounding_value=sounding)
        means = MeasurementSet(ms.pairs,
                               rounds.values.mean(axis=1, keepdims=True),
                               sounding_value=sounding)
        full, one = estimate(t, rounds, s, g), estimate(t, means, s, g)
        assert np.array_equal(full.alpha_hat, one.alpha_hat)
        assert np.array_equal(full.beta_hat, one.beta_hat)

    def test_constant_repetitions(self):
        # 64 copies of one noiseless round estimate like the round, up to
        # the rounding of their sum
        t = make_daisy(4, 2)
        g = draw_gains(4, UNIT, 5)
        ms = synthesize(t, g, NOISELESS)
        repeated = MeasurementSet(ms.pairs, np.repeat(ms.values, 64, axis=1))
        once, many = estimate(t, ms, UNIT, g), estimate(t, repeated, UNIT, g)
        np.testing.assert_allclose(many.alpha_hat, once.alpha_hat, rtol=1e-14)
        np.testing.assert_allclose(many.beta_hat, once.beta_hat, rtol=1e-14)

    def test_mean_of_two(self):
        # rounds 1 and 1j on the one line of a unit pair: both directions
        # average to 0.5 + 0.5j, which is then antenna 2's gain twice
        values = np.array([[1.0 + 0.0j, 0.0 + 1.0j]] * 2)
        ms = MeasurementSet(((1, 2), (2, 1)), values)
        est = ml_estimate(ms, make_daisy(2, 1), UNIT, 1, 1)
        assert est.alpha_hat.tolist() == [0.5 + 0.5j]
        assert est.beta_hat.tolist() == [0.5 + 0.5j]


class TestMlEstimate:
    def test_noiseless_exact_recovery(self):
        rng = np.random.default_rng(31)
        for _ in range(25):
            t = random_tree(rng, int(rng.integers(2, 12)))
            s = random_scenario(rng, allow_zero_noise=True)
            g = random_gains(rng, t.m, s)
            est = estimate(t, synthesize(t, g, s), s, g)
            err = estimation_error(est, g)
            assert err.alpha_sq_error.max() <= (1e-12 * s.tx_amplitude) ** 2
            assert err.beta_sq_error.max() <= (1e-12 * s.rx_amplitude) ** 2

    @pytest.mark.parametrize("t", [make_star(9, 5), make_daisy(9, 5),
                                   make_daisy(9, 1), make_daisy(9, 9),
                                   make_daisy(10, 4)])
    def test_noiseless_exact_recovery_on_sliced_plans(self, t):
        # evenly spaced levels are propagated through slices, not arrays
        plan = t.propagation_plan
        assert all(isinstance(level.divisor, slice) for level in plan.levels)
        rng = np.random.default_rng(t.m * 10 + t.reference)
        s = random_scenario(rng, allow_zero_noise=True)
        g = random_gains(rng, t.m, s)
        err = estimation_error(estimate(t, synthesize(t, g, s), s, g), g)
        assert err.alpha_sq_error.max() <= (1e-12 * s.tx_amplitude) ** 2
        assert err.beta_sq_error.max() <= (1e-12 * s.rx_amplitude) ** 2

    def test_residuals_zero_at_any_noise(self):
        rng = np.random.default_rng(32)
        t = random_tree(rng, 9)
        s = ScenarioParams(line_gain=1.2 - 0.3j, noise_variance=0.5)
        g = random_gains(rng, 9, s)
        ms = synthesize(t, g, s, repetitions=4, seed=3)
        est = estimate(t, ms, s, g)
        means = ms.values.mean(axis=1)
        full_alpha = dict(zip(est.antennas, est.alpha_hat))
        full_beta = dict(zip(est.antennas, est.beta_hat))
        full_alpha[t.reference] = est.reference_alpha
        full_beta[t.reference] = est.reference_beta
        for row, (tx, rx) in enumerate(ms.pairs):
            predicted = full_beta[rx] * s.line_gain * full_alpha[tx]
            assert predicted == pytest.approx(means[row], rel=1e-12)

    @pytest.mark.parametrize("ref_alpha, ref_beta", [(0, 1), (1, 0j)])
    def test_reference_gains_must_be_nonzero(self, ref_alpha, ref_beta):
        t = make_daisy(3, 1)
        ms = synthesize(t, draw_gains(3, UNIT, 0), NOISELESS)
        with pytest.raises(ValueError, match="reference gains must be nonzero"):
            ml_estimate(ms, t, UNIT, ref_alpha, ref_beta)

    def test_division_hazard(self):
        # zero out the measurement that fixes antenna 2's receive gain, so
        # the step onward from antenna 2 must trip the floor
        t = make_daisy(3, 1)
        g = draw_gains(3, UNIT, 4)
        ms = synthesize(t, g, NOISELESS)
        values = ms.values.copy()
        values[ms.pairs.index((1, 2)), 0] = 0.0
        broken = MeasurementSet(ms.pairs, values)
        with pytest.raises(DivisionHazard):
            estimate(t, broken, NOISELESS, g)

    def test_hazard_floor_fixed(self):
        # the floor is 1e-9 of the nominal amplitude: antenna 2's receive
        # gain damped by 1e-6 still estimates, damped by 1e-12 it raises
        t = make_daisy(3, 1)
        g = draw_gains(3, UNIT, 4)
        ms = synthesize(t, g, NOISELESS)

        def damped(factor):
            values = ms.values.copy()
            values[ms.pairs.index((1, 2)), 0] *= factor
            return MeasurementSet(ms.pairs, values)

        estimate(t, damped(1e-6), NOISELESS, g)
        with pytest.raises(DivisionHazard, match="antenna 2 "):
            estimate(t, damped(1e-12), NOISELESS, g)

    @pytest.mark.parametrize("victim", [4, 5], ids=["odd", "even"])
    def test_hazard_reads_each_side_against_its_own_floor(self, victim):
        # on the chain from antenna 1, depth = label - 1. With transmit
        # amplitude 4 and receive amplitude 0.25 the floors are 4e-9 and
        # 2.5e-10, and 1e-9 lies between them: the victim's transmit gain
        # at 1e-9 crosses its floor, while the receive gain of the
        # antenna two hops up (and, as that damping carries on down the
        # chain, the victim's own) at 1e-9 does not. With the floors
        # swapped the antenna two hops up would be named instead
        t = make_daisy(8, 1)
        s = ScenarioParams(line_gain=0.8 - 0.6j, tx_amplitude=4.0,
                           rx_amplitude=0.25, noise_variance=0.0)
        gains = draw_gain_batch([(3, 9)], 8, s)
        tx, rx = t.pair_endpoints
        values = gains[:, 0, tx] * s.line_gain * gains[:, 1, rx]
        decoy = victim - 2
        values[1, t.directed_pairs.index((decoy - 1, decoy))] *= 4e-9
        values[1, t.directed_pairs.index((victim, victim - 1))] *= 2.5e-10
        est, hazard_at = ml_estimate_batch(values, t, s, gains[:, 0, 0],
                                           gains[:, 1, 0])
        assert abs(est[1, 1, decoy - 1]) == pytest.approx(1e-9)
        assert abs(est[1, 0, victim - 1]) == pytest.approx(1e-9)
        assert hazard_at.tolist() == [0, victim, 0]
        for k, named in enumerate(hazard_at):
            ms = MeasurementSet(t.directed_pairs, values[k][:, None])
            if not named:
                ml_estimate(ms, t, s, gains[k, 0, 0], gains[k, 1, 0])
                continue
            with pytest.raises(DivisionHazard,
                               match=f"^estimate at antenna {victim} fell"):
                ml_estimate(ms, t, s, gains[k, 0, 0], gains[k, 1, 0])

    def test_star_mse_matches_bound(self):
        # single-division estimator: unbiased, error variance rho_b exactly
        trials = 100_000
        t = make_star(2, 1)
        s = ScenarioParams(noise_variance=0.05)
        gains = np.repeat(draw_gain_batch([(1, 11)], 2, s), trials, axis=0)
        est, hazard_at = _estimate_batch(t, s, gains, seed=77)
        assert not hazard_at.any()
        errors = est[:, 0, 1] - gains[:, 0, 1]
        assert abs(errors.mean()) < 3 * np.sqrt(s.rho_b / trials)
        mse = np.mean(np.abs(errors) ** 2)
        assert mse == pytest.approx(s.rho_b, rel=0.02)

    def test_daisy5_high_snr_per_antenna_mse(self):
        trials = 10_000
        t = make_daisy(5, 1)
        s = ScenarioParams(noise_variance=1e-4)  # 40 dB with unit gains
        gains_seed, noise_seed = np.random.SeedSequence(123).spawn(2)
        gains = draw_gain_batch([(trials, gains_seed)], 5, s)
        est, hazard_at = _estimate_batch(t, s, gains, seed=noise_seed)
        assert not hazard_at.any()
        sq_errors = np.abs(est[:, 0, 1:] - gains[:, 0, 1:]) ** 2
        mse = sq_errors.mean(axis=0)
        assert np.allclose(mse, np.array([1, 2, 3, 4]) * s.rho_b, rtol=0.05)

    def test_chain_efficiency_at_high_snr(self):
        trials = 10_000
        t = make_daisy(10, 5)
        s = ScenarioParams(noise_variance=1e-3)  # 30 dB
        bound = crlb_closed_form(t, s)
        gains_seed, noise_seed = np.random.SeedSequence(55).spawn(2)
        gains = draw_gain_batch([(trials, gains_seed)], 10, s)
        est, hazard_at = _estimate_batch(t, s, gains, seed=noise_seed)
        assert not hazard_at.any()
        mse_alpha, mse_beta = mean_sq_errors(est, gains).mean(axis=0)
        assert 0.95 <= mse_alpha / bound.average_alpha <= 1.10
        assert 0.95 <= mse_beta / bound.average_beta <= 1.10

    def test_pairs_must_match_the_wiring(self):
        t = make_daisy(3, 1)
        g = draw_gains(3, UNIT, 0)
        ms = synthesize(t, g, NOISELESS)
        extra = MeasurementSet(ms.pairs + ((1, 3), (3, 1)),
                               np.vstack([ms.values, [[1.0], [1.0]]]))
        with pytest.raises(ValueError, match="not on any line"):
            estimate(t, extra, NOISELESS, g)
        with pytest.raises(ValueError, match="missing"):
            estimate(t, MeasurementSet(ms.pairs[1:], ms.values[1:]),
                     NOISELESS, g)

    def test_a_set_of_no_rounds_is_rejected_before_any_arithmetic(self):
        # the mean of no rounds would warn and then read as a hazard
        t = make_daisy(4, 1)
        empty = MeasurementSet(t.directed_pairs, np.empty((6, 0), complex))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="no rounds"):
                estimate(t, empty, UNIT, draw_gains(4, UNIT, 0))

    def test_sounding_value_divides_the_observations(self):
        t = make_daisy(4, 2)
        g = draw_gains(4, UNIT, 6)
        ms = synthesize(t, g, ScenarioParams(noise_variance=1e-2), seed=8)
        doubled = MeasurementSet(ms.pairs, 2 * ms.values,
                                 sounding_value=2.0 + 0.0j)
        plain, scaled = estimate(t, ms, UNIT, g), estimate(t, doubled, UNIT, g)
        assert np.array_equal(plain.alpha_hat, scaled.alpha_hat)
        assert np.array_equal(plain.beta_hat, scaled.beta_hat)


class TestBatchKernel:
    @settings(max_examples=40, deadline=None, database=None)
    @given(m=st.integers(2, 40), seed=st.integers(0, 2**32 - 1),
           trials=st.integers(2, 5), reps=st.integers(1, 4))
    def test_rows_match_single_calls(self, m, seed, trials, reps):
        rng = np.random.default_rng(seed)
        t = random_tree(rng, m)
        s = random_scenario(rng)
        gains = draw_gain_batch([(trials, seed)], m, s)
        values = collapsed_draw(t, gains, s, reps, seed + 1)
        ref = t.reference - 1
        # one row loses what a random antenna with children is divided by
        forced = int(rng.integers(trials))
        lines = [line for level in t.levels for line in level]
        victim = int(rng.choice(sorted({p for p, _ in lines})))
        if victim == t.reference:
            gains[forced, 1, ref] *= 1e-12
        else:
            upstream = {c: p for p, c in lines}[victim]
            values[forced, t.directed_pairs.index((upstream, victim))] = 0.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            est, hazard_at = ml_estimate_batch(values, t, s, gains[:, 0, ref],
                                               gains[:, 1, ref])
            # given work arrays, whatever they held, change no value; the
            # hazard check's magnitudes fit in exactly work_size elements
            for spare in (3, 0):
                work = np.full(work_size(m, trials) + spare, np.nan + 0j)
                in_work = ml_estimate_batch(values, t, s, gains[:, 0, ref],
                                            gains[:, 1, ref], work)
                assert np.shares_memory(in_work[0], work)
                assert np.array_equal(in_work[0], est, equal_nan=True)
                assert np.array_equal(in_work[1], hazard_at)
        sound = hazard_at == 0
        assert list(np.flatnonzero(~sound)) == [forced]
        assert hazard_at[forced] == victim
        assert np.isfinite(mean_sq_errors(est[sound], gains[sound])).all()
        picks = np.array(t.ordinary) - 1
        for k in range(trials):
            ms = MeasurementSet(t.directed_pairs, values[k][:, None])
            if k == forced:
                with pytest.raises(DivisionHazard, match=f"antenna {victim} "):
                    ml_estimate(ms, t, s, gains[k, 0, ref], gains[k, 1, ref])
                continue
            single = ml_estimate(ms, t, s, gains[k, 0, ref], gains[k, 1, ref])
            np.testing.assert_allclose(est[k, 0, picks], single.alpha_hat,
                                       rtol=1e-12, atol=0)
            np.testing.assert_allclose(est[k, 1, picks], single.beta_hat,
                                       rtol=1e-12, atol=0)

    @settings(max_examples=60, deadline=None, database=None)
    @given(t=trees(max_m=20), seed=st.integers(0, 2**32 - 1),
           trials=st.integers(1, 6),
           amplitudes=st.tuples(st.sampled_from([0.25, 0.5, 1.0, 3.0]),
                                st.sampled_from([0.125, 0.75, 2.0, 4.0])))
    def test_rows_equal_the_walk_oracle_bit_for_bit(self, t, seed, trials,
                                                    amplitudes):
        # whatever order the kernel keeps its pairs in, each estimate is
        # numpy's division of the same two operands as one line at a time
        rng = np.random.default_rng(seed)
        s = ScenarioParams(line_gain=complex(*rng.uniform(0.5, 2.0, 2)),
                           noise_variance=float(rng.uniform(0.01, 1.0)),
                           tx_amplitude=amplitudes[0],
                           rx_amplitude=amplitudes[1])
        gains = draw_gain_batch([(trials, seed)], t.m, s)
        values = collapsed_draw(t, gains, s, 2, seed + 1)
        ref = t.reference - 1
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            est, _ = ml_estimate_batch(values, t, s, gains[:, 0, ref],
                                       gains[:, 1, ref])
            expected = walked_estimates(values, t, s, gains[:, 0, ref],
                                        gains[:, 1, ref])
        # bytes in C order, the real and imaginary parts of every float
        assert est.shape == expected.shape
        assert est.tobytes() == expected.tobytes()

    def test_scores_match_estimation_error(self):
        rng = np.random.default_rng(42)
        t = random_tree(rng, 9)
        s = random_scenario(rng)
        gains = draw_gain_batch([(3, 1)], 9, s)
        values = collapsed_draw(t, gains, s, 2, 2)
        ref = t.reference - 1
        est, _ = ml_estimate_batch(values, t, s, gains[:, 0, ref],
                                   gains[:, 1, ref])
        scores = mean_sq_errors(est, gains)
        for k in range(3):
            truth = RfGains(alpha=gains[k, 0], beta=gains[k, 1])
            ms = MeasurementSet(t.directed_pairs, values[k][:, None])
            err = estimation_error(estimate(t, ms, s, truth), truth)
            assert scores[k] == pytest.approx(
                [err.average_alpha, err.average_beta], rel=1e-12)


    @pytest.mark.parametrize("make", [make_star, make_daisy])
    @pytest.mark.parametrize("trials", [15, 60, 256])
    def test_scores_in_scratch_keep_their_bytes(self, make, trials):
        # scored as the sweep scores: errors over the truth and their
        # magnitudes in the estimator's consumed measurement area
        t = make(129, 64)
        ref = t.reference - 1
        for snr_db in (-5.0, 10.0, 40.0):
            s = UNIT.at_snr(snr_db)
            gains = draw_gain_batch([(trials, 5)], t.m, s)
            values = collapsed_draw(t, gains, s, 4, 6)
            work = np.full(work_size(t.m, trials), np.nan + 0j)
            est, _ = ml_estimate_batch(values, t, s, gains[:, 0, ref],
                                       gains[:, 1, ref], work)
            truth = gains.copy()
            with np.errstate(over="ignore", invalid="ignore"):
                expected = mean_sq_errors(est, gains)
                scores = mean_sq_errors(est, truth,
                                        work[est.size:].view(float))
                assert np.array_equal(truth, est - gains, equal_nan=True)
            assert scores.tobytes() == expected.tobytes()


class TestEstimationError:
    def test_exact_match_is_zero(self):
        rng = np.random.default_rng(40)
        t = random_tree(rng, 6)
        g = random_gains(rng, 6, UNIT)
        est = estimate(t, synthesize(t, g, NOISELESS), NOISELESS, g)
        err = estimation_error(est, g)
        assert err.average_alpha < 1e-28 and err.average_beta < 1e-28

    def test_single_antenna_offset(self):
        from selfcal import GainEstimates

        t = make_star(4, 1)
        g = draw_gains(4, UNIT, 3)
        shifted = GainEstimates((2, 3, 4),
                                g.alpha[1:] + np.array([0.1, 0, 0]),
                                g.beta[1:].copy(), 1, g.alpha[0], g.beta[0])
        err = estimation_error(shifted, g)
        assert err.alpha_sq_error == pytest.approx([0.01, 0, 0], abs=1e-16)
        assert err.beta_sq_error == pytest.approx([0, 0, 0], abs=0)
        assert err.average_alpha == pytest.approx(0.01 / 3)

    def test_average_is_mean_of_per_antenna(self):
        rng = np.random.default_rng(41)
        t = random_tree(rng, 7)
        s = random_scenario(rng)
        g = random_gains(rng, 7, s)
        est = estimate(t, synthesize(t, g, s, seed=1), s, g)
        err = estimation_error(est, g)
        assert err.average_alpha == pytest.approx(err.alpha_sq_error.mean())
        assert err.average_beta == pytest.approx(err.beta_sq_error.mean())
