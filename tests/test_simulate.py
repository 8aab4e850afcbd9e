import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from selfcal import (
    MeasurementSet,
    RfGains,
    ScenarioParams,
    draw_gains,
    make_daisy,
    make_star,
    measurements_from_dict,
    measurements_to_dict,
    synthesize,
)

from selfcal.simulate import add_gain_products, draw_gain_batch, draw_noise

from helpers import collapsed_draw, random_scenario, random_tree, trees

UNIT = ScenarioParams()
NOISELESS = ScenarioParams(noise_variance=0.0)


class TestDrawGains:
    def test_unit_amplitudes(self):
        g = draw_gains(10, UNIT, 0)
        assert np.allclose(np.abs(g.alpha), 1.0, rtol=1e-12)
        assert np.allclose(np.abs(g.beta), 1.0, rtol=1e-12)

    def test_deterministic(self):
        a = draw_gains(6, UNIT, 123)
        b = draw_gains(6, UNIT, 123)
        assert np.array_equal(a.alpha, b.alpha)
        assert np.array_equal(a.beta, b.beta)
        c = draw_gains(6, UNIT, 124)
        assert not np.array_equal(a.alpha, c.alpha)

    def test_amplitude_contract(self):
        s = ScenarioParams(tx_amplitude=2.0, rx_amplitude=0.5)
        g = draw_gains(8, s, 1)
        assert np.allclose(np.abs(g.alpha), 2.0, rtol=1e-12)
        assert np.allclose(np.abs(g.beta), 0.5, rtol=1e-12)

    def test_phases_cover_range(self):
        g = draw_gains(2000, UNIT, 5)
        phases = np.angle(g.alpha)
        assert phases.min() < -3.0 and phases.max() > 3.0

    def test_needs_two_antennas(self):
        with pytest.raises(ValueError, match="need at least 2 antennas"):
            draw_gains(1, UNIT, 0)


class TestSynthesize:
    def test_noiseless_unit_case(self):
        t = make_star(4, 1)
        g = draw_gains(4, NOISELESS, 0)
        ones = type(g)(np.ones(4, complex), np.ones(4, complex))
        ms = synthesize(t, ones, NOISELESS)
        assert np.allclose(ms.values, 1.0)

    def test_observation_count(self):
        t = make_daisy(5, 1)
        g = draw_gains(5, UNIT, 0)
        ms = synthesize(t, g, UNIT, repetitions=1, seed=0)
        assert len(ms.pairs) == 8 and ms.values.shape == (8, 1)
        ms3 = synthesize(t, g, UNIT, repetitions=3, seed=0)
        assert ms3.values.shape == (8, 3)

    def test_covers_both_directions_only_edges(self):
        rng = np.random.default_rng(4)
        t = random_tree(rng, 8)
        g = draw_gains(8, UNIT, 1)
        ms = synthesize(t, g, UNIT, seed=2)
        expected = {(p, q) for p, q in t.edges} | {(q, p) for p, q in t.edges}
        assert ms.pairs == tuple(sorted(expected))

    def test_noiseless_factorization(self):
        rng = np.random.default_rng(8)
        t = random_tree(rng, 7)
        g = draw_gains(7, NOISELESS, 3)
        s = ScenarioParams(line_gain=0.8 - 0.2j, noise_variance=0.0)
        ms = synthesize(t, g, s)
        for tx, rx in ms.pairs:
            expected = g.beta[rx - 1] * s.line_gain * g.alpha[tx - 1]
            observed = ms.values[ms.pairs.index((tx, rx)), 0]
            assert observed == pytest.approx(expected, rel=1e-14)

    def test_deterministic_for_seed(self):
        t = make_daisy(4, 2)
        g = draw_gains(4, UNIT, 0)
        a = synthesize(t, g, UNIT, repetitions=5, seed=99)
        b = synthesize(t, g, UNIT, repetitions=5, seed=99)
        assert np.array_equal(a.values, b.values)

    def test_noise_statistics(self):
        # law of large numbers on a single line, 1e5 repetitions
        t = make_daisy(2, 1)
        g = draw_gains(2, UNIT, 0)
        s = ScenarioParams(noise_variance=1e-3)
        ms = synthesize(t, g, s, repetitions=100_000, seed=17)
        for row, (tx, rx) in enumerate(ms.pairs):
            model_mean = g.beta[rx - 1] * g.alpha[tx - 1]
            sample = ms.values[row]
            assert abs(sample.mean() - model_mean) < 4 * np.sqrt(1e-3 / 1e5)
            variance = np.mean(np.abs(sample - sample.mean()) ** 2)
            assert abs(variance - 1e-3) < 0.02 * 1e-3

    def test_bad_repetitions(self):
        t = make_daisy(3, 1)
        g = draw_gains(3, UNIT, 0)
        with pytest.raises(ValueError):
            synthesize(t, g, UNIT, repetitions=0)


class TestBatchDraws:
    def test_batch_extends_a_prefix(self):
        s = ScenarioParams(tx_amplitude=2.0, rx_amplitude=0.5)
        small = draw_gain_batch([(3, 11)], 7, s)
        large = draw_gain_batch([(5, 11)], 7, s)
        assert small.shape == (3, 2, 7)
        assert np.array_equal(small, large[:3])
        single = draw_gains(7, s, 11)
        assert np.array_equal(single.alpha, small[0, 0])
        assert np.array_equal(single.beta, small[0, 1])

    def test_noiseless_collapsed_draw(self):
        rng = np.random.default_rng(12)
        t = random_tree(rng, 6)
        gains = draw_gain_batch([(4, 3)], 6, NOISELESS)
        values = collapsed_draw(t, gains, NOISELESS, 5, seed=1)
        for k in range(4):
            ms = synthesize(t, RfGains(gains[k, 0], gains[k, 1]), NOISELESS)
            assert np.array_equal(values[k], ms.values[:, 0])

    def test_collapsed_noise_matches_synthesis(self):
        # The collapsed draw and the mean of I synthesized rounds must
        # both carry circular complex noise of variance sigma^2 / I. Each
        # gives n = 20000 samples; every bound is 5 standard errors of its
        # statistic (for circular Gaussian z of variance v: sd of the mean
        # sqrt(v/n) in modulus, of mean |z|^2 v/sqrt(n), of mean Re(z)^2
        # v/2 * sqrt(2/n), of mean z^2 v*sqrt(2/n) in modulus).
        trials, reps = 5000, 4
        t = make_daisy(3, 2)
        s = ScenarioParams(line_gain=0.8 - 0.6j, noise_variance=0.3,
                           tx_amplitude=1.5, rx_amplitude=0.7)
        v = s.noise_variance / reps
        gains = draw_gain_batch([(trials, 21)], 3, s)
        direct = collapsed_draw(t, gains, s, reps, seed=22)
        seeds = np.random.SeedSequence(23).spawn(trials)
        noiseless = np.empty_like(direct)
        synthesized = np.empty_like(direct)
        for k in range(trials):
            g = RfGains(gains[k, 0], gains[k, 1])
            noiseless[k] = (synthesize(t, g, NOISELESS).values[:, 0]
                            * s.line_gain)
            synthesized[k] = synthesize(t, g, s, reps,
                                        seed=seeds[k]).values.mean(axis=1)
        n = direct.size
        variances = []
        for values in (direct, synthesized):
            z = (values - noiseless).ravel()
            assert abs(z.mean()) < 5 * np.sqrt(v / n)
            power = np.mean(np.abs(z) ** 2)
            assert abs(power / v - 1) < 5 / np.sqrt(n)
            for part in (z.real, z.imag):
                half = np.mean(part ** 2) / (v / 2)
                assert abs(half - 1) < 5 * np.sqrt(2 / n)
            assert abs(np.mean(z ** 2)) < 5 * v * np.sqrt(2 / n)
            variances.append(power)
        assert abs(variances[0] - variances[1]) < 5 * v * np.sqrt(2 / n)

    @settings(max_examples=40, deadline=None, database=None)
    @given(t=trees(), seed=st.integers(0, 2**32 - 1), noisy=st.booleans())
    def test_single_round_draws_are_one_draw(self, t, seed, noisy):
        # one round of the collapsed draw and of synthesis, with or without
        # noise, is the same draw: the same bytes
        rng = np.random.default_rng(seed)
        s = random_scenario(rng, allow_zero_noise=not noisy)
        g = draw_gain_batch([(1, seed)], t.m, s)[0]
        direct = collapsed_draw(t, g[None], s, 1, seed + 1)[0]
        ms = synthesize(t, RfGains(*g), s, 1, seed + 1)
        assert direct.tobytes() == ms.values[:, 0].tobytes()

    @settings(max_examples=40, deadline=None, database=None)
    @given(t=trees(), seed=st.integers(0, 2**32 - 1), noisy=st.booleans(),
           trials=st.integers(1, 5))
    def test_given_arrays_change_no_value(self, t, seed, noisy, trials):
        # draws written into given arrays, whatever they held, equal the
        # draws into fresh ones
        rng = np.random.default_rng(seed)
        s = random_scenario(rng, allow_zero_noise=not noisy)
        pairs = 2 * (t.m - 1)
        gains = draw_gain_batch([(trials, seed)], t.m, s)
        out = np.full((trials, 2, t.m), np.nan + 0j)
        phases = np.full((trials, 2, t.m), np.nan)
        assert draw_gain_batch([(trials, seed)], t.m, s, out=out,
                               phases=phases) is out
        assert np.array_equal(out, gains)
        # the draw into fresh arrays, and into rows of a larger buffer
        # with scratch to spare, as the sweep draws, agree
        out = np.empty((trials, pairs), complex)
        blocks = [(trials, seed + 1, s.noise_variance / 3)]
        assert draw_noise(blocks, out) is out
        assert add_gain_products(t, gains, s, out) is out
        assert np.array_equal(collapsed_draw(t, gains, s, 3, seed + 1), out)

    def test_collapsed_draw_needs_a_contiguous_output(self):
        out = np.empty((6, 2), complex).T
        with pytest.raises(ValueError, match="C-contiguous"):
            draw_noise([(2, 0, UNIT.noise_variance)], out)

    def test_collapsed_draw_checks_shapes(self):
        t = make_daisy(4, 1)
        out = np.empty((2, 6), complex)
        with pytest.raises(ValueError, match="gain batch"):
            add_gain_products(t, draw_gain_batch([(2, 0)], 5, UNIT), UNIT,
                              out)
        with pytest.raises(ValueError, match="do not cover the 2 rows"):
            draw_noise([(1, 0, UNIT.noise_variance)], out)

    def test_a_batch_draws_what_its_blocks_draw_alone(self):
        # the sweep's blocks: 15 trials, a full 256-trial chunk and its
        # short remainder at two grid points' variances, and a noiseless
        # block beside them; the batch-wide draw gives each block's rows
        # the bytes of that block drawn alone from its own seeds
        t = random_tree(np.random.default_rng(40), 9)
        s = ScenarioParams(line_gain=0.8 - 0.6j, noise_variance=0.3,
                           tx_amplitude=1.5, rx_amplitude=0.7)
        sizes, variances = (15, 256, 9, 15), (0.3 / 4, 0.02 / 4, 0.02 / 4, 0.0)
        gain_blocks = [(size, 100 + b) for b, size in enumerate(sizes)]
        noise_blocks = [(size, 200 + b, v)
                        for b, (size, v) in enumerate(zip(sizes, variances))]
        n, pairs = sum(sizes), 2 * (t.m - 1)
        gains = draw_gain_batch(gain_blocks, t.m, s)
        observed = np.full((n + 1, pairs), np.nan + 0j)[:n]
        draw_noise(noise_blocks, observed)
        add_gain_products(t, gains, s, observed)
        start = 0
        for gain_block, noise_block in zip(gain_blocks, noise_blocks):
            rows = slice(start, start + gain_block[0])
            start = rows.stop
            alone = draw_gain_batch([gain_block], t.m, s)
            assert gains[rows].tobytes() == alone.tobytes()
            values = np.empty((gain_block[0], pairs), complex)
            draw_noise([noise_block], values)
            add_gain_products(t, alone, s, values)
            assert observed[rows].tobytes() == values.tobytes()
        quiet = ScenarioParams(line_gain=s.line_gain, noise_variance=0.0,
                               tx_amplitude=1.5, rx_amplitude=0.7)
        for k in range(n - sizes[-1], n):
            products = synthesize(t, RfGains(*gains[k]), quiet).values[:, 0]
            assert observed[k].tobytes() == products.tobytes()

    def test_single_draws_keep_their_bytes(self):
        # draw_gains and synthesize, noisy and noiseless, keep their
        # bytes, whatever the batch stages they are built on
        s = ScenarioParams(line_gain=0.8 - 0.6j, noise_variance=0.3,
                           tx_amplitude=1.5, rx_amplitude=0.7)
        quiet = ScenarioParams(line_gain=s.line_gain, noise_variance=0.0,
                               tx_amplitude=1.5, rx_amplitude=0.7)
        t = make_daisy(9, 4)
        g = draw_gains(9, s, 31)
        digest = hashlib.sha256()
        for values in (g.alpha, g.beta,
                       synthesize(t, g, s, 3, seed=32).values,
                       synthesize(t, g, quiet, 2, seed=33).values,
                       synthesize(t, g, s, seed=34).values):
            digest.update(values.tobytes())
        assert digest.hexdigest() == (
            "86bb5a606a48388cfe3d9be53e260590ed309b6c2b89c0f9611e9bb02f4b64d6")

    def test_noiseless_rounds_keep_signed_zeros(self):
        # gains -1 give every product 1 - 0j; a noiseless round's noise is
        # -0.0, the additive identity, so each round keeps the -0.0
        t = make_daisy(5, 2)
        gains = RfGains(np.full(5, -1 + 0j), np.full(5, -1 + 0j))
        values = synthesize(t, gains, NOISELESS, 2).values
        assert values.shape == (8, 2)
        assert (values.real == 1).all()
        assert np.signbit(values.imag).all()

    @pytest.mark.parametrize("rounds", [(), (3,)], ids=["2-D", "rounds"])
    def test_products_add_into_a_non_contiguous_output(self, rounds):
        # all but the last column of a wider buffer, whose rows no
        # reshape can merge, gets what a contiguous array gets: the sum
        # is written through the view, not into a copy
        t = random_tree(np.random.default_rng(41), 6)
        s = ScenarioParams(line_gain=0.8 - 0.6j, noise_variance=0.3,
                           tx_amplitude=1.5, rx_amplitude=0.7)
        gains = draw_gain_batch([(4, 42)], t.m, s)
        shape = (4, 2 * (t.m - 1)) + rounds
        noise = np.random.default_rng(43).standard_normal(
            shape + (2,)).view(complex)[..., 0]
        expected = add_gain_products(t, gains, s, noise.copy())
        wide = np.full((4, shape[1] + 1) + rounds, np.nan + 0j)
        out = wide[:, :-1]
        out[...] = noise
        assert not out.flags.c_contiguous
        assert add_gain_products(t, gains, s, out) is out
        assert wide[:, :-1].tobytes() == expected.tobytes()
        assert np.isnan(wide[:, -1]).all()


class TestSerialization:
    def test_roundtrip(self):
        t = make_daisy(4, 1)
        g = draw_gains(4, UNIT, 2)
        ms = synthesize(t, g, UNIT, repetitions=3, seed=5)
        data = json.loads(json.dumps(measurements_to_dict(ms)))
        back = measurements_from_dict(data)
        assert back.pairs == ms.pairs
        assert back.values.shape[1] == 3
        assert np.allclose(back.values, ms.values)
        assert back.sounding_value == 1.0

    @settings(max_examples=40, deadline=None, database=None)
    @given(t=trees(), seed=st.integers(0, 2**32 - 1),
           reps=st.integers(1, 3))
    def test_replay_json_roundtrip_property(self, t, seed, reps):
        s = random_scenario(np.random.default_rng(seed))
        ms = synthesize(t, draw_gains(t.m, s, seed), s, reps, seed + 1)
        back = measurements_from_dict(
            json.loads(json.dumps(measurements_to_dict(ms))))
        assert back.pairs == ms.pairs == t.directed_pairs
        assert back.values.shape[1] == reps
        assert np.array_equal(back.values, ms.values)
        assert back.sounding_value == ms.sounding_value

    def test_every_column_is_a_round(self):
        # the round count is the column count, whatever built the set
        t = make_daisy(3, 2)
        values = np.arange(12).reshape(4, 3) * (1 + 1j)
        ms = MeasurementSet(t.directed_pairs, values)
        data = json.loads(json.dumps(measurements_to_dict(ms)))
        assert data["repetitions"] == 3
        assert len(data["observations"]) == 12
        assert np.array_equal(measurements_from_dict(data).values, values)

    def test_sounding_value_is_keyword_only(self):
        t = make_daisy(3, 2)
        with pytest.raises(TypeError):
            MeasurementSet(t.directed_pairs, np.ones((4, 1)), 2.0)

    def test_incomplete_grid_rejected(self):
        t = make_daisy(3, 1)
        g = draw_gains(3, UNIT, 2)
        data = measurements_to_dict(synthesize(t, g, UNIT, seed=1))
        data["observations"].pop()
        with pytest.raises(ValueError):
            measurements_from_dict(data)

    @pytest.mark.parametrize("value", [123.0, None], ids=["other", "same"])
    def test_repeated_observation_rejected(self, value):
        # a later row must not silently replace an earlier one, whether
        # or not it holds the same value
        t = make_daisy(3, 1)
        data = measurements_to_dict(synthesize(t, draw_gains(3, UNIT, 2),
                                               UNIT, seed=1))
        first = list(data["observations"][0])
        if value is not None:
            first[3:] = [value, 0.0]
        data["observations"].append(first)
        tx, rx, r = first[:3]
        with pytest.raises(ValueError, match=(
                rf"^observation {tx}->{rx} repetition {r} listed twice$")):
            measurements_from_dict(data)

    @pytest.mark.parametrize("field, value", [
        ("observation", [float("nan"), 0.0]),
        ("observation", [0.0, float("inf")]),
        ("observation", ["1", 0.0]),
        ("sounding_value", [float("nan"), 0.0]),
        ("sounding_value", [0.0, 0.0]),
        ("repetitions", 1.5),
    ])
    def test_bad_values_rejected(self, field, value):
        t = make_daisy(3, 1)
        data = measurements_to_dict(synthesize(t, draw_gains(3, UNIT, 2),
                                               UNIT, seed=1))
        if field == "observation":
            data["observations"][2][3:] = value
        else:
            data[field] = value
        with pytest.raises(ValueError):
            measurements_from_dict(data)
