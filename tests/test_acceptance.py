"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line. The heavyweight Monte-Carlo sweeps are shared between the
trend check and the determinism check through a module-scoped fixture.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines live.
"""

import time
from contextlib import contextmanager
from fractions import Fraction

import numpy as np
import pytest

from selfcal import (
    DAISY_VS_STAR_LIMIT,
    ExperimentConfig,
    ScenarioParams,
    budgeted_average_crlb,
    crlb_closed_form,
    crlb_numeric,
    daisy_mean_distance,
    daisy_vs_star_ratio,
    estimation_error,
    fisher_matrix,
    make_daisy,
    make_star,
    ml_estimate,
    run_snr_sweep,
    sweep_rows_to_csv,
    synthesize,
    verify_star_optimality,
    verify_time_bounds,
)

from helpers import random_gains, random_scenario, random_tree


@contextmanager
def criterion(tag):
    try:
        yield
    except BaseException:
        print(f"\n[acceptance] {tag}: FAIL")
        raise
    print(f"\n[acceptance] {tag}: PASS")


GRID = (10.0, 15.0, 20.0, 25.0, 30.0, 35.0, 40.0)
TRIALS = 10_000
SEED = 2026

STAR_CFG = ExperimentConfig(m=129, reference=64, topology_kind="star",
                            snr_grid_db=GRID, trials=TRIALS, master_seed=SEED,
                            budget_mode="measurements")
DAISY_CFG = ExperimentConfig(m=129, reference=64, topology_kind="daisy",
                             snr_grid_db=GRID, trials=TRIALS, master_seed=SEED,
                             budget_mode="time", budget_value=256.0)
DAISY_ONE_CFG = ExperimentConfig(m=129, reference=64, topology_kind="daisy",
                                 snr_grid_db=(40.0,), trials=TRIALS,
                                 master_seed=SEED, budget_mode="measurements")


def _run_fig_sweeps():
    start = time.monotonic()
    rows = {
        "star": run_snr_sweep(STAR_CFG),
        "daisy": run_snr_sweep(DAISY_CFG),
        "daisy_one": run_snr_sweep(DAISY_ONE_CFG),
    }
    elapsed = time.monotonic() - start
    csv = {name: sweep_rows_to_csv(r) for name, r in rows.items()}
    return rows, csv, elapsed


@pytest.fixture(scope="module")
def fig_sweeps():
    return _run_fig_sweeps()


def test_1_closed_form_matches_inversion():
    with criterion("1/9 closed-form vs numeric bound, 200 random trees"):
        start = time.monotonic()
        rng = np.random.default_rng(101)
        for _ in range(200):
            topo = random_tree(rng, int(rng.integers(3, 11)))
            scenario = random_scenario(rng)
            gains = random_gains(rng, topo.m, scenario)
            alpha, beta = crlb_numeric(fisher_matrix(topo, gains, scenario))
            report = crlb_closed_form(topo, scenario)
            assert np.allclose(alpha, report.per_antenna_alpha, rtol=1e-9, atol=0)
            assert np.allclose(beta, report.per_antenna_beta, rtol=1e-9, atol=0)
        assert time.monotonic() - start < 10.0


def test_2_chain_bound_pattern():
    with criterion("2/9 end-referenced chain bounds are (1..m-1) * rho"):
        rng = np.random.default_rng(202)
        scenario = ScenarioParams(line_gain=0.7 - 0.4j, noise_variance=0.02,
                                  tx_amplitude=1.3, rx_amplitude=0.8)
        for m in range(3, 65):
            topo = make_daisy(m, 1)
            gains = random_gains(rng, m, scenario)
            alpha, beta = crlb_numeric(fisher_matrix(topo, gains, scenario))
            ladder = np.arange(1, m)
            assert np.allclose(alpha, ladder * scenario.rho_b, rtol=1e-9, atol=0)
            assert np.allclose(beta, ladder * scenario.rho_a, rtol=1e-9, atol=0)


def test_3_chain_mean_distance_formula():
    with criterion("3/9 chain mean-distance closed form, exact for m <= 200"):
        for m in range(2, 201):
            for f in range(1, m + 1):
                assert (daisy_mean_distance(m, f)
                        == make_daisy(m, f).mean_distance)
        assert daisy_mean_distance(129, 64) == Fraction(4161, 128)
        assert float(daisy_mean_distance(129, 64)) == 32.5078125


def test_4_star_single_round_optimality():
    with criterion("4/9 star minimizes the single-round average bound"):
        start = time.monotonic()
        for m in (4, 5, 6):
            report = verify_star_optimality(m, reference=2)
            assert report.tree_count == m ** (m - 2)
            assert report.min_mean_distance == 1
            assert report.minimizer_count == 1
        assert time.monotonic() - start < 30.0


def test_5_collection_time_bounds():
    with criterion("5/9 collection time in [4T, 2(m-1)T] with exact classes"):
        import math

        for m in (4, 5, 6, 7):
            report = verify_time_bounds(m)
            assert report.passed
            assert report.min_slots == 4 and report.max_slots == 2 * (m - 1)
            assert report.chain_count == math.factorial(m) // 2
            assert report.star_count == m
            assert report.schedules_valid


def test_6_budget_ratio_values():
    with criterion("6/9 chain-vs-star ratio closed forms and limit"):
        assert daisy_vs_star_ratio(5) == Fraction(3, 4)
        assert daisy_vs_star_ratio(6) == Fraction(9, 10)
        assert daisy_vs_star_ratio(129) == Fraction(65, 128)
        assert float(daisy_vs_star_ratio(129)) == 0.5078125
        for m in range(5, 501):
            assert daisy_vs_star_ratio(m) < 1
        for m in range(5, 499):
            assert daisy_vs_star_ratio(m + 2) < daisy_vs_star_ratio(m)
        # by m=51 the odd-branch ratio is exactly 52/100, a 1/50 gap to the
        # limit 1/2
        assert daisy_vs_star_ratio(51) == Fraction(52, 100)
        assert daisy_vs_star_ratio(51) - DAISY_VS_STAR_LIMIT == Fraction(1, 50)
        assert daisy_vs_star_ratio(201) - DAISY_VS_STAR_LIMIT == Fraction(1, 200)


def test_7_snr_sweep_trends(fig_sweeps):
    rows, _, elapsed = fig_sweeps
    with criterion("7/9 sweep trends at m=129 (10^4 trials per point)"):
        # (a) single-round star error sits on its bound at every grid point
        for row in rows["star"]:
            rho = 10.0 ** (-row.snr_db / 10.0)
            assert row.repetitions == 1
            assert row.avg_mse_alpha == pytest.approx(rho, rel=0.02)
            assert row.avg_mse_beta == pytest.approx(rho, rel=0.02)
            assert row.avg_crlb_alpha == rho

        # (b) 64-round chain bound equals the closed form exactly; with the
        # optimal mid reference it is exactly 0.5078125 * rho
        for row in rows["daisy"]:
            rho = 10.0 ** (-row.snr_db / 10.0)
            assert row.repetitions == 64 and row.remainder_seconds == 0.0
            assert row.avg_crlb_alpha == float(Fraction(4161, 8192)) * rho
        for snr in GRID:
            rho = 10.0 ** (-snr / 10.0)
            scenario = ScenarioParams(noise_variance=rho)
            mid = budgeted_average_crlb(make_daisy(129, 65), scenario, 256.0)
            assert mid.average_alpha == 0.5078125 * rho
            assert mid.average_beta == 0.5078125 * rho

        # (c) the estimator attains the 64-round bound at high SNR
        for row in rows["daisy"]:
            if row.snr_db >= 30.0:
                assert 0.95 <= row.avg_mse_alpha / row.avg_crlb_alpha <= 1.10
                assert 0.95 <= row.avg_mse_beta / row.avg_crlb_beta <= 1.10

        # (d) single-round chain loses to the star by about the mean distance
        star_40 = rows["star"][-1]
        chain_40 = rows["daisy_one"][0]
        assert chain_40.repetitions == 1
        for factor in (chain_40.avg_mse_alpha / star_40.avg_mse_alpha,
                       chain_40.avg_mse_beta / star_40.avg_mse_beta):
            assert 32.5 * 0.85 <= factor <= 32.5 * 1.15

        assert elapsed < 300.0, f"sweeps took {elapsed:.0f}s"


def test_8_noiseless_recovery():
    with criterion("8/9 noiseless measurements recover every gain exactly"):
        rng = np.random.default_rng(808)
        for case in range(100):
            if case % 3 == 0:
                m = int(rng.integers(2, 41))
                topo = make_star(m, int(rng.integers(1, m + 1)))
            elif case % 3 == 1:
                m = int(rng.integers(2, 41))
                topo = make_daisy(m, int(rng.integers(1, m + 1)))
            else:
                m = int(rng.integers(2, 13))
                topo = random_tree(rng, m)
            scenario = random_scenario(rng, allow_zero_noise=True)
            gains = random_gains(rng, topo.m, scenario)
            measured = synthesize(topo, gains, scenario)
            est = ml_estimate(measured, topo, scenario,
                              ref_alpha=gains.alpha[topo.reference - 1],
                              ref_beta=gains.beta[topo.reference - 1])
            err = estimation_error(est, gains)
            assert err.alpha_sq_error.max() <= (1e-12 * scenario.tx_amplitude) ** 2
            assert err.beta_sq_error.max() <= (1e-12 * scenario.rx_amplitude) ** 2


def test_9_deterministic_sweep_output(fig_sweeps):
    _, first_csv, _ = fig_sweeps
    with criterion("9/9 identical seeds give byte-identical sweep CSV"):
        _, second_csv, _ = _run_fig_sweeps()
        for name in ("star", "daisy", "daisy_one"):
            assert second_csv[name].encode() == first_csv[name].encode()
