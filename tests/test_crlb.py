from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from selfcal import (
    DAISY_VS_STAR_LIMIT,
    ScenarioParams,
    budgeted_average_crlb,
    calibration_distances,
    crlb_closed_form,
    crlb_numeric,
    daisy_mean_distance,
    daisy_vs_star_ratio,
    fisher_from_edges,
    fisher_matrix,
    from_edges,
    make_daisy,
    make_star,
    optimal_reference,
    repetition_budget,
    time_to_collect,
)
from selfcal.errors import (
    AmplitudeMismatch,
    BudgetError,
    DuplicateEdge,
    IndexOutOfRange,
    ScenarioError,
    SelfLoop,
    SingularFisherMatrix,
)
from selfcal.simulate import RfGains

from helpers import random_gains, random_scenario, random_tree, trees

UNIT = ScenarioParams()


def unit_gains(m):
    return RfGains(np.ones(m, dtype=complex), np.ones(m, dtype=complex))


class TestScenario:
    def test_noise_ratios_unit(self):
        assert (UNIT.rho_a, UNIT.rho_b) == (1.0, 1.0)

    def test_noise_ratios_snr30(self):
        s = ScenarioParams(noise_variance=1e-3)
        assert (s.rho_a, s.rho_b) == (1e-3, 1e-3)

    def test_noise_ratios_line_gain(self):
        s = ScenarioParams(line_gain=2.0)
        assert (s.rho_a, s.rho_b) == (0.25, 0.25)

    def test_noise_at_snr(self):
        # snr = (a * b * |h|)^2 / sigma^2 with the unit sounding signal
        s = ScenarioParams(line_gain=3j, tx_amplitude=2.0, rx_amplitude=0.5,
                           slot_duration=0.25).at_snr(20.0)
        assert s.noise_variance == pytest.approx(9.0 * 1e-2, rel=1e-15)
        assert (s.line_gain, s.slot_duration) == (3j, 0.25)

    def test_rejects_bad_params(self):
        with pytest.raises(ScenarioError):
            ScenarioParams(line_gain=0)
        with pytest.raises(ScenarioError):
            ScenarioParams(noise_variance=-1)
        with pytest.raises(ScenarioError):
            ScenarioParams(tx_amplitude=0)
        with pytest.raises(ScenarioError):
            ScenarioParams(slot_duration=0)

    def test_zero_noise_allowed_for_synthesis(self):
        assert ScenarioParams(noise_variance=0.0).rho_a == 0.0


class TestFisherMatrix:
    def test_daisy3_entries(self):
        j = fisher_matrix(make_daisy(3, 1), unit_gains(3), UNIT)
        expected = np.array([
            [2, 0, 0, 1],
            [0, 1, 1, 0],
            [0, 1, 2, 0],
            [1, 0, 0, 1],
        ], dtype=complex)
        assert np.allclose(j.entries, expected)
        assert j.antennas == (2, 3)

    def test_star3_diagonal(self):
        j = fisher_matrix(make_star(3, 1), unit_gains(3), UNIT)
        assert np.allclose(j.entries, np.eye(4))

    def test_hermitian_positive_definite(self):
        rng = np.random.default_rng(2)
        for _ in range(25):
            t = random_tree(rng, int(rng.integers(2, 11)))
            s = random_scenario(rng)
            g = random_gains(rng, t.m, s)
            j = fisher_matrix(t, g, s)
            assert np.allclose(j.entries, j.entries.conj().T)
            assert np.linalg.eigvalsh(j.entries)[0] > 0

    def test_amplitude_check(self):
        g = RfGains(2 * np.ones(3, dtype=complex), np.ones(3, dtype=complex))
        with pytest.raises(AmplitudeMismatch):
            fisher_matrix(make_daisy(3, 1), g, UNIT)

    def test_zero_noise_rejected(self):
        s = ScenarioParams(noise_variance=0.0)
        with pytest.raises(ScenarioError):
            fisher_matrix(make_daisy(3, 1), unit_gains(3), s)


class TestNumericCrlb:
    def test_daisy3(self):
        j = fisher_matrix(make_daisy(3, 1), unit_gains(3), UNIT)
        alpha, beta = crlb_numeric(j)
        assert np.allclose(alpha, [1, 2]) and np.allclose(beta, [1, 2])

    def test_star3(self):
        j = fisher_matrix(make_star(3, 1), unit_gains(3), UNIT)
        alpha, beta = crlb_numeric(j)
        assert np.allclose(alpha, 1) and np.allclose(beta, 1)

    def test_daisy5_pattern(self):
        j = fisher_matrix(make_daisy(5, 1), unit_gains(5), UNIT)
        alpha, _ = crlb_numeric(j)
        assert np.allclose(alpha, [1, 2, 3, 4])

    def test_matches_closed_form_random_trees(self):
        rng = np.random.default_rng(7)
        for _ in range(40):
            t = random_tree(rng, int(rng.integers(3, 11)))
            s = random_scenario(rng)
            g = random_gains(rng, t.m, s)
            alpha, beta = crlb_numeric(fisher_matrix(t, g, s))
            report = crlb_closed_form(t, s)
            assert np.allclose(alpha, report.per_antenna_alpha, rtol=1e-9)
            assert np.allclose(beta, report.per_antenna_beta, rtol=1e-9)

    @settings(max_examples=60, deadline=None, database=None)
    @given(t=trees(), seed=st.integers(0, 2**32 - 1))
    def test_matches_closed_form_generated_trees(self, t, seed):
        rng = np.random.default_rng(seed)
        s = random_scenario(rng)
        alpha, beta = crlb_numeric(fisher_matrix(t, random_gains(rng, t.m, s),
                                                 s))
        report = crlb_closed_form(t, s)
        np.testing.assert_allclose(alpha, report.per_antenna_alpha,
                                   rtol=1e-9, atol=0)
        np.testing.assert_allclose(beta, report.per_antenna_beta,
                                   rtol=1e-9, atol=0)

    def test_phase_invariance(self):
        rng = np.random.default_rng(9)
        t = random_tree(rng, 9)
        s = random_scenario(rng)
        first = crlb_numeric(fisher_matrix(t, random_gains(rng, 9, s), s))
        second = crlb_numeric(fisher_matrix(t, random_gains(rng, 9, s), s))
        assert np.allclose(first[0], second[0], rtol=1e-9)
        assert np.allclose(first[1], second[1], rtol=1e-9)

    def test_disconnected_reported_singular(self):
        # 4 lines on 5 antennas, but a cycle 3-4-5 leaves {1,2} stranded
        edges = [(1, 2), (3, 4), (4, 5), (3, 5)]
        j = fisher_from_edges(5, 1, edges, unit_gains(5), UNIT)
        with pytest.raises(SingularFisherMatrix):
            crlb_numeric(j)

    @pytest.mark.parametrize("m, reference, edges, error", [
        (3, 1, [(1, 2), (2, 1), (2, 3)], DuplicateEdge),
        (3, 1, [(1, 1), (2, 3)], SelfLoop),
        (3, 1, [(1, 2), (2, 4)], IndexOutOfRange),
        (3, 4, [(1, 2), (2, 3)], IndexOutOfRange),
        (1, 1, [], ValueError),
    ])
    def test_bad_wiring_rejected_like_from_edges(self, m, reference, edges,
                                                 error):
        # the wiring checks are Topology's own, short of the tree check
        with pytest.raises(error) as fisher:
            fisher_from_edges(m, reference, edges, unit_gains(m), UNIT)
        with pytest.raises(error) as topology:
            from_edges(m, reference, edges)
        assert str(fisher.value) == str(topology.value)


class TestClosedForm:
    def test_star_all_ones(self):
        report = crlb_closed_form(make_star(8, 2), UNIT)
        assert np.allclose(report.per_antenna_alpha, 1.0)
        assert report.average_alpha == 1.0
        assert report.mean_distance == 1

    def test_daisy_mid_reference(self):
        report = crlb_closed_form(make_daisy(5, 3), UNIT)
        assert tuple(report.per_antenna_alpha) == (2.0, 1.0, 1.0, 2.0)
        assert report.average_alpha == 1.5

    def test_rho_scaling(self):
        s = ScenarioParams(line_gain=0.5 + 0.5j, noise_variance=0.01,
                           tx_amplitude=1.5, rx_amplitude=0.75)
        report = crlb_closed_form(make_daisy(4, 1), s)
        rho_a, rho_b = s.rho_a, s.rho_b
        assert np.allclose(report.per_antenna_alpha, np.array([1, 2, 3]) * rho_b)
        assert np.allclose(report.per_antenna_beta, np.array([1, 2, 3]) * rho_a)


class TestTimeBudget:
    def test_collection_times(self):
        assert time_to_collect(make_daisy(129, 64), UNIT) == 4.0
        assert time_to_collect(make_star(129, 64), UNIT) == 256.0
        s = ScenarioParams(slot_duration=0.25)
        assert time_to_collect(make_star(129, 64), s) == 64.0

    def test_collection_time_branching_tree(self):
        seven = from_edges(7, 3, [(3, 1), (1, 2), (3, 4), (4, 5), (3, 6), (6, 7)])
        assert time_to_collect(seven, UNIT) == 6.0

    def test_repetition_budget_exact(self):
        assert repetition_budget(256.0, 4.0) == (64, 0.0)
        assert repetition_budget(10.0, 4.0) == (2, 2.0)
        assert repetition_budget(4.0, 4.0) == (1, 0.0)

    def test_repetition_budget_float_drift(self):
        t = 0.1
        assert repetition_budget(12 * t, 4 * t) == (3, 0.0)

    def test_budget_too_small(self):
        with pytest.raises(BudgetError):
            repetition_budget(3.0, 4.0)

    def test_budgeted_daisy129(self):
        report = budgeted_average_crlb(make_daisy(129, 64), UNIT, 256.0)
        assert report.repetitions == 64
        assert report.remainder_seconds == 0.0
        assert report.mean_distance == Fraction(4161, 128)
        assert report.average_alpha == float(Fraction(4161, 8192))

    def test_budgeted_star129(self):
        report = budgeted_average_crlb(make_star(129, 64), UNIT, 256.0)
        assert report.repetitions == 1
        assert report.average_alpha == 1.0

    def test_budgeted_daisy6(self):
        report = budgeted_average_crlb(make_daisy(6, 3), UNIT, 10.0)
        assert report.mean_distance == Fraction(9, 5)
        assert report.repetitions == 2
        assert report.remainder_seconds == 2.0
        assert report.average_alpha == 0.9

    def test_report_average_invariant(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            t = random_tree(rng, int(rng.integers(3, 10)))
            s = random_scenario(rng)
            budget = float(2 * (t.m - 1)) * s.slot_duration
            report = budgeted_average_crlb(t, s, budget)
            i = report.repetitions
            assert report.average_alpha == float(report.mean_distance / i) * s.rho_b
            assert report.average_beta == float(report.mean_distance / i) * s.rho_a
            assert (report.per_antenna_alpha > 0).all()


class TestChainClosedForms:
    def test_mean_distance_examples(self):
        assert daisy_mean_distance(5, 1) == Fraction(5, 2)
        assert daisy_mean_distance(5, 3) == Fraction(3, 2)
        assert daisy_mean_distance(129, 64) == Fraction(4161, 128)
        assert float(daisy_mean_distance(129, 64)) == 32.5078125

    def test_mean_distance_matches_hops(self):
        for m in range(2, 41):
            for f in range(1, m + 1):
                profile = calibration_distances(make_daisy(m, f))
                assert daisy_mean_distance(m, f) == profile.mean

    def test_optimal_reference(self):
        assert optimal_reference(129) == (65, Fraction(65, 2))
        assert optimal_reference(5)[0] == 3
        assert optimal_reference(6)[0] == 3

    def test_ratio_values(self):
        assert daisy_vs_star_ratio(5) == Fraction(3, 4)
        assert daisy_vs_star_ratio(6) == Fraction(9, 10)
        assert daisy_vs_star_ratio(4) == Fraction(4, 3)

    def test_ratio_equals_budgeted_average(self):
        for m in range(3, 30):
            f, _ = optimal_reference(m)
            report = budgeted_average_crlb(make_daisy(m, f), UNIT,
                                           float(2 * (m - 1)))
            ratio = daisy_vs_star_ratio(m)
            assert report.average_alpha == float(ratio)
            assert Fraction(report.mean_distance, report.repetitions) == ratio

    def test_ratio_monotone_within_parity(self):
        for m in range(5, 200):
            assert daisy_vs_star_ratio(m + 2) < daisy_vs_star_ratio(m)

    def test_ratio_limit(self):
        assert DAISY_VS_STAR_LIMIT == Fraction(1, 2)
        assert daisy_vs_star_ratio(5001) - DAISY_VS_STAR_LIMIT < Fraction(1, 2000)
        assert all(daisy_vs_star_ratio(m) > DAISY_VS_STAR_LIMIT
                   for m in range(3, 100))

    def test_ratio_below_one_iff_m_at_least_5(self):
        for m in range(3, 60):
            assert (daisy_vs_star_ratio(m) < 1) == (m >= 5)
