from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from selfcal import (
    DAISY_VS_STAR_LIMIT,
    crlb,
    ScenarioParams,
    budgeted_average_crlb,
    crlb_closed_form,
    crlb_numeric,
    daisy_mean_distance,
    daisy_vs_star_ratio,
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
    NotEffective,
    ScenarioError,
    SingularFisherMatrix,
    WrongEdgeCount,
)
from selfcal.simulate import RfGains
from selfcal.topology import CouplingPlan

from helpers import (
    check_leaf_first,
    dense_entries,
    eigh_inverse_diagonal,
    loop_fisher_entries,
    random_gains,
    random_scenario,
    random_tree,
    trees,
)

UNIT = ScenarioParams()


def unit_gains(m):
    return RfGains(np.ones(m, dtype=complex), np.ones(m, dtype=complex))


def hand_made(diagonal, rows, cols, couplings, steps):
    """A matrix given by its entries rather than a wiring: its plan holds
    the couplings' places and their elimination order, leaf first, and
    no gathers."""
    check_leaf_first(steps, rows, cols)
    none = np.empty(0, dtype=np.intp)
    plan = CouplingPlan(none, none, none, none, rows, cols, steps)
    return crlb.FisherMatrix(diagonal, couplings, plan)


#: what `crlb_numeric` says when a pivot, or the condition number bound,
#: rejects the matrix
PIVOT_REJECTED = r"^information matrix condition number beyond 1e\+12$"
BOUND_REJECTED = (r"^information matrix condition number bound \(largest "
                  r"Gershgorin row sum times trace of the inverse\) "
                  r"beyond 1e\+12$")


def accepts(invert, j):
    try:
        invert(j)
    except SingularFisherMatrix:
        return False
    return True


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
        t = make_daisy(3, 1)
        j = fisher_matrix(t, unit_gains(3), UNIT)
        expected = np.array([
            [2, 0, 0, 1],
            [0, 1, 1, 0],
            [0, 1, 2, 0],
            [1, 0, 0, 1],
        ], dtype=complex)
        assert np.allclose(dense_entries(j), expected)
        assert t.ordinary == (2, 3)

    def test_star3_diagonal(self):
        j = fisher_matrix(make_star(3, 1), unit_gains(3), UNIT)
        assert np.allclose(dense_entries(j), np.eye(4))

    def test_hermitian_positive_definite(self):
        rng = np.random.default_rng(2)
        for _ in range(25):
            t = random_tree(rng, int(rng.integers(2, 11)))
            s = random_scenario(rng)
            g = random_gains(rng, t.m, s)
            entries = dense_entries(fisher_matrix(t, g, s))
            assert np.allclose(entries, entries.conj().T)
            assert np.linalg.eigvalsh(entries)[0] > 0

    @settings(max_examples=40, deadline=None, database=None)
    @given(t=trees(), seed=st.integers(0, 2**32 - 1))
    def test_equals_loop_assembly(self, t, seed):
        # the diagonals are summed in another order: a few ulps apart
        rng = np.random.default_rng(seed)
        s = random_scenario(rng)
        g = random_gains(rng, t.m, s)
        j = fisher_matrix(t, g, s)
        assert j.order == 2 * len(t.ordinary)
        np.testing.assert_allclose(
            dense_entries(j), loop_fisher_entries(t.m, t.reference, t.edges,
                                                  g, s),
            rtol=1e-14, atol=0)

    def test_amplitude_check(self):
        g = RfGains(2 * np.ones(3, dtype=complex), np.ones(3, dtype=complex))
        with pytest.raises(AmplitudeMismatch):
            fisher_matrix(make_daisy(3, 1), g, UNIT)

    @pytest.mark.parametrize("amplitudes", [
        [1.0, 1 + 5e-10, 1 - 5e-10], [1.0, 1 + 1e-9, 1 - 1e-9],
        [1.0, 1 + 2e-9, 1.0], [1.0, 1 - 2e-9, 1.0],
        [1.0, np.nan, 1.0], [1.0, np.inf, 1.0], [0.0, 1.0, 1.0],
        [1.0, 1.0, 1 + 1.5e-9]])
    @pytest.mark.parametrize("dtype", [complex, np.complex64, float])
    def test_amplitude_check_accepts_what_allclose_accepts(self, amplitudes,
                                                           dtype):
        # the check replaced two np.allclose calls with atol=0
        s = ScenarioParams(tx_amplitude=1.0, rx_amplitude=1.5)
        tx, rx = (np.multiply(amplitudes, nominal).astype(dtype)
                  for nominal in (1.0, 1.5))
        for side, nominal, gains in ((tx, 1.0, RfGains(tx, np.full(3, 1.5))),
                                     (rx, 1.5, RfGains(np.ones(3), rx))):
            want = np.allclose(np.abs(side), nominal, rtol=1e-9, atol=0.0)
            try:
                fisher_matrix(make_daisy(3, 1), gains, s)
            except AmplitudeMismatch:
                assert not want
            else:
                assert want

    def test_amplitude_tolerance_is_inclusive(self):
        # a deviation of exactly 1e-9 times the amplitude passes, as it
        # passes np.allclose
        a = 1.000000082740371
        alpha = np.array([a, a + 1e-9 * a, a], dtype=complex)
        assert abs(alpha[1]) - a == 1e-9 * a
        fisher_matrix(make_daisy(3, 1), RfGains(alpha, np.ones(3)),
                      ScenarioParams(tx_amplitude=a))

    @pytest.mark.parametrize("shape", [(7,), (1,), (3,), (2, 5)],
                             ids=["too-long", "one", "too-short", "2-d"])
    def test_gain_shape_checked(self, shape):
        t = make_daisy(5, 1)
        bad, good = np.ones(shape, dtype=complex), np.ones(5, dtype=complex)
        for gains, side in ((RfGains(bad, good), "transmit"),
                            (RfGains(good, bad), "receive")):
            with pytest.raises(ValueError) as error:
                fisher_matrix(t, gains, UNIT)
            assert str(error.value) == (
                f"{side} gains have shape {shape}, wiring needs (5,)")

    def test_shared_index_arrays_read_only(self):
        t = make_daisy(6, 3)
        j = fisher_matrix(t, unit_gains(6), UNIT)
        assert j.plan is t.coupling_plan
        assert fisher_matrix(t, unit_gains(6), UNIT).plan is j.plan
        for shared in (j.plan.rows, j.plan.cols):
            with pytest.raises(ValueError, match="read-only"):
                shared[0] = 0

    def test_zero_noise_rejected(self):
        s = ScenarioParams(noise_variance=0.0)
        with pytest.raises(ScenarioError):
            fisher_matrix(make_daisy(3, 1), unit_gains(3), s)

    # the scale |h|^2/sigma^2 overflows, or it is finite and the chain's
    # inner diagonal entries, each two lines' worth of it, overflow
    @pytest.mark.parametrize("noise_variance", [5e-324, 1e-310, 1e-308])
    def test_overflowing_entries_rejected(self, noise_variance):
        s = ScenarioParams(noise_variance=noise_variance)
        with pytest.raises(ScenarioError,
                           match=r"overflow: noise variance .* "
                                 r"\|h\|\^2/sigma\^2"):
            fisher_matrix(make_daisy(5, 1), unit_gains(5), s)


class TestNumericCrlb:
    def test_daisy3(self):
        j = fisher_matrix(make_daisy(3, 1), unit_gains(3), UNIT)
        alpha, beta = crlb_numeric(j)
        assert np.allclose(alpha, [1, 2]) and np.allclose(beta, [1, 2])

    def test_star3(self):
        j = fisher_matrix(make_star(3, 1), unit_gains(3), UNIT)
        alpha, beta = crlb_numeric(j)
        assert np.allclose(alpha, 1) and np.allclose(beta, 1)

    @pytest.mark.parametrize("m, reference", [(2, 1), (9, 4), (129, 64)])
    def test_star_at_its_reference_inverts_its_diagonal(self, m, reference):
        # no couplings, so no elimination: the bounds are 1/diagonal
        s = random_scenario(np.random.default_rng(m))
        gains = random_gains(np.random.default_rng(reference), m, s)
        j = fisher_matrix(make_star(m, reference), gains, s)
        assert j.plan.steps == () and j.couplings.size == 0
        alpha, beta = crlb_numeric(j)
        assert np.concatenate((alpha, beta)).tobytes() == (
            1.0 / j.diagonal).tobytes()

    @pytest.mark.parametrize("bad", [0.0, -1.0, np.inf, np.nan])
    def test_star_pivots_checked(self, bad):
        # without couplings the pivots are the diagonal, checked as such
        diagonal = np.ones(6)
        diagonal[4] = bad
        none = np.empty(0, dtype=np.intp)
        j = hand_made(diagonal, none, none, np.empty(0, dtype=complex),
                      steps=())
        with pytest.raises(SingularFisherMatrix, match=PIVOT_REJECTED):
            crlb_numeric(j)

    def test_star_condition_checked(self):
        # pivots 1 and 1e-13: the bound 1 * (2 + 1e13) passes 1e12
        none = np.empty(0, dtype=np.intp)
        j = hand_made(np.array([1.0, 1e-13]), none, none,
                      np.empty(0, dtype=complex), steps=())
        with pytest.raises(SingularFisherMatrix, match=BOUND_REJECTED):
            crlb_numeric(j)

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

    @settings(max_examples=60, deadline=None, database=None)
    @given(t=trees(), seed=st.integers(0, 2**32 - 1))
    def test_elimination_equals_dense_inverse(self, t, seed):
        rng = np.random.default_rng(seed)
        s = random_scenario(rng)
        g = random_gains(rng, t.m, s)
        alpha, beta = crlb_numeric(fisher_matrix(t, g, s))
        np.testing.assert_allclose(
            np.concatenate((alpha, beta)),
            eigh_inverse_diagonal(loop_fisher_entries(t.m, t.reference,
                                                      t.edges, g, s)),
            rtol=1e-9, atol=0)

    @settings(max_examples=40, deadline=None, database=None)
    @given(t=trees(), seed=st.integers(0, 2**32 - 1))
    def test_solves_on_one_wiring_equal_fresh_wirings(self, t, seed):
        # what a wiring keeps built carries nothing of the gains or the
        # scenario of an earlier solve
        rng = np.random.default_rng(seed)
        for _ in range(2):
            s = random_scenario(rng)
            g = random_gains(rng, t.m, s)
            fresh = from_edges(t.m, t.reference, t.edges)
            solves = [(*crlb_numeric(fisher_matrix(wiring, g, s)),
                       crlb_closed_form(wiring, s)) for wiring in (t, fresh)]
            (alpha, beta, closed), (want_a, want_b, want) = solves
            assert alpha.tobytes() == want_a.tobytes()
            assert beta.tobytes() == want_b.tobytes()
            assert closed.to_dict() == want.to_dict()

    @pytest.mark.parametrize("kind", ["star", "mid-chain", "random-tree"])
    def test_elimination_equals_dense_inverse_m513(self, kind):
        rng = np.random.default_rng(513)
        t = {"star": lambda: make_star(513, 257),
             "mid-chain": lambda: make_daisy(513, 257),
             "random-tree": lambda: random_tree(rng, 513)}[kind]()
        s = random_scenario(rng)
        g = random_gains(rng, 513, s)
        alpha, beta = crlb_numeric(fisher_matrix(t, g, s))
        np.testing.assert_allclose(
            np.concatenate((alpha, beta)),
            eigh_inverse_diagonal(loop_fisher_entries(513, t.reference,
                                                      t.edges, g, s)),
            rtol=1e-9, atol=0)

    @pytest.mark.parametrize("seed", range(12))
    def test_forest_off_reference_singular(self, seed):
        # the matrix of lines (1,2) and (3,4) at reference 1, in the
        # assembly's arithmetic: antennas 3 and 4 are wired to each other
        # only, so their 2x2 blocks are singular, but rounding may leave a
        # pivot near 1e-16 (seeds 3 and 6), which only the condition bound
        # catches; each receive row is eliminated into its transmit row
        rng = np.random.default_rng(seed)
        s = random_scenario(rng)
        g = random_gains(rng, 4, s)
        scale = abs(s.line_gain) ** 2 / s.noise_variance
        far = np.array([0, 3, 2])  # each of antennas 2, 3, 4's one line
        rows, cols = np.array([4, 5]), np.array([2, 1])
        j = hand_made(
            diagonal=np.concatenate((np.abs(g.beta[far]) ** 2,
                                     np.abs(g.alpha[far]) ** 2)) * scale,
            rows=rows, cols=cols,
            couplings=g.beta[[2, 3]] * g.alpha[[3, 2]].conj() * scale,
            steps=((5, 1, 1), (4, 2, 0)))
        with pytest.raises(SingularFisherMatrix):
            crlb_numeric(j)

    def test_zero_pivot_before_it_is_divided_by_reported_singular(self):
        # eliminating 1 into 2 leaves pivot 1 - 1/1 = 0 at 2, which is
        # eliminated next; the matrix is indefinite
        j = hand_made(
            diagonal=np.array([5.0, 1.0, 1.0, 1.0]), rows=np.array([2, 2]),
            cols=np.array([0, 1]), couplings=np.ones(2, dtype=complex),
            steps=((1, 2, 1), (2, 0, 0)))
        with pytest.raises(SingularFisherMatrix):
            crlb_numeric(j)


    def test_disconnected_reported_singular(self):
        # the matrix of lines (1,2), (3,4) and (4,5) at reference 1 with
        # unit gains: the chain 3-4-5 is stranded from the reference, and
        # its two paths of couplings, 7-2-5 and 3-6-1, eliminated from
        # 7 and 3, leave a root pivot of exactly 1 - 1/1 = 0
        entries = loop_fisher_entries(5, 1, [(1, 2), (3, 4), (4, 5)],
                                      unit_gains(5), UNIT)
        lower = np.nonzero(entries[4:, :4])
        rows, cols = lower[0] + 4, lower[1]
        j = hand_made(
            diagonal=entries.diagonal().real.copy(), rows=rows, cols=cols,
            couplings=entries[rows, cols],
            steps=((7, 2, 3), (2, 5, 0), (3, 6, 2), (6, 1, 1)))
        assert len(j.plan.steps) == len(rows) == 4
        with pytest.raises(SingularFisherMatrix):
            crlb_numeric(j)

    # each forest with its steps by hand, leaf first: the path from its
    # end 7, the star's leaves into its centre 4, each tree of the last
    # forest from one end
    @pytest.mark.parametrize("couples, steps", [
        ([(4, 0), (4, 1), (5, 1), (5, 2), (6, 2), (6, 3), (7, 3)],
         ((7, 3, 6), (3, 6, 5), (6, 2, 4), (2, 5, 3), (5, 1, 2), (1, 4, 1),
          (4, 0, 0))),
        ([(4, 0), (4, 1), (4, 2), (4, 3)],
         ((3, 4, 3), (2, 4, 2), (1, 4, 1), (4, 0, 0))),
        ([(4, 1), (5, 0), (5, 2), (6, 3), (7, 3)],
         ((7, 3, 4), (3, 6, 3), (4, 1, 0), (2, 5, 2), (5, 0, 1))),
        ([], ()),
    ], ids=["one-path", "star-and-isolated", "two-trees", "no-couplings"])
    def test_any_forest_eliminated_exactly(self, couples, steps):
        # the elimination reads only the couplings' forest and its steps,
        # whether or not a tree wiring made them: a diagonally dominant
        # matrix on each forest inverts to the dense oracle's diagonal
        rng = np.random.default_rng(len(couples))
        rows = np.array([r for r, _ in couples], dtype=np.intp)
        cols = np.array([c for _, c in couples], dtype=np.intp)
        couplings = (rng.standard_normal(len(couples))
                     + 1j * rng.standard_normal(len(couples)))
        magnitude = np.abs(couplings)
        diagonal = (1.0 + np.bincount(rows, magnitude, minlength=8)
                    + np.bincount(cols, magnitude, minlength=8))
        j = hand_made(diagonal, rows, cols, couplings, steps)
        alpha, beta = crlb_numeric(j)
        np.testing.assert_allclose(np.concatenate((alpha, beta)),
                                   eigh_inverse_diagonal(dense_entries(j)),
                                   rtol=1e-12, atol=0)

    @pytest.mark.parametrize("m, reference, edges, error", [
        (7, 7, [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (1, 6), (1, 7)],
         WrongEdgeCount),
        (5, 1, [(1, 2), (2, 3), (2, 4), (2, 5), (3, 4), (3, 5), (4, 5)],
         WrongEdgeCount),
        (6, 1, [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (1, 6)],
         WrongEdgeCount),
        (6, 6, [(1, 2), (2, 3), (1, 3), (4, 5), (5, 6)], NotEffective),
    ], ids=["6-ring-beside-reference", "5-antennas-several-cycles",
            "6-ring-through-reference", "3-ring-stranded"])
    def test_cyclic_wiring_refused_before_assembly(self, m, reference,
                                                   edges, error):
        # the numeric bound takes a Topology, so a wiring with a cycle
        # never reaches it: too many lines, or m-1 lines that strand
        # the cycle from the reference
        with pytest.raises(error):
            fisher_matrix(from_edges(m, reference, edges), unit_gains(m),
                          UNIT)


class TestConditioning:
    #: amplitude ratios r = 10^(2 + k/20), k = 0..20
    RATIOS = [10 ** (2 + k / 20) for k in range(21)]

    @pytest.mark.parametrize("m, stricter", [(9, {12, 13, 14}),
                                             (129, {1, 2, 3})])
    def test_amplitude_ratio_sweep(self, m, stricter):
        # tx amplitude r and rx amplitude 1/r put the condition number
        # near r^4 times a chain factor; elimination bounds it by the
        # largest Gershgorin row sum times trace of the inverse, which
        # here reads 3.8x (m=9) and 4.9x (m=129) the exact ratio, so it
        # rejects the grid points `stricter` that the exact ratio, from
        # the dense eigenvalues, still passes
        t = make_daisy(m, (m + 1) // 2)
        rng = np.random.default_rng(m)
        eliminated, dense = [], []
        for r in self.RATIOS:
            s = ScenarioParams(tx_amplitude=r, rx_amplitude=1 / r)
            j = fisher_matrix(t, random_gains(rng, m, s), s)
            eliminated.append(accepts(crlb_numeric, j))
            lam = np.linalg.eigvalsh(dense_entries(j))
            dense.append(bool(lam[0] > 0 and lam[-1] <= 1e12 * lam[0]))
        assert eliminated[0] and dense[0]            # r = 1e2
        assert not eliminated[-1] and not dense[-1]  # r = 1e3
        assert all(d for e, d in zip(eliminated, dense) if e)
        assert {k for k, (e, d) in enumerate(zip(eliminated, dense))
                if d and not e} == stricter

    def test_bound_rejection_is_named(self):
        # k=12 at m=9 is one of the sweep's `stricter` points: its exact
        # condition number is below 1e12, so the message names the bound
        # that rejected it rather than the condition number itself
        m = 9
        t = make_daisy(m, (m + 1) // 2)
        rng = np.random.default_rng(m)
        for r in self.RATIOS[:13]:  # the sweep's draws up to k=12
            s = ScenarioParams(tx_amplitude=r, rx_amplitude=1 / r)
            j = fisher_matrix(t, random_gains(rng, m, s), s)
        lam = np.linalg.eigvalsh(dense_entries(j))
        assert 0 < lam[0] and lam[-1] <= 1e12 * lam[0]
        with pytest.raises(SingularFisherMatrix, match=BOUND_REJECTED):
            crlb_numeric(j)


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

    def test_collection_time_must_be_positive(self):
        with pytest.raises(ValueError, match="collection time must be positive"):
            repetition_budget(10.0, 0)

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
                assert (daisy_mean_distance(m, f)
                        == make_daisy(m, f).mean_distance)

    def test_optimal_reference(self):
        assert optimal_reference(129) == (65, Fraction(65, 2))
        assert optimal_reference(5)[0] == 3
        assert optimal_reference(6)[0] == 3

    def test_ratio_values(self):
        assert daisy_vs_star_ratio(5) == Fraction(3, 4)
        assert daisy_vs_star_ratio(6) == Fraction(9, 10)
        assert daisy_vs_star_ratio(4) == Fraction(4, 3)

    def test_ratio_matches_hops(self):
        # the mid-referenced chain's mean distance over the rounds the
        # star's 2(m-1) slots allow it
        for m in range(3, 201):
            assert daisy_vs_star_ratio(m) == (
                make_daisy(m, (m + 1) // 2).mean_distance / ((m - 1) // 2))

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
