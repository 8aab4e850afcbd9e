import hashlib
import json
import math
import multiprocessing
import os
import sys
import threading
import time
from concurrent import futures
from dataclasses import fields, replace
from fractions import Fraction

import numpy as np
import pytest

from selfcal import (
    ExperimentConfig,
    ScenarioParams,
    daisy_vs_star_ratio,
    from_edges,
    make_daisy,
    make_star,
    measurement_schedule,
    optimal_reference,
    schedule_violations,
    run_snr_sweep,
    sweep_rows_to_csv,
    sweep_rows_to_json,
    topology_to_dict,
    validate_config,
    verify_daisy_optimality,
    verify_star_optimality,
    verify_time_bounds,
)
from selfcal import crlb, harness
from selfcal.errors import ConfigError
from selfcal.harness import _CHUNK

from helpers import (
    PINNED_WIRING,
    labelled_daisy_optimality,
    labelled_star_optimality,
    labelled_time_bounds,
)


def assert_same_report(report, oracle):
    """Field by field, so that a mismatch names its field; `distribution`
    compares as a dict, whatever its key order."""
    assert type(report) is type(oracle)
    for field in fields(report):
        assert getattr(report, field.name) == getattr(oracle, field.name), (
            field.name)


class TestConfig:
    def test_defaults_valid(self):
        validate_config(ExperimentConfig())

    def test_rejects_bad_budget(self):
        with pytest.raises(ConfigError):
            validate_config(ExperimentConfig(budget_mode="time"))
        with pytest.raises(ConfigError):
            validate_config(ExperimentConfig(budget_mode="seconds"))
        with pytest.raises(ConfigError):
            validate_config(ExperimentConfig(budget_mode="measurements",
                                             budget_value=100))

    @pytest.mark.parametrize("budget", [12, 256])
    def test_measurement_budget_of_a_file_topology(self, tmp_path, budget):
        # one round on the 7-antenna file is 12 measurements, whatever m says
        path = tmp_path / "net7.json"
        path.write_text(json.dumps(topology_to_dict(from_edges(
            7, 3, [(3, 1), (1, 2), (3, 4), (4, 5), (3, 6), (6, 7)]))))
        cfg = ExperimentConfig(topology_kind=f"file:{path}",
                               snr_grid_db=(30.0,), trials=5,
                               budget_value=budget)
        if budget == 12:
            assert validate_config(cfg).m == 7
            assert run_snr_sweep(cfg)[0].repetitions == 1
        else:
            with pytest.raises(ConfigError, match=r"2\(m-1\)=12 "):
                validate_config(cfg)

    @pytest.mark.parametrize("fields, name", [
        ({"m": 99, "reference": 42}, "m"), ({"m": 7}, "m"),
        ({"reference": 3}, "reference")])
    def test_a_file_topology_reads_no_m_or_reference(self, tmp_path, fields,
                                                    name):
        # the file gives both, so a value beside it is rejected, not
        # ignored, whether or not it agrees with the file
        path = tmp_path / "net7.json"
        path.write_text(json.dumps(topology_to_dict(from_edges(
            7, 3, [(3, 1), (1, 2), (3, 4), (4, 5), (3, 6), (6, 7)]))))
        cfg = ExperimentConfig(topology_kind=f"file:{path}",
                               snr_grid_db=(30.0,), trials=5, **fields)
        message = f"a file: topology does not read {name}; "
        with pytest.raises(ConfigError, match=message):
            run_snr_sweep(cfg)
        with pytest.raises(ConfigError, match=message):
            validate_config(cfg)
        assert validate_config(replace(cfg, m=None, reference=None)).m == 7

    def test_named_wirings_default_to_129_and_64(self):
        assert (ExperimentConfig().m, ExperimentConfig().reference) == (
            None, None)
        for kind, make in (("star", make_star), ("daisy", make_daisy)):
            assert validate_config(ExperimentConfig(topology_kind=kind)) is (
                make(129, 64))
            assert validate_config(ExperimentConfig(
                topology_kind=kind, m=200)) is make(200, 64)
            assert validate_config(ExperimentConfig(
                topology_kind=kind, reference=5)) is make(129, 5)

    def test_rejects_bad_grid_and_kind(self):
        with pytest.raises(ConfigError):
            validate_config(ExperimentConfig(snr_grid_db=()))
        with pytest.raises(ConfigError):
            validate_config(ExperimentConfig(topology_kind="ring"))

    @pytest.mark.parametrize("field, value", [
        ("trials", "5"), ("m", 6.0), ("master_seed", -1),
        ("master_seed", True), ("snr_grid_db", (10.0, float("nan"))),
        ("snr_grid_db", 20.0), ("budget_value", float("inf")),
        ("topology_kind", 3), ("output_path", 1),
    ])
    def test_rejects_bad_types_and_values(self, field, value):
        with pytest.raises(ConfigError, match=field):
            validate_config(ExperimentConfig(**{field: value}))


class TestStarOptimality:
    def test_m5(self):
        report = verify_star_optimality(5, 1)
        assert report.tree_count == 125
        assert report.min_mean_distance == 1
        assert report.minimizer_count == 1
        assert report.passed

    def test_m4_distribution(self):
        report = verify_star_optimality(4, 1)
        assert report.tree_count == 16
        assert report.distribution[Fraction(1)] == 1
        assert sum(report.distribution.values()) == 16

    def test_m3_classes(self):
        report = verify_star_optimality(3, 1)
        assert report.tree_count == 3
        assert report.distribution == {Fraction(1): 1, Fraction(3, 2): 2}
        assert report.passed

    def test_pure_function(self):
        assert verify_star_optimality(4, 2) == verify_star_optimality(4, 2)

    def test_a_missed_shape_fails(self, monkeypatch):
        # the path comes first and stands for all 5! labelings of it; the
        # star still wins among the shapes left, so only the count shows
        enumerate_shapes = harness.enumerate_shapes

        def without_path(m, cap):
            shapes = enumerate_shapes(m, cap)
            next(shapes)
            return shapes

        monkeypatch.setattr(harness, "enumerate_shapes", without_path)
        report = verify_star_optimality(6, 1)
        assert report.tree_count == 6 ** 4 - math.factorial(5)
        assert report.min_mean_distance == 1
        assert report.minimizer_count == 1
        assert report.passed is False


class TestTimeBounds:
    def test_m5_census(self):
        report = verify_time_bounds(5)
        assert report.tree_count == 125
        assert report.min_slots == 4 and report.max_slots == 8
        assert report.chain_count == 60 and report.star_count == 5
        assert report.passed

    def test_m3_degenerate(self):
        report = verify_time_bounds(3)
        assert report.min_slots == report.max_slots == 4
        assert report.chain_count == report.star_count == report.tree_count == 3
        assert report.passed

    def test_miscounted_chain_fails(self, monkeypatch):
        # a tree's slot count is twice its degree, so a census that
        # misreads one chain shape as of degree 3 shows in the class
        # counts, and its coloring, of 2 colors, no longer takes as many
        # colors as the degree; the first of the 9 shapes at m=5 is the
        # path rooted at an end, which stands for 4! labeled chains
        enumerate_shapes = harness.enumerate_shapes
        path = next(enumerate_shapes(5))
        assert (path.max_degree, path.weight) == (2, 24)

        def one_chain_misread(m, cap):
            shapes = list(enumerate_shapes(m, cap))
            shapes[0] = shapes[0]._replace(max_degree=3)
            return shapes

        monkeypatch.setattr(harness, "enumerate_shapes", one_chain_misread)
        report = verify_time_bounds(5)
        assert report.tree_count == 125 and report.schedules_valid is False
        assert report.chain_count == 60 - path.weight
        assert report.passed is False

    def test_m6(self):
        report = verify_time_bounds(6)
        assert report.tree_count == 1296
        assert report.schedules_valid and report.passed

    def test_m8_at_the_cap(self):
        # the workload of record: all 8**6 labeled trees at the default cap
        report = verify_time_bounds(8)
        assert report.tree_count == 8 ** 6
        assert (report.min_slots, report.max_slots) == (4, 14)
        assert report.chain_count == math.factorial(8) // 2
        assert report.star_count == 8
        assert report.schedules_valid and report.passed

    def test_a_dropped_block_fails(self, monkeypatch):
        # only shapes that were colored and checked are counted, so losing
        # the tail of the enumeration shows in the tree count: the first
        # 10 of the 20 shapes at m=6 stand for 800 labeled trees
        enumerate_shapes = harness.enumerate_shapes
        monkeypatch.setattr(harness, "enumerate_shapes", lambda m, cap:
                            list(enumerate_shapes(m, cap))[:10])
        report = verify_time_bounds(6)
        assert report.tree_count == 800
        assert report.schedules_valid and report.passed is False

    def test_a_dropped_tree_fails(self, monkeypatch):
        # only shapes that were colored and checked are counted; shape 1
        # at m=5, a path of three with two leaves at its end, is of max
        # degree 3, neither chain nor star, so only the tree count shows
        # that it was skipped, short by its weight
        enumerate_shapes = harness.enumerate_shapes
        dropped = list(enumerate_shapes(5))[1]
        assert (dropped.max_degree, dropped.weight) == (3, 12)
        monkeypatch.setattr(harness, "enumerate_shapes", lambda m, cap: [
            shape for i, shape in enumerate(enumerate_shapes(m, cap))
            if i != 1])
        report = verify_time_bounds(5)
        assert report.tree_count == 125 - dropped.weight
        assert report.schedules_valid
        assert (report.min_slots, report.max_slots) == (4, 8)
        assert (report.chain_count, report.star_count) == (60, 5)
        assert report.passed is False

    def test_no_shape_fails(self, monkeypatch):
        # an empty block is checked without raising, and counts nothing
        monkeypatch.setattr(harness, "enumerate_shapes",
                            lambda m, cap: iter(()))
        report = verify_time_bounds(6)
        assert report.tree_count == report.chain_count == 0
        assert report.passed is False

    @staticmethod
    def recolor_one(monkeypatch, index, recolor):
        """Have the `index`-th coloring of prop 2 (one per shape, in
        enumeration order) go through `recolor(lines, color_lines)`."""
        color_lines = harness.color_lines
        calls = []

        def patched(lines):
            calls.append(lines)
            if len(calls) - 1 == index:
                return recolor(lines, color_lines)
            return color_lines(lines)

        monkeypatch.setattr(harness, "color_lines", patched)
        return calls

    def test_a_wrong_parent_fails(self, monkeypatch):
        # one shape colored on a misrooted copy shows, since the colors
        # are checked against the lines (parent, node) as the shapes give
        # them: shape 2 at m=5, levels (0, 1, 2, 3, 2), has node 4 below
        # node 1, which its misrooted copy hangs from the root
        def misrooted(lines, color_lines):
            assert lines == [(0, 1), (1, 2), (2, 3), (1, 4)]
            return color_lines(lines[:3] + [(0, 4)])

        calls = self.recolor_one(monkeypatch, 2, misrooted)
        report = verify_time_bounds(5)
        assert len(calls) == 9
        assert report.schedules_valid is False and report.passed is False
        assert report.tree_count == 125 and report.chain_count == 60

    def test_shifted_colors_fail(self, monkeypatch):
        # every coloring one color up takes one color too many
        color_lines = harness.color_lines
        monkeypatch.setattr(harness, "color_lines", lambda lines: [
            color + 1 for color in color_lines(lines)])
        report = verify_time_bounds(4)
        assert report.schedules_valid is False and report.passed is False
        assert report.tree_count == 16

    def test_a_color_below_zero_fails(self, monkeypatch):
        # the path rooted at an end, colored -1, 1, 0, 1: no two alike at
        # one antenna and 2 the largest, but three colors
        def below_zero(lines, color_lines):
            colors = color_lines(lines)
            assert colors == [0, 1, 0, 1]
            return [-1] + colors[1:]

        self.recolor_one(monkeypatch, 0, below_zero)
        report = verify_time_bounds(5)
        assert report.schedules_valid is False and report.passed is False

    @pytest.mark.parametrize("index, colors", [
        # the star, last of the 9 shapes at m=5: two lines at the root
        # share color 0, and the star keeps its 4 colors
        (8, [0, 0, 2, 3]),
        # the path rooted at an end: the lines (2, 3) and (3, 4) share
        # color 0 at node 3, the child end of one and the parent end of
        # the other
        (0, [0, 1, 0, 0]),
    ], ids=["star-root", "path-middle"])
    def test_an_improper_coloring_fails(self, monkeypatch, index, colors):
        # only the schedules' validity, and so the verdict, changes
        sound = verify_time_bounds(5)
        self.recolor_one(monkeypatch, index, lambda lines, _: colors)
        report = verify_time_bounds(5)
        assert report == replace(sound, schedules_valid=False, passed=False)
        assert sound.passed


class TestDaisyOptimality:
    def test_small_range(self):
        report = verify_daisy_optimality(range(3, 7))
        by_m = {e.m: e for e in report.entries}
        assert by_m[4].ratio == Fraction(4, 3) and not by_m[4].beats_star
        assert by_m[5].ratio == Fraction(3, 4) and by_m[5].beats_star
        assert by_m[5].brute_min == Fraction(3, 4)
        assert by_m[5].minimizers_as_expected
        assert report.passed

    def test_empty_range_rejected(self):
        # all() of no entries would pass without checking anything
        with pytest.raises(ValueError, match="no antenna counts"):
            verify_daisy_optimality([])

    def test_a_tree_beats_the_chain_at_m10(self):
        # three antennas on the reference, two on each of them: degree 3,
        # so one round takes 6 slots and the star's 18 allow 3 rounds
        tree = from_edges(10, 1, [(1, 2), (1, 3), (1, 4), (2, 5), (2, 6),
                                  (3, 7), (3, 8), (4, 9), (4, 10)])
        assert tree.max_degree == 3
        schedule = measurement_schedule(tree, 1.0)
        assert len(schedule.slots) == 6
        assert schedule_violations(tree, schedule) == []
        mean = tree.mean_distance
        assert mean == Fraction(5, 3)
        rounds = 2 * (10 - 1) // len(schedule.slots)
        assert mean / rounds == Fraction(5, 9)
        f_best, chain_mean = optimal_reference(10)
        chain = make_daisy(10, f_best)
        assert chain.mean_distance == chain_mean
        chain_rounds = 2 * (10 - 1) // len(measurement_schedule(chain, 1.0)
                                           .slots)
        assert chain_mean / chain_rounds == Fraction(25, 36)
        assert daisy_vs_star_ratio(10) == Fraction(25, 36)
        # so the brute force finds it, and prop 3 holds only up to m=9
        entry = verify_daisy_optimality([10], brute_force_cap=10).entries[0]
        assert entry.brute_min == Fraction(5, 9) and not entry.passed
        assert verify_daisy_optimality([9], brute_force_cap=9).passed

    @pytest.mark.parametrize("module, verdict", [
        (harness, "minimizers_as_expected"),  # the chain total it compares
        (crlb, "brute_min_matches"),          # the ratio it compares
    ], ids=["harness", "crlb"])
    def test_closed_form_is_checked(self, monkeypatch, module, verdict):
        # a chain total one hop off must fail: prop 3 compares the closed
        # form with the brute force rather than assuming it
        total = crlb._chain_hop_total
        monkeypatch.setattr(module, "_chain_hop_total",
                            lambda m, f: total(m, f) + 1)
        report = verify_daisy_optimality(range(5, 9))
        assert not report.passed
        assert not any(getattr(e, verdict) for e in report.entries)

    def test_large_m_skips_brute_force(self):
        report = verify_daisy_optimality([129])
        entry = report.entries[0]
        assert not entry.brute_forced and entry.brute_min is None
        assert entry.ratio == Fraction(65, 128)
        assert report.passed


class TestShapeRouteMatchesLabelled:
    """Each report equals the one the labelled oracles count over every
    labeled tree, each scheduled and checked on its own: all three props
    count by rooted shape."""

    @pytest.mark.parametrize("m, reference", [
        (m, reference) for m in range(2, 8) for reference in range(1, m + 1)])
    def test_star_optimality(self, m, reference):
        assert_same_report(verify_star_optimality(m, reference),
                           labelled_star_optimality(m, reference))

    @pytest.mark.parametrize("m", range(3, 8))
    def test_time_bounds(self, m):
        assert_same_report(verify_time_bounds(m), labelled_time_bounds(m))

    def test_daisy_optimality(self):
        report = verify_daisy_optimality(range(3, 8))
        oracle = labelled_daisy_optimality(range(3, 8))
        assert report.passed == oracle.passed
        assert len(report.entries) == len(oracle.entries)
        for entry, expected in zip(report.entries, oracle.entries):
            assert_same_report(entry, expected)

    def test_distribution_ascends(self):
        keys = list(verify_star_optimality(6, 2).distribution)
        assert keys == sorted(keys)


class TestPinnedReports:
    """The reports at m <= 8 as the two-scan enumeration and the
    `Fraction`-keyed prop 3 gave them, before the one-pass enumeration
    and the integer objectives: equal field for field, `distribution` in
    the same order."""

    #: verify_star_optimality(m): the labeled trees by total hop count,
    #: ascending; the distribution's keys are these totals over m-1
    STAR_DISTRIBUTIONS = {
        3: {2: 1, 3: 2},
        4: {3: 1, 4: 6, 5: 3, 6: 6},
        5: {4: 1, 5: 12, 6: 24, 7: 28, 8: 24, 9: 12, 10: 24},
        6: {5: 1, 6: 20, 7: 90, 8: 140, 9: 245, 10: 120, 11: 240, 12: 140,
            13: 120, 14: 60, 15: 120},
        7: {6: 1, 7: 30, 8: 240, 9: 660, 10: 1320, 11: 1626, 12: 1920,
            13: 2100, 14: 1560, 15: 1830, 16: 1440, 17: 1440, 18: 840,
            19: 720, 20: 360, 21: 720},
        8: {7: 1, 8: 42, 9: 525, 10: 2450, 11: 6195, 12: 12432, 13: 15127,
            14: 23310, 15: 21000, 16: 26250, 17: 19320, 18: 26502,
            19: 19320, 20: 19740, 21: 13440, 22: 17850, 23: 10080,
            24: 10080, 25: 5880, 26: 5040, 27: 2520, 28: 5040},
    }
    #: verify_time_bounds(m): tree_count, min_slots, max_slots,
    #: chain_count, star_count, schedules_valid, passed
    TIME_BOUNDS = {
        3: (3, 4, 4, 3, 3, True, True),
        4: (16, 4, 6, 12, 4, True, True),
        5: (125, 4, 8, 60, 5, True, True),
        6: (1296, 4, 10, 360, 6, True, True),
        7: (16807, 4, 12, 2520, 7, True, True),
        8: (262144, 4, 14, 20160, 8, True, True),
    }
    #: verify_daisy_optimality entries: m, ratio, beats_star, brute_forced,
    #: brute_min, brute_min_matches, minimizers_as_expected, passed
    DAISY_3_TO_8 = (
        (3, Fraction(1), False, True, Fraction(1), True, True, True),
        (4, Fraction(4, 3), False, True, Fraction(1), True, True, True),
        (5, Fraction(3, 4), True, True, Fraction(3, 4), True, True, True),
        (6, Fraction(9, 10), True, True, Fraction(9, 10), True, True, True),
        (7, Fraction(2, 3), True, True, Fraction(2, 3), True, True, True),
        (8, Fraction(16, 21), True, True, Fraction(16, 21), True, True,
         True),
    )
    # a degree-3 tree wins at m=10 and 12 and ties the chain at m=11
    DAISY_10_TO_12 = (
        (10, Fraction(25, 36), True, True, Fraction(5, 9), False, False,
         False),
        (11, Fraction(3, 5), True, True, Fraction(3, 5), True, False, False),
        (12, Fraction(36, 55), True, True, Fraction(7, 11), False, False,
         False),
    )

    @pytest.mark.parametrize("m", range(3, 9))
    def test_star_optimality(self, m):
        report = verify_star_optimality(m)
        distribution = {Fraction(total, m - 1): count for total, count
                        in self.STAR_DISTRIBUTIONS[m].items()}
        assert_same_report(report, harness.StarOptimalityReport(
            m, 1, m ** (m - 2), Fraction(1), 1, distribution, True))
        assert list(report.distribution.items()) == list(
            distribution.items())

    @pytest.mark.parametrize("m", range(3, 9))
    def test_time_bounds(self, m):
        assert_same_report(verify_time_bounds(m), harness.TimeBoundsReport(
            m, *self.TIME_BOUNDS[m]))

    @pytest.mark.parametrize("m_values, cap, entries, passed", [
        (range(3, 9), 8, DAISY_3_TO_8, True),
        ([10, 11, 12], 12, DAISY_10_TO_12, False)])
    def test_daisy_optimality(self, m_values, cap, entries, passed):
        report = verify_daisy_optimality(m_values, brute_force_cap=cap)
        assert report == harness.DaisyOptimalityReport(
            tuple(harness.DaisyOptimalityEntry(*entry) for entry in entries),
            passed)
        for entry, expected in zip(report.entries, entries):
            assert type(entry.brute_min) is Fraction
            assert_same_report(entry, harness.DaisyOptimalityEntry(*expected))

    def test_daisy_optimality_in_any_shape_order(self, monkeypatch):
        # ties keep both verdicts whichever shape comes first: at m=11 the
        # chain and a degree-3 tree both reach 3/5
        enumerate_shapes = harness.enumerate_shapes
        monkeypatch.setattr(harness, "enumerate_shapes", lambda m, cap:
                            reversed(list(enumerate_shapes(m, cap))))
        self.test_daisy_optimality([10, 11, 12], 12, self.DAISY_10_TO_12,
                                   False)
        self.test_daisy_optimality(range(3, 9), 8, self.DAISY_3_TO_8, True)


class TestSweep:
    CFG = ExperimentConfig(m=6, reference=3, topology_kind="daisy",
                           snr_grid_db=(20.0, 30.0), trials=400,
                           master_seed=9, budget_mode="time",
                           budget_value=10.0)

    def test_rows_well_formed(self):
        rows = run_snr_sweep(self.CFG)
        assert len(rows) == 2
        for row in rows:
            assert row.repetitions == 2
            assert row.remainder_seconds == 2.0
            assert row.hazard_rate == 0.0
            assert row.trials == 400
            rho = 10.0 ** (-row.snr_db / 10.0)
            assert row.avg_crlb_alpha == float(Fraction(9, 10)) * rho

    def test_mse_tracks_bound_at_high_snr(self):
        rows = run_snr_sweep(self.CFG)
        for row in rows:
            assert row.avg_mse_alpha >= 0.9 * row.avg_crlb_alpha
            assert row.avg_mse_alpha <= 1.3 * row.avg_crlb_alpha

    def test_deterministic_output(self):
        from dataclasses import replace

        a = sweep_rows_to_csv(run_snr_sweep(self.CFG))
        b = sweep_rows_to_csv(run_snr_sweep(self.CFG))
        assert a == b
        assert sweep_rows_to_csv(
            run_snr_sweep(replace(self.CFG, master_seed=10))) != a

    def test_csv_schema(self):
        text = sweep_rows_to_csv(run_snr_sweep(self.CFG))
        header = text.splitlines()[0]
        assert header == ("snr_db,topology,m,reference,I,F_seconds,"
                          "avg_crlb_alpha,avg_crlb_beta,avg_mse_alpha,"
                          "avg_mse_beta,trials,hazard_rate")
        assert len(text.splitlines()) == 3

    def test_json_mirrors_csv(self):
        import json

        rows = run_snr_sweep(self.CFG)
        payload = json.loads(sweep_rows_to_json(rows))
        assert payload[0]["I"] == 2
        assert payload[0]["snr_db"] == 20.0
        assert set(payload[0]) == {
            "snr_db", "topology", "m", "reference", "I", "F_seconds",
            "avg_crlb_alpha", "avg_crlb_beta", "avg_mse_alpha",
            "avg_mse_beta", "trials", "hazard_rate"}

    def test_star_measurement_budget(self):
        cfg = ExperimentConfig(m=8, reference=2, topology_kind="star",
                               snr_grid_db=(30.0,), trials=2000,
                               master_seed=3)
        row = run_snr_sweep(cfg)[0]
        assert row.repetitions == 1
        rho = 10.0 ** (-3.0)
        assert row.avg_crlb_alpha == rho
        assert row.avg_mse_alpha == pytest.approx(rho, rel=0.05)

    @pytest.mark.parametrize("cfg", [
        CFG,
        ExperimentConfig(m=9, reference=4, topology_kind="star",
                         snr_grid_db=(7.0, 19.5, 33.0), trials=3),
    ], ids=["chain-time-budget", "star"])
    def test_bounds_equal_the_budget_report(self, cfg):
        # worked out once per sweep and scaled by rho, the bounds equal
        # those of a full report at every grid point
        topo = harness.resolve_topology(cfg)
        for row in run_snr_sweep(cfg):
            report = harness._budget_report(
                topo, ScenarioParams().at_snr(row.snr_db), cfg.budget_mode,
                cfg.budget_value)
            assert (row.avg_crlb_alpha, row.avg_crlb_beta) == (
                report.average_alpha, report.average_beta)
            assert (row.repetitions, row.remainder_seconds) == (
                report.repetitions, report.remainder_seconds)

    def test_scenario_override(self):
        scenario = ScenarioParams(tx_amplitude=2.0, rx_amplitude=2.0)
        cfg = ExperimentConfig(m=4, reference=1, topology_kind="star",
                               snr_grid_db=(20.0,), trials=50, master_seed=0)
        row = run_snr_sweep(cfg, scenario=scenario)[0]
        # snr fixes sigma^2 = (a b |h|)^2 / snr; bounds then scale by 1/b^2
        sigma2 = 16.0 * 1e-2
        assert row.avg_crlb_alpha == pytest.approx(sigma2 / 4.0)


class TestChunking:
    @pytest.mark.parametrize("trials", [_CHUNK - 1, _CHUNK, _CHUNK + 1])
    def test_rows_at_chunk_boundaries(self, trials):
        cfg = ExperimentConfig(m=5, reference=2, topology_kind="daisy",
                               snr_grid_db=(25.0, 35.0), trials=trials,
                               master_seed=4, budget_mode="time",
                               budget_value=8.0)
        rows = run_snr_sweep(cfg)
        assert sweep_rows_to_csv(run_snr_sweep(cfg)) == sweep_rows_to_csv(rows)
        for row in rows:
            assert row.trials == trials and row.repetitions == 2
            assert row.hazard_rate == 0.0
            for mse, bound in ((row.avg_mse_alpha, row.avg_crlb_alpha),
                               (row.avg_mse_beta, row.avg_crlb_beta)):
                assert math.isfinite(mse) and 0.7 <= mse / bound <= 1.4

    def test_flagged_trials_are_masked(self, monkeypatch):
        kernel = harness.ml_estimate_batch
        calls = []

        def flag_first_trial(values, t, *args):
            est, hazard_at = kernel(values, t, *args)
            est = est.copy()
            est[0] = np.nan
            hazard_at[0] = t.reference
            calls.append(len(values))
            return est, hazard_at

        monkeypatch.setattr(harness, "ml_estimate_batch", flag_first_trial)
        monkeypatch.setattr(harness, "_BATCH", 1)  # every chunk on its own
        cfg = ExperimentConfig(m=4, reference=1, topology_kind="star",
                               snr_grid_db=(30.0,), trials=_CHUNK + 10,
                               master_seed=2)
        row = run_snr_sweep(cfg)[0]
        # the two batches may run on either thread, in either order
        assert sorted(calls) == [10, _CHUNK]
        assert row.hazard_rate == 2 / (_CHUNK + 10)  # one per chunk
        assert row.avg_mse_alpha == pytest.approx(1e-3, rel=0.2)
        assert row.avg_mse_beta == pytest.approx(1e-3, rel=0.2)

    def test_a_flagged_grid_point_is_logged(self, monkeypatch, caplog):
        # one trial in ten flagged is above the 1% rate that is logged
        kernel = harness.ml_estimate_batch

        def flag_every_tenth(values, t, *args):
            est, hazard_at = kernel(values, t, *args)
            hazard_at[::10] = t.reference
            return est, hazard_at

        monkeypatch.setattr(harness, "ml_estimate_batch", flag_every_tenth)
        cfg = ExperimentConfig(m=4, reference=1, topology_kind="star",
                               snr_grid_db=(30.0,), trials=50, master_seed=2)
        with caplog.at_level("WARNING", logger="selfcal.harness"):
            row = run_snr_sweep(cfg)[0]
        assert row.hazard_rate == 0.1
        records = [r for r in caplog.records if r.name == "selfcal.harness"]
        assert [(r.levelname, r.getMessage()) for r in records] == [
            ("WARNING", "flagged grid point 30.0 dB: hazard rate 0.1000")]

    def test_batching_does_not_change_rows(self, monkeypatch):
        # 7 points of 15 trials share batches of up to _BATCH antenna-trials
        cfg = ExperimentConfig(m=129, reference=64, topology_kind="daisy",
                               snr_grid_db=(10.0, 15.0, 20.0, 25.0, 30.0,
                                            35.0, 40.0),
                               trials=15, master_seed=3, budget_mode="time",
                               budget_value=256.0)
        kernel, score = harness.ml_estimate_batch, harness.mean_sq_errors
        calls, scored = [], []

        def counted(values, *args):
            calls.append(len(values))
            return kernel(values, *args)

        def scored_once(est, truth, *args):
            scored.append(len(est))
            return score(est, truth, *args)

        monkeypatch.setattr(harness, "ml_estimate_batch", counted)
        monkeypatch.setattr(harness, "mean_sq_errors", scored_once)
        batched = sweep_rows_to_csv(run_snr_sweep(cfg))
        # 4 points fill a batch of at most 63 trials, the other 3 the next;
        # the batches may run on either thread, in either order
        assert sorted(calls) == sorted(scored) == [45, 60]
        assert max(calls) * cfg.m <= harness._BATCH
        monkeypatch.setattr(harness, "_BATCH", 1)
        calls.clear()
        scored.clear()
        alone = sweep_rows_to_csv(run_snr_sweep(cfg))
        assert sorted(calls) == sorted(scored) == [15] * len(cfg.snr_grid_db)
        assert batched == alone


#: Sweeps whose CSV bytes are pinned: the m=129 star under a measurement
#: budget, the m=129 chain under time:256 (I=64), a chain whose batches
#: mix a full chunk with a short one, and a wiring read from a file, all
#: down to -5 dB. A change to the draw order or to the rounding of any
#: step shows here, where rerunning the same code would not.
PINNED_GRID = (-5.0, 10.0, 25.0, 40.0)
PINNED = {
    "star-129": (
        ExperimentConfig(m=129, reference=64, topology_kind="star",
                         snr_grid_db=PINNED_GRID, trials=40, master_seed=11),
        "de89bcc999a77d46133d3004d21e11e353cac519036a6e87a4fca90343baf632"),
    "chain-129-time": (
        ExperimentConfig(m=129, reference=64, topology_kind="daisy",
                         snr_grid_db=PINNED_GRID, trials=15, master_seed=12,
                         budget_mode="time", budget_value=256.0),
        "80453150f97a53fb53b622afa4a2ec72920d265fb5a61b5e37e2e5cf1568f5be"),
    "chain-17-mixed-chunks": (
        ExperimentConfig(m=17, reference=9, topology_kind="daisy",
                         snr_grid_db=(-5.0, 15.0, 30.0), trials=_CHUNK + 10,
                         master_seed=13, budget_mode="time",
                         budget_value=40.0),
        "00929d0e4ed2f613836bd8145922db1b66c66600a7d0c8f7d5c07fc7d7a9738f"),
    "file-12": (
        ExperimentConfig(topology_kind="file:wiring.json",
                         snr_grid_db=PINNED_GRID, trials=300, master_seed=14),
        "f9d76de8f342cad1c342cf0bbd185544fadae70cf879082c26f3ea2bcb1c155a"),
}


def _write_wiring(path, data):
    path.write_text(json.dumps(data), encoding="utf-8")


def _csv(cfg):
    return sweep_rows_to_csv(run_snr_sweep(cfg))


class TestSweepBytes:
    @pytest.mark.parametrize("name", PINNED)
    def test_pinned_digest(self, name, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        _write_wiring(tmp_path / "wiring.json", PINNED_WIRING)
        cfg, digest = PINNED[name]
        if name == "chain-17-mixed-chunks":
            # each batch holds one point's full chunk and its short one
            assert (cfg.trials * cfg.m <= harness._BATCH
                    < (cfg.trials + _CHUNK) * cfg.m)
        assert hashlib.sha256(_csv(cfg).encode()).hexdigest() == digest

    def test_sweeps_share_no_state(self, tmp_path):
        a = ExperimentConfig(m=129, reference=64, topology_kind="daisy",
                             snr_grid_db=(10.0, 40.0), trials=20,
                             master_seed=5, budget_mode="time",
                             budget_value=256.0)
        b = ExperimentConfig(m=129, reference=64, topology_kind="star",
                             snr_grid_db=(-5.0, 20.0), trials=_CHUNK + 3,
                             master_seed=6)
        first = _csv(a)
        _csv(b)
        assert _csv(a) == first
        assert make_daisy(129, 64) is make_daisy(129, 64)

    def test_a_rewritten_wiring_file_is_read_again(self, tmp_path):
        path = tmp_path / "net.json"
        cfg = ExperimentConfig(topology_kind=f"file:{path}",
                               snr_grid_db=(20.0,), trials=30,
                               master_seed=7)
        _write_wiring(path, PINNED_WIRING)
        before = run_snr_sweep(cfg)
        other = {"m": 6, "reference": 2,
                 "edges": [[1, 2], [2, 3], [3, 4], [2, 5], [5, 6]]}
        _write_wiring(path, other)
        after = run_snr_sweep(cfg)
        _write_wiring(tmp_path / "other.json", other)
        expected = run_snr_sweep(replace(
            cfg, topology_kind=f"file:{tmp_path / 'other.json'}"))
        assert (before[0].m, after[0].m) == (12, 6)
        assert after == [replace(row, topology=cfg.topology_kind)
                         for row in expected]

    def test_a_write_into_a_shared_wiring_changes_no_sweep(self):
        cfg = ExperimentConfig(m=9, reference=4, topology_kind="star",
                               snr_grid_db=(20.0,), trials=40,
                               master_seed=8)
        first = _csv(cfg)
        t = make_star(9, 4)
        plan = t.propagation_plan
        for a in (*t.pair_endpoints, plan.order, plan.parents,
                  plan.levels[0].children):
            with pytest.raises(ValueError, match="read-only"):
                a[0] = a[-1]
        assert _csv(cfg) == first


class _InlineExecutor:
    """Runs each task at submission, on the calling thread."""

    def submit(self, fn, *args):
        future = futures.Future()
        try:
            future.set_result(fn(*args))
        except Exception as exc:
            future.set_exception(exc)
        return future


class TestSweepHelper:
    @pytest.mark.parametrize("name", PINNED)
    def test_the_helper_changes_no_byte(self, name, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        _write_wiring(tmp_path / "wiring.json", PINNED_WIRING)
        cfg, digest = PINNED[name]
        # threads switched as often as the interpreter allows
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threaded = _csv(cfg)
        finally:
            sys.setswitchinterval(interval)
        monkeypatch.setattr(harness, "_sweep_helper", _InlineExecutor)
        assert _csv(cfg) == threaded
        assert hashlib.sha256(threaded.encode()).hexdigest() == digest

    def test_concurrent_sweeps_share_the_helper(self):
        # three callers and the one helper on two cores, switching often
        names = ("star-129", "chain-129-time", "chain-17-mixed-chunks")
        digests = {}

        def sweep(name):
            csv_text = _csv(PINNED[name][0])
            digests[name] = hashlib.sha256(csv_text.encode()).hexdigest()

        callers = [threading.Thread(target=sweep, args=(name,))
                   for name in names]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for caller in callers:
                caller.start()
            for caller in callers:
                caller.join(60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(caller.is_alive() for caller in callers)
        assert digests == {name: PINNED[name][1] for name in names}

    @pytest.mark.parametrize("entropy", [0, 7, (3, 0, 1), (2**40, 6, 9),
                                         (11, 3, 17)])
    def test_direct_children_are_the_spawned_ones(self, entropy):
        spawned = np.random.SeedSequence(entropy).spawn(2)
        for i, child in enumerate(spawned):
            direct = np.random.SeedSequence(entropy, spawn_key=(i,))
            assert np.array_equal(direct.generate_state(8),
                                  child.generate_state(8))

    #: two batches: two points' chunks, then the third point's
    CFG = ExperimentConfig(m=17, reference=9, topology_kind="daisy",
                           snr_grid_db=(10.0, 20.0, 30.0), trials=200,
                           master_seed=3)
    #: three batches, each of one point's full chunk and its short one
    MIXED, MIXED_DIGEST = PINNED["chain-17-mixed-chunks"]

    def test_a_busy_helper_leaves_every_batch_to_the_caller(self,
                                                            monkeypatch):
        run_batch = harness._run_batch
        threads = []

        def recorded(*args, **kwargs):
            threads.append(threading.current_thread())
            return run_batch(*args, **kwargs)

        monkeypatch.setattr(harness, "_run_batch", recorded)
        # the helper sleeps until the sweep has returned
        released = threading.Event()
        harness._sweep_helper().submit(released.wait, 60)
        try:
            csv_text = _csv(self.MIXED)
        finally:
            released.set()
        assert hashlib.sha256(csv_text.encode()).hexdigest() == (
            self.MIXED_DIGEST)
        assert threads == [threading.current_thread()] * 3

    def test_the_helper_runs_the_batches_a_held_caller_leaves(self,
                                                              monkeypatch):
        run_batch = harness._run_batch
        caller = threading.current_thread()
        threads, others_done = [], threading.Event()

        def held(*args, **kwargs):
            thread = threading.current_thread()
            threads.append(thread)
            if thread is caller:
                # the caller's first batch waits for the helper's two
                assert others_done.wait(30)
            scores = run_batch(*args, **kwargs)
            if thread is not caller and threads.count(thread) == 2:
                others_done.set()
            return scores

        monkeypatch.setattr(harness, "_run_batch", held)
        csv_text = _csv(self.MIXED)
        assert hashlib.sha256(csv_text.encode()).hexdigest() == (
            self.MIXED_DIGEST)
        assert len(threads) == 3 and threads.count(caller) == 1

    def test_a_batch_failed_on_the_helper_is_raised(self, monkeypatch):
        run_batch = harness._run_batch
        helper = harness._sweep_helper()
        caller = threading.current_thread()
        threads, tasks = [], []

        class Recorded:
            """The helper, keeping each task it is given."""

            def submit(self, fn, *args):
                tasks.append(helper.submit(fn, *args))
                return tasks[-1]

        def failing(*args, **kwargs):
            thread = threading.current_thread()
            threads.append(thread)
            if thread is not caller:
                raise RuntimeError("batch failed")
            # the caller's first batch waits until the helper's task ends
            assert not futures.wait(tasks, timeout=30).not_done
            return run_batch(*args, **kwargs)

        monkeypatch.setattr(harness, "_sweep_helper", Recorded)
        monkeypatch.setattr(harness, "_run_batch", failing)
        with pytest.raises(RuntimeError, match="batch failed"):
            _csv(self.MIXED)
        # of three batches, the third is never started
        assert len(threads) == 2 and threads.count(caller) == 1

    def test_a_batch_failed_on_the_caller_leaves_nothing_running(
            self, monkeypatch):
        run_batch = harness._run_batch
        caller = threading.current_thread()
        threads = []
        running, finished = threading.Event(), threading.Event()

        def failing(*args, **kwargs):
            thread = threading.current_thread()
            threads.append(thread)
            if thread is caller:
                assert running.wait(30)
                raise RuntimeError("batch failed")
            running.set()
            time.sleep(0.2)
            scores = run_batch(*args, **kwargs)
            finished.set()
            return scores

        monkeypatch.setattr(harness, "_run_batch", failing)
        with pytest.raises(RuntimeError, match="batch failed"):
            _csv(self.MIXED)
        # the helper's batch ended before the call did, and no third began
        assert finished.is_set()
        assert len(threads) == 2 and threads.count(caller) == 1

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
    def test_a_forked_child_sweeps(self):
        expected = _csv(self.CFG)
        # the parent's helper thread is running when it forks
        assert harness._helper is not None and harness._helper[0] == os.getpid()
        assert any(t.name.startswith("selfcal-sweep")
                   for t in threading.enumerate())
        with multiprocessing.get_context("fork").Pool(1) as pool:
            child = pool.apply_async(_csv, (self.CFG,)).get(timeout=60)
        assert child == expected
