import itertools
import json
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from selfcal import (
    ScenarioParams,
    calibration_distances,
    from_edges,
    make_daisy,
    make_star,
    max_degree,
    measurement_schedule,
    schedule_to_dict,
    schedule_violations,
    time_to_collect,
    topology_from_dict,
    topology_to_dict,
    verify_star_optimality,
)
from selfcal.errors import (
    DuplicateEdge,
    IndexOutOfRange,
    NotEffective,
    SelfLoop,
    TopologyError,
    WrongEdgeCount,
)
from selfcal import topology
from selfcal.topology import (
    PRUEFER_BLOCK,
    Schedule,
    ScheduleArrays,
    Shape,
    decode_pruefer_batch,
    enumerate_shapes,
    pruefer_blocks,
    root_trees,
    schedule_faults,
    schedule_trees,
)

from helpers import (
    greedy_schedule,
    heap_pruefer_edges,
    hop_distances,
    labelled_trees,
    pairwise_schedule_violations,
    random_tree,
    rooted_form,
    shape_topology,
    trees,
)

PROPERTY = settings(max_examples=60, deadline=None, database=None)

# branching only at the reference: three arms of length 2
SEVEN = from_edges(7, 3, [(3, 1), (1, 2), (3, 4), (4, 5), (3, 6), (6, 7)])


class TestConstruction:
    def test_star_edges(self):
        t = make_star(5, 1)
        assert t.edges == ((1, 2), (1, 3), (1, 4), (1, 5))

    def test_two_antennas_star_equals_daisy(self):
        assert make_star(2, 1).edges == make_daisy(2, 1).edges == ((1, 2),)

    def test_star_129(self):
        t = make_star(129, 64)
        assert len(t.edges) == 128
        assert all(64 in edge for edge in t.edges)

    def test_daisy_path(self):
        t = make_daisy(5, 1)
        assert t.edges == ((1, 2), (2, 3), (3, 4), (4, 5))
        assert make_daisy(5, 3).edges == t.edges

    def test_daisy_129(self):
        t = make_daisy(129, 64)
        assert len(t.edges) == 128
        assert t.reference == 64

    def test_bad_m_or_reference(self):
        with pytest.raises(ValueError):
            make_star(1, 1)
        with pytest.raises(IndexOutOfRange):
            make_daisy(5, 6)

    def test_from_edges_valid(self):
        assert len(SEVEN.neighbors[3]) == 3
        assert len(SEVEN.edges) == 6

    def test_from_edges_duplicate(self):
        with pytest.raises(DuplicateEdge):
            from_edges(4, 1, [(1, 2), (3, 4), (2, 1)])

    def test_from_edges_wrong_count(self):
        with pytest.raises(WrongEdgeCount):
            from_edges(4, 1, [(1, 2), (2, 3)])

    def test_from_edges_self_loop(self):
        with pytest.raises(SelfLoop):
            from_edges(3, 1, [(1, 1), (2, 3)])

    def test_from_edges_out_of_range(self):
        with pytest.raises(IndexOutOfRange):
            from_edges(3, 1, [(1, 2), (2, 4)])

    def test_from_edges_disconnected(self):
        with pytest.raises(NotEffective):
            from_edges(5, 1, [(1, 2), (3, 4), (4, 5), (3, 5)])
        # the diamond reaches 4 from both 2 and 3 in the same level; 5 is
        # unwired, so 4 must count once for the wiring to fall short
        with pytest.raises(NotEffective):
            from_edges(5, 1, [(1, 2), (1, 3), (2, 4), (3, 4)])

    @pytest.mark.parametrize("m, reference, edges", [
        (4.7, 1, [(1, 2), (2, 3), (3, 4)]),
        ("4", 1, [(1, 2), (2, 3), (3, 4)]),
        (4, True, [(1, 2), (2, 3), (3, 4)]),
        (4, 1, [(1.9, 2), (2, 3), (3, 4)]),
        (4, 1, 5),
        (4, 1, [(1, 2), (2, 3), (3, 4, 1)]),
    ])
    def test_from_edges_rejects_wrong_types(self, m, reference, edges):
        with pytest.raises(TopologyError):
            from_edges(m, reference, edges)

    def test_canonical_edge_order(self):
        t = from_edges(4, 2, [(4, 3), (2, 1), (2, 3)])
        assert t.edges == ((1, 2), (2, 3), (3, 4))


class TestDistances:
    def test_star_distances(self):
        profile = calibration_distances(make_star(5, 1))
        assert profile.distances == (1, 1, 1, 1)
        assert profile.mean == 1

    def test_daisy_mid_reference(self):
        profile = calibration_distances(make_daisy(5, 3))
        assert profile.antennas == (1, 2, 4, 5)
        assert profile.distances == (2, 1, 1, 2)
        assert profile.mean == Fraction(3, 2)

    def test_daisy_end_reference(self):
        profile = calibration_distances(make_daisy(5, 1))
        assert profile.distances == (1, 2, 3, 4)
        assert profile.mean == Fraction(5, 2)

    def test_against_bfs_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            t = random_tree(rng, int(rng.integers(2, 12)))
            oracle = hop_distances(t.edges, t.m, t.reference)
            profile = calibration_distances(t)
            assert profile.distances == tuple(oracle[k] for k in t.ordinary)


class TestWalk:
    def test_daisy_levels(self):
        assert make_daisy(5, 3).levels == (((3, 2), (3, 4)), ((2, 1), (4, 5)))
        assert make_star(4, 2).levels == (((2, 1), (2, 3), (2, 4)),)

    @PROPERTY
    @given(t=trees(max_m=40))
    def test_levels_are_the_breadth_first_walk(self, t):
        # level d: the lines from the antennas of level d-1 (the reference
        # for d = 0), in their order, to their neighbours one hop further
        # out, ascending
        dist = hop_distances(t.edges, t.m, t.reference)
        frontier, expected = [t.reference], []
        while True:
            level = tuple((p, c) for p in frontier for c in t.neighbors[p]
                          if dist[c] == dist[p] + 1)
            if not level:
                break
            expected.append(level)
            frontier = [c for _, c in level]
        assert t.levels == tuple(expected)

    @PROPERTY
    @given(t=trees(max_m=40))
    def test_neighbours_ascend(self, t):
        # built from the sorted edges without sorting, yet ascending
        for k in range(1, t.m + 1):
            assert t.neighbors[k] == tuple(sorted(t.neighbors[k]))
            assert set(t.neighbors[k]) == {p + q - k for p, q in t.edges
                                           if k in (p, q)}


class TestSharedWirings:
    def test_named_wirings_are_built_once(self):
        assert make_star(9, 4) is make_star(9, 4)
        assert make_star(9, 4) is not make_star(9, 5)
        # a float count is not taken for the int one already built
        make_daisy(5, 1)
        with pytest.raises(TypeError):
            make_daisy(5.0, 1)

    # the chain's levels are all slices; the star's children and the
    # branched tree's parents are index arrays
    @pytest.mark.parametrize("t", [make_star(9, 4), make_daisy(9, 4), SEVEN],
                             ids=["star", "chain", "branched"])
    def test_cached_arrays_are_read_only(self, t):
        plan = t.propagation_plan
        arrays = [*t.pair_endpoints, plan.order, plan.parents] + [
            index for level in plan.levels
            for index in (level.parents, level.children)
            if isinstance(index, np.ndarray)]
        for a in arrays:
            with pytest.raises(ValueError, match="read-only"):
                a[0] = a[0] + 1


class TestDegreeAndChains:
    def test_max_degree_examples(self):
        assert max_degree(make_daisy(6, 3)) == 2
        assert max_degree(make_star(6, 1)) == 5
        assert max_degree(SEVEN) == 3


class TestSchedule:
    def test_daisy_slots(self):
        schedule = measurement_schedule(make_daisy(5, 1), 1.0)
        assert schedule.slots == (
            ((1, 2), (3, 4)),
            ((2, 1), (4, 3)),
            ((2, 3), (4, 5)),
            ((3, 2), (5, 4)),
        )
        assert len(schedule.slots) * schedule.slot_duration == 4.0 == (
            time_to_collect(make_daisy(5, 1), ScenarioParams(slot_duration=1.0)))

    def test_star_slots(self):
        schedule = measurement_schedule(make_star(5, 1), 2.0)
        assert len(schedule.slots) == 8
        assert len(schedule.slots) * schedule.slot_duration == 16.0 == (
            time_to_collect(make_star(5, 1), ScenarioParams(slot_duration=2.0)))

    def test_slot_count_bounds_m7(self):
        rng = np.random.default_rng(3)
        for _ in range(40):
            t = random_tree(rng, 7)
            n = len(measurement_schedule(t, 1.0).slots)
            assert 4 <= n <= 12

    def test_validity_over_enumeration(self):
        for m in (4, 5, 6):
            for t in labelled_trees(m, 1):
                schedule = measurement_schedule(t, 1.0)
                assert schedule_violations(t, schedule) == []
                assert len(schedule.slots) == 2 * max_degree(t)

    @PROPERTY
    @given(t=trees())
    def test_valid_on_generated_trees(self, t):
        schedule = measurement_schedule(t, 1.0)
        assert schedule_violations(t, schedule) == []

    @pytest.mark.parametrize("slot", [0.0, -1.0, float("nan"), float("inf")])
    def test_rejects_a_slot_that_is_not_positive_and_finite(self, slot):
        with pytest.raises(ValueError, match="positive finite"):
            measurement_schedule(make_daisy(3, 1), slot)

    def test_violations_detected(self):
        t = make_daisy(3, 1)
        good = measurement_schedule(t, 1.0)
        bad = type(good)(good.slots[:-1], 1.0)
        assert schedule_violations(t, bad)


def _slots_of(row_tx, row_rx, row_slot):
    return {(int(k), (int(a), int(b)))
            for a, b, k in zip(row_tx, row_rx, row_slot)}


class TestPrueferBatch:
    @pytest.mark.parametrize("m", range(2, 7))
    def test_every_sequence_matches_the_heap_oracle(self, m):
        codes = np.concatenate(list(pruefer_blocks(m)))
        sequences = list(itertools.product(range(1, m + 1), repeat=m - 2))
        assert list(map(tuple, codes.tolist())) == sequences
        decoded = decode_pruefer_batch(codes, m).tolist()
        assert [tuple(map(tuple, edges)) for edges in decoded] == [
            heap_pruefer_edges(seq, m) for seq in sequences]
        for seq in sequences:  # a batch of one decodes the same
            one = decode_pruefer_batch(np.array([seq], dtype=int), m)[0]
            assert tuple(map(tuple, one.tolist())) == heap_pruefer_edges(seq, m)

    @PROPERTY
    @given(data=st.data())
    def test_generated_sequences_match_the_heap_oracle(self, data):
        m = data.draw(st.integers(2, 40))
        codes = data.draw(st.lists(
            st.lists(st.integers(1, m), min_size=m - 2, max_size=m - 2),
            min_size=1, max_size=5))
        decoded = decode_pruefer_batch(
            np.array(codes, dtype=int).reshape(len(codes), m - 2), m)
        for seq, edges in zip(codes, decoded.tolist()):
            assert tuple(map(tuple, edges)) == heap_pruefer_edges(seq, m)

    def test_blocks_are_bounded(self):
        sizes = [len(block) for block in pruefer_blocks(8)]
        assert sum(sizes) == 8 ** 6 and max(sizes) <= PRUEFER_BLOCK

    def test_bad_codes_rejected(self):
        for codes, m in (([[4]], 3), ([[0, 1]], 4), ([[1, 5]], 4),
                         ([[1, 2, 3]], 4), ([1, 2], 4)):
            with pytest.raises(ValueError, match="do not encode"):
                decode_pruefer_batch(np.array(codes), m)
        with pytest.raises(ValueError, match="enumeration cap 8"):
            next(pruefer_blocks(9))


class TestRootTrees:
    @PROPERTY
    @given(t=trees(max_m=40))
    def test_parents_and_depths(self, t):
        parent, depth = root_trees(np.array([t.edges]), t.reference)
        dist = hop_distances(t.edges, t.m, t.reference)
        above = {child: p for level in t.levels for p, child in level}
        assert depth[0].tolist() == [dist[k] for k in range(1, t.m + 1)]
        assert parent[0].tolist() == [above.get(k, 0) - 1
                                      for k in range(1, t.m + 1)]

    def test_rows_of_unequal_depth(self):
        # the walk goes on until the deepest row has been reached: a star
        # (depth 1), a chain with the reference in the middle (depth 4)
        # and one that starts at the reference (depth 8)
        path = [5, 1, 2, 3, 4, 6, 7, 8, 9]
        rows = [make_star(9, 5).edges, make_daisy(9, 5).edges,
                tuple(zip(path, path[1:]))]
        parent, depth = root_trees(np.array(rows), 5)
        for k, edges in enumerate(rows):
            dist = hop_distances(edges, 9, 5)
            assert depth[k].tolist() == [dist[a] for a in range(1, 10)]
            assert all(dist[parent[k, a - 1] + 1] == dist[a] - 1
                       for a in range(1, 10) if a != 5)
        assert depth.max(axis=1).tolist() == [1, 4, 8]

    def test_rows_that_do_not_span_are_rejected(self):
        # the second row closes a cycle on 1, 2, 3 and leaves 4 out
        edges = np.array([[(1, 2), (2, 3), (3, 4)], [(1, 2), (2, 3), (1, 3)]])
        root_trees(edges[:1], 4)
        with pytest.raises(NotEffective):
            root_trees(edges, 4)


class TestColoringKernel:
    @pytest.mark.parametrize("m", range(2, 7))
    def test_every_labelled_tree_and_reference(self, m):
        for reference in range(1, m + 1):
            for t in labelled_trees(m, reference):
                assert measurement_schedule(t, 1.0) == greedy_schedule(t, 1.0)

    @PROPERTY
    @given(t=trees())
    def test_generated_trees(self, t):
        assert measurement_schedule(t, 2.0) == greedy_schedule(t, 2.0)

    @pytest.mark.parametrize("m", [129, 513])
    def test_large_trees(self, m):
        rng = np.random.default_rng(m)
        for t in (make_star(m, m // 2), make_daisy(m, m // 2),
                  random_tree(rng, m)):
            assert measurement_schedule(t, 1.0) == greedy_schedule(t, 1.0)

    def test_batch_rows_equal_single_trees(self):
        codes = np.concatenate(list(pruefer_blocks(5)))
        edges = decode_pruefer_batch(codes, 5)
        arrays = schedule_trees(*root_trees(edges, 2))
        for i, t in enumerate(labelled_trees(5, 2)):
            slots = measurement_schedule(t, 1.0).slots
            assert arrays.slots[i] == len(slots)
            assert _slots_of(arrays.tx[i], arrays.rx[i], arrays.slot[i]) == {
                (k, pair) for k, slot in enumerate(slots) for pair in slot}


# the daisy 1-2-3-4-5 from antenna 1: colors 0 and 1 alternate down it
DAISY5 = (((1, 2), (3, 4)), ((2, 1), (4, 3)), ((2, 3), (4, 5)),
          ((3, 2), (5, 4)))


class TestScheduleFaults:
    @pytest.mark.parametrize("t, slots, problems", [
        (make_daisy(5, 1), DAISY5 + ((),), ["5 slots, expected 4"]),
        (make_daisy(5, 1),
         (((1, 2), (3, 4), (2, 3)),) + DAISY5[1:2] + (((4, 5),),) + DAISY5[3:],
         ["antenna 2 used twice in slot 0", "antenna 3 used twice in slot 0"]),
        (make_daisy(5, 1), DAISY5[:2] + (((1, 2), (4, 5)),) + DAISY5[3:],
         ["measurement (1, 2) scheduled 2 times",
          "measurement (2, 3) scheduled 0 times"]),
        (make_star(4, 1), (((1, 2), (3, 4)), ((2, 1),), ((1, 3),), ((3, 1),),
                           ((1, 4),), ((4, 1),)),
         ["measurement (3, 4) is not on any line"]),
        # antennas outside 1..m keep apart from each other and from 1..m
        (make_daisy(3, 1), (((1, 2), (5, 9), (0, 5)), ((2, 1),),
                            ((2, 3), (3, -2)), ((3, 2),)),
         ["antenna 5 used twice in slot 0", "antenna 3 used twice in slot 2",
          "measurement (5, 9) is not on any line",
          "measurement (0, 5) is not on any line",
          "measurement (3, -2) is not on any line"]),
    ], ids=["slot-count", "antenna-twice", "not-once", "off-line", "stray"])
    def test_each_kind_is_named(self, t, slots, problems):
        bad = Schedule(slots, 1.0)
        assert schedule_violations(t, bad) == problems
        assert pairwise_schedule_violations(t, bad) == sorted(problems)

    @PROPERTY
    @given(t=trees(max_m=9), data=st.data())
    def test_matches_the_pairwise_oracle(self, t, data):
        slots = [list(slot) for slot in measurement_schedule(t, 1.0).slots]
        for _ in range(data.draw(st.integers(1, 3))):
            i = data.draw(st.integers(0, len(slots) - 1))
            op = data.draw(st.sampled_from(["drop", "move", "copy", "add"]))
            if op == "add":
                pair = tuple(data.draw(st.integers(1, t.m)) for _ in "ab")
                slots[i].append(pair)
            elif slots[i]:
                j = data.draw(st.integers(0, len(slots[i]) - 1))
                pair = slots[i][j] if op == "copy" else slots[i].pop(j)
                if op != "drop":
                    k = data.draw(st.integers(0, len(slots)))
                    if k == len(slots):
                        slots.append([])
                    slots[k].append(pair)
        bad = Schedule(tuple(map(tuple, slots)), 1.0)
        assert sorted(schedule_violations(t, bad)) == (
            pairwise_schedule_violations(t, bad))

    @pytest.mark.parametrize("t", [
        make_star(129, 64), make_daisy(129, 64),
        random_tree(np.random.default_rng(129), 129)],
        ids=["star", "daisy", "random"])
    def test_large_trees_match_the_pairwise_oracle(self, t):
        # keys this sparse are sorted, not tabled
        slots = [list(slot) for slot in measurement_schedule(t, 1.0).slots]
        assert schedule_violations(t, Schedule(tuple(map(tuple, slots)),
                                               1.0)) == []
        slots[0].append(slots[1].pop())
        slots[2].append(slots[2][0])
        slots[-1].append((1, t.m + 5))
        bad = Schedule(tuple(map(tuple, slots)), 1.0)
        assert sorted(schedule_violations(t, bad)) == (
            pairwise_schedule_violations(t, bad))

    @PROPERTY
    @given(data=st.data())
    def test_sorted_keys_give_the_tables_findings(self, data):
        m = data.draw(st.integers(3, 9))
        codes = np.array(data.draw(st.lists(
            st.lists(st.integers(1, m), min_size=m - 2, max_size=m - 2),
            min_size=1, max_size=5)))
        edges = decode_pruefer_batch(codes, m)
        arrays = schedule_trees(*root_trees(edges, 1))
        tx, slot = arrays.tx.copy(), arrays.slot.copy()
        for _ in range(data.draw(st.integers(0, 3))):
            row = data.draw(st.integers(0, len(codes) - 1))
            j = data.draw(st.integers(0, 2 * (m - 1) - 1))
            slot[row, j] = data.draw(st.integers(0, 2 * m))
            tx[row, j] = data.draw(st.integers(0, m + 2))
        bad = ScheduleArrays(tx, arrays.rx, slot, arrays.slots)
        tabled = schedule_faults(edges, bad)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(topology, "_DENSE", 0)
            ordered = schedule_faults(edges, bad)
        for name in ("expected_slots", "wrong_slot_count", "reused",
                     "required", "counts", "off_line"):
            assert np.array_equal(getattr(ordered, name),
                                  getattr(tabled, name)), name

    def test_a_wrong_parent_flags_only_its_tree(self):
        edges = decode_pruefer_batch(np.concatenate(list(pruefer_blocks(5))),
                                     5)
        parent, depth = root_trees(edges, 1)
        assert not schedule_faults(
            edges, schedule_trees(parent, depth)).flagged.any()
        wrong = parent.copy()
        node = int(np.flatnonzero(parent[7] >= 0)[0])
        wrong[7, node] = next(k for k in range(5)
                              if k not in (node, parent[7, node]))
        flagged = schedule_faults(edges, schedule_trees(wrong, depth)).flagged
        assert np.flatnonzero(flagged).tolist() == [7]


class TestBlockRows:
    """Each row of a block of trees is checked as if it were alone."""

    @PROPERTY
    @given(data=st.data())
    def test_rows_equal_their_batch_of_one(self, data):
        m = data.draw(st.integers(3, 12))
        reference = data.draw(st.integers(1, m))
        codes = np.array(data.draw(st.lists(
            st.lists(st.integers(1, m), min_size=m - 2, max_size=m - 2),
            min_size=2, max_size=6)))
        edges = decode_pruefer_batch(codes, m)
        parent, depth = root_trees(edges, reference)
        arrays = schedule_trees(parent, depth)
        faults = schedule_faults(edges, arrays)
        assert not faults.flagged.any()
        for i in range(len(codes)):
            one = slice(i, i + 1)
            alone = root_trees(edges[one], reference)
            assert np.array_equal(alone[0], parent[one])
            assert np.array_equal(alone[1], depth[one])
            schedule = schedule_trees(*alone)
            for name in ("tx", "rx", "slot", "slots"):
                assert np.array_equal(getattr(schedule, name),
                                      getattr(arrays, name)[one]), name
            checked = schedule_faults(edges[one], schedule)
            for name in ("expected_slots", "wrong_slot_count", "reused",
                         "required", "counts", "off_line"):
                assert np.array_equal(getattr(checked, name),
                                      getattr(faults, name)[one]), name

    @PROPERTY
    @given(data=st.data())
    def test_a_corrupted_row_flags_only_itself(self, data):
        m = data.draw(st.integers(3, 12))
        codes = np.array(data.draw(st.lists(
            st.lists(st.integers(1, m), min_size=m - 2, max_size=m - 2),
            min_size=2, max_size=6)))
        edges = decode_pruefer_batch(codes, m)
        parent, depth = root_trees(edges, 1)
        row = data.draw(st.integers(0, len(codes) - 1))
        if data.draw(st.booleans()):
            # a parent that is neither the antenna itself nor its own
            wrong = parent.copy()
            node = data.draw(st.integers(1, m - 1))
            wrong[row, node] = data.draw(st.sampled_from(
                [k for k in range(m) if k not in (node, parent[row, node])]))
            flagged = schedule_faults(
                edges, schedule_trees(wrong, depth)).flagged
        else:
            # a measurement moved into the slot of its own reverse, which
            # uses the same two antennas
            arrays = schedule_trees(parent, depth)
            slot = arrays.slot.copy()
            j = data.draw(st.integers(0, 2 * (m - 1) - 1))
            slot[row, j] = slot[row, (j + m - 1) % (2 * (m - 1))]
            flagged = schedule_faults(edges, ScheduleArrays(
                arrays.tx, arrays.rx, slot, arrays.slots)).flagged
        assert np.flatnonzero(flagged).tolist() == [row]


def _decoded(m):
    """Lines of every labeled tree on 1..m, as one (m**(m-2), m-1, 2)
    array in sequence order."""
    return np.concatenate([decode_pruefer_batch(codes, m)
                           for codes in pruefer_blocks(m)])


class TestEnumeration:
    def test_counts(self):
        assert len(_decoded(3)) == 3
        assert len(_decoded(5)) == 125

    def test_m4_census(self):
        edges = _decoded(4)
        assert len(edges) == 16
        degrees = np.array([np.bincount(row.ravel(), minlength=5).max()
                            for row in edges])
        assert (degrees == 3).sum() == 4 and (degrees == 2).sum() == 12

    def test_no_duplicates(self):
        seen = {tuple(sorted(map(tuple, np.sort(row, axis=1).tolist())))
                for row in _decoded(5)}
        assert len(seen) == 125

    def test_cap(self):
        with pytest.raises(ValueError, match="enumeration cap 5"):
            next(pruefer_blocks(6, cap=5))
        assert len(next(pruefer_blocks(9, cap=9))) == PRUEFER_BLOCK

    def test_factories_pass_validation(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            m = int(rng.integers(2, 30))
            ref = int(rng.integers(1, m + 1))
            for t in (make_star(m, ref), make_daisy(m, ref)):
                again = from_edges(t.m, t.reference, t.edges)
                assert again == t

    def test_mean_distance_one_iff_star(self):
        for m in (4, 5):
            for t in labelled_trees(m, 2):
                is_star = t.edges == make_star(m, 2).edges
                assert (calibration_distances(t).mean == 1) == is_star

    def test_degree_bounds_and_classes(self):
        for t in labelled_trees(5, 1):
            degree = max_degree(t)
            assert 2 <= degree <= 4
            if degree == 2:
                assert all(len(t.neighbors[k]) <= 2 for k in range(1, 6))
            if degree == 4:
                center = next(k for k in range(1, 6)
                              if len(t.neighbors[k]) == 4)
                assert all(center in edge for edge in t.edges)


#: rooted trees on m nodes, m = 1, 2, ... (OEIS A000081)
ROOTED_SHAPES = (1, 1, 2, 4, 9, 20, 48, 115, 286, 719, 1842, 4766, 12486,
                 32973)


class TestShapes:
    @pytest.mark.parametrize("m", range(2, 15))
    def test_counts(self, m):
        shapes = sum(1 for _ in enumerate_shapes(m, cap=m))
        assert shapes == ROOTED_SHAPES[m - 1]

    @pytest.mark.parametrize("m", range(2, 13))
    def test_weights_sum_to_cayley(self, m):
        assert sum(s.weight for s in enumerate_shapes(m, cap=m)) == (
            m ** (m - 2))

    @pytest.mark.parametrize("m", range(2, 8))
    def test_representatives_are_rooted_at_the_reference(self, m):
        # a shape stands for the trees rooted at any antenna
        records = list(enumerate_shapes(m))
        for reference in range(1, m + 1):
            forms = set()
            for shape in records:
                assert isinstance(shape, Shape) and shape.weight >= 1
                t = shape_topology(shape, reference)
                assert t.m == m and t.reference == reference
                forms.add(rooted_form(t))
            assert len(forms) == ROOTED_SHAPES[m - 1]

    @pytest.mark.parametrize("m", range(2, 9))
    def test_levels_are_the_hop_distances(self, m):
        # each record reads its mean distance and degree off its level
        # sequence as the wiring walk and the neighbour lists give them;
        # every reference up to m=7, three of them at m=8
        records = list(enumerate_shapes(m))
        for reference in range(1, m + 1) if m < 8 else (1, 4, 8):
            for shape in records:
                t = shape_topology(shape, reference)
                dist = hop_distances(t.edges, m, reference)
                labels = [reference] + list(t.ordinary)
                assert [dist[k] for k in labels] == list(shape.levels)
                assert shape.mean_distance == calibration_distances(t).mean
                assert shape.max_degree == max_degree(t)

    @pytest.mark.parametrize("m, reference", [
        (2, 1), (3, 1), (4, 1), (5, 1), (5, 3), (6, 1), (6, 6), (7, 1)])
    def test_weight_is_the_labeled_count_of_the_shape(self, m, reference):
        labeled = {}
        for t in labelled_trees(m, reference):
            form = rooted_form(t)
            labeled[form] = labeled.get(form, 0) + 1
        weights = {rooted_form(shape_topology(s, reference)): s.weight
                   for s in enumerate_shapes(m)}
        assert weights == labeled

    def test_path_and_star(self):
        shapes = list(enumerate_shapes(5))
        assert (shape_topology(shapes[0], 1), shapes[0].weight) == (
            make_daisy(5, 1), 24)
        assert (shape_topology(shapes[-1], 1), shapes[-1].weight) == (
            make_star(5, 1), 1)
        assert shapes[0] == ((0, 1, 2, 3, 4), 24, 2)
        assert shapes[-1] == ((0, 1, 1, 1, 1), 1, 4)

    def test_cap_and_reference_checked(self):
        with pytest.raises(ValueError, match="enumeration cap 8"):
            next(enumerate_shapes(9))
        with pytest.raises(ValueError, match="at least 2 antennas"):
            next(enumerate_shapes(1))
        # the shapes stand for any reference; prop 1 checks its own
        with pytest.raises(IndexOutOfRange):
            verify_star_optimality(5, 6)
        with pytest.raises(IndexOutOfRange):
            verify_star_optimality(9, 10)


class TestSerialization:
    def test_topology_roundtrip(self):
        data = topology_to_dict(SEVEN)
        assert data["m"] == 7 and data["reference"] == 3
        assert topology_from_dict(data) == SEVEN

    @PROPERTY
    @given(t=trees(), flips=st.lists(st.booleans(), min_size=19,
                                     max_size=19))
    def test_topology_json_roundtrip_property(self, t, flips):
        data = json.loads(json.dumps(topology_to_dict(t)))
        assert topology_from_dict(data) == t
        # any listing of the same lines describes the same wiring
        listed = [[q, p] if flip else [p, q]
                  for (p, q), flip in zip(reversed(data["edges"]), flips)]
        assert topology_from_dict(dict(data, edges=listed)) == t

    def test_schedule_dict(self):
        schedule = measurement_schedule(make_daisy(3, 1), 0.5)
        data = schedule_to_dict(schedule)
        assert data["slot_duration"] == 0.5
        assert data["slots"][0] == [[1, 2]]
