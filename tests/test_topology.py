import hashlib
import json
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from selfcal import (
    ScenarioParams,
    from_edges,
    make_daisy,
    make_star,
    measurement_schedule,
    schedule_to_dict,
    schedule_violations,
    time_to_collect,
    topology_from_dict,
    topology_to_dict,
    verify_star_optimality,
    verify_time_bounds,
)
from selfcal.errors import (
    DuplicateEdge,
    IndexOutOfRange,
    NotEffective,
    SelfLoop,
    TopologyError,
    WrongEdgeCount,
)
from selfcal.topology import Schedule, Shape, color_lines, enumerate_shapes

from helpers import (
    check_leaf_first,
    greedy_colors,
    greedy_schedule,
    hop_distances,
    labelled_trees,
    line_schedule,
    pairwise_schedule_violations,
    random_tree,
    rooted_form,
    shape_topology,
    trees,
    walk_lines,
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
        t = make_star(5, 1)
        assert t.distances == (1, 1, 1, 1)
        assert t.mean_distance == 1

    def test_daisy_mid_reference(self):
        t = make_daisy(5, 3)
        assert t.ordinary == (1, 2, 4, 5)
        assert t.distances == (2, 1, 1, 2)
        assert t.mean_distance == Fraction(3, 2)

    def test_daisy_end_reference(self):
        t = make_daisy(5, 1)
        assert t.distances == (1, 2, 3, 4)
        assert t.mean_distance == Fraction(5, 2)

    def test_computed_once_per_wiring(self):
        t = from_edges(4, 2, [(4, 3), (2, 1), (2, 3)])
        for name in ("distances", "mean_distance", "distance_array"):
            assert getattr(t, name) is getattr(t, name)
        again = from_edges(4, 2, t.edges)
        assert (t.distances, t.mean_distance) == (again.distances,
                                                  again.mean_distance)

    @PROPERTY
    @given(t=trees(max_m=40))
    def test_against_bfs_oracle(self, t):
        oracle = hop_distances(t.edges, t.m, t.reference)
        expected = tuple(oracle[k] for k in t.ordinary)
        assert t.distances == expected
        assert isinstance(t.mean_distance, Fraction)
        assert t.mean_distance == Fraction(sum(expected), t.m - 1)
        assert t.distance_array.dtype == float
        assert t.distance_array.tolist() == list(expected)


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

    # the star's, the chain's and the branched tree's divisors are all
    # slices; a parent with two children among three lines on a level
    # makes the last wiring's second divisor an index array
    @pytest.mark.parametrize("t", [make_star(9, 4), make_daisy(9, 4), SEVEN,
                                   from_edges(7, 1, [(1, 2), (1, 3), (2, 4),
                                                     (2, 5), (3, 6), (6, 7)])],
                             ids=["star", "chain", "branched", "uneven"])
    def test_cached_arrays_are_read_only(self, t):
        plan, couplings = t.propagation_plan, t.coupling_plan
        arrays = [*t.pair_endpoints, plan.order, plan.gather, plan.parents,
                  t.distance_array] + [
            level.divisor for level in plan.levels
            if isinstance(level.divisor, np.ndarray)] + [
            index for index in (couplings.rows, couplings.inner,
                                couplings.ends, couplings.gershgorin_rows,
                                couplings.gershgorin_couplings)
            if index.size]
        for a in arrays:
            with pytest.raises(ValueError, match="read-only"):
                a[0] = a[0] + 1

    @PROPERTY
    @given(t=trees(max_m=40))
    def test_leaf_first_steps_eliminate_every_coupling_once(self, t):
        # the walk read from its deepest line up takes the couplings'
        # forest apart leaf first: a child's rows are leaves once every
        # deeper line is eliminated
        plan = t.coupling_plan
        check_leaf_first(plan.steps, plan.rows, plan.inner)


class TestDegreeAndChains:
    def test_max_degree_examples(self):
        assert make_daisy(6, 3).max_degree == 2
        assert make_star(6, 1).max_degree == 5
        assert SEVEN.max_degree == 3


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
                assert len(schedule.slots) == 2 * t.max_degree

    @PROPERTY
    @given(t=trees())
    def test_valid_on_generated_trees(self, t):
        schedule = measurement_schedule(t, 1.0)
        assert schedule_violations(t, schedule) == []

    @pytest.mark.parametrize("slot", [0.0, -1.0, float("nan"), float("inf")])
    def test_rejects_a_slot_that_is_not_positive_and_finite(self, slot):
        with pytest.raises(ValueError, match="positive finite"):
            measurement_schedule(make_daisy(3, 1), slot)

    @pytest.mark.parametrize("pair", [
        (1.5, 2), (1, 2, 3), (True, 2), (1,), 7, ("1", 2)],
        ids=["float", "triple", "bool", "single", "int", "str"])
    def test_rejects_a_measurement_not_a_pair_of_integers(self, pair):
        # 1.5 would be cut to 1 and (1, 2) reported as scheduled
        with pytest.raises(ValueError,
                           match=re.escape(f"measurement {pair!r} is not")):
            schedule_violations(make_daisy(3, 1), Schedule(((pair,),), 1.0))

    @pytest.mark.parametrize("slot", [5, None, {(1, 2)}],
                             ids=["int", "none", "set"])
    def test_rejects_a_slot_not_a_sequence(self, slot):
        # a slot of measurements, not a bare value: ValueError naming the
        # slot, not the TypeError of iterating it
        t = make_daisy(3, 1)
        slots = measurement_schedule(t, 1.0).slots
        with pytest.raises(ValueError, match=re.escape(
                f"slot 1 is not a tuple or list of measurements, "
                f"got {slot!r}")):
            schedule_violations(t, Schedule((slots[0], slot) + slots[2:],
                                            1.0))

    def test_accepts_numpy_integers(self):
        t = make_daisy(3, 1)
        slots = tuple(tuple((np.int64(a), np.int64(b)) for a, b in slot)
                      for slot in measurement_schedule(t, 1.0).slots)
        assert schedule_violations(t, Schedule(slots, 1.0)) == []
        # every message names plain integers, not np.int64(...)
        stray = (slots[0] + ((np.int64(1), np.int64(3)),),) + slots[1:]
        assert schedule_violations(t, Schedule(stray, 1.0)) == [
            "antenna 1 used twice in slot 0",
            "measurement (1, 3) is not on any line"]

    def test_violations_detected(self):
        t = make_daisy(3, 1)
        good = measurement_schedule(t, 1.0)
        bad = type(good)(good.slots[:-1], 1.0)
        assert schedule_violations(t, bad)


def preorder_lines(shape, first):
    """A shape's lines (parent, node) in preorder, as prop 2 colors them,
    with the nodes labeled from `first` on."""
    return [(parent + first, node + first)
            for node, parent in enumerate(shape.parents) if node]


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

    def test_shapes_colored_as_prop_2_equal_their_schedules(self):
        # every shape, as prop 2 colors it: the lines (parent, node) over
        # the nodes in preorder, which are the labels 1..m of the shape's
        # wiring at reference 1
        for m in range(3, 9):
            for shape in enumerate_shapes(m):
                assert line_schedule(preorder_lines(shape, 1)) == (
                    measurement_schedule(shape_topology(shape, 1), 1.0))


class TestColorLines:
    """The one-pass coloring on its own, against the greedy oracle."""

    @pytest.mark.parametrize("lines, colors", [
        ([(1, 2), (2, 3), (3, 4), (4, 5)], [0, 1, 0, 1]),
        ([(1, 2), (1, 3), (1, 4)], [0, 1, 2]),
        # SEVEN's walk from antenna 3: each arm's second line skips the
        # color of its first
        ([(3, 1), (3, 4), (3, 6), (1, 2), (4, 5), (6, 7)],
         [0, 1, 2, 1, 0, 0]),
    ], ids=["daisy", "star", "seven"])
    def test_hand_checked(self, lines, colors):
        assert color_lines(lines) == colors

    @PROPERTY
    @given(t=trees())
    def test_generated_trees(self, t):
        lines = walk_lines(t)
        assert dict(zip(lines, color_lines(lines))) == greedy_colors(t)

    @pytest.mark.parametrize("m", range(2, 9))
    def test_every_shape_rooted_at_each_antenna(self, m):
        for shape in enumerate_shapes(m):
            t = shape_topology(shape, 1)
            # prop 2's lines, over the nodes 0..m-1 in preorder
            lines = preorder_lines(shape, 0)
            assert {(p + 1, c + 1): color for (p, c), color in zip(
                lines, color_lines(lines))} == greedy_colors(t)
            for root in range(1, m + 1):
                rooted = from_edges(m, root, t.edges)
                lines = walk_lines(rooted)
                assert dict(zip(lines, color_lines(lines))) == (
                    greedy_colors(rooted))


# the daisy 1-2-3-4-5 from antenna 1: colors 0 and 1 alternate down it
DAISY5 = (((1, 2), (3, 4)), ((2, 1), (4, 3)), ((2, 3), (4, 5)),
          ((3, 2), (5, 4)))


class TestScheduleViolations:
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
        # labels beyond 64 bits are checked as any other integer
        (make_daisy(3, 1), (((1, 2), (2**64, 3)),
                            ((2, 1), (-2**63 - 1, 2**64), (2**64, -2**63 - 1)),
                            ((2, 3),), ((3, 2),)),
         ["antenna 18446744073709551616 used twice in slot 1",
          "antenna -9223372036854775809 used twice in slot 1",
          "measurement (18446744073709551616, 3) is not on any line",
          "measurement (-9223372036854775809, 18446744073709551616) "
          "is not on any line",
          "measurement (18446744073709551616, -9223372036854775809) "
          "is not on any line"]),
    ], ids=["slot-count", "antenna-twice", "not-once", "off-line", "stray",
            "beyond-int64"])
    def test_each_kind_is_named(self, t, slots, problems):
        bad = Schedule(slots, 1.0)
        assert schedule_violations(t, bad) == problems
        assert pairwise_schedule_violations(t, bad) == sorted(problems)

    @PROPERTY
    @given(t=trees(max_m=9), data=st.data())
    def test_matches_the_pairwise_oracle(self, t, data):
        # labels on and off 1..m, 0 and negatives among them
        labels = st.integers(-2, t.m + 2) | st.sampled_from(
            [2**64, -2**63 - 1])
        slots = [list(slot) for slot in measurement_schedule(t, 1.0).slots]
        for _ in range(data.draw(st.integers(1, 3))):
            op = data.draw(st.sampled_from(
                ["drop", "move", "copy", "add", "add slot", "drop slot"]))
            if op == "add slot":
                slots.append([])
                continue
            if not slots:
                continue
            i = data.draw(st.integers(0, len(slots) - 1))
            if op == "drop slot":
                del slots[i]
            elif op == "add":
                slots[i].append(tuple(data.draw(labels) for _ in "ab"))
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

    @PROPERTY
    @given(t=trees(max_m=9), data=st.data())
    def test_reused_marks_every_later_use(self, t, data):
        # a use is named when an earlier use in its slot, in measurement
        # order and sender first, has its antenna; the first use never is
        slots = [list(slot) for slot in measurement_schedule(t, 1.0).slots]
        for _ in range(data.draw(st.integers(1, 4))):
            i = data.draw(st.integers(0, len(slots) - 1))
            if slots[i]:
                j = data.draw(st.integers(0, len(slots[i]) - 1))
                pair = slots[i].pop(j)
                k = data.draw(st.integers(0, len(slots) - 1))
                slots[k].insert(data.draw(st.integers(0, len(slots[k]))),
                                pair)
        seen, expected = set(), []
        for k, slot in enumerate(slots):
            for pair in slot:
                for antenna in pair:
                    if (k, antenna) in seen:
                        expected.append(f"antenna {antenna} used twice "
                                        f"in slot {k}")
                    seen.add((k, antenna))
        found = schedule_violations(t, Schedule(tuple(map(tuple, slots)),
                                                1.0))
        assert [p for p in found if "used twice" in p] == expected

    @pytest.mark.parametrize("t", [
        make_star(129, 64), make_daisy(129, 64),
        random_tree(np.random.default_rng(129), 129)],
        ids=["star", "daisy", "random"])
    def test_large_trees_match_the_pairwise_oracle(self, t):
        slots = [list(slot) for slot in measurement_schedule(t, 1.0).slots]
        assert schedule_violations(t, Schedule(tuple(map(tuple, slots)),
                                               1.0)) == []
        slots[0].append(slots[1].pop())
        slots[2].append(slots[2][0])
        slots[-1].append((1, t.m + 5))
        bad = Schedule(tuple(map(tuple, slots)), 1.0)
        assert sorted(schedule_violations(t, bad)) == (
            pairwise_schedule_violations(t, bad))

    def test_a_wrong_parent_flags_only_its_tree(self):
        # the 20 shapes at m=6, each wired at reference 2; in tree 7, the
        # line into the lowest antenna but the root hangs from the lowest
        # antenna that is neither it nor its parent
        wirings = [shape_topology(shape, 2) for shape in enumerate_shapes(6)]
        rooted = [walk_lines(t) for t in wirings]
        for t, lines in zip(wirings, rooted):
            assert schedule_violations(t, line_schedule(lines)) == []
        j = min(range(5), key=lambda i: rooted[7][i][1])
        parent, node = rooted[7][j]
        rooted[7][j] = (next(k for k in range(1, 7) if k not in (node, parent)),
                        node)
        flagged = [i for i, (t, lines) in enumerate(zip(wirings, rooted))
                   if schedule_violations(t, line_schedule(lines))]
        assert flagged == [7]

    @PROPERTY
    @given(t=trees(min_m=3, max_m=12), data=st.data())
    def test_a_corrupted_schedule_is_flagged(self, t, data):
        lines = walk_lines(t)
        if data.draw(st.booleans()):
            # a parent that is neither the antenna itself nor its own
            j = data.draw(st.integers(0, t.m - 2))
            parent, node = lines[j]
            lines[j] = (data.draw(st.sampled_from(
                [k for k in range(1, t.m + 1) if k not in (node, parent)])),
                node)
            bad = line_schedule(lines)
        else:
            # a measurement moved into the slot of its own reverse, which
            # uses the same two antennas
            slots = [list(slot) for slot in line_schedule(lines).slots]
            i = data.draw(st.integers(0, len(slots) - 1))
            pair = slots[i].pop(data.draw(st.integers(0, len(slots[i]) - 1)))
            slots[i ^ 1].append(pair)
            bad = Schedule(tuple(map(tuple, slots)), 1.0)
        found = schedule_violations(t, bad)
        assert found
        assert sorted(found) == pairwise_schedule_violations(t, bad)


class TestEnumeration:
    """The shape enumeration stands for every labeled tree once."""

    def test_counts(self):
        for m, count in ((3, 3), (5, 125)):
            assert sum(s.weight for s in enumerate_shapes(m)) == count
            assert sum(1 for _ in labelled_trees(m, 1)) == count

    def test_m4_census(self):
        # 4 stars and 12 paths, by the largest degree
        census = {}
        for shape in enumerate_shapes(4):
            census[shape.max_degree] = (census.get(shape.max_degree, 0)
                                        + shape.weight)
        assert census == {3: 4, 2: 12}

    def test_no_duplicates(self):
        for m in range(2, 9):
            shapes = list(enumerate_shapes(m))
            assert len({s.levels for s in shapes}) == len(shapes)
            assert len({rooted_form(shape_topology(s, 1))
                        for s in shapes}) == len(shapes)

    def test_cap(self):
        with pytest.raises(ValueError, match="enumeration cap 5"):
            next(enumerate_shapes(6, cap=5))
        with pytest.raises(ValueError, match="enumeration cap 5"):
            verify_time_bounds(6, cap=5)
        assert next(enumerate_shapes(9, cap=9)).levels == tuple(range(9))

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
                assert (t.mean_distance == 1) == is_star

    def test_degree_bounds_and_classes(self):
        for t in labelled_trees(5, 1):
            degree = t.max_degree
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
                assert Fraction(sum(shape.levels), m - 1) == t.mean_distance
                assert shape.max_degree == t.max_degree

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
        assert shapes[0] == ((0, 1, 2, 3, 4), (-1, 0, 1, 2, 3), 24, 2)
        assert shapes[-1] == ((0, 1, 1, 1, 1), (-1, 0, 0, 0, 0), 1, 4)

    @pytest.mark.parametrize("m", range(2, 9))
    def test_parents_are_the_rebuilt_ones(self, m):
        # the parents the enumeration finds, against those of the wiring
        # `shape_topology` builds from the levels alone, walked from the
        # reference; at reference 1 node i is antenna i+1
        for shape in enumerate_shapes(m):
            t = shape_topology(shape, 1)
            above = {child: p for level in t.levels for p, child in level}
            assert shape.parents == tuple(above.get(k, 0) - 1
                                          for k in range(1, m + 1))

    #: sha256 of repr(list(enumerate_shapes(m, cap=m))), as the two-scan
    #: enumeration gave it: the one-pass read yields equal shapes in the
    #: same order
    DIGESTS = {
        2: "9ae35ba439001a6bc4323dc615de75610fc8350ec12b2a98b3339a60ce0d05d5",
        3: "e952817767de56e8b95ec6c7715908dd73137ba18abf58fca2dc1c520899025c",
        4: "fbfc9a6f9956f15e916f7380c73a7eede8c145bc5794e71b9cfb81e5e5e31e3f",
        5: "7cddf84ec1f511e494067f29d0249a417b39bbf6450560a9c43de9561d4484a8",
        6: "a09057a9931d0bcb7733da3c16edb156604df3f08e68e29f57c4d219ce744652",
        7: "0ff6c7a72cb8d58c6cbc6dfe93fe631a8dd2f08a87c8db617e2dfd6e2ac51078",
        8: "83d039d92cbdd68b24df6101b45ea7398fc2777aa8d7abf06060082b99e36297",
        9: "ea5406c09f4deb83a7d29cef620ea70aa10d9c31d529205c3bff5d367f3babe8",
        10: "f9b4dfab0aabdd5fcbfc2ac0b40f411362f3358110d29a281531c2af546c0996",
    }

    @pytest.mark.parametrize("m", range(2, 11))
    def test_sequence_pinned(self, m):
        shapes = list(enumerate_shapes(m, cap=m))
        assert all(type(shape) is Shape for shape in shapes)
        assert all(type(value) is int for shape in shapes
                   for field in shape[:2] for value in field)
        digest = hashlib.sha256(repr(shapes).encode()).hexdigest()
        assert digest == self.DIGESTS[m]

    @pytest.mark.parametrize("m", range(2, 8))
    def test_each_shape_by_brute_force(self, m):
        # weight: the labeled trees rooted at antenna 1 of the shape's
        # rooted form; parents: a wiring (node i is antenna i+1) whose
        # preorder, children by label, visits the nodes in order at the
        # depths `levels`; max_degree: that wiring's
        labeled = {}
        for t in labelled_trees(m, 1):
            form = rooted_form(t)
            labeled[form] = labeled.get(form, 0) + 1
        for shape in enumerate_shapes(m):
            assert shape.parents[0] == -1
            t = from_edges(m, 1, [(shape.parents[node] + 1, node + 1)
                                  for node in range(1, m)])
            order, depths, stack = [], [], [(1, 0)]
            while stack:
                antenna, depth = stack.pop()
                order.append(antenna)
                depths.append(depth)
                stack.extend((k, depth + 1) for k in sorted(
                    t.neighbors[antenna], reverse=True)
                    if k not in order)
            assert order == list(range(1, m + 1))
            assert tuple(depths) == shape.levels
            assert shape.max_degree == t.max_degree
            assert shape.weight == labeled.pop(rooted_form(t))
        assert labeled == {}

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
