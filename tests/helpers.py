"""Shared test utilities: independent oracles and random-tree generation."""

import itertools
import math
from collections import deque

import numpy as np
from hypothesis import strategies as st

from selfcal import (
    ScenarioParams,
    RfGains,
    daisy_vs_star_ratio,
    from_edges,
    optimal_reference,
)
from selfcal.simulate import add_gain_products, draw_noise
from selfcal.topology import Schedule, color_lines
from selfcal.harness import (
    DaisyOptimalityEntry,
    DaisyOptimalityReport,
    StarOptimalityReport,
    TimeBoundsReport,
)


def naive_pruefer_edges(seq, m):
    """Sequence-to-tree decoder that scans for the smallest leaf at each
    step, independent of the library."""
    seq = list(seq)
    degree = {k: 1 for k in range(1, m + 1)}
    for x in seq:
        degree[x] += 1
    edges = []
    for x in seq:
        leaf = min(k for k, d in degree.items() if d == 1)
        edges.append((leaf, x))
        degree[leaf] -= 1
        degree[x] -= 1
    u, v = sorted(k for k, d in degree.items() if d == 1)
    edges.append((u, v))
    return edges


def greedy_colors(t):
    """Line coloring one node at a time in breadth-first order, each
    node's lines down in ascending order, skipping the color of its own
    line up: {(parent, child): color}. The oracle for `color_lines`."""
    lines = [line for level in t.levels for line in level]
    children = {}
    for parent, child in lines:
        children.setdefault(parent, []).append(child)
    colors = {}
    parent_color = {}
    for node in [t.reference] + [child for _, child in lines]:
        color = 0
        blocked = parent_color.get(node)
        for child in children.get(node, ()):
            if color == blocked:
                color += 1
            colors[(node, child)] = parent_color[child] = color
            color += 1
    return colors


def colored_schedule(colors, slot_duration=1.0):
    """The schedule of a line coloring {(parent, child): color}: color k
    fills slot 2k parent-to-child and slot 2k+1 child-to-parent, each
    ascending, up to the largest color."""
    color_classes = [[] for _ in range(max(colors.values()) + 1)]
    for line, color in colors.items():
        color_classes[color].append(line)
    slots = []
    for group in color_classes:
        slots.append(tuple(sorted(group)))
        slots.append(tuple(sorted((c, p) for p, c in group)))
    return Schedule(tuple(slots), float(slot_duration))


def greedy_schedule(t, slot_duration):
    """The schedule of `greedy_colors`: the oracle for
    `measurement_schedule`."""
    return colored_schedule(greedy_colors(t), slot_duration)


def line_schedule(lines):
    """The schedule of rooted (parent, child) lines colored by
    `color_lines`, as `colored_schedule` packs it."""
    return colored_schedule(dict(zip(lines, color_lines(lines))))


def pairwise_schedule_violations(t, schedule):
    """Schedule check one measurement at a time, over an unordered set of
    required pairs: the oracle for `schedule_violations`, whose findings,
    as a sorted list, equal these."""
    problems = []
    expected = 2 * t.max_degree
    if len(schedule.slots) != expected:
        problems.append(f"{len(schedule.slots)} slots, expected {expected}")
    counts = {}
    for i, slot in enumerate(schedule.slots):
        busy = set()
        for tx, rx in slot:
            for antenna in (tx, rx):
                if antenna in busy:
                    problems.append(f"antenna {antenna} used twice in slot {i}")
                busy.add(antenna)
            counts[(tx, rx)] = counts.get((tx, rx), 0) + 1
    required = set(t.directed_pairs)
    for pair in required:
        if counts.get(pair, 0) != 1:
            problems.append(
                f"measurement {pair} scheduled {counts.get(pair, 0)} times")
    for pair in counts:
        if pair not in required:
            problems.append(f"measurement {pair} is not on any line")
    return sorted(problems)


def labelled_trees(m, reference):
    """Every labeled tree on 1..m, decoded one sequence at a time, in
    sequence order."""
    for seq in itertools.product(range(1, m + 1), repeat=m - 2):
        yield from_edges(m, reference, naive_pruefer_edges(seq, m))


def random_tree(rng, m, reference=None):
    """Uniform random labeled tree, validated through the public API."""
    if reference is None:
        reference = int(rng.integers(1, m + 1))
    seq = [int(x) for x in rng.integers(1, m + 1, size=max(0, m - 2))]
    return from_edges(m, reference, naive_pruefer_edges(seq, m))


@st.composite
def trees(draw, max_m=20, min_m=2):
    """Hypothesis strategy: a labeled tree on min_m..max_m antennas with
    any reference, drawn as its sequence code, so failures shrink."""
    m = draw(st.integers(min_m, max_m))
    reference = draw(st.integers(1, m))
    seq = draw(st.lists(st.integers(1, m), min_size=m - 2, max_size=m - 2))
    return from_edges(m, reference, naive_pruefer_edges(seq, m))


#: A 12-antenna wiring read as a `file:` topology, whose sweep CSV and
#: schedule JSON bytes are pinned.
PINNED_WIRING = {"m": 12, "reference": 5,
                 "edges": [[1, 5], [2, 5], [3, 2], [4, 2], [6, 5], [7, 6],
                           [8, 7], [9, 3], [10, 9], [11, 6], [12, 1]]}


def walk_lines(t):
    """A wiring's (parent, child) lines in the order of its walk from the
    reference, as `measurement_schedule` colors them."""
    return [line for level in t.levels for line in level]


def hop_distances(edges, m, reference):
    """Plain breadth-first hop counts, independent of the library's walk."""
    adjacency = {k: [] for k in range(1, m + 1)}
    for p, q in edges:
        adjacency[p].append(q)
        adjacency[q].append(p)
    dist = {reference: 0}
    queue = deque([reference])
    while queue:
        node = queue.popleft()
        for other in adjacency[node]:
            if other not in dist:
                dist[other] = dist[node] + 1
                queue.append(other)
    return dist


def random_scenario(rng, allow_zero_noise=False):
    """Scenario with random amplitudes, complex line gain and noise power."""
    noise = 0.0 if allow_zero_noise else float(rng.uniform(0.05, 5.0))
    h = complex(rng.normal(), rng.normal())
    while h == 0:
        h = complex(rng.normal(), rng.normal())
    return ScenarioParams(
        line_gain=h,
        noise_variance=noise,
        tx_amplitude=float(rng.uniform(0.5, 2.0)),
        rx_amplitude=float(rng.uniform(0.5, 2.0)),
        slot_duration=1.0,
    )


def random_gains(rng, m, s):
    """Gains with the scenario's nominal amplitudes and random phases."""
    return RfGains(
        alpha=s.tx_amplitude * np.exp(1j * rng.uniform(-np.pi, np.pi, m)),
        beta=s.rx_amplitude * np.exp(1j * rng.uniform(-np.pi, np.pi, m)),
    )


def collapsed_draw(t, gains, s, repetitions, seed):
    """The collapsed observations of a gain batch, drawn as the sweep
    draws them, in one block of noise variance noise_variance /
    repetitions: `draw_noise` and then `add_gain_products` into rows of
    a larger C-contiguous buffer, working in the prefix of a larger
    scratch area, both filled with NaN first. Returns the (trials,
    2(m-1)) rows, a view into the buffer."""
    trials, pairs = len(gains), 2 * (t.m - 1)
    size = 2 * trials * pairs
    observed = np.full((trials + 2, pairs), np.nan + 0j)[1:-1]
    scratch = np.full(size + 3, np.nan + 0j)
    blocks = [(trials, seed, s.noise_variance / repetitions)]
    draw_noise(blocks, observed)
    return add_gain_products(t, gains, s, blocks, observed, scratch[:size])


def eigh_inverse_diagonal(entries):
    """Diagonal of a Hermitian matrix's inverse by dense `eigh`: the test
    oracle for the numeric bound's leaf-first elimination."""
    lam, vec = np.linalg.eigh(entries)
    return (np.abs(vec) ** 2) @ (1.0 / lam)


def dense_entries(j):
    """The dense 2n x 2n matrix that a `FisherMatrix` stores as its
    diagonal and one coupling per ordered pair of wired antennas."""
    dense = np.diag(j.diagonal.astype(complex))
    rows, cols = j.plan.rows, j.plan.cols
    dense[rows, cols] = j.couplings
    dense[cols, rows] = j.couplings.conj()
    return dense


def check_leaf_first(steps, rows, cols):
    """Assert that `steps`, (leaf, into, coupling) triples, take apart
    the forest whose coupling e joins rows `rows[e]` and `cols[e]` leaf
    first: every coupling once, along its own ends, and no row met again
    once eliminated, so each leaf has no other coupling left."""
    assert sorted(e for *_, e in steps) == list(range(len(rows)))
    eliminated = set()
    for v, p, e in steps:
        assert {v, p} == {int(rows[e]), int(cols[e])}
        assert v not in eliminated and p not in eliminated
        eliminated.add(v)


def loop_fisher_entries(m, reference, edges, gains, s):
    """Dense information matrix assembled antenna by antenna, the
    reference for the vectorised assembly."""
    ordinary = [k for k in range(1, m + 1) if k != reference]
    n = m - 1
    pos = {antenna: i for i, antenna in enumerate(ordinary)}
    linked = {k: [] for k in range(1, m + 1)}
    for p, q in edges:
        linked[p].append(q)
        linked[q].append(p)
    alpha, beta = gains.alpha, gains.beta
    entries = np.zeros((2 * n, 2 * n), dtype=complex)
    for i, antenna in enumerate(ordinary):
        entries[i, i] = sum(abs(beta[k - 1]) ** 2 for k in linked[antenna])
        entries[n + i, n + i] = sum(abs(alpha[k - 1]) ** 2
                                    for k in linked[antenna])
        for k in linked[antenna]:
            if k != reference:
                entries[n + i, pos[k]] = beta[antenna - 1] * np.conj(
                    alpha[k - 1])
    entries[:n, n:] = entries[n:, :n].conj().T
    return entries * (abs(s.line_gain) ** 2 / s.noise_variance)


def shape_topology(shape, reference):
    """The representative wiring of an enumerated shape: the root labeled
    `reference` and the other nodes, in preorder, the ordinary antennas
    in ascending order, so that at reference 1 the path is
    `make_daisy(m, 1)`. Each node's parent is the last node before it one
    level up; the lines are built from those alone and validated."""
    m = len(shape.levels)
    labels = [reference] + [k for k in range(1, m + 1) if k != reference]
    last = {}  # by level: the last node seen there
    lines = []
    for node, level in enumerate(shape.levels):
        if node:
            lines.append((labels[last[level - 1]], labels[node]))
        last[level] = node
    return from_edges(m, reference, lines)


def rooted_form(t):
    """Canonical string of a tree's shape rooted at its reference: each
    node is its children's forms, sorted, in parentheses."""
    def form(node, parent):
        return "(" + "".join(sorted(form(k, node) for k in t.neighbors[node]
                                    if k != parent)) + ")"
    return form(t.reference, None)


# The verify drivers as they were before trees were counted by rooted
# shape and schedules checked in array passes: one pass over every labeled
# tree, adding 1 per tree, with the per-tree oracles above. They are the
# oracle for the shape-weighted counts and the array schedule check.

def labelled_star_optimality(m, reference):
    distribution = {}
    for tree in labelled_trees(m, reference):
        mean = tree.mean_distance
        distribution[mean] = distribution.get(mean, 0) + 1
    best = min(distribution)
    minimizers = distribution[best]
    passed = best == 1 and minimizers == 1
    return StarOptimalityReport(m, reference, sum(distribution.values()),
                                best, minimizers, distribution, passed)


def labelled_time_bounds(m):
    low, high = 4, 2 * (m - 1)
    degrees = {}
    schedules_valid = True
    for tree in labelled_trees(m, 1):
        degree = tree.max_degree
        degrees[degree] = degrees.get(degree, 0) + 1
        if pairwise_schedule_violations(tree, greedy_schedule(tree, 1.0)):
            schedules_valid = False
    min_slots, max_slots = 2 * min(degrees), 2 * max(degrees)
    chain_count = degrees.get(2, 0)
    star_count = degrees.get(m - 1, 0)
    passed = (schedules_valid and min_slots == low and max_slots == high
              and chain_count == math.factorial(m) // 2 and star_count == m)
    return TimeBoundsReport(m, sum(degrees.values()), min_slots, max_slots,
                            chain_count, star_count, schedules_valid, passed)


def labelled_daisy_optimality(m_values):
    entries = []
    for m in m_values:
        ratio = daisy_vs_star_ratio(m)
        beats = ratio < 1
        f_best, best_mean = optimal_reference(m)
        verdicts = {}
        for tree in labelled_trees(m, f_best):
            degree = tree.max_degree
            mean = tree.mean_distance
            objective = mean / ((m - 1) // degree)
            chains, star = verdicts.get(objective, (True, False))
            verdicts[objective] = (chains and degree == 2 and mean == best_mean,
                                   star or mean == 1)
        brute_min = min(verdicts)
        chains, star = verdicts[brute_min]
        brute_matches = brute_min == (ratio if m >= 5 else 1)
        minimizers_ok = chains if m >= 5 else star
        ok = beats == (m >= 5) and brute_matches and minimizers_ok
        entries.append(DaisyOptimalityEntry(m, ratio, beats, True, brute_min,
                                            brute_matches, minimizers_ok, ok))
    return DaisyOptimalityReport(tuple(entries),
                                 all(e.passed for e in entries))
