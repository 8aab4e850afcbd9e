"""Spanning-tree interconnection layouts for antenna arrays.

Antennas are labeled 1..m and one of them is the designated reference.
With a budget of m-1 transmission lines, every ordinary antenna can reach
the reference exactly when the lines form a spanning tree, so `Topology`
enforces the tree property at construction time.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Iterable, Iterator

import numpy as np

from .errors import (
    DuplicateEdge,
    IndexOutOfRange,
    NotEffective,
    ScenarioError,
    SelfLoop,
    TopologyError,
    WrongEdgeCount,
    is_finite,
    is_integer,
    json_fields,
)

Edge = tuple[int, int]

#: Largest antenna count accepted by exhaustive enumeration (m**(m-2) trees).
ENUMERATION_CAP = 8


@dataclass(frozen=True, eq=False)
class PropagationLevel:
    """The lines from antennas at hop distance d to those at d+1.

    `parents` and `children` select zero-based antenna indices in
    breadth-first edge order: a slice where the indices are evenly spaced
    (a one-antenna slice stands for a repeated parent and broadcasts),
    else an index array. `lines` selects these lines, in the same order,
    in the plan's reordered measurements.
    """

    parents: slice | np.ndarray
    children: slice | np.ndarray
    lines: slice


@dataclass(frozen=True, eq=False)
class PropagationPlan:
    """Breadth-first levels from the reference.

    `order` lists rows of `Topology.directed_pairs` two per rooted line,
    child-to-parent then parent-to-child, lines in breadth-first order,
    so that each level's measurements form one contiguous block;
    `parents` holds every antenna with children (zero-based), in the
    order a walk first divides by it.
    """

    levels: tuple[PropagationLevel, ...]
    order: np.ndarray
    parents: np.ndarray


def _index_or_slice(indices: list[int]) -> slice | np.ndarray:
    """Basic indexing for evenly spaced indices, an index array otherwise.

    A slice reads a view and writes in place, where an index array copies
    on every read; repeated indices become a one-element slice, which
    broadcasts to the same values when read. An index array is read-only.
    """
    first, last = indices[0], indices[-1]
    if all(i == first for i in indices):
        return slice(first, first + 1)
    step = indices[1] - first
    if step > 0 and indices == list(range(first, last + 1, step)):
        return slice(first, last + 1, step)
    return _read_only(np.array(indices))


def _read_only(a: np.ndarray) -> np.ndarray:
    """`a`, marked read-only: the index arrays a wiring caches are shared
    by every caller of `make_star` and `make_daisy` with the same
    arguments, so a write into one would change every later use."""
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class Topology:
    """A spanning tree on antennas 1..m with a designated reference antenna.

    Edges are stored as sorted (low, high) pairs in a canonical order, so
    two topologies with the same wiring compare equal regardless of how
    their edges were listed. The arrays its properties cache are
    read-only.
    """

    m: int
    reference: int
    edges: tuple[Edge, ...]

    def __post_init__(self) -> None:
        _check_m_reference(self.m, self.reference)
        canonical = _check_edges(self.m, self.edges)
        if len(canonical) != self.m - 1:
            raise WrongEdgeCount(
                f"{len(canonical)} lines for m={self.m}, expected {self.m - 1}")
        object.__setattr__(self, "edges", tuple(sorted(canonical)))
        # m-1 edges and full reachability from the reference imply a tree.
        if sum(map(len, self.levels)) != self.m - 1:
            raise NotEffective()

    @cached_property
    def neighbors(self) -> tuple[tuple[int, ...], ...]:
        """Antennas directly wired to each antenna, ascending, by label
        (entry 0, no antenna, is empty); immutable, as a wiring may be
        shared.

        The edges are sorted (low, high) pairs, so each antenna meets its
        lower neighbours, as the high end, before its higher ones, and
        each group in ascending order: no list needs sorting.
        """
        adj: list[list[int]] = [[] for _ in range(self.m + 1)]
        for p, q in self.edges:
            adj[p].append(q)
            adj[q].append(p)
        return tuple(map(tuple, adj))

    @cached_property
    def ordinary(self) -> tuple[int, ...]:
        """All antennas except the reference, ascending."""
        return tuple(k for k in range(1, self.m + 1) if k != self.reference)

    @cached_property
    def levels(self) -> tuple[tuple[Edge, ...], ...]:
        """Breadth-first (parent, child) lines from the reference; level d
        holds those into the antennas d+1 hops away. A child is marked
        found when first reached, so no antenna is counted twice."""
        neighbors = self.neighbors
        found = [False] * (self.m + 1)  # by label
        found[self.reference] = True
        levels: list[tuple[Edge, ...]] = []
        lines = [(0, self.reference)]  # the walk enters the reference
        while lines:
            above, lines = lines, []
            for _, node in above:
                for other in neighbors[node]:
                    if not found[other]:
                        found[other] = True
                        lines.append((node, other))
            if lines:
                levels.append(tuple(lines))
        return tuple(levels)

    @cached_property
    def directed_pairs(self) -> tuple[Edge, ...]:
        """Every (transmitter, receiver) measurement, both directions of
        every line, in lexicographic order."""
        pairs = list(self.edges) + [(q, p) for p, q in self.edges]
        return tuple(sorted(pairs))

    @cached_property
    def pair_endpoints(self) -> tuple[np.ndarray, np.ndarray]:
        """Zero-based (transmitter, receiver) index arrays of
        `directed_pairs`."""
        tx, rx = np.array(self.directed_pairs).T - 1
        return _read_only(tx), _read_only(rx)

    @cached_property
    def propagation_plan(self) -> PropagationPlan:
        """The walk's levels as index arrays."""
        row = {pair: i for i, pair in enumerate(self.directed_pairs)}
        levels = []
        order: list[int] = []
        for level in self.levels:
            start = len(order) // 2
            for p, c in level:
                order += [row[(c, p)], row[(p, c)]]
            levels.append(PropagationLevel(
                parents=_index_or_slice([p - 1 for p, _ in level]),
                children=_index_or_slice([c - 1 for _, c in level]),
                lines=slice(start, start + len(level))))
        parents = np.array(list(dict.fromkeys(
            p - 1 for level in self.levels for p, _ in level)))
        return PropagationPlan(tuple(levels), _read_only(np.array(order)),
                               _read_only(parents))


@dataclass(frozen=True)
class DistanceProfile:
    """Hop count from the reference to every ordinary antenna.

    `antennas` and `distances` run over the ordinary antennas in ascending
    index order; `mean` is kept as an exact rational so that closed-form
    comparisons need no tolerance.
    """

    antennas: tuple[int, ...]
    distances: tuple[int, ...]
    mean: Fraction


@dataclass(frozen=True)
class Schedule:
    """Slot-by-slot plan that sounds both directions of every line.

    Each slot is a set of simultaneous (transmitter, receiver)
    measurements in which no antenna takes part twice, matching the single
    transceiver chain per antenna and half-duplex operation.
    """

    slots: tuple[tuple[Edge, ...], ...]
    slot_duration: float


def _check_m_reference(m: int, reference: int) -> None:
    if m < 2:
        raise ValueError(f"need at least 2 antennas, got m={m}")
    if not 1 <= reference <= m:
        raise IndexOutOfRange(f"reference {reference} outside 1..{m}")


def _check_slot_duration(seconds: float) -> None:
    if not is_finite(seconds) or seconds <= 0:
        raise ScenarioError(
            f"slot duration must be a positive finite number, got {seconds}")


def _check_enumerable(m: int, reference: int, cap: int) -> None:
    _check_m_reference(m, reference)
    if m > cap:
        raise ValueError(f"m={m} exceeds the enumeration cap {cap}")


def _check_edges(m: int, edges: Iterable[Edge]) -> list[Edge]:
    """The lines as (low, high) pairs, in the order given.

    Raises SelfLoop, IndexOutOfRange or DuplicateEdge at the first line
    that wires an antenna to itself, leaves 1..m or repeats a line.
    """
    seen: set[Edge] = set()
    canonical: list[Edge] = []
    for p, q in edges:
        if p == q:
            raise SelfLoop(f"antenna {p} wired to itself")
        if not (1 <= p <= m and 1 <= q <= m):
            raise IndexOutOfRange(f"line ({p},{q}) outside 1..{m}")
        edge = (p, q) if p < q else (q, p)
        if edge in seen:
            raise DuplicateEdge(f"line ({edge[0]},{edge[1]}) listed twice")
        seen.add(edge)
        canonical.append(edge)
    return canonical


#: Named wirings kept built, with their walk and propagation plan: a
#: `Topology` is immutable, so each derived fact is computed once per
#: process. Typed, so that a float or bool argument is not served the
#: wiring built for the equal int.
_named_wiring = lru_cache(maxsize=16, typed=True)


@_named_wiring
def make_star(m: int, reference: int) -> Topology:
    """Wire every ordinary antenna directly to the reference."""
    return Topology(
        m, reference,
        tuple((reference, k) for k in range(1, m + 1) if k != reference))


@_named_wiring
def make_daisy(m: int, reference: int) -> Topology:
    """Wire the antennas into the single chain 1-2-...-m.

    Labels are positions along the chain; the reference may sit anywhere
    on it.
    """
    return Topology(m, reference, tuple((k, k + 1) for k in range(1, m)))


def from_edges(m: int, reference: int,
               edges: Iterable[Iterable[int]]) -> Topology:
    """Validate an arbitrary wiring description, such as one read from JSON.

    Raises TopologyError unless `m`, `reference` and both ends of every
    line are integers (bools and floats are not), then SelfLoop,
    IndexOutOfRange, DuplicateEdge, WrongEdgeCount or NotEffective
    depending on what is wrong with the wiring.
    """
    try:
        pairs = tuple((p, q) for p, q in edges)
    except (TypeError, ValueError):
        raise TopologyError(
            f"edges must be a list of [p, q] pairs, got {edges!r}") from None
    for name, value in (("m", m), ("reference", reference)):
        if not is_integer(value):
            raise TopologyError(f"{name} must be an integer, got {value!r}")
    for p, q in pairs:
        if not (is_integer(p) and is_integer(q)):
            raise TopologyError(
                f"line ends must be integers, got {[p, q]!r}")
    return Topology(int(m), int(reference),
                    tuple((int(p), int(q)) for p, q in pairs))


def calibration_distances(t: Topology) -> DistanceProfile:
    """Hop count of each ordinary antenna's unique path to the reference."""
    hops = [0] * (t.m + 1)  # by label; 0 is no antenna
    for d, level in enumerate(t.levels, 1):
        for _, child in level:
            hops[child] = d
    del hops[t.reference]
    distances = tuple(hops[1:])
    return DistanceProfile(t.ordinary, distances,
                           Fraction(sum(distances), t.m - 1))


def max_degree(t: Topology) -> int:
    """Largest number of lines meeting at any antenna."""
    return max(map(len, t.neighbors))


def measurement_schedule(t: Topology, slot_duration: float) -> Schedule:
    """Pack the 2(m-1) sounding measurements into 2*max_degree slots.

    The schedule of `schedule_trees` for this one tree, rooted at its
    reference by `root_trees` as a batch of one, with each slot's
    measurements in ascending order: the rooting and coloring that
    `verify --prop 2` checks on every labeled tree.
    """
    _check_slot_duration(slot_duration)
    arrays = schedule_trees(*root_trees(np.array([t.edges]), t.reference))
    tx, rx, slot = arrays.tx[0], arrays.rx[0], arrays.slot[0]
    order = np.lexsort((rx, tx, slot))
    pairs = list(zip(tx[order].tolist(), rx[order].tolist()))
    bounds = np.searchsorted(slot[order], np.arange(arrays.slots[0] + 1))
    slots = tuple(tuple(pairs[lo:hi])
                  for lo, hi in zip(bounds[:-1], bounds[1:]))
    return Schedule(slots, float(slot_duration))


def schedule_violations(t: Topology, schedule: Schedule) -> list[str]:
    """Check a schedule against the wiring; an empty list means valid.

    The findings of `schedule_faults` for this one tree, in order: the
    slot count, every repeated use of an antenna in a slot, every line
    direction not scheduled exactly once (ascending), every measurement
    on no line (in order of first use).
    """
    pairs = [pair for slot in schedule.slots for pair in slot]
    tx, rx = np.array(pairs, dtype=int).reshape(-1, 2).T
    slot = np.repeat(np.arange(len(schedule.slots)),
                     [len(s) for s in schedule.slots])
    faults = schedule_faults(np.array([t.edges]), ScheduleArrays(
        tx[None], rx[None], slot[None], np.array([len(schedule.slots)])))
    problems: list[str] = []
    if faults.wrong_slot_count[0]:
        problems.append(f"{len(schedule.slots)} slots, "
                        f"expected {faults.expected_slots[0]}")
    for i, end in zip(*np.nonzero(faults.reused[0])):
        problems.append(f"antenna {pairs[i][end]} used twice "
                        f"in slot {slot[i]}")
    required = map(tuple, faults.required[0].tolist())
    for pair, count in zip(required, faults.counts[0].tolist()):
        if count != 1:
            problems.append(f"measurement {pair} scheduled {count} times")
    for pair in dict.fromkeys(tuple(pairs[i])
                              for i in np.flatnonzero(faults.off_line[0])):
        problems.append(f"measurement {pair} is not on any line")
    return problems


@dataclass(frozen=True, eq=False)
class ScheduleArrays:
    """The schedules of n trees: measurement j of tree i sends from
    antenna tx[i, j] to rx[i, j] (labels 1..m) in slot slot[i, j], and
    tree i takes slots[i] slots."""

    tx: np.ndarray
    rx: np.ndarray
    slot: np.ndarray
    slots: np.ndarray


def schedule_trees(parent: np.ndarray, depth: np.ndarray) -> ScheduleArrays:
    """Greedy line coloring of rooted trees, as parallel schedules.

    `parent` and `depth` are (n, m) arrays over the zero-based antennas
    as `root_trees` returns them. The line to the child of rank k among
    its siblings (ascending labels) gets color k below the color of its
    parent's own line and k+1 from that color on; the root's children
    take colors 0, 1, ... That needs exactly max_degree colors on a tree.
    Colors go down the trees one depth at a time, for all rows at once;
    sibling ranks come from sorting each row by parent, so a tree of m
    antennas costs O(m log m). Color c fills slot 2c parent-to-child and
    slot 2c+1 child-to-parent. Every row must have exactly one root.
    """
    n, m = parent.shape
    offsets = m * np.arange(n)[:, None]
    flat_parent = (parent + offsets).ravel()
    # siblings sit next to each other, labels ascending, once each row is
    # sorted stably by parent; a rank is the distance to the first of them
    by_parent = np.argsort(parent, axis=1, kind="stable") + offsets
    grouped = flat_parent[by_parent]
    columns = np.arange(m)
    first = np.where(grouped != np.roll(grouped, 1, axis=1), columns, 0)
    rank = np.empty(n * m, dtype=int)
    rank[by_parent] = columns - np.maximum.accumulate(first, axis=1)
    color = np.full(n * m, m)  # above every rank: no child skips a root
    flat_depth = depth.ravel()
    by_depth = np.argsort(flat_depth, kind="stable")
    levels = np.searchsorted(flat_depth[by_depth],
                             np.arange(1, flat_depth.max() + 2))
    for lo, hi in zip(levels[:-1], levels[1:]):
        nodes = by_depth[lo:hi]
        k = rank[nodes]
        color[nodes] = k + (k >= color[flat_parent[nodes]])
    child = np.flatnonzero(parent.ravel() >= 0)
    above = parent.ravel()[child].reshape(n, m - 1) + 1
    below = (child % m).reshape(n, m - 1) + 1
    colors = color[child].reshape(n, m - 1)
    return ScheduleArrays(
        tx=np.concatenate([above, below], axis=1),
        rx=np.concatenate([below, above], axis=1),
        slot=np.concatenate([2 * colors, 2 * colors + 1], axis=1),
        slots=2 * (colors.max(axis=1) + 1))


@dataclass(frozen=True, eq=False)
class ScheduleFaults:
    """What `schedule_faults` found, per tree i:

    - `wrong_slot_count[i]`: the slot count is not `expected_slots[i]`,
      twice the largest degree of the lines;
    - `reused[i, j, e]`: end e (0 sender, 1 receiver) of measurement j
      uses an antenna that an earlier measurement uses in the same slot;
    - `counts[i, r]`: how often line direction `required[i, r]` is
      scheduled, over both directions of every line in ascending order;
    - `off_line[i, j]`: measurement j is on no line.
    """

    expected_slots: np.ndarray
    wrong_slot_count: np.ndarray
    reused: np.ndarray
    required: np.ndarray
    counts: np.ndarray
    off_line: np.ndarray

    @property
    def flagged(self) -> np.ndarray:
        """Trees with any fault."""
        return (self.wrong_slot_count | self.reused.any(axis=(1, 2))
                | (self.counts != 1).any(axis=1) | self.off_line.any(axis=1))


def schedule_faults(edges: np.ndarray, schedules: ScheduleArrays
                    ) -> ScheduleFaults:
    """Check the schedules of n trees against their lines at once.

    `edges` is an (n, m-1, 2) array of the trees' lines over 1..m, as
    they were read and not as they were rooted, so that a schedule built
    from a wrongly rooted tree fails. Measurements are compared as
    integer keys of (tree, slot, antenna) and (tree, sender, receiver):
    one stable sort finds the repeated uses, and one sorted search finds
    each scheduled pair among both directions of every line.
    """
    n, lines = edges.shape[:2]
    m = lines + 1
    tx, rx, slot = schedules.tx, schedules.rx, schedules.slot
    rows = np.arange(n)[:, None]
    degree = np.bincount((edges.reshape(n, -1) + (m + 1) * rows).ravel(),
                         minlength=n * (m + 1)).reshape(n, m + 1)
    expected = 2 * degree.max(axis=1)
    # keys over every label in sight, so that a stray antenna stays apart
    low = min(1, tx.min(initial=1), rx.min(initial=1))
    base = max(m, tx.max(initial=m), rx.max(initial=m)) - low + 1
    ends = np.stack([tx, rx], axis=2) - low
    uses = (((rows * (slot.max(initial=0) + 1) + slot)[..., None]) * base
            + ends).ravel()
    order = np.argsort(uses, kind="stable")  # earlier uses first
    ordered = uses[order]
    reused = np.zeros(uses.size, dtype=bool)
    reused[order[1:]] = ordered[1:] == ordered[:-1]

    def pair_keys(senders, receivers):
        return ((rows * base + senders - low) * base + receivers - low).ravel()

    directions = np.concatenate([edges, edges[..., ::-1]], axis=1)
    wanted = np.sort(pair_keys(directions[..., 0], directions[..., 1]))
    scheduled = pair_keys(tx, rx)
    at = np.searchsorted(wanted, scheduled).clip(max=wanted.size - 1)
    on_line = wanted[at] == scheduled
    pair = wanted % (base * base)
    return ScheduleFaults(
        expected_slots=expected,
        wrong_slot_count=schedules.slots != expected,
        reused=reused.reshape(ends.shape),
        required=(np.stack([pair // base, pair % base], axis=1)
                  + low).reshape(n, -1, 2),
        counts=np.bincount(at[on_line], minlength=wanted.size
                           ).reshape(n, -1),
        off_line=~on_line.reshape(tx.shape))


#: Most sequences `pruefer_blocks` puts in one block.
PRUEFER_BLOCK = 512


def pruefer_blocks(m: int, cap: int = ENUMERATION_CAP) -> Iterator[np.ndarray]:
    """Every sequence of length m-2 over 1..m, in `itertools.product`
    order, as (k, m-2) arrays of at most `PRUEFER_BLOCK` rows, so that
    memory stays bounded as m grows. Row i of the whole run is i written
    in base m, most significant digit first, each digit plus one."""
    _check_enumerable(m, 1, cap)
    count = m ** (m - 2)
    powers = m ** np.arange(m - 3, -1, -1)
    for start in range(0, count, PRUEFER_BLOCK):
        codes = np.arange(start, min(start + PRUEFER_BLOCK, count))
        yield codes[:, None] // powers % m + 1


def enumerate_shapes(m: int, reference: int = 1, cap: int = ENUMERATION_CAP
                     ) -> Iterator[tuple[Topology, int]]:
    """Yield one tree per rooted shape, rooted at `reference`, with its
    weight: the number of labeled trees of that shape, (m-1)!/|Aut|.

    A shape is a canonical level sequence, the depths of its nodes in
    preorder with every node's subtrees in non-increasing order. The
    successor rule of Beyer and Hedetniemi ("Constant time generation of
    rooted trees", SIAM J. Comput. 9(4), 1980) runs through all of them,
    OEIS A000081(m), from the path down to the star; their weights sum to
    m**(m-2). |Aut| counts the automorphisms that fix the root. Each
    representative labels the root `reference` and the other nodes, in
    preorder, with the ordinary antennas in ascending order, so at
    reference 1 the path is `make_daisy(m, 1)`. `cap` bounds m as it does
    for `pruefer_blocks`.
    """
    _check_enumerable(m, reference, cap)
    labels = [reference] + [k for k in range(1, m + 1) if k != reference]
    labelings = math.factorial(m - 1)
    levels = list(range(m))
    while True:
        edges, automorphisms = _read_levels(levels, labels)
        yield Topology(m, reference, edges), labelings // automorphisms
        # successor: from the last node p below level 1 on, repeat the
        # sequence that starts at p's parent q
        p = next((i for i in range(m - 1, 0, -1) if levels[i] > 1), None)
        if p is None:  # the star comes last
            return
        q = next(i for i in range(p - 1, 0, -1) if levels[i] == levels[p] - 1)
        for i in range(p, m):
            levels[i] = levels[i - p + q]


def _read_levels(levels: list[int], labels: list[int]
                 ) -> tuple[list[Edge], int]:
    """The labeled lines of a level sequence, and its automorphisms that
    fix the root.

    A node's parent is the last node before it one level up, and its
    subtree runs up to the next node on its level or above. |Aut| is the
    product, over every node, of the factorials of how often each child
    subtree repeats among its siblings.
    """
    m = len(levels)
    parent = [0] * m
    end = [m] * m
    open_nodes: list[int] = []
    for node, level in enumerate(levels):
        while open_nodes and levels[open_nodes[-1]] >= level:
            end[open_nodes.pop()] = node
        if open_nodes:
            parent[node] = open_nodes[-1]
        open_nodes.append(node)
    twins = Counter((parent[node], tuple(levels[node:end[node]]))
                    for node in range(1, m))
    automorphisms = 1
    for count in twins.values():
        automorphisms *= math.factorial(count)
    edges = [(labels[parent[node]], labels[node]) for node in range(1, m)]
    return edges, automorphisms


def decode_pruefer_batch(codes: np.ndarray, m: int) -> np.ndarray:
    """Lines of the labeled trees encoded by the rows of `codes`, an
    (n, m-2) array over 1..m, as an (n, m-1, 2) array.

    Step i joins the smallest leaf to symbol i and drops that leaf, for
    all rows at once; a leaf is an antenna of degree one that is still
    in the tree, and the smallest is its row's first such column. The
    last line joins the two antennas left, ascending: the largest label
    m is never the smallest of two or more leaves, so it is one of them.
    """
    if (codes.ndim != 2 or codes.shape[1] != m - 2
            or (codes.size and not 1 <= codes.min() <= codes.max() <= m)):
        raise ValueError(f"codes of shape {codes.shape} do not encode "
                         f"trees on 1..{m}")
    n = len(codes)
    rows = np.arange(n)
    # column 0 is no antenna; a degree is 1 + occurrences in the code
    degree = np.bincount((codes + (m + 1) * rows[:, None]).ravel(),
                         minlength=n * (m + 1)).reshape(n, m + 1) + 1
    degree[:, 0] = 0
    edges = np.empty((n, m - 1, 2), dtype=int)
    edges[:, :-1, 1] = codes
    for i in range(m - 2):
        leaf = (degree == 1).argmax(axis=1)
        edges[:, i, 0] = leaf
        degree[rows, leaf] = 0
        degree[rows, codes[:, i]] -= 1
    edges[:, -1, 0] = (degree == 1).argmax(axis=1)
    edges[:, -1, 1] = m
    return edges


def root_trees(edges: np.ndarray, reference: int
               ) -> tuple[np.ndarray, np.ndarray]:
    """Parents and depths of n trees rooted at `reference`.

    `edges` is an (n, m-1, 2) array of lines over 1..m. Returns two
    (n, m) arrays over the zero-based antennas: each antenna's parent
    (-1 at the reference) and its hop count from the reference. Depth
    d+1 is reached from depth d in every row at once, and each line
    direction is looked at once, when its sender's depth comes up; the
    walk stops at the first depth from which no antenna is reached.
    Raises NotEffective unless every row connects every antenna to the
    reference, which m-1 lines do exactly when they form a spanning tree.
    """
    n, lines = edges.shape[:2]
    m = lines + 1
    # both directions of every line, as flat indices into (n, m)
    ends = edges - 1 + m * np.arange(n)[:, None, None]
    senders = np.concatenate([ends[..., 0], ends[..., 1]], axis=None)
    receivers = np.concatenate([ends[..., 1], ends[..., 0]], axis=None)
    parent = np.full(n * m, -1)
    depth = np.full(n * m, -1)
    depth[reference - 1::m] = 0
    for d in range(m - 1):
        due = depth[senders] == d
        child, above = receivers[due], senders[due]
        fresh = depth[child] < 0  # not the line back up
        if not fresh.any():  # no antenna at depth d+1, nor further down
            break
        depth[child[fresh]] = d + 1
        parent[child[fresh]] = above[fresh] % m
        senders, receivers = senders[~due], receivers[~due]
    if (depth < 0).any():
        raise NotEffective()
    return parent.reshape(n, m), depth.reshape(n, m)


def topology_to_dict(t: Topology) -> dict:
    """JSON-ready description: {"m", "reference", "edges"}."""
    return {"m": t.m, "reference": t.reference,
            "edges": [list(edge) for edge in t.edges]}


def topology_from_dict(data: dict) -> Topology:
    """Inverse of `topology_to_dict`, with full validation."""
    return from_edges(*json_fields(data, ("m", "reference", "edges"),
                                   "a topology", TopologyError))


def schedule_to_dict(schedule: Schedule) -> dict:
    """JSON-ready description: {"slot_duration", "slots"}."""
    return {"slot_duration": schedule.slot_duration,
            "slots": [[list(pair) for pair in slot] for slot in schedule.slots]}
