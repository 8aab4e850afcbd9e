"""Spanning-tree interconnection layouts for antenna arrays.

Antennas are labeled 1..m and one of them is the designated reference.
With a budget of m-1 transmission lines, every ordinary antenna can reach
the reference exactly when the lines form a spanning tree, so `Topology`
enforces the tree property at construction time.
"""

from __future__ import annotations

import heapq
import itertools
import math
from collections import Counter, deque
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Iterator

import numpy as np

from .errors import (
    DuplicateEdge,
    IndexOutOfRange,
    NotEffective,
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
    broadcasts to the same values when read.
    """
    first, last = indices[0], indices[-1]
    if all(i == first for i in indices):
        return slice(first, first + 1)
    step = indices[1] - first
    if step > 0 and indices == list(range(first, last + 1, step)):
        return slice(first, last + 1, step)
    return np.array(indices)


@dataclass(frozen=True)
class Topology:
    """A spanning tree on antennas 1..m with a designated reference antenna.

    Edges are stored as sorted (low, high) pairs in a canonical order, so
    two topologies with the same wiring compare equal regardless of how
    their edges were listed.
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
        if len(self.rooted_edges) != self.m - 1:
            raise NotEffective(
                "wiring does not connect every antenna to the reference")

    @cached_property
    def neighbors(self) -> dict[int, tuple[int, ...]]:
        """Antennas directly wired to each antenna, ascending."""
        adj: dict[int, list[int]] = {k: [] for k in range(1, self.m + 1)}
        for p, q in self.edges:
            adj[p].append(q)
            adj[q].append(p)
        return {k: tuple(sorted(v)) for k, v in adj.items()}

    @cached_property
    def ordinary(self) -> tuple[int, ...]:
        """All antennas except the reference, ascending."""
        return tuple(k for k in range(1, self.m + 1) if k != self.reference)

    @cached_property
    def rooted_edges(self) -> tuple[Edge, ...]:
        """(parent, child) pairs in breadth-first order from the reference."""
        found = {self.reference}
        order: list[Edge] = []
        queue = deque([self.reference])
        while queue:
            node = queue.popleft()
            for other in self.neighbors[node]:
                if other not in found:
                    found.add(other)
                    order.append((node, other))
                    queue.append(other)
        return tuple(order)

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
        return tx, rx

    @cached_property
    def propagation_plan(self) -> PropagationPlan:
        """Rooted edges grouped into breadth-first levels, as index arrays."""
        row = {pair: i for i, pair in enumerate(self.directed_pairs)}
        depth = {self.reference: 0}
        grouped: list[list[Edge]] = []
        for parent, child in self.rooted_edges:
            depth[child] = depth[parent] + 1
            if depth[child] > len(grouped):
                grouped.append([])
            grouped[-1].append((parent, child))
        levels = []
        order: list[int] = []
        for level in grouped:
            start = len(order) // 2
            for p, c in level:
                order += [row[(c, p)], row[(p, c)]]
            levels.append(PropagationLevel(
                parents=_index_or_slice([p - 1 for p, _ in level]),
                children=_index_or_slice([c - 1 for _, c in level]),
                lines=slice(start, start + len(level))))
        parents = np.array(list(dict.fromkeys(
            p - 1 for p, _ in self.rooted_edges)))
        return PropagationPlan(tuple(levels), np.array(order), parents)


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


def make_star(m: int, reference: int) -> Topology:
    """Wire every ordinary antenna directly to the reference."""
    return Topology(
        m, reference,
        tuple((reference, k) for k in range(1, m + 1) if k != reference))


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
    dist = {t.reference: 0}
    for parent, child in t.rooted_edges:
        dist[child] = dist[parent] + 1
    distances = tuple(dist[k] for k in t.ordinary)
    return DistanceProfile(t.ordinary, distances,
                           Fraction(sum(distances), t.m - 1))


def max_degree(t: Topology) -> int:
    """Largest number of lines meeting at any antenna."""
    return max(map(len, t.neighbors.values()))


def measurement_schedule(t: Topology, slot_duration: float) -> Schedule:
    """Pack the 2(m-1) sounding measurements into 2*max_degree slots.

    Lines are first colored so that no two lines sharing an antenna get
    the same color; a greedy parent-to-child pass needs exactly
    max_degree colors on a tree. Every color class then yields one slot
    per direction, parent-to-child first.
    """
    if not is_finite(slot_duration) or slot_duration <= 0:
        raise ValueError(f"slot duration must be a positive finite number, "
                         f"got {slot_duration}")
    children: dict[int, list[int]] = {}
    for parent, child in t.rooted_edges:
        children.setdefault(parent, []).append(child)
    color_classes: list[list[Edge]] = [[] for _ in range(max_degree(t))]
    parent_color: dict[int, int] = {}
    order = [t.reference] + [child for _, child in t.rooted_edges]
    for node in order:
        color = 0
        blocked = parent_color.get(node)
        for child in children.get(node, ()):
            if color == blocked:
                color += 1
            color_classes[color].append((node, child))
            parent_color[child] = color
            color += 1
    slots: list[tuple[Edge, ...]] = []
    for group in color_classes:
        slots.append(tuple(sorted(group)))
        slots.append(tuple(sorted((c, p) for p, c in group)))
    return Schedule(tuple(slots), float(slot_duration))


def schedule_violations(t: Topology, schedule: Schedule) -> list[str]:
    """Check a schedule against the wiring; an empty list means valid."""
    problems: list[str] = []
    expected = 2 * max_degree(t)
    if len(schedule.slots) != expected:
        problems.append(f"{len(schedule.slots)} slots, expected {expected}")
    counts: dict[Edge, int] = {}
    for i, slot in enumerate(schedule.slots):
        busy: set[int] = set()
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
    return problems


def enumerate_trees(m: int, reference: int = 1,
                    cap: int = ENUMERATION_CAP) -> Iterator[Topology]:
    """Yield every labeled tree on 1..m exactly once (m**(m-2) of them).

    Sequence decoding makes the enumeration exhaustive and duplicate
    free; `cap` bounds the super-exponential growth.
    """
    _check_m_reference(m, reference)
    if m > cap:
        raise ValueError(f"m={m} exceeds the enumeration cap {cap}")
    for seq in itertools.product(range(1, m + 1), repeat=m - 2):
        yield Topology(m, reference, decode_pruefer(seq, m))


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
    for `enumerate_trees`.
    """
    _check_m_reference(m, reference)
    if m > cap:
        raise ValueError(f"m={m} exceeds the enumeration cap {cap}")
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


def decode_pruefer(seq: Iterable[int], m: int) -> tuple[Edge, ...]:
    """Edges of the labeled tree encoded by a length m-2 sequence over 1..m."""
    seq = tuple(seq)
    if len(seq) != m - 2 or any(not 1 <= x <= m for x in seq):
        raise ValueError(f"sequence {seq} does not encode a tree on 1..{m}")
    degree = [1] * (m + 1)
    for x in seq:
        degree[x] += 1
    leaves = [k for k in range(1, m + 1) if degree[k] == 1]
    heapq.heapify(leaves)
    edges: list[Edge] = []
    for x in seq:
        leaf = heapq.heappop(leaves)
        edges.append((leaf, x))
        degree[x] -= 1
        if degree[x] == 1:
            heapq.heappush(leaves, x)
    edges.append((heapq.heappop(leaves), heapq.heappop(leaves)))
    return tuple(edges)


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
