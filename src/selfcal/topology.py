"""Spanning-tree interconnection layouts for antenna arrays.

Antennas are labeled 1..m and one of them is the designated reference.
With a budget of m-1 transmission lines, every ordinary antenna can reach
the reference exactly when the lines form a spanning tree, so `Topology`
enforces the tree property at construction time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Iterable, Iterator, NamedTuple

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

#: Largest antenna count accepted by exhaustive enumeration: the rooted
#: shapes that stand for all m**(m-2) labeled trees (115 at m=8).
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


@dataclass(frozen=True, eq=False)
class CouplingPlan:
    """Where the information matrix of a wiring takes its entries from.

    Rows 0..n-1 of that matrix (n = m-1) belong to the transmit gains of
    the ordinary antennas, ascending (`Topology.ordinary`), and rows
    n..2n-1 to their receive gains. Over both directions of every line
    that leaves an ordinary antenna, `at` is that antenna's index among
    the ordinary ones and `far` the zero-based antenna at the other end:
    the gains at `far` sum into the diagonal at `at`. Over the walk's
    lines between two ordinary antennas, deepest first, each line (p, c)
    gives two couplings: the receive gain at `here` and the transmit
    gain at `there` (both zero-based), first at p and c, then at c and
    p, fill the coupling (`rows[e]`, `cols[e]`). `steps[e]` eliminates
    coupling e as (the child's row, the parent's row, e): every deeper
    line is eliminated before it, so the child's row is then a leaf.
    """

    at: np.ndarray
    far: np.ndarray
    here: np.ndarray
    there: np.ndarray
    rows: np.ndarray
    cols: np.ndarray
    steps: tuple[tuple[int, int, int], ...]


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

    @cached_property
    def coupling_plan(self) -> CouplingPlan:
        """The information matrix's gather indices and leaf-first order."""
        m, reference = self.m, self.reference
        n = m - 1
        # index of antenna k among the ordinary ones (none at the reference)
        index = np.arange(m + 1) - 1
        index[reference + 1:] -= 1
        lines = np.array(self.edges, dtype=np.intp)
        # both directions of every line: the antenna here, the one wired to it
        here = np.concatenate((lines[:, 0], lines[:, 1]))
        there = np.concatenate((lines[:, 1], lines[:, 0]))
        own = here != reference
        at, far = index[here[own]], there[own] - 1
        # the lines below the reference's own, deepest first, each as
        # (p, c) then (c, p)
        below = np.array([line for level in reversed(self.levels[1:])
                          for line in level], dtype=np.intp).reshape(-1, 2)
        here, there = below.ravel(), below[:, ::-1].ravel()
        rows, cols = n + index[here], index[there]
        # the child's row: its transmit row, then its receive row
        leaf, into = cols.copy(), rows.copy()
        leaf[1::2], into[1::2] = rows[1::2], cols[1::2]
        arrays = [_read_only(a) for a in (at, far, here - 1, there - 1, rows,
                                          cols)]
        return CouplingPlan(*arrays, tuple(zip(
            leaf.tolist(), into.tolist(), range(len(leaf)))))

    @cached_property
    def distances(self) -> tuple[int, ...]:
        """Hop count of each ordinary antenna's unique path to the
        reference, in `ordinary` order."""
        hops = [0] * (self.m + 1)  # by label; 0 is no antenna
        for d, level in enumerate(self.levels, 1):
            for _, child in level:
                hops[child] = d
        del hops[self.reference]
        return tuple(hops[1:])

    @cached_property
    def mean_distance(self) -> Fraction:
        """Mean of `distances`, an exact rational, so that closed-form
        comparisons need no tolerance."""
        return Fraction(sum(self.distances), self.m - 1)

    @cached_property
    def distance_array(self) -> np.ndarray:
        """`distances` as floats, for the closed-form bounds that scale
        them."""
        return _read_only(np.asarray(self.distances, float))

    @cached_property
    def max_degree(self) -> int:
        """Largest number of lines meeting at any antenna."""
        return max(map(len, self.neighbors))


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


#: Named wirings kept built, with their walk and their plans: a
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


def color_lines(lines: list[Edge]) -> list[int]:
    """Greedy line coloring of a rooted tree, in one pass over its lines.

    `lines` are the tree's (parent, child) lines over labels 0..m, each
    parent's own line before its children's and siblings in ascending
    order, as a wiring's walk (`Topology.levels`) or a shape's preorder
    lists them. The line to the child of rank k among its siblings gets
    color k below the color of its parent's own line and k+1 from that
    color on; the root's lines take colors 0, 1, ... That needs exactly
    max_degree colors on a tree. Returns each line's color, in order.
    """
    up = [len(lines) + 1] * (len(lines) + 2)  # above every rank at the root
    taken = [0] * (len(lines) + 2)  # lines colored so far below each parent
    colors: list[int] = []
    for parent, child in lines:
        k = taken[parent]
        taken[parent] = k + 1
        up[child] = color = k + (k >= up[parent])
        colors.append(color)
    return colors


def measurement_schedule(t: Topology, slot_duration: float) -> Schedule:
    """Pack the 2(m-1) sounding measurements into 2*max_degree slots.

    The wiring's cached walk (`Topology.levels`), colored by
    `color_lines`: color k fills slot 2k parent-to-child and slot 2k+1
    child-to-parent, each slot in ascending order. This is the coloring
    that `verify --prop 2` checks on one labeling of every rooted shape.
    """
    _check_slot_duration(slot_duration)
    lines = [line for level in t.levels for line in level]
    colors = color_lines(lines)
    groups: list[list[Edge]] = [[] for _ in range(max(colors) + 1)]
    for line, color in zip(lines, colors):
        groups[color].append(line)
    slots: list[tuple[Edge, ...]] = []
    for group in groups:
        slots += [tuple(sorted(group)),
                  tuple(sorted([(c, p) for p, c in group]))]
    return Schedule(tuple(slots), float(slot_duration))


def schedule_violations(t: Topology, schedule: Schedule) -> list[str]:
    """Check a schedule against the wiring; an empty list means valid.

    The findings, in order: a slot count other than 2*max_degree, every
    later use of an antenna in the same slot (sender before receiver),
    every line direction not scheduled exactly once (in `directed_pairs`
    order), and every measurement on no line, in order of first use.
    Ends are read as plain ints, so a label outside 1..m, however large,
    is a measurement on no line. Raises ValueError at the first
    measurement that is not a pair of integers (bools are not).
    """
    expected = 2 * t.max_degree
    problems = ([] if len(schedule.slots) == expected else
                [f"{len(schedule.slots)} slots, expected {expected}"])
    counts: dict[Edge, int] = {}
    for k, slot in enumerate(schedule.slots):
        busy: set[int] = set()
        for pair in slot:
            if not (isinstance(pair, tuple | list) and len(pair) == 2
                    and all(map(is_integer, pair))):
                raise ValueError(
                    f"measurement {pair!r} is not a pair of integers")
            ends = int(pair[0]), int(pair[1])
            for antenna in ends:
                if antenna in busy:
                    problems.append(f"antenna {antenna} used twice "
                                    f"in slot {k}")
                busy.add(antenna)
            counts[ends] = counts.get(ends, 0) + 1
    for ends in t.directed_pairs:
        count = counts.pop(ends, 0)
        if count != 1:
            problems.append(f"measurement {ends} scheduled {count} times")
    # what is left is on no line, in order of first use
    return problems + [f"measurement {ends} is not on any line"
                       for ends in counts]


class Shape(NamedTuple):
    """A rooted tree shape, read off its canonical level sequence.

    `levels` holds each node's depth in preorder (node 0 is the root),
    which is its hop count to the reference; `parents` holds each node's
    parent in that order (-1 at the root), the last node before it one
    level up. `weight` is the number of labeled trees of the shape,
    (m-1)!/|Aut|, and `max_degree` the most lines that meet at one node.
    `enumerate_shapes` reads all three in the one pass over the nodes
    that also finds the next shape.
    """

    levels: tuple[int, ...]
    parents: tuple[int, ...]
    weight: int
    max_degree: int


def enumerate_shapes(m: int, cap: int = ENUMERATION_CAP) -> Iterator[Shape]:
    """Yield every rooted tree shape on m nodes once, as a `Shape`.

    A shape is a canonical level sequence, the depths of its nodes in
    preorder with every node's subtrees in non-increasing order. The
    successor rule of Beyer and Hedetniemi ("Constant time generation of
    rooted trees", SIAM J. Comput. 9(4), 1980) runs through all of them,
    OEIS A000081(m), from the path down to the star; their weights sum to
    m**(m-2). A shape stands for the labeled trees rooted at any one
    antenna.

    Each shape costs one pass over its nodes, which reads its parents,
    degrees and automorphisms together. A node's parent is the last node
    before it one level up, and its previous sibling the last node before
    it on its level, if that comes after the parent. |Aut|, the
    automorphisms that fix the root, is the product over every node of
    the factorials of how often each child subtree repeats among its
    siblings. Siblings come in non-increasing order of their subtrees, so
    equal ones are adjacent: a node whose subtree repeats its previous
    sibling's is the k-th of such a run and multiplies |Aut| by k. The
    previous sibling's subtree runs up to the node, and the node's
    repeats it when its levels start the same way: it cannot run on
    further, as it would then come first in that order. The successor
    repeats, from the last node p below level 1 on, the levels from p's
    parent q up to p; the pass has found q already.
    """
    _check_m_reference(m, 1)
    if m > cap:
        raise ValueError(f"m={m} exceeds the enumeration cap {cap}")
    labelings = math.factorial(m - 1)
    levels = list(range(m))
    nodes = range(1, m)
    while True:
        parent = [-1] * m
        degree = [0] + [1] * (m - 1)  # the line up, then those down
        run = [1] * m  # place in a run of equal sibling subtrees
        last = [0] * m  # by level: the last node seen there
        automorphisms = 1
        for node in nodes:
            level = levels[node]
            above = parent[node] = last[level - 1]
            degree[above] += 1
            before = last[level]
            if (before > above and levels[node:2 * node - before]
                    == levels[before:node]):
                run[node] = repeats = run[before] + 1
                automorphisms *= repeats
            last[level] = node
        # tuple.__new__ skips the NamedTuple's Python-level __new__
        yield tuple.__new__(Shape, (tuple(levels), tuple(parent),
                                    labelings // automorphisms, max(degree)))
        # successor: from the last node p below level 1 on, repeat the
        # levels from p's parent q up to p
        p = m - 1
        while levels[p] == 1:
            p -= 1
        if not p:  # the star comes last
            return
        q = parent[p]
        period = levels[q:p]
        levels[p:] = (period * ((m - p) // (p - q) + 1))[:m - p]


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
