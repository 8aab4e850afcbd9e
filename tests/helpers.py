"""Shared test utilities: independent oracles and random-tree generation."""

from collections import deque

import numpy as np
from hypothesis import strategies as st

from selfcal import ScenarioParams, RfGains, from_edges


def naive_pruefer_edges(seq, m):
    """Independent sequence-to-tree decoder (min-scan instead of a heap)."""
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


def random_tree(rng, m, reference=None):
    """Uniform random labeled tree, validated through the public API."""
    if reference is None:
        reference = int(rng.integers(1, m + 1))
    seq = [int(x) for x in rng.integers(1, m + 1, size=max(0, m - 2))]
    return from_edges(m, reference, naive_pruefer_edges(seq, m))


@st.composite
def trees(draw, max_m=20):
    """Hypothesis strategy: a labeled tree on 2..max_m antennas with any
    reference, drawn as its sequence code, so failures shrink."""
    m = draw(st.integers(2, max_m))
    reference = draw(st.integers(1, m))
    seq = draw(st.lists(st.integers(1, m), min_size=m - 2, max_size=m - 2))
    return from_edges(m, reference, naive_pruefer_edges(seq, m))


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


def eigh_inverse_diagonal(entries):
    """Diagonal of a Hermitian matrix's inverse by dense `eigh`, the same
    arithmetic as the numeric bound's fallback for wirings with cycles."""
    lam, vec = np.linalg.eigh(entries)
    return (np.abs(vec) ** 2) @ (1.0 / lam)


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
