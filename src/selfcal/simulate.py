"""Ground-truth gain profiles and noisy sounding-measurement synthesis."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .crlb import ScenarioParams
from .errors import is_finite, is_integer, json_fields
from .topology import Topology, _check_m_reference


@dataclass(frozen=True, eq=False)
class RfGains:
    """Complex transmit (alpha) and receive (beta) front-end gains.

    Index k-1 holds antenna k. Amplitudes follow the scenario's nominal
    values; phases are arbitrary.
    """

    alpha: np.ndarray
    beta: np.ndarray


def draw_gains(m: int, s: ScenarioParams, seed) -> RfGains:
    """Random gains with fixed amplitudes and phases uniform on [-pi, pi).

    Deterministic for a given seed (int or numpy SeedSequence); the batch
    of one trial in one block of `draw_gain_batch`.
    """
    (alpha, beta), = draw_gain_batch([(1, seed)], m, s)
    return RfGains(alpha=alpha, beta=beta)


def draw_gain_batch(blocks, m: int, s: ScenarioParams,
                    out: np.ndarray | None = None,
                    phases: np.ndarray | None = None) -> np.ndarray:
    """Gains of independent arrays as a (trials, 2, m) array.

    `blocks` lists (trials, seed) for consecutive runs of rows, which
    together make the batch's trials. Row [k, 0] holds trial k's transmit
    gains and [k, 1] its receive gains, antenna j at column j-1. A
    block's trials are drawn in order from the stream of its own seed, so
    a block is a prefix of any larger block with the same seed, and its
    rows are those it gives drawn alone: the phases are drawn block by
    block, and then turned into gains in one pass over the batch.

    `out` (complex) receives the gains and `phases` (float) holds the
    phases on their way, both C-contiguous of that shape; either is
    allocated when not given, and neither changes a value.
    """
    _check_m_reference(m, 1)
    shape = (sum(trials for trials, _ in blocks), 2, m)
    if phases is None:
        phases = np.empty(shape)
    start = 0
    for trials, seed in blocks:
        np.random.default_rng(seed).random(
            out=phases[start:start + trials])
        start += trials
    # uniform on [-pi, pi), as rng.uniform(-np.pi, np.pi) draws it
    phases *= 2 * np.pi
    phases += -np.pi
    # exp(1j * phases) as cos + i sin written in place, without temporaries
    gains = np.empty(shape, dtype=complex) if out is None else out
    np.cos(phases, out=gains.real)
    np.sin(phases, out=gains.imag)
    gains *= np.array([[s.tx_amplitude], [s.rx_amplitude]])
    return gains


@dataclass(frozen=True, eq=False)
class MeasurementSet:
    """Directed sounding measurements, one column per repetition.

    `pairs` lists (transmitter, receiver) in lexicographic order and
    covers both directions of every line; `values[i, r]` is round r of
    pair i, for `values.shape[1]` rounds. `sounding_value` is the constant
    sounding signal the observations carry as a factor: 1 for synthesized
    sets, whatever a replay file states otherwise.
    """

    pairs: tuple[tuple[int, int], ...]
    values: np.ndarray
    sounding_value: complex = field(default=1.0 + 0.0j, kw_only=True)


def synthesize(t: Topology, gains: RfGains, s: ScenarioParams,
               repetitions: int = 1, seed=None) -> MeasurementSet:
    """Sound both directions of every line, `repetitions` times each.

    Every observation is rx-gain * line-gain * tx-gain plus circularly
    symmetric complex Gaussian noise of the scenario's variance (real and
    imaginary parts independent with half the variance each), independent
    across directions and repetitions. Zero noise variance yields the
    exact noiseless values.

    The full observation table is a pure function of (topology, gains,
    scenario, repetitions, seed): a batch of one trial in one block,
    whose every round is one sounding, takes its noise (`draw_noise`)
    and then adds its gain products to every round
    (`add_gain_products`), each in one pass over the canonical pair
    order, so results do not depend on how the set is later consumed.
    """
    if repetitions < 1:
        raise ValueError(f"repetitions must be >= 1, got {repetitions}")
    batch = np.stack((gains.alpha, gains.beta))[None]
    values = np.empty((1, len(t.directed_pairs), repetitions), dtype=complex)
    draw_noise([(1, seed, s.noise_variance)], values)
    add_gain_products(t, batch, s, values)
    return MeasurementSet(t.directed_pairs, values[0])


def draw_noise(blocks, out: np.ndarray) -> np.ndarray:
    """The noise of a batch's observations into `out`, block by block.

    `out` is complex and C-contiguous, (trials, 2(m-1)) or (trials,
    2(m-1), rounds); `blocks` lists (trials, seed, variance) for
    consecutive runs of its rows, which together make all of them. A
    block of positive variance fills its rows with circularly symmetric
    complex Gaussians of that variance: their real and imaginary parts
    take standard normals from the stream of its seed, which serves
    nothing else, consecutively in memory order, real part first, scaled
    in place. A block of zero variance draws nothing and fills its rows
    with -0.0 in both parts, the additive identity: adding the gain
    products to it (`add_gain_products`) gives them bit for bit, signed
    zeros included. Returns `out`.

    The sweep's rows are collapsed observations, each standing for the
    mean of I rounds: that mean is the noiseless value plus one such
    Gaussian of variance noise_variance / I, so one draw stands for them.
    """
    if not out.flags.c_contiguous:
        raise ValueError("observations need a C-contiguous output array")
    if sum(trials for trials, _, _ in blocks) != len(out):
        raise ValueError(f"noise blocks do not cover the {len(out)} rows")
    start = 0
    for trials, seed, variance in blocks:
        rows = out[start:start + trials]
        start += trials
        if variance > 0:
            # the normal pairs, read as complex values, scaled in place
            np.random.default_rng(seed).standard_normal(
                out=rows.view(np.float64))
            rows *= math.sqrt(variance / 2)
        else:
            # both parts: a complex -0.0 has the imaginary part +0.0
            rows.view(np.float64).fill(-0.0)
    return out


def add_gain_products(t: Topology, gains: np.ndarray, s: ScenarioParams,
                      out: np.ndarray,
                      scratch: np.ndarray | None = None) -> np.ndarray:
    """Add each trial's noiseless observations to its noise in `out`.

    `gains` is a (trials, 2, m) batch as from `draw_gain_batch`; `out`,
    (trials, 2(m-1)) or (trials, 2(m-1), rounds), holds its noise as
    `draw_noise` drew it, pairs in `t.directed_pairs` order. Every
    trial's gain products (rx gain * line gain * tx gain, the sounding
    signal being 1), one pass over the batch, are added to each of its
    rounds in place. Returns `out`.

    `scratch`, at least 2 * trials * 2(m-1) complex elements, holds the
    products and the gathered transmit gains on their way when given; it
    changes no value.
    """
    if gains.shape[1:] != (2, t.m):
        raise ValueError(f"gain batch has shape {gains.shape}, "
                         f"wiring needs (trials, 2, {t.m})")
    tx, rx = t.pair_endpoints
    shape = (len(gains), len(tx))
    size = 2 * len(gains) * len(tx)
    if scratch is None:
        scratch = np.empty(size, dtype=complex)
    noiseless, tx_gains = scratch[:size].reshape((2,) + shape)
    # gathers into given arrays; "clip" keeps np.take from buffering, and
    # every index is in range
    np.take(gains[:, 1], rx, axis=1, out=noiseless, mode="clip")
    noiseless *= s.line_gain
    np.take(gains[:, 0], tx, axis=1, out=tx_gains, mode="clip")
    noiseless *= tx_gains
    # transposed, any round axis of `out` leads, and the products
    # broadcast over it
    np.add(out.T, noiseless.T, out=out.T)
    return out


def measurements_to_dict(ms: MeasurementSet) -> dict:
    """JSON-ready observation table for replay.

    Rows are [tx, rx, repetition, real, imag] in canonical order.
    """
    observations = []
    for (tx, rx), row in zip(ms.pairs, ms.values):
        for r, v in enumerate(row, 1):
            observations.append([tx, rx, r, float(v.real), float(v.imag)])
    return {"repetitions": ms.values.shape[1],
            "sounding_value": [float(ms.sounding_value.real),
                               float(ms.sounding_value.imag)],
            "observations": observations}


def measurements_from_dict(data: dict) -> MeasurementSet:
    """Inverse of `measurements_to_dict`; the (pair, repetition) grid must
    be complete with each entry listed once, every value finite and the
    sounding value nonzero."""
    observations, repetitions, sounding = json_fields(
        data, ("observations", "repetitions", "sounding_value"),
        "a replay file", ValueError)
    if not isinstance(observations, (list, tuple)):
        raise ValueError(f"observations must be a list, got {observations!r}")
    if not is_integer(repetitions) or repetitions < 1:
        raise ValueError(
            f"repetitions must be a positive integer, got {repetitions!r}")
    sounding = _finite_complex(sounding, "sounding value")
    if sounding == 0:
        raise ValueError("sounding value must be nonzero")
    table: dict[tuple[int, int, int], complex] = {}
    for row in observations:
        if not isinstance(row, (list, tuple)) or len(row) != 5:
            raise ValueError(
                f"observation rows are [tx, rx, repetition, real, imag], "
                f"got {row!r}")
        tx, rx, r, re_, im_ = row
        if not (is_integer(tx) and is_integer(rx) and is_integer(r)):
            raise ValueError(
                f"observation keys must be integers, got {[tx, rx, r]!r}")
        if (tx, rx, r) in table:
            raise ValueError(
                f"observation {tx}->{rx} repetition {r} listed twice")
        table[(tx, rx, r)] = _finite_complex(
            [re_, im_], f"observation {tx}->{rx} repetition {r}")
    pairs = tuple(sorted({(tx, rx) for tx, rx, _ in table}))
    pair_set = set(pairs)
    for tx, rx in pairs:
        if (rx, tx) not in pair_set:
            raise ValueError(f"direction {rx}->{tx} missing for line {tx}-{rx}")
    if len(table) != len(pairs) * repetitions:
        raise ValueError("observations do not form a full (pair, repetition) grid")
    values = np.empty((len(pairs), repetitions), dtype=complex)
    for i, (tx, rx) in enumerate(pairs):
        for r in range(1, repetitions + 1):
            try:
                values[i, r - 1] = table[(tx, rx, r)]
            except KeyError:
                raise ValueError(
                    f"missing observation {tx}->{rx} repetition {r}") from None
    return MeasurementSet(pairs, values, sounding_value=sounding)


def _finite_complex(parts, what: str) -> complex:
    # [real, imag] as JSON numbers; NaN or infinity would only resurface
    # as NaN estimates downstream
    if (not isinstance(parts, (list, tuple)) or len(parts) != 2
            or not all(map(is_finite, parts))):
        raise ValueError(f"{what} must be [real, imag] finite numbers, "
                         f"got {parts!r}")
    return complex(parts[0], parts[1])
