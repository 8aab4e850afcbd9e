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
    of one of `draw_gain_batch`.
    """
    (alpha, beta), = draw_gain_batch(1, m, s, seed)
    return RfGains(alpha=alpha, beta=beta)


def draw_gain_batch(trials: int, m: int, s: ScenarioParams, seed,
                    out: np.ndarray | None = None,
                    phases: np.ndarray | None = None) -> np.ndarray:
    """Gains of `trials` independent arrays as a (trials, 2, m) array.

    Row [k, 0] holds trial k's transmit gains and [k, 1] its receive
    gains, antenna j at column j-1. Trials are drawn in order from one
    stream, so a batch is a prefix of any larger batch with the same seed.

    `out` (complex) receives the gains and `phases` (float) holds the
    phases on their way, both C-contiguous of that shape; either is
    allocated when not given, and neither changes a value.
    """
    _check_m_reference(m, 1)
    rng = np.random.default_rng(seed)
    shape = (trials, 2, m)
    # uniform on [-pi, pi), as rng.uniform(-np.pi, np.pi) draws it
    phases = rng.random(shape, out=phases)
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
    scenario, repetitions, seed): `draw_noise` fills it and
    `add_gain_products` completes it, as for a batch of one trial whose
    every round is one sounding, in one pass over the canonical pair
    order, so results do not depend on how the set is later consumed.
    """
    _check_repetitions(repetitions)
    batch = np.stack((gains.alpha, gains.beta))[None]
    values = np.empty((1, len(t.directed_pairs), repetitions), dtype=complex)
    draw_noise(seed, values)
    add_gain_products(t, batch, s, 1, values)
    return MeasurementSet(t.directed_pairs, values[0])


def _check_repetitions(repetitions: int) -> None:
    if repetitions < 1:
        raise ValueError(f"repetitions must be >= 1, got {repetitions}")


def _check_contiguous(out: np.ndarray) -> None:
    if not out.flags.c_contiguous:
        raise ValueError("observations need a C-contiguous output array")


def draw_noise(seed, out: np.ndarray) -> np.ndarray:
    """First stage of the observation draw: raw noise into `out`.

    `out` is complex and C-contiguous, of shape (trials, pairs) or
    (trials, pairs, rounds); every value's real and imaginary parts take
    standard normals from the stream of `seed`, consecutively in memory
    order, real part first. The stream is used for nothing else, so this
    stage needs neither the gains nor the scenario, and can run while
    the gains are drawn from their own stream. Returns `out`.
    """
    _check_contiguous(out)
    np.random.default_rng(seed).standard_normal(out=out.view(np.float64))
    return out


def add_gain_products(t: Topology, gains: np.ndarray, s: ScenarioParams,
                      repetitions: int, out: np.ndarray,
                      scratch: np.ndarray | None = None) -> np.ndarray:
    """Second stage of the observation draw: noise to observations.

    `out` holds what `draw_noise` wrote, (trials, 2(m-1)) or (trials,
    2(m-1), rounds) with pairs in `t.directed_pairs` order, and `gains`
    is a (trials, 2, m) batch as from `draw_gain_batch`. Each value
    becomes the mean of `repetitions` soundings: row k of a (trials,
    2(m-1)) `out` is then distributed as `synthesize(t, gains_k, s,
    repetitions).values.mean(axis=1)`, the per-direction mean that
    `ml_estimate` estimates from. The mean of `repetitions` i.i.d. rounds
    is the noiseless value plus one circularly symmetric complex Gaussian
    of variance noise_variance / repetitions, so one draw of that
    variance stands for them: the standard normals are scaled to it in
    place, and each trial's gain product (rx gain * line gain * tx gain,
    the sounding signal being 1) is added to every round. Zero variance
    leaves the products alone, whatever `out` held. Returns `out`.

    `scratch`, at least 2 * trials * 2(m-1) complex elements, holds the
    products and the gathered transmit gains on their way when given; it
    changes no value.
    """
    _check_repetitions(repetitions)
    if gains.shape[1:] != (2, t.m):
        raise ValueError(f"gain batch has shape {gains.shape}, "
                         f"wiring needs (trials, 2, {t.m})")
    _check_contiguous(out)
    tx, rx = t.pair_endpoints
    shape = (len(gains), len(tx))
    observed = out.reshape(shape + (-1,))
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
    variance = s.noise_variance / repetitions
    if variance <= 0:
        observed[...] = noiseless[..., None]
        return out
    # the normal pairs, read as complex values, scaled and shifted in place
    observed *= math.sqrt(variance / 2)
    observed += noiseless[..., None]
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
    be complete, every value finite and the sounding value nonzero."""
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
