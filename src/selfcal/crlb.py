"""Estimation-accuracy bounds for wired self-calibration.

Two independent routes compute the same per-antenna bounds: numeric
inversion of the information matrix assembled from the wiring and the
gain profile, and a closed form in which each ordinary antenna's bound is
its hop distance from the reference times an inverse-SNR ratio. The
module also carries the time-budget arithmetic for repeated measurement
rounds.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import TYPE_CHECKING

import numpy as np

from .errors import (
    AmplitudeMismatch,
    BudgetError,
    ScenarioError,
    SingularFisherMatrix,
)
from .topology import (
    Topology,
    _adjacency,
    _check_edges,
    _check_m_reference,
    calibration_distances,
    max_degree,
)

if TYPE_CHECKING:
    from .simulate import RfGains


@dataclass(frozen=True)
class ScenarioParams:
    """Physical constants of one calibration run.

    The line gain is common to all lines and known in advance; the
    transmit and receive amplitudes are common to all antennas.
    `noise_variance` is the per-measurement complex noise power; zero
    selects the noiseless synthesis mode used by exactness checks, while
    the information matrix itself requires positive noise.
    """

    line_gain: complex = 1.0 + 0.0j
    noise_variance: float = 1.0
    tx_amplitude: float = 1.0
    rx_amplitude: float = 1.0
    slot_duration: float = 1.0

    def __post_init__(self) -> None:
        if not (cmath.isfinite(self.line_gain)
                and all(math.isfinite(x) for x in (
                    self.noise_variance, self.tx_amplitude,
                    self.rx_amplitude, self.slot_duration))):
            raise ScenarioError("scenario parameters must be finite")
        if self.line_gain == 0:
            raise ScenarioError("line gain must be nonzero")
        if self.noise_variance < 0:
            raise ScenarioError("noise variance must be nonnegative")
        if self.tx_amplitude <= 0 or self.rx_amplitude <= 0:
            raise ScenarioError("gain amplitudes must be positive")
        if self.slot_duration <= 0:
            raise ScenarioError("slot duration must be positive")

    def at_snr(self, snr_db: float) -> "ScenarioParams":
        """This scenario with the noise variance at `snr_db`, where
        snr = (a * b * |h|)^2 / sigma^2 with the unit sounding signal;
        ScenarioError unless that variance is positive and finite."""
        try:
            signal = (self.tx_amplitude * self.rx_amplitude
                      * abs(self.line_gain)) ** 2
            noise_variance = signal * 10.0 ** (-snr_db / 10.0)
        except OverflowError:
            noise_variance = math.inf
        if not 0 < noise_variance < math.inf:
            raise ScenarioError(
                f"SNR {snr_db} dB gives noise variance {noise_variance}; "
                "it must be a positive finite number")
        return replace(self, noise_variance=noise_variance)

    @property
    def rho_a(self) -> float:
        """Noise over transmit signal power; scales receive-gain bounds."""
        return self.noise_variance / (self.tx_amplitude ** 2 * abs(self.line_gain) ** 2)

    @property
    def rho_b(self) -> float:
        """Noise over receive signal power; scales transmit-gain bounds."""
        return self.noise_variance / (self.rx_amplitude ** 2 * abs(self.line_gain) ** 2)


@dataclass(frozen=True, eq=False)
class FisherMatrix:
    """Information matrix for the unknown gains of the ordinary antennas.

    Rows/columns 0..n-1 (n = m-1) belong to the transmit gains of
    `antennas` in ascending order and rows n..2n-1 to the receive gains.
    Entries already carry the |h|^2 / sigma^2 scaling. The matrix is
    Hermitian by construction and positive definite whenever the wiring
    is effective.
    """

    order: int
    entries: np.ndarray
    antennas: tuple[int, ...]


#: Relative tolerance of gain amplitudes against the scenario's.
_AMPLITUDE_RTOL = 1e-9
#: Largest condition number `crlb_numeric` inverts.
_COND_LIMIT = 1e12


def fisher_matrix(t: Topology, gains: "RfGains",
                  s: ScenarioParams) -> FisherMatrix:
    """Assemble the information matrix for a tree wiring.

    The gains must carry the scenario's nominal amplitudes within a
    relative 1e-9; phases are free.
    """
    _check_amplitudes(gains, s)
    return _assemble_fisher(t.m, t.reference, t.neighbors, gains, s)


def fisher_from_edges(m: int, reference: int, edges, gains: "RfGains",
                      s: ScenarioParams) -> FisherMatrix:
    """Assemble the information matrix for an arbitrary wiring.

    The lines get `Topology`'s per-line checks (no self-loop, ends in
    1..m, no line twice) but not its spanning-tree check, so a candidate
    wiring that leaves antennas unreachable can be diagnosed by the
    singularity of its matrix instead of being rejected up front.
    """
    _check_m_reference(m, reference)
    neighbors = _adjacency(m, _check_edges(m, edges))
    _check_amplitudes(gains, s)
    return _assemble_fisher(m, reference, neighbors, gains, s)


def _check_amplitudes(gains: "RfGains", s: ScenarioParams) -> None:
    ok_a = np.allclose(np.abs(gains.alpha), s.tx_amplitude,
                       rtol=_AMPLITUDE_RTOL, atol=0.0)
    ok_b = np.allclose(np.abs(gains.beta), s.rx_amplitude,
                       rtol=_AMPLITUDE_RTOL, atol=0.0)
    if not (ok_a and ok_b):
        raise AmplitudeMismatch(
            "gain amplitudes do not match the scenario's nominal values")


def _assemble_fisher(m: int, reference: int,
                     neighbors: dict[int, tuple[int, ...]],
                     gains: "RfGains", s: ScenarioParams) -> FisherMatrix:
    if s.noise_variance == 0:
        raise ScenarioError("information matrix undefined for zero noise")
    ordinary = tuple(k for k in range(1, m + 1) if k != reference)
    n = m - 1
    pos = {antenna: i for i, antenna in enumerate(ordinary)}
    alpha, beta = gains.alpha, gains.beta
    entries = np.zeros((2 * n, 2 * n), dtype=complex)
    for i, antenna in enumerate(ordinary):
        linked = neighbors[antenna]
        entries[i, i] = sum(abs(beta[k - 1]) ** 2 for k in linked)
        entries[n + i, n + i] = sum(abs(alpha[k - 1]) ** 2 for k in linked)
        for k in linked:
            if k != reference:
                # cross block: rx gain here times conjugate tx gain there
                entries[n + i, pos[k]] = beta[antenna - 1] * np.conj(alpha[k - 1])
    entries[:n, n:] = entries[n:, :n].conj().T
    entries *= abs(s.line_gain) ** 2 / s.noise_variance
    return FisherMatrix(2 * n, entries, ordinary)


def crlb_numeric(j: FisherMatrix) -> tuple[np.ndarray, np.ndarray]:
    """Per-antenna bounds from the inverse information matrix diagonal.

    Returns (transmit-gain bounds, receive-gain bounds) ordered like
    `j.antennas`. Raises SingularFisherMatrix when the matrix is not
    safely invertible, which is how an ineffective wiring or a degenerate
    gain profile shows up.
    """
    lam, vec = np.linalg.eigh(j.entries)
    if (not np.all(np.isfinite(lam)) or lam[0] <= 0
            or lam[-1] > _COND_LIMIT * lam[0]):
        raise SingularFisherMatrix(
            f"information matrix condition number beyond {_COND_LIMIT:.0e}")
    diag = (np.abs(vec) ** 2) @ (1.0 / lam)
    n = j.order // 2
    return diag[:n], diag[n:]


@dataclass(frozen=True, eq=False)
class CrlbReport:
    """Per-antenna and average bounds plus the time-budget bookkeeping.

    `mean_distance` stays an exact rational; averages follow
    mean_distance * rho / repetitions. `remainder_seconds` records budget
    seconds too short for another full round; they are deliberately left
    unused.
    """

    antennas: tuple[int, ...]
    distances: tuple[int, ...]
    per_antenna_alpha: np.ndarray
    per_antenna_beta: np.ndarray
    average_alpha: float
    average_beta: float
    mean_distance: Fraction
    rho_a: float
    rho_b: float
    repetitions: int
    remainder_seconds: float
    collection_time: float

    CSV_HEADER = ("antenna", "d_m", "crlb_alpha", "crlb_beta", "rho_a",
                  "rho_b", "I", "F_seconds", "T_arb_seconds")

    def csv_rows(self) -> list[list[str]]:
        """One row per ordinary antenna, matching CSV_HEADER."""
        rows = []
        for i, antenna in enumerate(self.antennas):
            rows.append([
                str(antenna), str(self.distances[i]),
                repr(float(self.per_antenna_alpha[i])),
                repr(float(self.per_antenna_beta[i])),
                repr(self.rho_a), repr(self.rho_b),
                str(self.repetitions), repr(self.remainder_seconds),
                repr(self.collection_time),
            ])
        return rows

    def to_dict(self) -> dict:
        """JSON-ready view of the report."""
        return {
            "antennas": list(self.antennas),
            "distances": list(self.distances),
            "per_antenna_alpha": [float(x) for x in self.per_antenna_alpha],
            "per_antenna_beta": [float(x) for x in self.per_antenna_beta],
            "average_alpha": self.average_alpha,
            "average_beta": self.average_beta,
            "mean_distance": float(self.mean_distance),
            "mean_distance_exact": str(self.mean_distance),
            "rho_a": self.rho_a,
            "rho_b": self.rho_b,
            "I": self.repetitions,
            "F_seconds": self.remainder_seconds,
            "T_arb_seconds": self.collection_time,
        }


def crlb_closed_form(t: Topology, s: ScenarioParams) -> CrlbReport:
    """Single-round bounds from hop distances alone.

    Every ordinary antenna's transmit-gain bound is its hop distance
    times rho_b and its receive-gain bound the distance times rho_a.
    """
    return _distance_report(t, s, repetitions=1, remainder=0.0)


def time_to_collect(t: Topology, s: ScenarioParams) -> float:
    """Seconds to sound both directions of every line once.

    Equals 2 * max_degree slots of the scenario's slot duration, which a
    parallel schedule achieves and no schedule can beat.
    """
    return 2 * max_degree(t) * s.slot_duration


def repetition_budget(budget_seconds, t_arb) -> tuple[int, float]:
    """Whole collection rounds and leftover seconds inside a time budget.

    Arithmetic is exact over rationals; ratios within one part in 1e9 of
    an integer are snapped to it, absorbing the one-ulp drift of float
    products of a slot duration.
    """
    budget = Fraction(budget_seconds)
    round_time = Fraction(t_arb)
    if round_time <= 0:
        raise ValueError("collection time must be positive")
    if budget < round_time:
        raise BudgetError(
            f"budget {float(budget):g} s below one collection round "
            f"{float(round_time):g} s")
    ratio = budget / round_time
    nearest = round(ratio)
    if nearest >= 1 and abs(ratio - nearest) * 10 ** 9 <= nearest:
        ratio = Fraction(nearest)
    repetitions = int(ratio)
    leftover = float((ratio - repetitions) * round_time)
    return repetitions, leftover


def budgeted_average_crlb(t: Topology, s: ScenarioParams,
                          budget_seconds) -> CrlbReport:
    """Bounds when the budget allows repeated collection rounds.

    The rounds that fit divide every bound by their count; leftover
    seconds are recorded in the report but never used.
    """
    repetitions, leftover = repetition_budget(budget_seconds,
                                              time_to_collect(t, s))
    return _distance_report(t, s, repetitions=repetitions, remainder=leftover)


def _distance_report(t: Topology, s: ScenarioParams, repetitions: int,
                     remainder: float) -> CrlbReport:
    profile = calibration_distances(t)
    rho_a, rho_b = s.rho_a, s.rho_b
    # d / I is correctly rounded, hence equal to float(Fraction(d, I))
    factors = np.asarray(profile.distances, float) / repetitions
    mean_factor = float(profile.mean / repetitions)
    return CrlbReport(
        antennas=profile.antennas,
        distances=profile.distances,
        per_antenna_alpha=factors * rho_b,
        per_antenna_beta=factors * rho_a,
        average_alpha=mean_factor * rho_b,
        average_beta=mean_factor * rho_a,
        mean_distance=profile.mean,
        rho_a=rho_a,
        rho_b=rho_b,
        repetitions=repetitions,
        remainder_seconds=remainder,
        collection_time=time_to_collect(t, s),
    )


def daisy_mean_distance(m: int, f: int) -> Fraction:
    """Mean hop distance of the chain 1-2-...-m with the reference at f.

    Closed form (m - 2f)/2 + (f - 1)^2/(m - 1) + 1; agrees exactly with
    averaging the hop counts for every valid f.
    """
    _check_m_reference(m, f)
    return Fraction(m - 2 * f, 2) + Fraction((f - 1) ** 2, m - 1) + 1


def optimal_reference(m: int) -> tuple[int, Fraction]:
    """Chain reference position minimizing the mean hop distance.

    Returns (floor((m + 1) / 2), minimized mean distance).
    """
    f = (m + 1) // 2
    return f, daisy_mean_distance(m, f)


#: Limit of `daisy_vs_star_ratio` as the antenna count grows.
DAISY_VS_STAR_LIMIT = Fraction(1, 2)


def daisy_vs_star_ratio(m: int) -> Fraction:
    """Best-reference chain average bound under the star's time budget,
    relative to the star's single-round average.

    With 2(m-1) slot durations of budget the chain collects
    floor((m-1)/2) rounds, giving (m+1)/(2m-2) for odd m and
    m^2/(2m^2-6m+4) for even m. Values below 1 mean the chain beats the
    star on equal time; both parity branches decrease toward 1/2.
    """
    if m < 3:
        raise ValueError(f"need m >= 3, got {m}")
    if m % 2:
        return Fraction(m + 1, 2 * m - 2)
    return Fraction(m * m, 2 * m * m - 6 * m + 4)
