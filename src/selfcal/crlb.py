"""Estimation-accuracy bounds for wired self-calibration.

Two independent routes compute the same per-antenna bounds: numeric
inversion of the information matrix assembled from the wiring and the
gain profile, and a closed form in which each ordinary antenna's bound is
its hop distance from the reference times an inverse-SNR ratio. The
module also carries the time-budget arithmetic for repeated measurement
rounds.

The information matrix is stored in real form, as its diagonal and one
coupling per measurement. The phase of each complex coupling is the
difference of two gains' phases, so a diagonal change of phases makes
the complex matrix the real symmetric matrix of its moduli: only the
gains' amplitudes are read. A tree wiring's couplings form a forest,
which the numeric route eliminates leaf first in O(m) time and memory,
in the order of the wiring's walk read from its deepest line up; it
uses no hop distance. Which rows each measurement informs and that
order depend on the wiring alone: a `Topology` builds them once
(`Topology.coupling_plan`), together with where each measurement's two
gain amplitudes sit and the rows and couplings of the Gershgorin row
sums that bound the condition number (`CouplingPlan.gershgorin_rows`,
`CouplingPlan.gershgorin_couplings`). Each matrix of the wiring then
costs one gather of the gain amplitudes and one `bincount` for its
diagonal, and each solve the elimination arithmetic, one gather of the
couplings and one `bincount` for the row sums.
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
    CouplingPlan,
    Topology,
    _check_m_reference,
    _check_slot_duration,
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
                    self.rx_amplitude))):
            raise ScenarioError("scenario parameters must be finite")
        if self.line_gain == 0:
            raise ScenarioError("line gain must be nonzero")
        if self.noise_variance < 0:
            raise ScenarioError("noise variance must be nonnegative")
        if self.tx_amplitude <= 0 or self.rx_amplitude <= 0:
            raise ScenarioError("gain amplitudes must be positive")
        _check_slot_duration(self.slot_duration)
        for side, amplitude in (("transmit", self.tx_amplitude),
                                ("receive", self.rx_amplitude)):
            power = _signal_power(amplitude, self.line_gain)
            if 0 < power < math.inf and math.isfinite(
                    self.noise_variance / power):
                continue
            named = (f"{side} amplitude {amplitude!r} with line gain "
                     f"{self.line_gain!r}")
            if not 0 < power < math.inf:
                raise ScenarioError(
                    f"{named} gives signal power {power!r}; it must be a "
                    "positive finite number")
            raise ScenarioError(
                f"noise variance {self.noise_variance!r} over the signal "
                f"power {power!r} of {named} is not finite")

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
        return self.noise_variance / _signal_power(self.tx_amplitude,
                                                   self.line_gain)

    @property
    def rho_b(self) -> float:
        """Noise over receive signal power; scales transmit-gain bounds."""
        return self.noise_variance / _signal_power(self.rx_amplitude,
                                                   self.line_gain)


def _signal_power(amplitude: float, line_gain: complex) -> float:
    """amplitude^2 |h|^2, or inf where a float power overflows."""
    try:
        return amplitude ** 2 * abs(line_gain) ** 2
    except OverflowError:
        return math.inf


@dataclass(frozen=True, eq=False)
class FisherMatrix:
    """Information matrix for the unknown gains of the ordinary antennas,
    in real form.

    Rows/columns 0..n-1 (n = m-1) belong to the transmit gains of the
    ordinary antennas in ascending order and rows n..2n-1 to the receive
    gains. `diagonal` has the 2n diagonal entries and `couplings` one
    entry per measurement from tx to rx, |alpha_tx| |beta_rx| in
    `Topology.directed_pairs` order, which couples the measurement's two
    rows (`plan.rows`) when both ends are ordinary (`plan.inner`). All
    carry the |h|^2 / sigma^2 scaling. The complex matrix holds
    beta_rx conj(alpha_tx) there, whose phase is the difference of its
    two rows' gain phases, so a diagonal change of phases turns it into
    this real symmetric one, with the same eigenvalues and inverse
    diagonal. It is positive definite whenever the wiring is effective.
    `plan` is the wiring's `Topology.coupling_plan`, shared by every
    matrix of it.
    """

    diagonal: np.ndarray
    couplings: np.ndarray
    plan: CouplingPlan

    @property
    def order(self) -> int:
        """Rows (and columns) of the matrix, 2n."""
        return len(self.diagonal)


#: Relative tolerance of gain amplitudes against the scenario's.
_AMPLITUDE_RTOL = 1e-9
#: Largest condition number `crlb_numeric` inverts.
_COND_LIMIT = 1e12


def fisher_matrix(t: Topology, gains: "RfGains",
                  s: ScenarioParams) -> FisherMatrix:
    """Assemble the information matrix for a tree wiring.

    The gains must be vectors of one entry per antenna and carry the
    scenario's nominal amplitudes within a relative 1e-9; phases are
    free. Each measurement adds |beta_rx|^2 to its sender's transmit row
    and |alpha_tx|^2 to its receiver's receive row. What depends on the
    wiring alone, those rows, where the two amplitudes sit and the
    leaf-first order, is built once per wiring (`Topology.coupling_plan`).
    """
    amplitudes = _check_gains(gains, s, t.m)
    if s.noise_variance == 0:
        raise ScenarioError("information matrix undefined for zero noise")
    plan, size = t.coupling_plan, 2 * (t.m - 1)
    # row 0: each measurement's receive amplitude, row 1: its transmit one
    ends = amplitudes[plan.ends]
    scale = abs(s.line_gain) ** 2 / s.noise_variance
    # entries that overflow are rejected below, by name, not warned about;
    # row 2n collects the terms of the reference's known gains
    with np.errstate(over="ignore", invalid="ignore"):
        diagonal = np.bincount(plan.rows.ravel(), (ends * ends).ravel(),
                               minlength=size + 1)[:size] * scale
        couplings = scale * ends[1] * ends[0]
    # every entry is nonnegative, and NaN fails the test
    if not (diagonal.max() < math.inf and couplings.max() < math.inf):
        raise ScenarioError(
            f"information matrix entries overflow: noise variance "
            f"{s.noise_variance!r} gives the scale |h|^2/sigma^2 = {scale!r}")
    return FisherMatrix(diagonal, couplings, plan)


def _check_gains(gains: "RfGains", s: ScenarioParams, m: int) -> np.ndarray:
    """The 2m gain amplitudes, |alpha| then |beta|, in the precision
    both gain vectors promote to.

    ValueError unless both gain vectors have shape (m,), then
    AmplitudeMismatch unless every amplitude is within a relative
    `_AMPLITUDE_RTOL` of the scenario's (what `np.allclose` with
    atol=0 accepts). Each side is checked by its largest and smallest
    amplitude: max - a and a - min round as |x - a| does for the
    farthest x above and below a, so the two tests pass exactly when
    every amplitude's does, and a NaN fails them."""
    for side, values in (("transmit", gains.alpha), ("receive", gains.beta)):
        if np.shape(values) != (m,):
            raise ValueError(f"{side} gains have shape {np.shape(values)}, "
                             f"wiring needs ({m},)")
    amplitudes = np.abs(np.concatenate((gains.alpha, gains.beta)))
    for values, nominal in ((amplitudes[:m], s.tx_amplitude),
                            (amplitudes[m:], s.rx_amplitude)):
        tolerance = _AMPLITUDE_RTOL * nominal
        if not (values.max() - nominal <= tolerance
                and nominal - values.min() <= tolerance):
            raise AmplitudeMismatch(
                "gain amplitudes do not match the scenario's nominal values")
    return amplitudes


def crlb_numeric(j: FisherMatrix) -> tuple[np.ndarray, np.ndarray]:
    """Per-antenna bounds from the inverse information matrix diagonal.

    Returns (transmit-gain bounds, receive-gain bounds) ordered like the
    wiring's `Topology.ordinary`. Raises SingularFisherMatrix when the
    matrix is not safely invertible, which is how a scenario too
    ill-conditioned to bound, such as far unequal transmit and receive
    amplitudes, shows up. Its message says which test rejected the
    matrix: a pivot that is not positive and finite, or the bound on the
    condition number, which can exceed the exact one severalfold.

    A tree wiring's couplings form a forest, which leaf-first elimination
    (Takahashi, Fagan & Chen, 1973) factors with no fill-in in O(m), in
    real arithmetic, in the order `j.plan.steps`: the wiring's walk read
    from its deepest line up, built once per wiring. It uses no hop
    distance, so the numeric bound stays a check on the closed form.
    Eliminating leaf v into its one remaining neighbour p leaves pivot
    D_v and subtracts J_pv^2 / D_v from p's diagonal; roots keep their
    pivot. Going back from the roots, Z_v = 1/D_v + J_pv^2/D_v^2 * Z_p.
    With no couplings, as on a star wired at its reference, every row is
    a root and the diagonal is 1/D, taken on the array as it stands. The
    condition number is bounded by the largest Gershgorin row sum (at
    least lambda_max) times trace(Z) (at least 1/lambda_min).
    """
    plan, size = j.plan, j.order
    steps = plan.steps
    if steps:
        weight = (j.couplings * j.couplings).tolist()
        pivot = j.diagonal.tolist()
        # a leaf's pivot is final when it is divided by, so the check of
        # all pivots below sees every divisor; only a zero one must stop
        # the pass
        try:
            for v, p, e in steps:
                pivot[p] -= weight[e] / pivot[v]
        except ZeroDivisionError:
            raise _singular() from None
        pivots = np.fromiter(pivot, float, size)
    else:  # no couplings, as on a star wired at its reference
        pivots = j.diagonal
    if not (pivots.min() > 0 and pivots.max() < math.inf):
        raise _singular()
    diag = 1.0 / pivots
    if steps:
        z = diag.tolist()
        for v, p, e in reversed(steps):
            z[v] += weight[e] / (pivot[v] * pivot[v]) * z[p]
        diag = np.fromiter(z, float, size)
    row_sums = j.diagonal + np.bincount(
        plan.gershgorin_rows, j.couplings[plan.gershgorin_couplings],
        minlength=size)
    if not row_sums.max() * diag.sum() <= _COND_LIMIT:
        raise SingularFisherMatrix(
            "information matrix condition number bound (largest Gershgorin "
            f"row sum times trace of the inverse) beyond {_COND_LIMIT:.0e}")
    return diag[:size // 2], diag[size // 2:]


def _singular() -> SingularFisherMatrix:
    return SingularFisherMatrix(
        f"information matrix condition number beyond {_COND_LIMIT:.0e}")


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
    return _distance_report(t, s, 1, 0.0, time_to_collect(t, s))


def time_to_collect(t: Topology, s: ScenarioParams) -> float:
    """Seconds to sound both directions of every line once.

    Equals 2 * max_degree slots of the scenario's slot duration, which a
    parallel schedule achieves and no schedule can beat. Raises
    ScenarioError if the slot duration is so long that the time overflows.
    """
    slots = 2 * t.max_degree
    seconds = slots * s.slot_duration
    if not math.isfinite(seconds):
        raise ScenarioError(f"slot duration {s.slot_duration:g} s overflows "
                            f"the collection time of {slots} slots")
    return seconds


def repetition_budget(budget_seconds, t_arb) -> tuple[int, float]:
    """Whole collection rounds and leftover seconds inside a time budget.

    Arithmetic is exact over rationals; ratios within one part in 1e9 of
    an integer are snapped to it, absorbing the one-ulp drift of float
    products of a slot duration. A budget that is not finite, as when
    slot durations times the slot duration overflow, raises BudgetError.
    """
    if not math.isfinite(budget_seconds):
        raise BudgetError(f"time budget of {budget_seconds} s is not finite")
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
    collection_time = time_to_collect(t, s)
    repetitions, leftover = repetition_budget(budget_seconds, collection_time)
    return _distance_report(t, s, repetitions, leftover, collection_time)


def _distance_report(t: Topology, s: ScenarioParams, repetitions: int,
                     remainder: float, collection_time: float) -> CrlbReport:
    rho_a, rho_b = s.rho_a, s.rho_b
    # d / I is correctly rounded, hence equal to float(Fraction(d, I)),
    # and so is an int quotient: the mean over I without a Fraction
    factors = t.distance_array / repetitions
    mean = t.mean_distance
    mean_factor = mean.numerator / (mean.denominator * repetitions)
    _check_resolved(t, s, repetitions)
    return CrlbReport(
        antennas=t.ordinary,
        distances=t.distances,
        per_antenna_alpha=factors * rho_b,
        per_antenna_beta=factors * rho_a,
        average_alpha=mean_factor * rho_b,
        average_beta=mean_factor * rho_a,
        mean_distance=t.mean_distance,
        rho_a=rho_a,
        rho_b=rho_b,
        repetitions=repetitions,
        remainder_seconds=remainder,
        collection_time=collection_time,
    )


def _check_resolved(t: Topology, s: ScenarioParams,
                    repetitions: int) -> None:
    """BudgetError, naming the SNR and the round count, when the noise
    is positive but the noise variance of one of `repetitions` rounds,
    or a bound, underflows to 0, or when a bound overflows: a zero or an
    inf would be stated as the bound, and rows drawn at zero variance
    would be noiseless. The least bound is an antenna's one hop from the
    reference, which every wiring has: 1 / repetitions times rho_a or
    rho_b, as `_distance_report` rounds it. The largest is the farthest
    antenna's, as many hops away as `t` has levels, times the larger
    rho. Rounding keeps order, so no other antenna or average lies
    outside the two.
    """
    if s.noise_variance == 0:
        return
    if min(s.noise_variance / repetitions, 1 / repetitions * s.rho_a,
           1 / repetitions * s.rho_b) > 0:
        if math.isfinite(len(t.levels) / repetitions
                         * max(s.rho_a, s.rho_b)):
            return
        problem = "a bound that overflows"
    else:
        problem = ("a bound or a per-round noise variance that underflows "
                   "to 0")
    signal = _signal_power(s.tx_amplitude * s.rx_amplitude, s.line_gain)
    raise BudgetError(
        f"SNR {10 * math.log10(signal / s.noise_variance):g} dB over "
        f"{repetitions:g} rounds gives {problem}")


def _chain_hop_total(m: int, f: int) -> int:
    """Total hop count to the reference f over the chain 1-2-...-m.

    The sum of |k - f| over k = 1..m: the f-1 antennas before f add
    (f-1)f/2 and the m-f after it (m-f)(m-f+1)/2. Every chain closed form
    is read off this one.
    """
    return ((f - 1) * f + (m - f) * (m - f + 1)) // 2


def daisy_mean_distance(m: int, f: int) -> Fraction:
    """Mean hop distance of the chain 1-2-...-m with the reference at f.

    The chain's total hop count (`_chain_hop_total`) over its m-1
    ordinary antennas; agrees exactly with averaging the hop counts for
    every valid f.
    """
    _check_m_reference(m, f)
    return Fraction(_chain_hop_total(m, f), m - 1)


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
    floor((m-1)/2) rounds, so the ratio is the chain's total hop count at
    the reference floor((m+1)/2) (`_chain_hop_total`) over
    (m-1) * floor((m-1)/2): (m+1)/(2m-2) for odd m and m^2/(2m^2-6m+4)
    for even m. Values below 1 mean the chain beats the star on equal
    time; both parities decrease toward 1/2.
    """
    if m < 3:
        raise ValueError(f"need m >= 3, got {m}")
    return Fraction(_chain_hop_total(m, (m + 1) // 2),
                    (m - 1) * ((m - 1) // 2))
