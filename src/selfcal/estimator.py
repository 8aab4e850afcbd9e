"""Exact maximum-likelihood recovery of the unknown gains.

On a tree wiring the 2(m-1) directed measurements exactly determine the
2(m-1) unknown gains once the reference antenna's gains and the line gain
are known. Walking outward from the reference and dividing each
measurement by the already-known upstream factors drives every residual
to zero, and a zero-residual point of a Gaussian likelihood is its
maximum.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .crlb import ScenarioParams
from .errors import DivisionHazard
from .simulate import MeasurementSet, RfGains
from .topology import Topology


@dataclass(frozen=True, eq=False)
class GainEstimates:
    """Recovered gains for every ordinary antenna, ascending index order."""

    antennas: tuple[int, ...]
    alpha_hat: np.ndarray
    beta_hat: np.ndarray
    reference: int
    reference_alpha: complex
    reference_beta: complex


@dataclass(frozen=True, eq=False)
class EstimationError:
    """Squared gain errors per ordinary antenna plus their averages."""

    antennas: tuple[int, ...]
    alpha_sq_error: np.ndarray
    beta_sq_error: np.ndarray
    average_alpha: float
    average_beta: float


#: Estimates below this fraction of their nominal amplitude are hazards.
_HAZARD_FLOOR = 1e-9


def ml_estimate(ms: MeasurementSet, t: Topology, s: ScenarioParams,
                ref_alpha: complex, ref_beta: complex) -> GainEstimates:
    """Recover all unknown gains from a measurement set of any number of
    rounds.

    The per-direction mean of the rounds carries everything they say
    about the gains (i.i.d. noise around a common mean), so that mean,
    divided by the set's sounding value, is handed to `ml_estimate_batch`
    as a batch of one trial. The set must carry exactly the measurements
    of the wiring in `t.directed_pairs` order, as `synthesize` and replay
    files give them: nothing else, none missing, and at least one round.

    Raises DivisionHazard naming the first antenna, in walk order, whose
    estimate fell below `_HAZARD_FLOOR` times its nominal amplitude
    (everything downstream would be noise amplification, which signals an
    SNR too low for the chain) or is not finite (finite observations can
    still overflow, or a tiny sounding value turn them into infinities).
    """
    if ref_alpha == 0 or ref_beta == 0:
        raise ValueError("reference gains must be nonzero")
    if ms.pairs != t.directed_pairs:
        missing = sorted(set(t.directed_pairs) - set(ms.pairs))
        extra = sorted(set(ms.pairs) - set(t.directed_pairs))
        raise ValueError(
            f"measurement pairs do not match the wiring: missing "
            f"{missing}, not on any line {extra}")
    if not ms.values.shape[1]:
        raise ValueError("the measurement set holds no rounds")
    # overflow and NaN are raised on below, by antenna, not warned about
    with np.errstate(all="ignore"):
        values = ms.values.mean(axis=1) / ms.sounding_value
        est, hazard_at = ml_estimate_batch(values[None, :], t, s,
                                           np.array([ref_alpha]),
                                           np.array([ref_beta]))
    finite = np.isfinite(est[0]).all(axis=0)
    for k in (t.reference, *(c for level in t.levels for _, c in level)):
        if k == hazard_at[0]:
            raise DivisionHazard(
                f"estimate at antenna {k} fell below "
                f"{_HAZARD_FLOOR:g} of its nominal amplitude")
        if not finite[k - 1]:
            raise DivisionHazard(f"estimate at antenna {k} is not finite")
    picks = np.array(t.ordinary) - 1
    return GainEstimates(t.ordinary, est[0, 0, picks], est[0, 1, picks],
                         t.reference, complex(ref_alpha), complex(ref_beta))


def ml_estimate_batch(values: np.ndarray, t: Topology, s: ScenarioParams,
                      ref_alpha: np.ndarray, ref_beta: np.ndarray,
                      work: np.ndarray | None = None
                      ) -> tuple[np.ndarray, np.ndarray]:
    """Exact ML recovery for a batch of trials, one BFS level at a time.

    `values` holds one collapsed, unit-sounding observation row per trial
    with columns in `t.directed_pairs` order; `ref_alpha` and `ref_beta`
    hold each trial's reference gains. For each line from a known parent
    p to a child q, the receive gain of q is the measurement received at
    q over h * alpha_p, and the transmit gain of q the measurement
    received at p over beta_p * h; every line of a level is solved for
    every trial at once. Traversal order does not change the result, but
    a fixed one keeps failures reproducible.

    Returns (estimates, hazard_at). `estimates` is a (trials, 2, m) array
    laid out like `draw_gain_batch`, with the reference gains copied in.
    `hazard_at[k]` is 0 when trial k's walk is sound, else the antenna
    (1-based) at which a walk in breadth-first order would first have
    divided by an estimate below `_HAZARD_FLOOR` times its nominal
    amplitude; such rows hold arbitrary values, possibly inf or NaN.

    `work`, a flat complex array of at least `work_size(t.m, trials)`
    elements, holds the work arrays when given, and the estimates are
    then a view into it; it changes no value.
    """
    plan = t.propagation_plan
    n = len(values)
    if work is None:
        work = np.empty(work_size(t.m, n), dtype=complex)
    # antenna-major work arrays holding (alpha, beta) per antenna, so a
    # level reads and writes whole rows; each measurement is used once,
    # so reorder them to (back, out) per line, in contiguous blocks per
    # level, and take the line gain out up front. The reordered rows pass
    # through the front of `work` ("clip" keeps np.take from buffering,
    # and every index is in range), which the estimates take over once
    # the rows are stored transposed behind it.
    gathered = work[:values.size].reshape(values.shape)
    np.take(values, plan.order, axis=1, out=gathered, mode="clip")
    measured = work[2 * t.m * n:][:values.size].reshape(t.m - 1, 2, n)
    measured[...] = gathered.T.reshape(measured.shape)
    work = work[:2 * t.m * n].reshape(t.m, 2, n)
    measured *= 1 / complex(s.line_gain)
    work[t.reference - 1] = ref_alpha, ref_beta
    # a hazardous row may divide by zero; it is masked, not raised
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for level in plan.levels:
            # (alpha, beta) of a child = (back / beta, out / alpha) of its
            # parent: one division per level, the parent's pair reversed,
            # written over the measurements it consumes
            quotient = measured[level.lines]
            np.divide(quotient, work[level.parents, ::-1], out=quotient)
            work[level.children] = quotient
    # every divisor is final once written, so checking them all afterwards
    # flags exactly the trials the walk would have stopped on. The
    # measurements are consumed by now: their area takes the magnitudes
    # of the rows from the lowest divisor to the highest, read as a view
    # (one row on the star, all but the ends on the mid-referenced chain)
    floors = _HAZARD_FLOOR * np.array([[s.tx_amplitude], [s.rx_amplitude]])
    first, last = plan.parents.min(), plan.parents.max() + 1
    hull = work[first:last]
    magnitudes = np.abs(hull, out=measured.reshape(-1).view(float)[
        :hull.size].reshape(hull.shape))
    low = magnitudes < floors
    low = np.logical_or(low[:, 0], low[:, 1])[plan.parents - first]
    hazard_at = np.zeros(n, dtype=int)
    if low.any():
        hit = low.any(axis=0)
        hazard_at[hit] = plan.parents[low[:, hit].argmax(axis=0)] + 1
    return work.transpose(2, 1, 0), hazard_at


def work_size(m: int, trials: int) -> int:
    """Complex elements `ml_estimate_batch` works in for `trials` trials
    of an m-antenna wiring: the (m, 2, trials) estimates and, behind
    them, the 2(m-1) measurements per trial, whose area then holds the
    hazard check's magnitudes (at most 2m floats per trial) and is free
    once the call returns."""
    return 2 * (2 * m - 1) * trials


def mean_sq_errors(est: np.ndarray, truth: np.ndarray,
                   scratch: np.ndarray | None = None) -> np.ndarray:
    """Per-trial average squared error over the ordinary antennas.

    Both arrays are (trials, 2, m) batches, estimates from
    `ml_estimate_batch`; returns (trials, 2) with the transmit-gain
    average in column 0 and the receive-gain average in column 1. The
    reference column contributes exactly zero, as the estimates copy it.
    Rows of flagged trials may come out inf or NaN.

    `scratch`, a float array of at least `est.size` elements apart from
    both batches, holds the error magnitudes when given, and the errors
    themselves are then written over `truth` (C-contiguous), so that
    nothing the size of a batch is allocated; the scores are the same.
    """
    if scratch is None:
        sq = np.abs(est - truth)
    else:
        diff = np.subtract(est, truth, out=truth)
        sq = np.abs(diff, out=scratch[:diff.size].reshape(diff.shape))
    sq **= 2
    return sq.sum(axis=2) / (truth.shape[2] - 1)


def estimation_error(est: GainEstimates, truth: RfGains) -> EstimationError:
    """Squared error of each recovered gain against the ground truth."""
    idx = np.fromiter(est.antennas, dtype=int) - 1
    alpha_sq = np.abs(est.alpha_hat - truth.alpha[idx]) ** 2
    beta_sq = np.abs(est.beta_hat - truth.beta[idx]) ** 2
    return EstimationError(est.antennas, alpha_sq, beta_sq,
                           float(alpha_sq.mean()), float(beta_sq.mean()))


def estimates_to_dict(est: GainEstimates) -> dict:
    """JSON-ready view, complex values as [real, imag] pairs."""
    return {
        "antennas": list(est.antennas),
        "alpha_hat": [[float(v.real), float(v.imag)] for v in est.alpha_hat],
        "beta_hat": [[float(v.real), float(v.imag)] for v in est.beta_hat],
        "reference": est.reference,
        "reference_alpha": [est.reference_alpha.real, est.reference_alpha.imag],
        "reference_beta": [est.reference_beta.real, est.reference_beta.imag],
    }
