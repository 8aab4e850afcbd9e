"""Experiment drivers: SNR sweeps, exhaustive wiring checks, result output.

The sweep pairs closed-form average bounds with the Monte-Carlo error of
the exact-ML estimator across an SNR grid, one routine drawing,
estimating and scoring each batch of trials. The verify_* functions check,
over every tree within a cap, the optimality statements the closed forms
promise: the star minimizes the single-round average bound, collection
times sit between the chain's and the star's, and under equal time
budgets the mid-referenced chain beats the star from m=5 on (and every
other tree for 5 <= m <= 9).
The mean distance and the collection time depend on the labels only
through the tree's shape rooted at the reference (the collection time
through its largest degree), so all three checks count trees by rooted
shape, each once with weight (m-1)!/|Aut|, the number of labeled trees
it stands for. The star and chain checks read each shape's total depth
and degree off its level sequence and decide on those integers, the
chain's total taken from its one closed form in `crlb`
(`_chain_hop_total`); they build `Fraction`s only for their reports. The
time-bounds check colors one labeling of every shape, one Python pass
each, and checks the colorings as one numpy block.
"""

from __future__ import annotations

import csv
import io
import json
import logging
import math
import os
import threading
from dataclasses import dataclass, fields
from fractions import Fraction
from functools import partial
from operator import attrgetter
from typing import TYPE_CHECKING, Iterable, NamedTuple

import numpy as np

from .crlb import (
    ScenarioParams,
    _chain_hop_total,
    _check_resolved,
    budgeted_average_crlb,
    crlb_closed_form,
    daisy_vs_star_ratio,
)
from .errors import BudgetError, ConfigError, is_finite, is_integer
from .estimator import mean_sq_errors, ml_estimate_batch, work_size
from .simulate import add_gain_products, draw_gain_batch, draw_noise
from .topology import (
    ENUMERATION_CAP,
    Topology,
    _check_m_reference,
    color_lines,
    enumerate_shapes,
    make_daisy,
    make_star,
    topology_from_dict,
)

if TYPE_CHECKING:
    from concurrent.futures import ThreadPoolExecutor

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class ExperimentConfig:
    """Settings for one Monte-Carlo sweep over calibration SNRs.

    `budget_mode` "measurements" allows a single collection round;
    "time" grants `budget_value` slot durations, out of which as many
    whole rounds as fit are collected. A "star" or "daisy" topology
    takes `m` and `reference` as given, 129 and 64 when None; a
    "file:<path>" topology takes both from the file, and either one
    given beside it is rejected (`resolve_topology`).
    """

    m: int | None = None
    reference: int | None = None
    topology_kind: str = "daisy"
    snr_grid_db: tuple[float, ...] = (10.0, 15.0, 20.0, 25.0, 30.0, 35.0, 40.0)
    trials: int = 10_000
    master_seed: int = 0
    budget_mode: str = "measurements"
    budget_value: float | None = None
    output_format: str = "csv"
    output_path: str | None = None


@dataclass(frozen=True)
class SweepRow:
    """One sweep grid point: closed-form bounds next to simulated errors."""

    snr_db: float
    topology: str
    m: int
    reference: int
    repetitions: int
    remainder_seconds: float
    avg_crlb_alpha: float
    avg_crlb_beta: float
    avg_mse_alpha: float
    avg_mse_beta: float
    trials: int
    hazard_rate: float


#: Sweep output column -> SweepRow field, in field order; the CSV and the
#: JSON renderer are both built from it. Two columns carry the paper's
#: symbols for the rounds a budget allows and the seconds left over.
_SYMBOLS = {"repetitions": "I", "remainder_seconds": "F_seconds"}
_SWEEP_COLUMNS = {_SYMBOLS.get(f.name, f.name): f.name
                  for f in fields(SweepRow)}
_sweep_values = attrgetter(*_SWEEP_COLUMNS.values())


def validate_config(cfg: ExperimentConfig) -> Topology:
    """Raise ConfigError unless every field has its type and a valid
    value; return the wiring the config names.

    Config files arrive as JSON, so types are checked before any value;
    `m` and `reference` may be None. The wiring is resolved last, and a
    measurement budget is checked against its antenna count, which a
    "file:" topology takes from the file and not from `m`.
    """
    for name in ("m", "reference", "trials", "master_seed"):
        value = getattr(cfg, name)
        if not (is_integer(value)
                or (value is None and name in ("m", "reference"))):
            raise ConfigError(f"{name} must be an integer, got {value!r}")
    for name in ("topology_kind", "budget_mode", "output_format"):
        if not isinstance(getattr(cfg, name), str):
            raise ConfigError(
                f"{name} must be a string, got {getattr(cfg, name)!r}")
    if cfg.output_path is not None and not isinstance(cfg.output_path, str):
        raise ConfigError(
            f"output_path must be a string, got {cfg.output_path!r}")
    if (not isinstance(cfg.snr_grid_db, (tuple, list))
            or not all(map(is_finite, cfg.snr_grid_db))):
        raise ConfigError(
            "snr_grid_db must be a list of finite numbers, "
            f"got {cfg.snr_grid_db!r}")
    if cfg.budget_value is not None and not is_finite(cfg.budget_value):
        raise ConfigError(
            f"budget_value must be a finite number, got {cfg.budget_value!r}")
    if cfg.master_seed < 0:
        raise ConfigError(f"master_seed must be >= 0, got {cfg.master_seed}")
    if not cfg.snr_grid_db:
        raise ConfigError("SNR grid must not be empty")
    if cfg.trials < 1:
        raise ConfigError(f"trials must be >= 1, got {cfg.trials}")
    if cfg.budget_mode == "time":
        if cfg.budget_value is None or cfg.budget_value <= 0:
            raise ConfigError(
                "time budget needs a positive budget_value in slot durations")
    elif cfg.budget_mode != "measurements":
        raise ConfigError(f"unknown budget mode {cfg.budget_mode!r}")
    if cfg.output_format not in ("csv", "json"):
        raise ConfigError(f"unknown output format {cfg.output_format!r}")
    topo = resolve_topology(cfg)
    one_round = 2 * (topo.m - 1)
    if (cfg.budget_mode == "measurements" and cfg.budget_value is not None
            and cfg.budget_value != one_round):
        raise ConfigError(
            "a measurement budget supports exactly one round of "
            f"2(m-1)={one_round} measurements")
    return topo


def resolve_topology(cfg: ExperimentConfig) -> Topology:
    """Build the wiring the config names.

    A "file:" topology gives the antenna count and reference, so `m` or
    `reference` beside it raises ConfigError, which names the field,
    rather than being ignored. "star" and "daisy" take 129 antennas and
    reference 64 for a field that is None.
    """
    kind = cfg.topology_kind
    if kind.startswith("file:"):
        for name in ("m", "reference"):
            if getattr(cfg, name) is not None:
                raise ConfigError(f"a file: topology does not read {name}; "
                                  "the file gives m and the reference")
        with open(kind[len("file:"):], encoding="utf-8") as fh:
            return topology_from_dict(json.load(fh))
    m = 129 if cfg.m is None else cfg.m
    reference = 64 if cfg.reference is None else cfg.reference
    if kind == "star":
        return make_star(m, reference)
    if kind == "daisy":
        return make_daisy(m, reference)
    raise ConfigError(f"unknown topology kind {kind!r}")


#: Trials drawn and estimated together. Fixed, because every chunk's
#: draws come from its own seed: another size would give other numbers.
_CHUNK = 256
#: Antenna-trials (trials times m) estimated in one call at most. Chunks
#: of consecutive grid points share a call up to this size and a larger
#: chunk takes one of its own, so a call's arrays stay within those of a
#: full chunk or of _BATCH antenna-trials, whichever is larger.
_BATCH = 8192

#: (process id, executor) of the one thread that runs sweep batches
#: beside the caller
_helper: tuple[int, ThreadPoolExecutor] | None = None


def _sweep_helper() -> ThreadPoolExecutor:
    """The process's sweep helper thread, started on first use.

    A forked child inherits the executor but not its thread, and would
    wait on it forever, so a new process id gets a new executor.
    `concurrent.futures` is imported here, so that commands which never
    sweep do not load it.
    """
    from concurrent.futures import ThreadPoolExecutor

    global _helper
    if _helper is None or _helper[0] != os.getpid():
        _helper = (os.getpid(), ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="selfcal-sweep"))
    return _helper[1]


def run_snr_sweep(cfg: ExperimentConfig,
                  scenario: ScenarioParams | None = None) -> list[SweepRow]:
    """Monte-Carlo estimator error across an SNR grid, next to the bounds.

    Each grid point takes the scenario's noise variance at its SNR
    (`ScenarioParams.at_snr`). The rounds the budget allows and the mean
    distance are worked out once per sweep, and each point scales them by
    its rho with the float steps of `crlb_closed_form`. A point at which
    a bound of its `crlb_closed_form` report or the noise variance of a
    round underflows to 0, or a bound overflows, raises BudgetError
    before anything is drawn, and so does one whose per-round noise
    variance sigma^2 / I lies below the float resolution of the gain
    products a b |h| (`_check_noise_resolved`). A point at which the
    scored trials' squared errors overflow raises BudgetError once the
    trials are drawn; one whose every trial is a hazard reports NaN.
    Every trial draws fresh gains and the collapsed observation of those
    rounds (the mean of I rounds as one draw, see `draw_noise`),
    estimates, and scores against the truth.
    Trials the estimator flags as division hazards are counted in
    `hazard_rate` and excluded from the error averages; rates above 1%
    are logged as flagged rows.

    Seeding: the trials of a grid point run in consecutive chunks of a
    fixed size (`_CHUNK`; the last chunk holds the rest). Chunk c of grid
    point g is seeded by SeedSequence((master_seed, g, c)), spawned once
    into a gain seed and a noise seed, and its trials take consecutive
    draws from those two streams. Output is therefore a pure function of
    the config and scenario, whatever order chunks run in; it is not
    byte-stable across chunk sizes.

    Drawn chunks of consecutive grid points wait in a batch of up to
    `_BATCH` antenna-trials, and each batch is estimated in one call:
    with few trials per point, the per-level cost of the propagation is
    then paid once per batch instead of once per grid point. Estimation
    and scoring act on each trial alone, so batching does not change the
    output.

    A sweep call does only per-trial work: the named wirings, with their
    walk and propagation plan, are built once per process (`make_star`,
    `make_daisy`), and the call allocates, in one block, gain and
    observation buffers and a scratch area for each thread that runs
    batches (see below). Each chunk draws its normals and its phases
    straight into its rows of the buffers and the scratch, and every
    later stage runs once over the batch's rows; the draws and the
    estimator keep their work arrays in the scratch area, and the score
    its magnitudes in the observation rows the estimator has consumed.

    Batches run on two threads: the calling thread and one helper
    thread per process each take the next batch not yet taken, draw its
    chunks' noise (`draw_noise`), then their gains (`draw_gain_batch`)
    and the gain products (`add_gain_products`) into rows of their own,
    estimate and score it (`_run_batch`). numpy releases the GIL in the
    draws; the threads trade it around every numpy call, and the
    batch-wide stages keep those calls few and large. A batch's result
    is each chunk's error sum and hazard count, and the call adds them up
    in chunk order once both threads are done, so the output is the same
    bytes whichever thread ran which batch. A sweep of one batch runs it
    on the caller alone. If a batch raises on either thread, the other
    thread takes no new batch; the call withdraws the helper's task if it
    has not started and waits for it if it has, then raises, so no batch
    a call starts outlives it.
    """
    topo = validate_config(cfg)
    base = scenario if scenario is not None else ScenarioParams()
    points = len(cfg.snr_grid_db)
    scenarios = [base.at_snr(snr_db) for snr_db in cfg.snr_grid_db]
    # the bounds depend on the SNR only through rho
    bound = _budget_report(topo, scenarios[0], cfg.budget_mode,
                           cfg.budget_value)
    mean_factor = float(bound.mean_distance / bound.repetitions)
    for s in scenarios:
        _check_resolved(topo, s, bound.repetitions)
    for snr_db, s in zip(cfg.snr_grid_db, scenarios):
        _check_noise_resolved(snr_db, s, bound.repetitions)
    m, pairs = topo.m, 2 * (topo.m - 1)
    batches = _plan_batches(cfg, m)
    capacity = max(batch[-1].rows.stop for batch in batches)
    # per thread: gain and observation rows, the observation rows taking
    # the score's magnitudes once the walk has consumed them, and scratch
    # for a batch's phases, then its gain products and gathered transmit
    # gains, then its estimator work arrays, the largest of the three;
    # the helper's set only when there is a batch for it. One block, not
    # several: glibc raises its mmap and trim thresholds to the largest
    # block it has freed, so the next call's buffers and temporaries stay
    # in a heap it neither trims nor faults in again.
    gains_end, observed_end = capacity * 2 * m, capacity * (2 * m + pairs)
    block = np.empty((min(len(batches), 2),
                      observed_end + capacity * work_size(m, 1)),
                     dtype=complex)
    row_sets = [_Rows(part[:gains_end].reshape(capacity, 2, m),
                      part[gains_end:observed_end].reshape(capacity, pairs),
                      part[observed_end:])
                for part in block]
    run_batch = partial(_run_batch, topo=topo, scenarios=scenarios,
                        repetitions=bound.repetitions)
    sums = np.zeros((points, 2))
    hazards = np.zeros(points, dtype=int)
    for scores in _share_batches(batches, run_batch, row_sets):
        for grid_index, error_sum, hazard_count in scores:
            sums[grid_index] += error_sum
            hazards[grid_index] += hazard_count
    rows: list[SweepRow] = []
    for snr_db, s, sum_sq, hazard_count in zip(
            cfg.snr_grid_db, scenarios, sums, hazards):
        completed = cfg.trials - hazard_count
        mse = sum_sq / completed if completed else np.full(2, np.nan)
        mse_alpha, mse_beta = mse.tolist()
        if completed and not (math.isfinite(mse_alpha)
                              and math.isfinite(mse_beta)):
            raise BudgetError(
                f"SNR {snr_db:g} dB over {bound.repetitions:g} rounds gives "
                "squared estimation errors that overflow")
        hazard_rate = int(hazard_count) / cfg.trials
        if hazard_rate > 0.01:
            log.warning("flagged grid point %.1f dB: hazard rate %.4f",
                        snr_db, hazard_rate)
        rows.append(SweepRow(
            snr_db=float(snr_db),
            topology=cfg.topology_kind,
            m=topo.m,
            reference=topo.reference,
            repetitions=bound.repetitions,
            remainder_seconds=bound.remainder_seconds,
            avg_crlb_alpha=mean_factor * s.rho_b,
            avg_crlb_beta=mean_factor * s.rho_a,
            avg_mse_alpha=mse_alpha,
            avg_mse_beta=mse_beta,
            trials=cfg.trials,
            hazard_rate=hazard_rate,
        ))
    return rows


class _Chunk(NamedTuple):
    """Consecutive trials of one grid point, drawn from their own seeds."""

    grid_index: int
    rows: slice  # its rows in the batch buffers
    entropy: tuple[int, int, int]  # (master_seed, grid index, chunk index)

    @property
    def trials(self) -> int:
        return self.rows.stop - self.rows.start

    def seeds(self) -> tuple[np.random.SeedSequence, ...]:
        """The gain seed and the noise seed: the two children that
        SeedSequence(entropy).spawn(2) gives, built directly."""
        return tuple(np.random.SeedSequence(self.entropy, spawn_key=(i,))
                     for i in (0, 1))


class _Rows(NamedTuple):
    """One thread's batch buffers: gain rows, observation rows, scratch."""

    gains: np.ndarray  # (capacity, 2, m)
    observed: np.ndarray  # (capacity, 2(m-1))
    scratch: np.ndarray  # flat


def _plan_batches(cfg: ExperimentConfig, m: int) -> list[list[_Chunk]]:
    """The sweep's chunks, grouped into batches in draw order.

    Grid point g's trials run in consecutive chunks of `_CHUNK`, the
    points in order; a batch is closed before a chunk that would take it
    past `_BATCH` antenna-trials, unless it is empty. Chunk c of point g
    carries the entropy (master_seed, g, c) of its seeds, which the
    thread that draws it builds.
    """
    batches: list[list[_Chunk]] = [[]]
    batched = 0
    for grid_index in range(len(cfg.snr_grid_db)):
        for chunk_index, first in enumerate(range(0, cfg.trials, _CHUNK)):
            trials = min(_CHUNK, cfg.trials - first)
            if batched and (batched + trials) * m > _BATCH:
                batches.append([])
                batched = 0
            batches[-1].append(_Chunk(
                grid_index, slice(batched, batched + trials),
                (cfg.master_seed, grid_index, chunk_index)))
            batched += trials
    return batches


def _share_batches(batches: list[list[_Chunk]], run_batch,
                   row_sets: list[_Rows]) -> list:
    """`run_batch(batch, rows)` for every batch, in batch order.

    The calling thread and, given a second set of rows, the sweep helper
    each take the next batch not yet taken, under a lock, into their own
    rows. Once a batch raises, neither thread takes another; the caller
    withdraws the helper's task if it has not started and waits for it
    if it has, then raises its own error or else the helper's.
    """
    results: list = [None] * len(batches)
    order = iter(range(len(batches)))
    lock = threading.Lock()
    failed = False

    def take_batches(rows: _Rows) -> None:
        nonlocal failed
        while True:
            with lock:
                k = None if failed else next(order, None)
            if k is None:
                return
            try:
                results[k] = run_batch(batches[k], rows)
            except BaseException:
                with lock:
                    failed = True
                raise

    if len(row_sets) == 1:
        take_batches(row_sets[0])
        return results
    helper = _sweep_helper().submit(take_batches, row_sets[1])
    try:
        take_batches(row_sets[0])
    except BaseException:
        # a task the helper has not started is withdrawn; one it has
        # started is waited for, raising nothing of its own here
        if not helper.cancel():
            helper.exception()
        raise
    if not helper.cancel():
        helper.result()
    return results


def _run_batch(batch: list[_Chunk], rows: _Rows, topo: Topology,
               scenarios: list[ScenarioParams],
               repetitions: int) -> list[tuple[int, np.ndarray, int]]:
    """Draw a batch's chunks into `rows`, then estimate and score them.

    Each chunk's gains and observations (the mean of `repetitions`
    rounds under its grid point's scenario) come from its own two seeds,
    and a chunk draws only what those give: first every chunk's noise
    (`draw_noise`, each at its grid point's variance), then every chunk's
    phases, which `draw_gain_batch` turns into gains in one pass over the
    batch, and last the batch's gain products (`add_gain_products`). The
    transform, the products and the estimator read only the line gain and
    amplitudes, which every grid point shares, and work in the scratch;
    the score takes the gain rows and the observation rows, which the
    walk has consumed, as its own scratch. Each chunk gives its (grid
    index, error sum over its sound trials, flagged trial count).
    """
    gains, observed, scratch = rows
    m, ref = topo.m, topo.reference - 1
    n = batch[-1].rows.stop
    gain_blocks, noise_blocks = [], []
    for chunk in batch:
        gains_seed, noise_seed = chunk.seeds()
        gain_blocks.append((chunk.trials, gains_seed))
        noise_blocks.append((
            chunk.trials, noise_seed,
            scenarios[chunk.grid_index].noise_variance / repetitions))
    draw_noise(noise_blocks, observed[:n])
    draw_gain_batch(gain_blocks, m, scenarios[0], out=gains[:n],
                    phases=scratch.view(float)[:n * 2 * m].reshape(n, 2, m))
    add_gain_products(topo, gains[:n], scenarios[0], observed[:n], scratch)
    est, hazard_at = ml_estimate_batch(observed[:n], topo, scenarios[0],
                                       gains[:n, 0, ref], gains[:n, 1, ref],
                                       scratch)
    # flagged rows may score inf or NaN; they are masked out
    with np.errstate(over="ignore", invalid="ignore"):
        errors = mean_sq_errors(est, gains[:n],
                                observed[:n].reshape(-1).view(float))
    sound = hazard_at == 0
    return [(chunk.grid_index,
             errors[chunk.rows][sound[chunk.rows]].sum(axis=0),
             int(chunk.trials - sound[chunk.rows].sum()))
            for chunk in batch]


def _check_noise_resolved(snr_db: float, s: ScenarioParams,
                          repetitions: int) -> None:
    """BudgetError, naming the SNR and the round count, when the noise
    variance of one of `repetitions` rounds, sigma^2 / I, lies below
    (2^-52 a b |h|)^2: the noise is then below one ulp of the gain
    products it is added to, so the sweep's errors would score their
    rounding, not the noise, beside a bound that keeps falling."""
    resolution = 2.0 ** -52 * s.tx_amplitude * s.rx_amplitude * abs(
        s.line_gain)
    if s.noise_variance / repetitions < resolution * resolution:
        raise BudgetError(
            f"SNR {snr_db:g} dB over {repetitions:g} rounds gives a "
            "per-round noise variance below the float resolution of the "
            "gain products")


def _budget_report(t: Topology, s: ScenarioParams, budget_mode: str,
                   budget_value: float | None):
    """Bounds under a budget: one round for "measurements", as many
    rounds as fit into `budget_value` slot durations for "time"."""
    if budget_mode == "time":
        return budgeted_average_crlb(t, s,
                                     float(budget_value) * s.slot_duration)
    return crlb_closed_form(t, s)


def sweep_rows_to_csv(rows: Iterable[SweepRow]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(_SWEEP_COLUMNS)
    for values in map(_sweep_values, rows):
        # repr round-trips and is stable, so equal runs give equal bytes
        writer.writerow([repr(float(v)) if isinstance(v, float) else v
                         for v in values])
    return buf.getvalue()


def sweep_rows_to_json(rows: Iterable[SweepRow]) -> str:
    records = [dict(zip(_SWEEP_COLUMNS, values))
               for values in map(_sweep_values, rows)]
    return json.dumps(records, indent=2) + "\n"


@dataclass(frozen=True)
class StarOptimalityReport:
    """Exhaustive single-round check over every tree, counted by shape."""

    m: int
    reference: int
    tree_count: int
    min_mean_distance: Fraction
    minimizer_count: int
    distribution: dict
    passed: bool


def verify_star_optimality(m: int, reference: int = 1,
                           cap: int = ENUMERATION_CAP) -> StarOptimalityReport:
    """Confirm the reference-centered star minimizes the mean distance.

    Counts the total hop counts of all m**(m-2) labeled trees, each
    rooted shape once with its weight, and decides on that integer count:
    it passes when the smallest total is m-1 (a mean distance of exactly
    1), one tree attains it (only the star centered at the reference has
    every antenna one hop from it), and the weights add up to all
    m**(m-2) trees, so that a shape the enumeration misses fails the
    check. The report's `distribution` maps each mean distance, ascending,
    to its tree count.
    """
    _check_m_reference(m, reference)  # the shapes stand for any reference
    # by total hop count: over m-1 antennas it orders as the mean does
    counts: dict[int, int] = {}
    for levels, _, weight, _ in enumerate_shapes(m, cap):
        total = sum(levels)
        counts[total] = counts.get(total, 0) + weight
    tree_count = sum(counts.values())
    lowest = min(counts)
    minimizers = counts[lowest]
    passed = lowest == m - 1 and minimizers == 1 and tree_count == m ** (m - 2)
    distribution = {Fraction(total, m - 1): count
                    for total, count in sorted(counts.items())}
    return StarOptimalityReport(m, reference, tree_count,
                                Fraction(lowest, m - 1), minimizers,
                                distribution, passed)


@dataclass(frozen=True)
class TimeBoundsReport:
    """Exhaustive check of collection-time bounds and schedule validity."""

    m: int
    tree_count: int
    min_slots: int
    max_slots: int
    chain_count: int
    star_count: int
    schedules_valid: bool
    passed: bool


def verify_time_bounds(m: int, cap: int = ENUMERATION_CAP) -> TimeBoundsReport:
    """Confirm 4 <= slots <= 2(m-1) with equality exactly for chains/stars.

    A schedule takes 2 * max_degree slots, and the degrees depend on a
    tree's rooted shape alone, so each shape is colored once
    (`color_lines`), labeled by preorder from the root: its lines are
    (parent, node). A colored schedule sounds every line direction once
    and nothing off the lines by construction, so what is left to check
    is the coloring, all shapes as one block: the keys (antenna, color)
    over both ends of every line, as the shape gives the lines, are
    distinct within each shape (one sort per row), and each shape takes
    `Shape.max_degree` colors. The report is read off a count of the
    shapes' weights by 2 * max_degree slots, so it passes only if the
    weights add up to all m**(m-2) labeled trees, every coloring is
    proper, and the equality cases are the m!/2 labeled paths and the m
    stars.
    """
    if m < 3:
        raise ValueError(f"time bounds need m >= 3, got {m}")
    low, high = 4, 2 * (m - 1)
    nodes = range(1, m)
    shapes = list(enumerate_shapes(m, cap))
    parents = [shape.parents[1:] for shape in shapes]  # of nodes 1..m-1
    parent = np.array(parents, dtype=int).reshape(-1, m - 1)
    color = np.array([color_lines(list(zip(above, nodes)))
                      for above in parents], dtype=int).reshape(-1, m - 1)
    degrees = [shape.max_degree for shape in shapes]
    # (antenna, color) at both ends of every line, in a base above every
    # color that came back, so that two keys are equal only if both are
    base = int(color.max(initial=0)) + 1
    keys = np.concatenate([parent * base + color,
                           np.arange(1, m) * base + color], axis=1)
    keys.sort(axis=1)
    proper = (keys[:, 1:] != keys[:, :-1]).all(axis=1)
    # colors 0..max_degree-1, so that the slots number 2 * max_degree
    counted = (color.min(axis=1) >= 0) & (color.max(axis=1) + 1 == degrees)
    schedules_valid = bool((proper & counted).all())
    # slots -> labeled trees
    by_slots: dict[int, int] = {}
    for shape in shapes:
        slots = 2 * shape.max_degree
        by_slots[slots] = by_slots.get(slots, 0) + shape.weight
    tree_count = sum(by_slots.values())
    min_slots, max_slots = min(by_slots, default=0), max(by_slots, default=0)
    chain_count, star_count = by_slots.get(low, 0), by_slots.get(high, 0)
    passed = (schedules_valid and tree_count == m ** (m - 2)
              and min_slots == low and max_slots == high
              and chain_count == math.factorial(m) // 2 and star_count == m)
    return TimeBoundsReport(m, tree_count, min_slots, max_slots,
                            chain_count, star_count, schedules_valid, passed)


@dataclass(frozen=True)
class DaisyOptimalityEntry:
    """Chain-vs-star verdict for one antenna count."""

    m: int
    ratio: Fraction
    beats_star: bool
    brute_forced: bool
    brute_min: Fraction | None
    brute_min_matches: bool | None
    minimizers_as_expected: bool | None
    passed: bool


@dataclass(frozen=True)
class DaisyOptimalityReport:
    entries: tuple[DaisyOptimalityEntry, ...]
    passed: bool


def verify_daisy_optimality(m_values: Iterable[int],
                            brute_force_cap: int = ENUMERATION_CAP
                            ) -> DaisyOptimalityReport:
    """Check when the chain beats the star under equal time budgets.

    For each m the closed-form ratio must fall below 1 exactly when
    m >= 5. Within the enumeration cap, a brute force over every rooted
    shape under a 2(m-1)-slot budget additionally confirms the winner:
    the mid-referenced chain for 5 <= m <= 9 (all minimizers are chains
    with the optimal mean distance), the star for m < 5. Above m=9 the
    brute force fails: at m=10 a tree of max degree 3 with mean distance
    5/3 collects 3 rounds and reaches 5/9 against the chain's 25/36. An
    empty `m_values` checks nothing and is rejected.

    A shape's objective, its mean distance over its rounds, is its total
    depth over (m-1) * rounds. Each is compared with the running minimum
    by integer cross-multiplication, and only the minimum's two verdicts
    are kept: every shape reaching it is an optimal chain, its total the
    chain's closed form (`_chain_hop_total`), and the star reaches it.
    The only `Fraction`s built are the report's `ratio` and `brute_min`.
    """
    entries: list[DaisyOptimalityEntry] = []
    for m in m_values:
        ratio = daisy_vs_star_ratio(m)
        beats = ratio < 1
        ok = beats == (m >= 5)
        brute = m <= brute_force_cap
        brute_min = brute_matches = minimizers_ok = None
        if brute:
            # objective: total depth over rounds, over the m-1 antennas,
            # total / ((m-1) * rounds), compared by cross-multiplication
            chain_total = _chain_hop_total(m, (m + 1) // 2)
            best_total, best_den = m, 1  # above every objective, <= m/2
            # the minimum's verdicts: all trees reaching it are optimal
            # chains; the star, the only tree of total m-1, reaches it
            chains = star = False
            for levels, _, _, degree in enumerate_shapes(m, brute_force_cap):
                total = sum(levels)
                den = (m - 1) * ((m - 1) // degree)
                lower = total * best_den
                if lower > best_total * den:
                    continue
                if lower < best_total * den:
                    best_total, best_den = total, den
                    chains, star = True, False
                chains = chains and degree == 2 and total == chain_total
                star = star or total == m - 1
            brute_min = Fraction(best_total, best_den)
            brute_matches = brute_min == (ratio if m >= 5 else 1)
            minimizers_ok = chains if m >= 5 else star
            ok = ok and brute_matches and minimizers_ok
        entries.append(DaisyOptimalityEntry(
            m, ratio, beats, brute, brute_min, brute_matches,
            minimizers_ok, ok))
    if not entries:
        raise ValueError("no antenna counts to check")
    return DaisyOptimalityReport(tuple(entries),
                                 all(e.passed for e in entries))
