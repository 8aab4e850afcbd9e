"""The four benchmark workloads: inputs, timed steps, output checks.

Each workload builds its inputs from the seed in `setup` and ends it with
one untimed warm-up unit. `kernel` names the reference kernel that
measures the host's speed beside each step (see run.py). A pass runs
every name in `steps` once through `run_step`; each step is timed on
its own and does a fixed amount of work (`step_units[name]` trials,
trees or solves). `check_step` checks a step's outputs (untimed) and
`finish` runs the checks that need all passes. `install_tracing` wraps
the library functions a step reaches, where the caller looks them up, so
a traced pass records spans without any change under `src/`.

Expected values are computed here from first principles (hop distances,
Cayley's formula, the repetition count a time budget allows), not by
calling the library function under test.
"""

from __future__ import annotations

import csv
import io
import math
import statistics
from fractions import Fraction
from types import SimpleNamespace

import numpy as np

import selfcal
from selfcal import crlb, harness
from selfcal.errors import DivisionHazard

SNR_GRID_DB = (10.0, 15.0, 20.0, 25.0, 30.0, 35.0, 40.0)
SWEEP_HEADER = ("snr_db,topology,m,reference,I,F_seconds,avg_crlb_alpha,"
                "avg_crlb_beta,avg_mse_alpha,avg_mse_beta,trials,hazard_rate")

#: Standard errors by which a pooled MSE/CRLB ratio may miss its target.
#: The standard error comes from >= 16 passes (t with >= 15 degrees of
#: freedom), for which |t| > 8 has probability below 1e-6.
MSE_BAND_Z = 8.0
#: Largest predicted second-order excess d_max * rho / (2 I) at which the
#: estimator counts as efficient, so its MSE must match the bound.
LINEAR_REGIME_EXCESS = 0.005
#: Largest tolerated share of trials lost to a DivisionHazard.
MAX_HAZARD_RATE = 0.01
#: Relative tolerance between numeric inversion and the closed form.
BOUND_RTOL = 1e-9


class Checks:
    """Output checks attempted and failed; failures keep a short reason."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def check(self, ok, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(what)


# -- expected values, from first principles ---------------------------------

def hop_distances(m: int, reference: int, edges) -> dict[int, int]:
    """Hop count from the reference to every antenna, by BFS."""
    adj: dict[int, list[int]] = {k: [] for k in range(1, m + 1)}
    for p, q in edges:
        adj[p].append(q)
        adj[q].append(p)
    dist = {reference: 0}
    frontier = [reference]
    while frontier:
        nxt = []
        for node in frontier:
            for other in adj[node]:
                if other not in dist:
                    dist[other] = dist[node] + 1
                    nxt.append(other)
        frontier = nxt
    return dist


def cayley_count(m: int) -> int:
    """Number of labelled trees on m antennas."""
    return m ** (m - 2)


def expected_average_crlb(distance_sum: int, m: int, repetitions: int,
                          snr_db: float) -> float:
    """Average bound of the unit scenario: mean distance / I * sigma^2.

    Evaluated in the same float steps as the library, so equality is exact.
    """
    sigma2 = 1.0 * 10.0 ** (-snr_db / 10.0)
    return float(Fraction(distance_sum, m - 1) / repetitions) * sigma2


def chain_vs_star_ratio(m: int) -> Fraction:
    """Best-reference chain average over the star's, on the star's budget.

    The chain needs 4 slots per round, so 2(m-1) slots allow (m-1)//2
    rounds; the star's single-round mean distance is 1.
    """
    f = (m + 1) // 2
    mean = Fraction(sum(abs(k - f) for k in range(1, m + 1)), m - 1)
    return mean / ((m - 1) // 2)


# -- sweeps -------------------------------------------------------------------

class SweepWorkload:
    """`run_snr_sweep` at a fixed trials-per-point, plus CSV rendering."""

    unit = "trial"
    min_passes = 16
    steps = ("sweep",)

    def __init__(self, name: str, kind: str, budget_mode: str,
                 budget_value: float | None, repetitions: int, m: int,
                 reference: int, grid: tuple[float, ...], trials: int,
                 kernel: str):
        self.name = name
        self.kernel = kernel
        self.kind = kind
        self.budget_mode = budget_mode
        self.budget_value = budget_value
        self.repetitions = repetitions
        self.m = m
        self.reference = reference
        self.grid = grid
        self.trials = trials
        self.step_units = {"sweep": trials * len(grid)}
        self.calls = SimpleNamespace(run_snr_sweep=harness.run_snr_sweep,
                                     sweep_rows_to_csv=harness.sweep_rows_to_csv)

    def params(self) -> dict:
        return {"m": self.m, "reference": self.reference,
                "topology": self.kind, "budget_mode": self.budget_mode,
                "budget_value": self.budget_value, "grid_db": self.grid,
                "trials_per_point": self.trials,
                "master_seed": "seed * 100000 + pass + 1"}

    def config(self, index: int, trials: int) -> harness.ExperimentConfig:
        return harness.ExperimentConfig(
            m=self.m, reference=self.reference, topology_kind=self.kind,
            snr_grid_db=self.grid, trials=trials,
            master_seed=self.seed * 100_000 + index + 1,
            budget_mode=self.budget_mode, budget_value=self.budget_value)

    def setup(self, seed: int) -> None:
        self.seed = seed
        self.ratios: list[list[tuple[float, float]]] = [[] for _ in self.grid]
        topo = harness.resolve_topology(self.config(-1, 1))
        dist = hop_distances(topo.m, topo.reference, topo.edges)
        self.max_distance = max(dist.values())
        self.expected_crlb = [
            expected_average_crlb(sum(dist.values()), topo.m,
                                  self.repetitions, snr) for snr in self.grid]
        # warm-up unit: one trial per grid point fills the lru_caches
        self.sweep(-1, trials=1)

    def sweep(self, index: int, trials: int):
        rows = self.calls.run_snr_sweep(self.config(index, trials))
        return rows, self.calls.sweep_rows_to_csv(rows)

    def run_step(self, step: str, index: int):
        return self.sweep(index, self.trials)

    def check_step(self, step: str, output, checks: Checks) -> None:
        rows, text = output
        lines = list(csv.reader(io.StringIO(text)))
        checks.check(bool(lines) and ",".join(lines[0]) == SWEEP_HEADER,
                     "CSV header")
        checks.check(len(lines) == 1 + len(self.grid), "CSV row count")
        checks.check(len(rows) == len(self.grid), "row count")
        for i, (row, snr) in enumerate(zip(rows, self.grid)):
            where = f"{snr:g} dB"
            checks.check(row.snr_db == snr, f"{where}: SNR")
            checks.check(row.repetitions == self.repetitions,
                         f"{where}: I={row.repetitions}")
            checks.check(row.remainder_seconds == 0.0,
                         f"{where}: F={row.remainder_seconds}")
            checks.check(row.avg_crlb_alpha == self.expected_crlb[i],
                         f"{where}: crlb alpha {row.avg_crlb_alpha!r}")
            checks.check(row.avg_crlb_beta == self.expected_crlb[i],
                         f"{where}: crlb beta {row.avg_crlb_beta!r}")
            checks.check(row.trials == self.trials, f"{where}: trials")
            checks.check(row.hazard_rate <= MAX_HAZARD_RATE,
                         f"{where}: hazard rate {row.hazard_rate}")
            ok = math.isfinite(row.avg_mse_alpha) and math.isfinite(row.avg_mse_beta)
            checks.check(ok, f"{where}: MSE not finite")
            if ok:
                self.ratios[i].append((row.avg_mse_alpha / row.avg_crlb_alpha,
                                       row.avg_mse_beta / row.avg_crlb_beta))

    def finish(self, checks: Checks) -> None:
        """MSE/CRLB against the standard error of the run's own passes.

        Where the estimator is efficient (max hop distance 1, so it is
        linear in the observations, or a small predicted second-order
        excess) the pooled ratio must be 1 within MSE_BAND_Z standard
        errors. Elsewhere it may exceed 1, but the bound must not be beaten.
        """
        for snr, ratios in zip(self.grid, self.ratios):
            rho = 10.0 ** (-snr / 10.0)
            excess = self.max_distance * rho / (2 * self.repetitions)
            efficient = self.max_distance == 1 or excess <= LINEAR_REGIME_EXCESS
            for g, gain in enumerate(("alpha", "beta")):
                values = [r[g] for r in ratios]
                if len(values) < 2:
                    checks.check(False, f"{snr:g} dB {gain}: <2 passes for SE")
                    continue
                mean = statistics.fmean(values)
                se = statistics.stdev(values) / math.sqrt(len(values))
                low = mean >= 1.0 - MSE_BAND_Z * se
                high = mean <= 1.0 + MSE_BAND_Z * se if efficient else True
                checks.check(low and high,
                             f"{snr:g} dB {gain}: MSE/CRLB {mean:.4f} "
                             f"± {se:.4f} outside the band")

    def install_tracing(self, tracer) -> None:
        last = [None, 0]  # topology of the latest call and its depth

        def depth(t) -> int:
            if last[0] is not t:
                last[:] = [t, max(hop_distances(t.m, t.reference,
                                                t.edges).values())]
            return last[1]

        def after_synthesize(args, kwargs, result, exc):
            s = args[2] if len(args) > 2 else kwargs["s"]
            if exc is None and s.noise_variance > 0:
                tracer.count("simulate.normals_drawn", 2 * result.values.size)

        def after_ml(args, kwargs, result, exc):
            t = args[1] if len(args) > 1 else kwargs["t"]
            tracer.count("estimator.calls")
            if isinstance(exc, DivisionHazard):
                tracer.count("estimator.hazards")
            elif exc is None:
                tracer.count("estimator.edges_propagated", len(t.rooted_edges))
                tracer.counts["estimator.propagation_levels"] = max(
                    tracer.counts.get("estimator.propagation_levels", 0),
                    depth(t))

        wrap = tracer.wrap
        tracer.install(self.calls, "run_snr_sweep",
                       lambda f: wrap("harness.run_snr_sweep", f))
        tracer.install(self.calls, "sweep_rows_to_csv",
                       lambda f: wrap("harness.render", f))
        tracer.install(harness, "draw_gains",
                       lambda f: wrap("simulate.draw_gains", f, new_unit=True))
        tracer.install(harness, "synthesize",
                       lambda f: wrap("simulate.synthesize", f,
                                      on_call=after_synthesize))
        tracer.install(harness, "collapse_repetitions",
                       lambda f: wrap("estimator.collapse_repetitions", f))
        tracer.install(harness, "ml_estimate",
                       lambda f: wrap("estimator.ml_estimate", f,
                                      on_call=after_ml))
        tracer.install(harness, "estimation_error",
                       lambda f: wrap("estimator.estimation_error", f))
        for attr in ("crlb_closed_form", "budgeted_average_crlb"):
            tracer.install(harness, attr,
                           lambda f: wrap("crlb.crlb_closed_form", f))


# -- exhaustive verification --------------------------------------------------

class VerifyWorkload:
    """Props 1 (reference 1) and 2 at one m, prop 3 over 3..m."""

    unit = "tree"
    kernel = "objects"
    min_passes = 1
    steps = ("prop1", "prop2", "prop3")

    def __init__(self, name: str, m: int):
        self.name = name
        self.m = m
        self.prop3_range = tuple(range(3, m + 1))
        self.step_units = {
            "prop1": cayley_count(m), "prop2": cayley_count(m),
            "prop3": sum(cayley_count(k) for k in self.prop3_range)}
        self.calls = SimpleNamespace(
            verify_star_optimality=harness.verify_star_optimality,
            verify_time_bounds=harness.verify_time_bounds,
            verify_daisy_optimality=harness.verify_daisy_optimality)

    def params(self) -> dict:
        return {"prop1": {"m": self.m, "reference": 1},
                "prop2": {"m": self.m}, "prop3": {"m_range": self.prop3_range}}

    def setup(self, seed: int) -> None:
        # the enumeration is exhaustive, so the seed selects nothing
        self.seed = seed
        self.calls.verify_star_optimality(4, reference=1)
        self.calls.verify_time_bounds(4)
        self.calls.verify_daisy_optimality((3, 4))

    def run_step(self, step: str, index: int):
        if step == "prop1":
            return self.calls.verify_star_optimality(self.m, reference=1)
        if step == "prop2":
            return self.calls.verify_time_bounds(self.m)
        return self.calls.verify_daisy_optimality(self.prop3_range)

    def check_step(self, step: str, output, checks: Checks) -> None:
        m = self.m
        if step == "prop1":
            checks.check(output.passed, "prop 1 not passed")
            checks.check(output.tree_count == cayley_count(m),
                         "prop 1 tree count")
            checks.check(output.min_mean_distance == 1, "prop 1 minimum")
            checks.check(output.minimizer_count == 1, "prop 1 minimizers")
        elif step == "prop2":
            checks.check(output.passed, "prop 2 not passed")
            checks.check(output.tree_count == cayley_count(m),
                         "prop 2 tree count")
            checks.check(output.min_slots == 4
                         and output.max_slots == 2 * (m - 1),
                         "prop 2 slot range")
            checks.check(output.chain_count == math.factorial(m) // 2,
                         "prop 2 chain count")
            checks.check(output.star_count == m, "prop 2 star count")
        else:
            checks.check(output.passed, "prop 3 not passed")
            checks.check([e.m for e in output.entries] == list(self.prop3_range),
                         "prop 3 entries")
            for e in output.entries:
                checks.check(e.passed and e.brute_forced and e.brute_min_matches,
                             f"prop 3 m={e.m} not passed")
                checks.check(e.ratio == chain_vs_star_ratio(e.m),
                             f"prop 3 m={e.m} ratio {e.ratio}")
                checks.check(e.beats_star == (e.m >= 5),
                             f"prop 3 m={e.m} verdict")

    def finish(self, checks: Checks) -> None:
        pass

    def install_tracing(self, tracer) -> None:
        wrap = tracer.wrap
        for attr in ("verify_star_optimality", "verify_time_bounds",
                     "verify_daisy_optimality"):
            tracer.install(self.calls, attr,
                           lambda f: wrap("harness.verify", f))
        tracer.install(harness, "enumerate_trees",
                       lambda f: tracer.wrap_generator(
                           "topology.enumerate_trees", f, new_unit=True))
        for attr in ("calibration_distances", "max_degree",
                     "measurement_schedule", "schedule_violations"):
            tracer.install(harness, attr,
                           lambda f, a=attr: wrap(f"topology.{a}", f))


# -- numeric bound ------------------------------------------------------------

class BoundWorkload:
    """Fisher assembly, numeric inversion and the closed form, per solve."""

    unit = "solve"
    kernel = "blas"
    min_passes = 1
    wirings = ("star", "chain", "random")

    def __init__(self, name: str, sizes: tuple[int, ...]):
        self.name = name
        self.sizes = sizes
        self.steps = tuple(f"{w}-{m}" for m in sizes for w in self.wirings)
        self.step_units = {step: 1 for step in self.steps}
        self.calls = SimpleNamespace(fisher_matrix=crlb.fisher_matrix,
                                     crlb_numeric=crlb.crlb_numeric,
                                     crlb_closed_form=crlb.crlb_closed_form)

    def params(self) -> dict:
        return {"sizes": self.sizes,
                "wirings": ["star, mid reference", "chain, mid reference",
                            "random tree, random reference"],
                "scenario": repr(self.scenario)}

    def setup(self, seed: int) -> None:
        self.seed = seed
        rng = np.random.default_rng(seed)
        s = self.scenario = crlb.ScenarioParams(
            line_gain=complex(rng.uniform(0.5, 1.5) * np.exp(
                1j * rng.uniform(-np.pi, np.pi))),
            noise_variance=float(10.0 ** rng.uniform(-4.0, -1.0)),
            tx_amplitude=float(rng.uniform(0.5, 1.5)),
            rx_amplitude=float(rng.uniform(0.5, 1.5)))
        h2 = abs(s.line_gain) ** 2
        rho_a = s.noise_variance / (s.tx_amplitude ** 2 * h2)
        rho_b = s.noise_variance / (s.rx_amplitude ** 2 * h2)
        self.problems = {}
        for m in self.sizes:
            mid = (m + 1) // 2
            # random tree: shuffled labels, each attached to an earlier one
            labels = rng.permutation(np.arange(1, m + 1))
            random_edges = [(int(labels[i]), int(labels[rng.integers(0, i)]))
                            for i in range(1, m)]
            wirings = (selfcal.make_star(m, mid), selfcal.make_daisy(m, mid),
                       selfcal.from_edges(m, int(rng.integers(1, m + 1)),
                                          random_edges))
            for kind, t in zip(self.wirings, wirings):
                phases = rng.uniform(-np.pi, np.pi, size=(2, m))
                gains = selfcal.RfGains(
                    alpha=s.tx_amplitude * np.exp(1j * phases[0]),
                    beta=s.rx_amplitude * np.exp(1j * phases[1]))
                dist = hop_distances(m, t.reference, t.edges)
                d = np.array([dist[k] for k in t.ordinary], dtype=float)
                self.problems[f"{kind}-{m}"] = (t, gains, d * rho_b, d * rho_a)
        # warm-up unit: the first solve
        self.run_step(self.steps[0], -1)

    def run_step(self, step: str, index: int):
        t, gains, _, _ = self.problems[step]
        j = self.calls.fisher_matrix(t, gains, self.scenario)
        alpha, beta = self.calls.crlb_numeric(j)
        closed = self.calls.crlb_closed_form(t, self.scenario)
        return j.order, alpha, beta, closed

    def check_step(self, step: str, output, checks: Checks) -> None:
        order, alpha, beta, closed = output
        t, _, want_a, want_b = self.problems[step]
        checks.check(order == 2 * (t.m - 1), f"{step}: Fisher order")
        checks.check(np.allclose(closed.per_antenna_alpha, want_a,
                                 rtol=1e-12, atol=0)
                     and np.allclose(closed.per_antenna_beta, want_b,
                                     rtol=1e-12, atol=0),
                     f"{step}: closed form vs hop distances")
        checks.check(np.allclose(alpha, closed.per_antenna_alpha,
                                 rtol=BOUND_RTOL, atol=0)
                     and np.allclose(beta, closed.per_antenna_beta,
                                     rtol=BOUND_RTOL, atol=0),
                     f"{step}: numeric vs closed form")

    def finish(self, checks: Checks) -> None:
        pass

    def install_tracing(self, tracer) -> None:
        def after_fisher(args, kwargs, result, exc):
            if exc is None:
                n = result.order
                tracer.counts["crlb.fisher_order"] = max(
                    tracer.counts.get("crlb.fisher_order", 0), n)
                tracer.count("crlb.fisher_bytes_computed", 16 * n * n)
                tracer.count("crlb.inverse_flops_computed", 36 * n ** 3)

        wrap = tracer.wrap
        tracer.install(self.calls, "fisher_matrix",
                       lambda f: wrap("crlb.fisher_matrix", f, new_unit=True,
                                      on_call=after_fisher))
        tracer.install(self.calls, "crlb_numeric",
                       lambda f: wrap("crlb.crlb_numeric", f))
        tracer.install(self.calls, "crlb_closed_form",
                       lambda f: wrap("crlb.crlb_closed_form", f))


# -- registry -----------------------------------------------------------------

def make(name: str, small: bool = False):
    """The workload `name`; `small` shrinks it for the smoke test."""
    m, ref = (9, 4) if small else (129, 64)
    grid = (30.0, 40.0) if small else SNR_GRID_DB
    if name == "sweep_star":
        return SweepWorkload(name, "star", "measurements", None, 1, m, ref,
                             grid, trials=10 if small else 50,
                             kernel="python")
    if name == "sweep_chain_budget":
        # 2(m-1) slots of budget, the chain needs 4 per round: I=(m-1)/2
        return SweepWorkload(name, "daisy", "time", float(2 * (m - 1)),
                             (m - 1) // 2, m, ref, grid,
                             trials=10 if small else 15, kernel="numpy")
    if name == "verify_exhaustive":
        return VerifyWorkload(name, 5 if small else 6)
    if name == "bound_numeric":
        return BoundWorkload(name, (9, 17) if small else (129, 513))
    raise ValueError(f"unknown workload {name!r}")
