"""Command-line interface.

Subcommands: crlb (per-antenna bound table), schedule (parallel
measurement plan), simulate (synthesize or replay measurement sets),
sweep (Monte-Carlo SNR sweep), verify (exhaustive wiring checks).

Exit codes: 0 success, 1 usage error, 2 validation error, 3 a
verification report did not pass.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from .crlb import ScenarioParams
from .errors import ConfigError
from .estimator import (
    check_wiring,
    estimates_to_dict,
    estimation_error,
    ml_estimate,
)
from .harness import (
    ExperimentConfig,
    _budget_report,
    resolve_topology,
    run_snr_sweep,
    sweep_rows_to_csv,
    sweep_rows_to_json,
    verify_daisy_optimality,
    verify_star_optimality,
    verify_time_bounds,
)
from .simulate import (
    draw_gains,
    measurements_from_dict,
    measurements_to_dict,
    synthesize,
)
from .topology import ENUMERATION_CAP, measurement_schedule, schedule_to_dict

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VALIDATION = 2
EXIT_ACCEPTANCE = 3


class _Parser(argparse.ArgumentParser):
    # argparse defaults to exit code 2 on usage errors; keep 2 for
    # validation failures and use 1 here instead.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def parse_snr_grid(text: str) -> tuple[float, ...]:
    """Grid syntax lo:hi:step in dB, or a single value."""
    parts = text.split(":")
    if len(parts) not in (1, 3):
        raise ConfigError(f"bad SNR grid {text!r}, expected lo:hi:step")
    values = [_finite(p, f"SNR grid {text!r}") for p in parts]
    if len(values) == 1:
        return (values[0],)
    lo, hi, step = values
    if step <= 0 or hi < lo:
        raise ConfigError(f"bad SNR grid {text!r}")
    count = int(math.floor((hi - lo) / step + 1e-9)) + 1
    return tuple(lo + k * step for k in range(count))


def parse_budget(text: str) -> tuple[str, float | None]:
    """Budget syntax: 'measurements' or 'time:<slot durations>'."""
    if text == "measurements":
        return "measurements", None
    if text.startswith("time:"):
        return "time", _finite(text[len("time:"):], f"budget {text!r}")
    raise ConfigError(f"bad budget {text!r}, expected measurements or time:N")


def _parse_m_range(text: str) -> range:
    """Antenna-count range syntax lo:hi, integers with lo <= hi."""
    values = [_finite(p, f"m range {text!r}") for p in text.split(":")]
    if (len(values) != 2 or not all(v.is_integer() for v in values)
            or values[1] < values[0]):
        raise ConfigError(f"bad m range {text!r}, expected lo:hi "
                          "with integers lo <= hi")
    return range(int(values[0]), int(values[1]) + 1)


def _finite(text: str, what: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise ConfigError(f"bad {what}: {text!r} is not a finite number")
    return value


def _topology_from_args(args):
    if args.topology in ("star", "daisy") and None in (args.m, args.ref):
        raise ConfigError(f"--topology {args.topology} needs --m and --ref")
    return resolve_topology(ExperimentConfig(
        m=args.m, reference=args.ref, topology_kind=args.topology))


def _scenario_from_args(args) -> ScenarioParams:
    s = ScenarioParams(line_gain=args.line_gain, noise_variance=args.noise_var,
                       tx_amplitude=args.tx_amp, rx_amplitude=args.rx_amp,
                       slot_duration=args.slot)
    return s if args.snr_db is None else s.at_snr(args.snr_db)


def _add_topology_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--topology", required=True,
                   help="star, daisy, or file:<path to topology JSON>")
    p.add_argument("--m", type=int, help="antenna count")
    p.add_argument("--ref", type=int, help="reference antenna index")


def _add_scenario_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--line-gain", type=complex, default=1 + 0j,
                   help="known common line gain h (complex literal)")
    p.add_argument("--noise-var", type=float, default=1.0,
                   help="per-measurement complex noise variance")
    p.add_argument("--snr-db", type=float, default=None,
                   help="set the noise variance from an SNR in dB instead")
    p.add_argument("--tx-amp", type=float, default=1.0)
    p.add_argument("--rx-amp", type=float, default=1.0)
    p.add_argument("--slot", type=float, default=1.0,
                   help="seconds per measurement slot")


def _write_text(path: str | None, text: str) -> None:
    if path:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="selfcal",
                     description="Self-calibration wiring analysis and simulation")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)

    p_crlb = sub.add_parser("crlb", help="per-antenna bound table")
    _add_topology_args(p_crlb)
    _add_scenario_args(p_crlb)
    p_crlb.add_argument("--budget", default="measurements",
                        help="measurements (one round) or time:N slot durations")
    p_crlb.add_argument("--format", choices=("csv", "json"), default="csv")
    p_crlb.add_argument("--out", default=None)

    p_sched = sub.add_parser("schedule", help="parallel measurement plan")
    _add_topology_args(p_sched)
    p_sched.add_argument("--slot", type=float, default=1.0)
    p_sched.add_argument("--out", default=None)

    p_sim = sub.add_parser("simulate",
                           help="synthesize or replay sounding measurements")
    _add_topology_args(p_sim)
    _add_scenario_args(p_sim)
    p_sim.add_argument("--reps", type=int, default=None,
                       help="independent repetitions per direction when "
                            "synthesizing (default 1)")
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument("--in", dest="input_path", default=None,
                       help="replay a dumped measurement set instead of synthesizing")
    p_sim.add_argument("--estimate", action="store_true",
                       help="also run the ML estimator and report errors")
    p_sim.add_argument("--out", default=None,
                       help="measurement set (or estimate) JSON output")

    p_sweep = sub.add_parser("sweep", help="Monte-Carlo SNR sweep")
    p_sweep.add_argument("--config", default=None,
                         help="JSON file with ExperimentConfig fields; flags override")
    p_sweep.add_argument("--topology", default=None)
    p_sweep.add_argument("--m", type=int, default=None)
    p_sweep.add_argument("--ref", type=int, default=None)
    p_sweep.add_argument("--snr", default=None, help="grid lo:hi:step in dB")
    p_sweep.add_argument("--trials", type=int, default=None)
    p_sweep.add_argument("--seed", type=int, default=None)
    p_sweep.add_argument("--budget", default=None,
                         help="measurements or time:N slot durations")
    p_sweep.add_argument("--format", choices=("csv", "json"), default=None)
    p_sweep.add_argument("--out", default=None)

    p_ver = sub.add_parser("verify", help="exhaustive wiring checks")
    p_ver.add_argument("--prop", type=int, choices=(1, 2, 3), required=True,
                       help="1 star optimality, 2 time bounds, 3 chain optimality")
    p_ver.add_argument("--m", type=int, default=None)
    p_ver.add_argument("--ref", type=int, default=None)
    p_ver.add_argument("--m-range", default=None,
                       help="lo:hi antenna counts for --prop 3")
    p_ver.add_argument("--cap", type=int, default=ENUMERATION_CAP,
                       help="enumeration cap on the antenna count")
    return parser


def _cmd_crlb(args) -> int:
    topo = _topology_from_args(args)
    scenario = _scenario_from_args(args)
    report = _budget_report(topo, scenario, *parse_budget(args.budget))
    if args.format == "json":
        _write_text(args.out, json.dumps(report.to_dict(), indent=2) + "\n")
    else:
        lines = [",".join(report.CSV_HEADER)]
        lines += [",".join(row) for row in report.csv_rows()]
        _write_text(args.out, "\n".join(lines) + "\n")
    return EXIT_OK


def _cmd_schedule(args) -> int:
    topo = _topology_from_args(args)
    schedule = measurement_schedule(topo, args.slot)
    _write_text(args.out,
                json.dumps(schedule_to_dict(schedule), indent=2) + "\n")
    return EXIT_OK


def _cmd_simulate(args) -> int:
    if args.input_path and args.reps is not None:
        raise ConfigError("--in does not read --reps; a replay keeps the "
                          "file's rounds")
    if args.seed < 0:
        raise ConfigError(f"--seed must be >= 0, got {args.seed}")
    topo = _topology_from_args(args)
    scenario = _scenario_from_args(args)
    seq = np.random.SeedSequence(args.seed)
    gains_seed, noise_seed = seq.spawn(2)
    gains = draw_gains(topo.m, scenario, gains_seed)
    if args.input_path:
        with open(args.input_path, encoding="utf-8") as fh:
            measured = measurements_from_dict(json.load(fh))
        check_wiring(measured, topo)  # whether estimated or echoed
    else:
        reps = 1 if args.reps is None else args.reps
        measured = synthesize(topo, gains, scenario, repetitions=reps,
                              seed=noise_seed)
    if args.estimate:
        est = ml_estimate(measured, topo, scenario,
                          ref_alpha=gains.alpha[topo.reference - 1],
                          ref_beta=gains.beta[topo.reference - 1])
        payload = estimates_to_dict(est)
        if not args.input_path:
            err = estimation_error(est, gains)
            payload["average_sq_error_alpha"] = err.average_alpha
            payload["average_sq_error_beta"] = err.average_beta
        _write_text(args.out, json.dumps(payload, indent=2) + "\n")
    else:
        _write_text(args.out,
                    json.dumps(measurements_to_dict(measured)) + "\n")
    return EXIT_OK


def _cmd_sweep(args) -> int:
    fields: dict = {}
    if args.config:
        with open(args.config, encoding="utf-8") as fh:
            fields = json.load(fh)
        if not isinstance(fields, dict):
            raise ConfigError(f"a sweep config must be a JSON object, "
                              f"got {type(fields).__name__}")
    if isinstance(fields.get("snr_grid_db"), str):
        fields["snr_grid_db"] = parse_snr_grid(fields["snr_grid_db"])
    if isinstance(fields.get("snr_grid_db"), list):
        fields["snr_grid_db"] = tuple(fields["snr_grid_db"])
    flags = {"topology_kind": args.topology, "m": args.m,
             "reference": args.ref, "trials": args.trials,
             "master_seed": args.seed, "output_format": args.format,
             "output_path": args.out}
    fields.update((k, v) for k, v in flags.items() if v is not None)
    if args.snr is not None:
        fields["snr_grid_db"] = parse_snr_grid(args.snr)
    if args.budget is not None:
        fields["budget_mode"], fields["budget_value"] = parse_budget(
            args.budget)
    unknown = set(fields) - set(ExperimentConfig.__dataclass_fields__)
    if unknown:
        raise ConfigError(f"unknown config fields {sorted(unknown)}")
    cfg = ExperimentConfig(**fields)
    rows = run_snr_sweep(cfg)
    render = (sweep_rows_to_csv if cfg.output_format == "csv"
              else sweep_rows_to_json)
    _write_text(cfg.output_path, render(rows))
    return EXIT_OK


def _cmd_verify(args) -> int:
    if args.ref is not None and args.prop != 1:
        raise ConfigError(f"--prop {args.prop} does not read --ref")
    if args.m_range is not None and args.prop != 3:
        raise ConfigError(f"--prop {args.prop} does not read --m-range")
    if args.prop in (1, 2) and args.m is None:
        raise ConfigError(f"--prop {args.prop} needs --m")
    if args.prop == 1:
        ref = 1 if args.ref is None else args.ref
        report = verify_star_optimality(args.m, ref, cap=args.cap)
        print(f"star optimality m={args.m} ref={ref}: "
              f"{report.tree_count} trees, min mean distance "
              f"{report.min_mean_distance} attained {report.minimizer_count}x, "
              f"star attains: {report.min_mean_distance == 1}")
    elif args.prop == 2:
        report = verify_time_bounds(args.m, cap=args.cap)
        print(f"time bounds m={args.m}: {report.tree_count} trees, slots in "
              f"[{report.min_slots}, {report.max_slots}], "
              f"{report.chain_count} chains, {report.star_count} stars, "
              f"schedules valid: {report.schedules_valid}")
    else:
        if args.m_range:
            m_values = _parse_m_range(args.m_range)
        elif args.m is not None:
            m_values = [args.m]
        else:
            raise ConfigError("--prop 3 needs --m or --m-range")
        report = verify_daisy_optimality(m_values, brute_force_cap=args.cap)
        for entry in report.entries:
            brute = (f", brute-force min {entry.brute_min}"
                     if entry.brute_forced
                     else f", brute force skipped (m > cap {args.cap})")
            print(f"m={entry.m}: chain/star ratio {entry.ratio} "
                  f"({float(entry.ratio):.6f}), beats star: "
                  f"{entry.beats_star}{brute}")
    print("PASS" if report.passed else "FAIL")
    return EXIT_OK if report.passed else EXIT_ACCEPTANCE


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        handler = {
            "crlb": _cmd_crlb,
            "schedule": _cmd_schedule,
            "simulate": _cmd_simulate,
            "sweep": _cmd_sweep,
            "verify": _cmd_verify,
        }[args.command]
        return handler(args)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    except (ValueError, ArithmeticError, OSError, KeyError,
            MemoryError) as exc:
        print(f"selfcal: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
