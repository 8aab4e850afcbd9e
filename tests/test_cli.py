import hashlib
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from selfcal import (
    ExperimentConfig,
    from_edges,
    run_snr_sweep,
    sweep_rows_to_json,
    topology_to_dict,
)
from selfcal.cli import main, parse_budget, parse_snr_grid
from selfcal.errors import ConfigError

from helpers import PINNED_WIRING


@pytest.fixture
def net7(tmp_path):
    topo = from_edges(7, 3, [(3, 1), (1, 2), (3, 4), (4, 5), (3, 6), (6, 7)])
    path = tmp_path / "net7.json"
    path.write_text(json.dumps(topology_to_dict(topo)))
    return path


class TestParsers:
    def test_snr_grid(self):
        assert parse_snr_grid("10:40:5") == (10, 15, 20, 25, 30, 35, 40)
        assert parse_snr_grid("30") == (30.0,)
        with pytest.raises(ConfigError):
            parse_snr_grid("40:10:5")

    def test_budget(self):
        assert parse_budget("measurements") == ("measurements", None)
        assert parse_budget("time:256") == ("time", 256.0)
        with pytest.raises(ConfigError):
            parse_budget("slots:4")


class TestCrlbCommand:
    def test_table_from_file_topology(self, net7, capsys):
        assert main(["crlb", "--topology", f"file:{net7}"]) == 0
        out = capsys.readouterr().out
        lines = out.strip().splitlines()
        assert lines[0].startswith("antenna,d_m,crlb_alpha")
        assert len(lines) == 7  # header + 6 ordinary antennas

    def test_budgeted_json(self, capsys):
        code = main(["crlb", "--topology", "daisy", "--m", "6", "--ref", "3",
                     "--budget", "time:10", "--format", "json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["I"] == 2
        assert payload["mean_distance_exact"] == "9/5"

    def test_missing_m_is_validation_error(self, capsys):
        assert main(["crlb", "--topology", "star"]) == 2

    def test_zero_noise_allowed(self, capsys):
        assert main(["crlb", "--topology", "star", "--m", "4", "--ref", "1",
                     "--noise-var", "0"]) == 0
        rows = capsys.readouterr().out.splitlines()[1:]
        assert [row.split(",")[2:6] for row in rows] == [["0.0"] * 4] * 3

    def test_underflowing_bound_rejected(self, capsys):
        # 2.5e307 rounds at 300 dB take every bound below the smallest
        # float: a 0.0 would be printed as the bound
        code = main(["crlb", "--topology", "daisy", "--m", "5", "--ref", "3",
                     "--snr-db", "300", "--budget", "time:1e308"])
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        assert err == ("selfcal: SNR 300 dB over 2.5e+307 rounds gives a "
                       "bound or a per-round noise variance that underflows "
                       "to 0\n")

    def test_overflowing_bound_rejected(self, capsys):
        # the farthest of 128 hops times rho = 1e307 exceeds the largest
        # float: inf would be printed as its bound, after an overflow
        # warning
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["crlb", "--topology", "daisy", "--m", "129",
                         "--ref", "1", "--noise-var", "1e307"])
        out, err = capsys.readouterr()
        assert code == 2 and out == "" and caught == []
        assert err == ("selfcal: SNR -3070 dB over 1 rounds gives a bound "
                       "that overflows\n")


class TestScheduleCommand:
    def test_schedule_json(self, tmp_path):
        out = tmp_path / "sched.json"
        code = main(["schedule", "--topology", "daisy", "--m", "5",
                     "--ref", "1", "--slot", "1.0", "--out", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["slots"] == [
            [[1, 2], [3, 4]], [[2, 1], [4, 3]],
            [[2, 3], [4, 5]], [[3, 2], [5, 4]]]

    def test_deterministic_bytes(self, tmp_path):
        paths = [tmp_path / "a.json", tmp_path / "b.json"]
        for p in paths:
            main(["schedule", "--topology", "star", "--m", "7", "--ref", "2",
                  "--out", str(p)])
        assert paths[0].read_bytes() == paths[1].read_bytes()


    @pytest.mark.parametrize("args, digest", [
        (["--topology", "star", "--m", "129", "--ref", "64"],
         "fbdb1a55a23a73ba0bd52aeae8fcd54397501f8b323333afdf3cb4a8b19dee90"),
        (["--topology", "daisy", "--m", "513", "--ref", "257"],
         "37e0e80a966f69c10b4ba42fe48546c68de91c6b87700bade2987d20cbf52070"),
        (["--topology", "file:wiring.json"],
         "2d0c401603fe479bd98c8818d7a6a477a4f93f2d7f4da6867ea2eddd6e568cf7"),
    ], ids=["star-129", "daisy-513", "file-12"])
    def test_pinned_bytes(self, tmp_path, monkeypatch, args, digest):
        # the JSON bytes of the array coloring this schedule replaced
        monkeypatch.chdir(tmp_path)
        Path("wiring.json").write_text(json.dumps(PINNED_WIRING))
        assert main(["schedule", *args, "--out", "sched.json"]) == 0
        assert hashlib.sha256(
            Path("sched.json").read_bytes()).hexdigest() == digest


class TestSimulateCommand:
    def test_dump_and_reload(self, tmp_path):
        dump = tmp_path / "ms.json"
        code = main(["simulate", "--topology", "daisy", "--m", "4", "--ref", "2",
                     "--snr-db", "30", "--reps", "3", "--seed", "5",
                     "--out", str(dump)])
        assert code == 0
        payload = json.loads(dump.read_text())
        assert payload["repetitions"] == 3
        assert len(payload["observations"]) == 2 * 3 * 3

        est_out = tmp_path / "est.json"
        code = main(["simulate", "--topology", "daisy", "--m", "4", "--ref", "2",
                     "--snr-db", "30", "--seed", "5", "--in", str(dump),
                     "--estimate", "--out", str(est_out)])
        assert code == 0
        estimates = json.loads(est_out.read_text())
        assert estimates["antennas"] == [1, 3, 4]

    def test_replay_rejects_reps(self, tmp_path, capsys):
        # a replay estimates from the file's rounds, so a round count
        # given next to it would go unread
        args = ["simulate", "--topology", "daisy", "--m", "4", "--ref", "2",
                "--seed", "5"]
        dump = tmp_path / "ms.json"
        assert main(args + ["--reps", "2", "--out", str(dump)]) == 0
        code = main(args + ["--in", str(dump), "--reps", "7", "--estimate"])
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        assert err.startswith("selfcal: ") and err.count("\n") == 1
        assert "--in" in err and "--reps" in err
        assert main(args + ["--in", str(dump), "--estimate"]) == 0

    def test_replay_of_another_wiring_rejected(self, tmp_path, capsys):
        # a file recorded on a star replayed on the chain: echoing it
        # and estimating from it fail alike, on the same check
        dump = tmp_path / "star.json"
        assert main(["simulate", "--topology", "star", "--m", "4", "--ref",
                     "1", "--seed", "5", "--out", str(dump)]) == 0
        args = ["simulate", "--topology", "daisy", "--m", "4", "--ref", "1",
                "--seed", "5", "--in", str(dump)]
        errors = []
        for extra in ([], ["--estimate"]):
            capsys.readouterr()
            assert main(args + extra) == 2
            out, err = capsys.readouterr()
            assert out == ""
            errors.append(err)
        assert errors[0] == errors[1] == (
            "selfcal: measurement pairs do not match the wiring: missing "
            "[(2, 3), (3, 2), (3, 4), (4, 3)], not on any line "
            "[(1, 3), (1, 4), (3, 1), (4, 1)]\n")

    def test_estimate_errors_reported(self, capsys):
        code = main(["simulate", "--topology", "star", "--m", "5", "--ref", "1",
                     "--noise-var", "0", "--seed", "1", "--estimate"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["average_sq_error_alpha"] < 1e-25


class TestReplayHardening:
    ARGS = ["simulate", "--topology", "daisy", "--m", "4", "--ref", "2",
            "--snr-db", "30", "--seed", "5"]

    @pytest.fixture
    def dump(self, tmp_path):
        path = tmp_path / "ms.json"
        assert main(self.ARGS + ["--out", str(path)]) == 0
        return json.loads(path.read_text())

    def replay(self, tmp_path, payload, capsys):
        path = tmp_path / "replay.json"
        path.write_text(json.dumps(payload))
        code = main(self.ARGS + ["--in", str(path), "--estimate"])
        out, err = capsys.readouterr()
        return code, out, err

    def test_sounding_value_is_applied(self, tmp_path, dump, capsys):
        code, plain, _ = self.replay(tmp_path, dump, capsys)
        assert code == 0
        doubled = dict(dump, sounding_value=[2.0, 0.0], observations=[
            [tx, rx, r, 2 * re_, 2 * im_]
            for tx, rx, r, re_, im_ in dump["observations"]])
        code, scaled, _ = self.replay(tmp_path, doubled, capsys)
        assert code == 0
        assert json.loads(scaled) == json.loads(plain)

    def test_pair_off_the_wiring_rejected(self, tmp_path, dump, capsys):
        dump["observations"] += [[1, 3, 1, 1.0, 0.0], [3, 1, 1, 1.0, 0.0]]
        code, out, err = self.replay(tmp_path, dump, capsys)
        assert code == 2 and out == ""
        assert "not on any line [(1, 3), (3, 1)]" in err

    def test_repeated_observation_rejected(self, tmp_path, dump, capsys):
        tx, rx, r, *_ = dump["observations"][0]
        dump["observations"].append([tx, rx, r, 123.0, 0.0])
        code, out, err = self.replay(tmp_path, dump, capsys)
        assert code == 2 and out == ""
        assert err == (f"selfcal: observation {tx}->{rx} repetition {r} "
                       "listed twice\n")

    @pytest.mark.parametrize("field", ["observation", "sounding_value"])
    def test_non_finite_values_rejected(self, tmp_path, dump, capsys, field):
        if field == "observation":
            dump["observations"][0][3] = float("nan")
        else:
            dump["sounding_value"] = [float("inf"), 0.0]
        code, out, err = self.replay(tmp_path, dump, capsys)
        assert code == 2 and out == ""
        assert "finite" in err

    @pytest.mark.parametrize("change, antenna", [
        # every observation over a subnormal sounding value overflows
        ({"sounding_value": [1e-310, 0.0]}, 1),
        # finite inputs whose quotient overflows two hops out
        ({(3, 2): [1e-5, 0.0], (3, 4): [1e305, 0.0]}, 4),
    ], ids=["subnormal-sounding", "overflowing-quotient"])
    def test_non_finite_estimates_rejected(self, tmp_path, dump, capsys,
                                           change, antenna):
        # the walk from reference 2 reaches antenna 1 first, antenna 4 last
        for key, value in change.items():
            if key == "sounding_value":
                dump[key] = value
            else:
                row, = (row for row in dump["observations"]
                        if tuple(row[:2]) == key)
                row[3:] = value
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = self.replay(tmp_path, dump, capsys)
        assert code == 2 and out == ""
        assert err == f"selfcal: estimate at antenna {antenna} is not finite\n"


class TestInputHardening:
    @pytest.mark.parametrize("flag, value", [
        ("--snr", "10:inf:5"), ("--snr", "nan"), ("--snr", "10:x:5"),
        ("--budget", "time:nan"), ("--budget", "time:inf"),
    ])
    def test_sweep_flags_need_finite_numbers(self, capsys, flag, value):
        code = main(["sweep", "--topology", "star", "--m", "4", "--ref", "1",
                     "--trials", "2", flag, value])
        err = capsys.readouterr().err
        assert code == 2
        assert f"{value!r}" in err and "is not a finite number" in err
        assert "ratio" not in err and "Traceback" not in err

    def test_crlb_budget_needs_a_finite_number(self, capsys):
        code = main(["crlb", "--topology", "star", "--m", "4", "--ref", "1",
                     "--budget", "time:nan"])
        assert code == 2
        assert "not a finite number" in capsys.readouterr().err

    def test_non_finite_scenario_rejected(self, capsys):
        code = main(["crlb", "--topology", "star", "--m", "4", "--ref", "1",
                     "--snr-db", "nan"])
        assert code == 2
        assert "finite" in capsys.readouterr().err

    def test_config_field_types_checked(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"m": 5, "reference": 1,
                                        "topology_kind": "star",
                                        "trials": "5"}))
        assert main(["sweep", "--config", str(cfg_path)]) == 2
        assert "trials must be an integer" in capsys.readouterr().err


TOPOLOGY = {"m": 4, "reference": 1, "edges": [[1, 2], [2, 3], [3, 4]]}
REPLAY = {"observations": [], "repetitions": 1, "sounding_value": [1.0, 0.0]}


class TestMalformedJson:
    ARGV = {
        "topology": lambda path: ["crlb", "--topology", f"file:{path}"],
        "config": lambda path: ["sweep", "--config", str(path)],
        "replay": lambda path: ["simulate", "--topology", "daisy", "--m", "4",
                                "--ref", "2", "--in", str(path), "--estimate"],
    }

    @pytest.mark.parametrize("kind, payload", [
        ("topology", dict(TOPOLOGY, m=4.7)),
        ("topology", dict(TOPOLOGY, edges=[[1.9, 2], [2, 3], [3, 4]])),
        ("topology", dict(TOPOLOGY, m="4")),
        ("topology", dict(TOPOLOGY, reference=True)),
        ("topology", [1, 2]),
        ("topology", dict(TOPOLOGY, edges=5)),
        ("topology", dict(TOPOLOGY, edges=[[1, 2], [2, 3], 4])),
        ("config", [1, 2]),
        ("replay", [1, 2]),
        ("replay", {"repetitions": 1, "sounding_value": [1.0, 0.0],
                    "observations": 7}),
        ("replay", {"repetitions": 1, "sounding_value": [1.0, 0.0],
                    "observations": [7]}),
    ], ids=["m-float", "edge-float", "m-string", "reference-bool",
            "topology-list", "edges-int", "edge-int", "config-list",
            "replay-list", "observations-int", "observation-int"])
    def test_exits_2_with_one_line(self, tmp_path, capsys, kind, payload):
        path = tmp_path / "input.json"
        path.write_text(json.dumps(payload))
        code = main(self.ARGV[kind](path))
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        assert err.startswith("selfcal: ") and err.count("\n") == 1

    @pytest.mark.parametrize("kind, key", [
        ("replay", "observations"), ("replay", "repetitions"),
        ("replay", "sounding_value"), ("topology", "m"),
        ("topology", "reference"), ("topology", "edges"),
    ])
    def test_missing_key_is_named(self, tmp_path, capsys, kind, key):
        payload = dict(REPLAY if kind == "replay" else TOPOLOGY)
        del payload[key]
        path = tmp_path / "input.json"
        path.write_text(json.dumps(payload))
        code = main(self.ARGV[kind](path))
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        assert err.startswith("selfcal: ") and err.count("\n") == 1
        assert "missing" in err and repr(key) in err

    @pytest.mark.parametrize("kind, payload, names", [
        ("config", {"m": 5, "reference": 1, "topology_kind": "star",
                    "trials": 0}, "trials must be >= 1, got 0"),
        ("config", {"m": 5, "reference": 1, "topology_kind": "star",
                    "output_format": "xml"}, "unknown output format 'xml'"),
        ("config", {"m": 5, "reference": 1, "topology_kind": "star",
                    "bogus": 1}, "unknown config fields ['bogus']"),
        ("replay", dict(REPLAY, observations=[[1, 2.0, 1, 1, 0]]),
         "observation keys must be integers"),
        ("replay", dict(REPLAY, repetitions=2, observations=[
            [1, 2, 1, 1, 0], [1, 2, 2, 1, 0], [2, 1, 1, 1, 0]]),
         "observations do not form a full (pair, repetition) grid"),
        ("replay", dict(REPLAY, repetitions=2, observations=[
            [1, 2, 1, 1, 0], [1, 2, 3, 1, 0], [2, 1, 1, 1, 0],
            [2, 1, 2, 1, 0]]),
         "missing observation 1->2 repetition 2"),
    ], ids=["trials-0", "format-xml", "unknown-field", "key-float",
            "partial-grid", "repetition-out-of-range"])
    def test_rejection_is_named(self, tmp_path, capsys, kind, payload, names):
        path = tmp_path / "input.json"
        path.write_text(json.dumps(payload))
        code = main(self.ARGV[kind](path))
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        assert err.startswith("selfcal: ") and err.count("\n") == 1
        assert names in err


#: the config field each topology flag sets
FIELDS = {"--m": "m", "--ref": "reference"}


class TestFlagValues:
    @pytest.mark.parametrize("argv, names", [
        ([command, "--topology", "daisy", "--m", "3", "--ref", "1",
          "--slot", slot],
         f"slot duration must be a positive finite number, got {float(slot)}")
        for command in ("schedule", "crlb", "simulate")
        for slot in ("nan", "inf", "0")
    ] + [
        (["verify", "--prop", "3", "--m-range", m_range], "m range")
        for m_range in ("3", "3:x", "3.5:6", "5:3")
    ] + [
        (["crlb", "--topology", "star", "--m", "4", "--ref", "1",
          "--snr-db", snr], "SNR") for snr in ("-4000", "4000")
    ] + [
        (["sweep", "--topology", "star", "--m", "4", "--ref", "1",
          "--trials", "2", "--snr", snr], "SNR") for snr in ("-4000", "4000")
    ] + [
        (["crlb", "--topology", "star", "--m", "4", "--ref", "1"] + flags,
         names) for flags, names in (
            (["--tx-amp", "1e200"], "transmit amplitude 1e+200"),
            (["--line-gain", "1e200"], "line gain (1e+200+0j)"),
            (["--tx-amp", "1e-200"], "transmit amplitude 1e-200"),
            (["--rx-amp", "1e-200"], "receive amplitude 1e-200"),
            (["--line-gain", "1e-200"], "line gain (1e-200+0j)"),
            (["--noise-var", "1e300", "--tx-amp", "1e-10"],
             "transmit amplitude 1e-10"))
    ] + [
        (["verify", "--prop", prop, "--m", "4"] + flags, names)
        for prop, flags, names in (
            ("2", ["--ref", "9"], "--prop 2 does not read --ref"),
            ("3", ["--ref", "1"], "--prop 3 does not read --ref"),
            ("1", ["--m-range", "3:5"], "--prop 1 does not read --m-range"),
            ("2", ["--m-range", "3:5"], "--prop 2 does not read --m-range"))
    ] + [
        (["crlb", "--topology", "star", "--m", "4", "--ref", "1"] + flags,
         names) for flags, names in (
            (["--slot", "1e308", "--format", "json"], "slot duration 1e+308"),
            (["--budget", "time:2", "--slot", "1e308"], "slot duration 1e+308"),
            (["--budget", "time:1e308", "--slot", "1e10"], "time budget"))
    ] + [
        (["simulate", "--topology", "daisy", "--m", "4", "--ref", "2",
          "--seed", "-1"], "--seed must be >= 0, got -1"),
        (["crlb", "--topology", "star", "--m", "4", "--ref", "1",
          "--noise-var", "nan"], "scenario parameters must be finite"),
        (["sweep", "--topology", "star", "--m", "4", "--ref", "1",
          "--trials", "2", "--snr", "10:20"],
         "bad SNR grid '10:20', expected lo:hi:step"),
        (["verify", "--prop", "2", "--m", "2"],
         "time bounds need m >= 3, got 2"),
        (["verify", "--prop", "3"], "--prop 3 needs --m or --m-range"),
        (["verify", "--prop", "3", "--m", "2"], "need m >= 3, got 2"),
    ] + [
        # net.json gives m and the reference, so the flags are not read;
        # the message names the field the flag sets
        ([command, "--topology", "file:net.json"] + flags,
         f"a file: topology does not read {FIELDS[flags[0]]}")
        for command, flags in (("crlb", ["--m", "99", "--ref", "7"]),
                               ("schedule", ["--ref", "7"]),
                               ("simulate", ["--m", "99"]),
                               ("sweep", ["--ref", "7"]))
    ] + [
        # numpy refuses an array this large before allocating any of it
        (["simulate", "--topology", "daisy", "--m", "3", "--ref", "1",
          "--reps", "100000000000000000"] + flags, "Unable to allocate")
        for flags in ([], ["--noise-var", "0"])
    ], ids=["slot-nan", "slot-inf", "slot-0", "crlb-slot-nan", "crlb-slot-inf",
            "crlb-slot-0", "simulate-slot-nan", "simulate-slot-inf",
            "simulate-slot-0", "m-range-one-value",
            "m-range-not-a-number", "m-range-not-integer", "m-range-reversed",
            "crlb-snr-db-low", "crlb-snr-db-high", "sweep-snr-low",
            "sweep-snr-high", "tx-amp-huge", "line-gain-huge", "tx-amp-tiny",
            "rx-amp-tiny", "line-gain-tiny", "noise-over-tiny-signal",
            "prop2-ref", "prop3-ref", "prop1-m-range", "prop2-m-range",
            "collection-time-overflow", "budgeted-collection-time-overflow",
            "budget-overflow", "simulate-seed-negative", "noise-var-nan",
            "snr-grid-two-parts", "prop2-m-2", "prop3-no-m", "prop3-m-2",
            "crlb-file-m", "schedule-file-ref", "simulate-file-m",
            "sweep-file-ref", "reps-too-large", "reps-too-large-noiseless"])
    def test_exits_2_with_one_line(self, capsys, tmp_path, monkeypatch,
                                   argv, names):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "net.json").write_text(json.dumps(TOPOLOGY))
        code = main(argv)
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        assert err.startswith("selfcal: ") and err.count("\n") == 1
        assert names in err


class TestSweepCommand:
    def test_csv_written(self, tmp_path):
        out = tmp_path / "rows.csv"
        code = main(["sweep", "--topology", "daisy", "--m", "6", "--ref", "3",
                     "--budget", "time:10", "--snr", "20:30:10",
                     "--trials", "50", "--seed", "7", "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 3
        assert lines[1].split(",")[4] == "2"  # I column

    def test_config_file_with_flag_override(self, tmp_path, capsys):
        cfg = {"m": 5, "reference": 1, "topology_kind": "star",
               "snr_grid_db": "20:20:5", "trials": 20, "master_seed": 1}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        code = main(["sweep", "--config", str(cfg_path), "--trials", "10"])
        assert code == 0
        out = capsys.readouterr().out
        assert out.splitlines()[1].split(",")[10] == "10"

    @pytest.mark.parametrize("config, flags, name", [
        ({"topology_kind": "file:net.json", "m": 99}, [], "m"),
        ({"topology_kind": "file:net.json", "reference": 42}, [],
         "reference"),
        ({"topology_kind": "file:net.json", "m": 4, "reference": 1}, [],
         "m"),
        ({"m": 99}, ["--topology", "file:net.json"], "m"),
        ({"topology_kind": "file:net.json"}, ["--m", "99"], "m"),
        ({"topology_kind": "file:net.json"}, ["--ref", "7"], "reference"),
        ({"topology_kind": "file:net.json", "m": 99}, ["--m", "4"], "m"),
        ({"topology_kind": "file:net.json", "reference": 42},
         ["--ref", "1"], "reference"),
    ], ids=["json-m", "json-reference", "json-both", "json-m-flag-kind",
            "flag-m", "flag-ref", "flag-m-over-json", "flag-ref-over-json"])
    def test_a_file_topology_reads_no_m_or_reference(
            self, tmp_path, capsys, monkeypatch, config, flags, name):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "net.json").write_text(json.dumps(TOPOLOGY))
        sweep = {"snr_grid_db": [20], "trials": 5}
        (tmp_path / "cfg.json").write_text(json.dumps({**sweep, **config}))
        code = main(["sweep", "--config", "cfg.json"] + flags)
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        assert err.startswith("selfcal: ") and err.count("\n") == 1
        assert f"a file: topology does not read {name}; " in err
        # without m and the reference, the file's wiring is swept
        (tmp_path / "cfg.json").write_text(json.dumps(
            {**sweep, "topology_kind": "file:net.json"}))
        assert main(["sweep", "--config", "cfg.json"]) == 0
        assert capsys.readouterr().out.splitlines()[1].split(",")[2:4] == [
            "4", "1"]

    def test_config_grid_as_a_list(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({
            "m": 5, "reference": 1, "topology_kind": "star",
            "snr_grid_db": [20, 30], "trials": 5}))
        assert main(["sweep", "--config", str(cfg_path)]) == 0
        rows = capsys.readouterr().out.splitlines()[1:]
        assert [row.split(",")[0] for row in rows] == ["20.0", "30.0"]

    def test_json_format(self, capsys):
        assert main(["sweep", "--topology", "daisy", "--m", "5", "--ref", "3",
                     "--snr", "20:30:10", "--trials", "7", "--seed", "2",
                     "--format", "json"]) == 0
        rows = run_snr_sweep(ExperimentConfig(
            m=5, reference=3, topology_kind="daisy", snr_grid_db=(20.0, 30.0),
            trials=7, master_seed=2))
        assert json.loads(capsys.readouterr().out) == json.loads(
            sweep_rows_to_json(rows))

    def test_underflowing_bound_rejected(self, capsys):
        # at a per-round noise variance of 0 the rows would be noiseless,
        # and their rounding error would seem to beat a bound of 0.0
        code = main(["sweep", "--topology", "daisy", "--m", "5", "--ref", "3",
                     "--snr", "300", "--budget", "time:1e308",
                     "--trials", "3"])
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        assert err == ("selfcal: SNR 300 dB over 2.5e+307 rounds gives a "
                       "bound or a per-round noise variance that underflows "
                       "to 0\n")

    def test_overflowing_bound_rejected(self, capsys):
        # the farthest antenna's bound would be inf, and the rows scored
        # beside it inf as well
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["sweep", "--topology", "daisy", "--m", "129",
                         "--ref", "1", "--snr", "-3070", "--trials", "2"])
        out, err = capsys.readouterr()
        assert code == 2 and out == "" and caught == []
        assert err == ("selfcal: SNR -3070 dB over 1 rounds gives a bound "
                       "that overflows\n")

    @pytest.mark.parametrize("args, message", [
        (["--m", "129", "--ref", "1", "--snr=-3060", "--trials", "4"],
         "SNR -3060 dB over 1 rounds gives squared estimation errors that "
         "overflow"),
        (["--m", "5", "--ref", "3", "--snr", "0:300:300", "--budget",
          "time:1e290", "--trials", "3"],
         "SNR 0 dB over 2.5e+289 rounds gives a per-round noise variance "
         "below the float resolution of the gain products"),
    ], ids=["overflowing-errors", "noise-below-resolution"])
    def test_unscorable_point_rejected(self, capsys, args, message):
        # inf errors beside a finite bound, or errors that score the
        # rounding of the gain products rather than their noise
        code = main(["sweep", "--topology", "daisy", *args])
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        assert err == f"selfcal: {message}\n"

    def test_rerun_byte_identical(self, tmp_path):
        args = ["sweep", "--topology", "star", "--m", "5", "--ref", "1",
                "--snr", "30", "--trials", "30", "--seed", "3"]
        outs = [tmp_path / "a.csv", tmp_path / "b.csv"]
        for out in outs:
            assert main(args + ["--out", str(out)]) == 0
        assert outs[0].read_bytes() == outs[1].read_bytes()


class TestVerifyCommand:
    def test_star_optimality(self, capsys):
        assert main(["verify", "--prop", "1", "--m", "5"]) == 0
        assert "PASS" in capsys.readouterr().out

    def test_time_bounds(self, capsys):
        assert main(["verify", "--prop", "2", "--m", "5"]) == 0
        out = capsys.readouterr().out
        assert "60 chains" in out and "5 stars" in out

    def test_daisy_range(self, capsys):
        assert main(["verify", "--prop", "3", "--m-range", "3:6"]) == 0
        out = capsys.readouterr().out
        assert "m=5: chain/star ratio 3/4" in out

    def test_daisy_single_m(self, capsys):
        assert main(["verify", "--prop", "3", "--m", "5"]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0].startswith("m=5: chain/star ratio 3/4")
        assert out.splitlines()[-1] == "PASS"

    def test_daisy_beyond_cap_says_skipped(self, capsys):
        assert main(["verify", "--prop", "3", "--m-range", "8:11"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].endswith(", brute-force min 16/21")
        assert [line.split(":")[0] for line in lines[1:4]] == [
            "m=9", "m=10", "m=11"]
        assert all(line.endswith(", brute force skipped (m > cap 8)")
                   for line in lines[1:4])
        assert lines[-1] == "PASS"

    def test_star_optimality_at_a_reference(self, capsys):
        assert main(["verify", "--prop", "1", "--m", "5", "--ref", "3"]) == 0
        assert "m=5 ref=3: 125 trees" in capsys.readouterr().out

    def test_runs_as_a_module(self):
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        done = subprocess.run(
            [sys.executable, "-m", "selfcal", "verify", "--prop", "2",
             "--m", "5"], capture_output=True, text=True, env=env)
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines()[-1] == "PASS"

    def test_exit_codes(self):
        assert main(["verify", "--prop", "1"]) == 2      # missing --m
        assert main(["verify", "--prop", "4", "--m", "5"]) == 1  # usage
        assert main(["nosuchcommand"]) == 1

    def test_validation_exit(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"m": 4, "reference": 1,
                                   "edges": [[1, 2], [2, 3]]}))
        assert main(["crlb", "--topology", f"file:{bad}"]) == 2


# sha256 of `selfcal verify` stdout, with the exit code
_VERIFY_PINS = [
    (["--prop", "1", "--m", "2"], 0,
     "292c2796b4b7f4c9a8cee7af556830d7343771494897dfeaa3ba030d60f031e7"),
    (["--prop", "1", "--m", "3"], 0,
     "5bbd05fbe8baf596a4d0a1ad5e3235e46b913b3f8972e48fb3fd0f7ad136d23d"),
    (["--prop", "1", "--m", "4"], 0,
     "a31dd464aea5453e6b334abc7697f6f33c1b309aa1df35c26944c66a935c28e0"),
    (["--prop", "1", "--m", "5"], 0,
     "bbc577175fe8050adc0f6903e99a328800831d8e291226504a5e6474fb21034c"),
    (["--prop", "1", "--m", "6"], 0,
     "340ca8e75478a383706523c096ae13ad5319cb9f720d6bd9f9e4843858b92550"),
    (["--prop", "1", "--m", "7"], 0,
     "dc267cb531fedaeccb9b4928d3844b9092d485b9204414c91fe36edc35ba8a82"),
    (["--prop", "1", "--m", "8"], 0,
     "d9e2d28092cc345e0c58f29a1da825fa6b4197483cde25de3e3d95f10e6cf187"),
    (["--prop", "1", "--m", "7", "--ref", "3"], 0,
     "6b81c26ec27f47afbb7de017f7f979b325ab7e4a6098a67d3b27588ce2b62500"),
    (["--prop", "2", "--m", "3"], 0,
     "b2a9aaeee09026b20eb2aab12e3dcfb0ff6c534d3d85e34845909fc2a5fac658"),
    (["--prop", "2", "--m", "4"], 0,
     "7a9e5145e49ab2c36770b3e5aed6c7b3830fbd2fa21278aa651c2a8dedd3899f"),
    (["--prop", "2", "--m", "5"], 0,
     "7d7bad8b66586df195b1a289acbec178adcae872e41e05879ec7d1fcf798c43e"),
    (["--prop", "2", "--m", "6"], 0,
     "c7aa10b0aa09a0fefe09c49833485c78b68f95fdadcdd56e0e37e0399fb69394"),
    (["--prop", "2", "--m", "7"], 0,
     "81c430a9e3994f2beb41538a31fd8223d10fd441bf03af1cba1deac623d3c6e3"),
    (["--prop", "2", "--m", "8"], 0,
     "fa686ded2bf851165c5996c7281df1962dd176c557a8201fed0a2fe47470b7ad"),
    (["--prop", "3", "--m-range", "3:8"], 0,
     "055bdfc8de19812fb798ce58d4d4ce5482eddfda2ecb261370ba2177614ea252"),
    # m=9..11 beyond the cap: the chain's ratio alone, brute force skipped
    (["--prop", "3", "--m-range", "8:11"], 0,
     "e2fea76a912e6bca2504935ee7933ea78362802750c3f838730c330b1832728b"),
    # fails at m=10: a degree-3 tree reaches 5/9 against the chain's 25/36
    (["--prop", "3", "--m-range", "9:12", "--cap", "12"], 3,
     "342391274903b02e6cd194bb49787a03a58e590dbe94a11cf7cb7e7c71b0c879"),
]


@pytest.mark.parametrize("args, code, digest", _VERIFY_PINS,
                         ids=["_".join(a.lstrip("-") for a in args)
                              for args, _, _ in _VERIFY_PINS])
def test_verify_pinned_bytes(capsys, args, code, digest):
    assert main(["verify", *args]) == code
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest
