"""Compare two sets of benchmark records, metric by metric.

    python3 benchmarks/compare.py BASE NEW

BASE and NEW are files of records: either `baseline/*.jsonl` files (one
record per line) or saved stdout of `run.py` (the `{"record": ...}` line
is used). For every workload and metric present on both sides this
prints each side's median and quartiles, the change in the metric's
better direction, and, for end-to-end metrics, whether the new median is
worse than the base median by more than the bound in BENCHMARK.json.

Results are comparable only when their environment stamps agree; every
stamp key that differs between the two sides is printed as a warning.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

from stamp import stamp_differences

ROOT = Path(__file__).resolve().parent.parent


def load_records(path: str) -> list[dict]:
    records = []
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        line = line.strip()
        if not line.startswith("{"):
            continue
        data = json.loads(line)
        if "record" in data:
            data = data["record"]
        if "workload" in data and "metrics" in data:
            records.append(data)
    return records


def summary(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def compare(base: list[dict], new: list[dict], spec: dict) -> list[str]:
    better = {m["name"]: m.get("better") for m in spec.get("end_to_end", [])}
    better.update({m["name"]: m.get("better") for m in spec.get("per_layer", [])})
    bound = {m["name"]: m["bound"] for m in spec.get("end_to_end", [])}
    lines = []
    warned = set()
    for a in base:
        for b in new:
            for diff in stamp_differences(a["stamp"], b["stamp"]):
                if diff not in warned:
                    warned.add(diff)
                    lines.append(f"WARNING stamps differ, {diff}")
    for workload in sorted({r["workload"] for r in base} & {r["workload"] for r in new}):
        for trace in (0, 1):
            side_a = [r for r in base if r["workload"] == workload and r["trace"] == trace]
            side_b = [r for r in new if r["workload"] == workload and r["trace"] == trace]
            if not side_a or not side_b:
                continue
            lines.append(f"{workload} (trace {trace}, runs {len(side_a)} vs {len(side_b)})")
            names = [n for n in side_a[0]["metrics"] if n in side_b[0]["metrics"]]
            for name in names:
                va = [r["metrics"][name]["value"] for r in side_a]
                vb = [r["metrics"][name]["value"] for r in side_b]
                qa1, ma, qa3 = summary(va)
                qb1, mb, qb3 = summary(vb)
                unit = side_a[0]["metrics"][name]["unit"]
                change = (mb - ma) / ma if ma else float("nan")
                verdict = ""
                if name in bound and ma:
                    worse = -change if better.get(name) == "higher" else change
                    verdict = "REGRESSION" if worse > bound[name] else "ok"
                lines.append(
                    f"  {name:36s} {ma:12.6g} [{qa1:.6g}, {qa3:.6g}] -> "
                    f"{mb:12.6g} [{qb1:.6g}, {qb3:.6g}] {unit:8s} "
                    f"{change:+.2%} {verdict}")
    return lines


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec_path = ROOT / "BENCHMARK.json"
    spec = json.loads(spec_path.read_text()) if spec_path.is_file() else {}
    lines = compare(load_records(argv[0]), load_records(argv[1]), spec)
    print("\n".join(lines))
    return 1 if any("REGRESSION" in line for line in lines) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
