"""Print the benchmark's records: every metric per workload, then layers.

Usage (from the repository root, after some ``perfbench/run.py`` runs)::

    python3 perfbench/report.py

For each workload it prints every end-to-end metric of the ``--trace 0``
records with its unit, median, quartiles and sample count n (one sample
per run), then the newest ``--trace 1`` record's per-layer table: self
time and share of the traced wall per layer and per span, the
region-size histogram of the backend kernels, coverage and the longest
uncovered intervals.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path
from typing import Dict, List

RECORDS = Path(__file__).resolve().parent.parent / ".perfbench" / "records"


def quartiles(values: List[float]):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def _g(value: float) -> str:
    return f"{value:.6g}"


def print_layers(trace: dict) -> None:
    """Self time per layer (module) and per span, as shares of the wall."""
    wall = trace["wall_s"]
    spans = trace["spans"]
    layers: Dict[str, float] = defaultdict(float)
    for name, span in spans.items():
        layers[name.split(".", 1)[0]] += span["self_s"]
    print(f"  traced wall {wall:.3f} s, {trace['calls']} wrapped calls")
    print(f"  {'layer':<18} {'self_s':>10} {'share':>7}")
    for layer, self_s in sorted(layers.items(), key=lambda kv: -kv[1]):
        print(f"  {layer:<18} {self_s:>10.3f} {self_s / wall:>7.1%}")
    print(f"  {'uncovered':<18} {trace['bare_s']:>10.3f} {trace['bare_s'] / wall:>7.1%}")
    print(f"  {'span':<46} {'calls':>8} {'total_s':>9} {'self_s':>9} {'share':>7}")
    for name, span in sorted(spans.items(), key=lambda kv: -kv[1]["self_s"]):
        if not span["calls"]:
            continue
        print(
            f"  {name:<46} {span['calls']:>8} {span['total_s']:>9.3f} "
            f"{span['self_s']:>9.3f} {span['self_s'] / wall:>7.1%}"
        )
    print("  region-size histogram (bucket = lower bound, instructions):")
    print(f"  {'kernel':<22} {'bucket':>7} {'calls':>8} {'instr':>11} {'s':>8} {'Minstr/s':>9}")
    for name, bucket, calls, instructions, seconds in trace["histogram"]:
        rate = instructions / seconds / 1e6 if seconds else 0.0
        print(
            f"  {name:<22} {bucket:>7} {calls:>8} {instructions:>11} "
            f"{seconds:>8.3f} {rate:>9.3f}"
        )
    print("  longest uncovered intervals (s, at s, after -> before):")
    for gap, at, after, before in trace["uncovered"]:
        print(f"    {gap:.4f} at {at:.3f}  {after} -> {before}")


def print_record(record: dict) -> None:
    """One run's metrics (and, for a traced run, its layer table)."""
    fp = record["fingerprint"]
    print(
        f"{record['workload']} seed={record['seed']} trace={record['trace']} "
        f"correct={record['correct']} attempted={record['attempted']} "
        f"failed={record['failed']} elapsed={record['elapsed_s']:.1f}s"
    )
    print("  " + " ".join(f"{k}={v}" for k, v in fp.items()))
    if "host_factor" in record["raw"]:
        print(f"  host slow-down factor {record['raw']['host_factor']:.4f} "
              "(times below are at the reference host speed)")
    for name, metric in record["metrics"].items():
        print(f"  {name:<36} {_g(metric['value']):>14} {metric['unit']}")
    if "trace" in record["raw"]:
        print_layers(record["raw"]["trace"])
    for problem in record["problems"]:
        print(f"  problem: {problem}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--records", type=Path, default=RECORDS)
    args = parser.parse_args(argv)
    records = [
        json.loads(path.read_text()) for path in sorted(args.records.glob("*.json"))
    ]
    if not records:
        print(f"no records under {args.records}", file=sys.stderr)
        return 1
    by_workload: Dict[str, List[dict]] = defaultdict(list)
    for record in records:
        by_workload[record["workload"]].append(record)
    for workload, group in sorted(by_workload.items()):
        plain = [r for r in group if not r["trace"]]
        traced = [r for r in group if r["trace"]]
        print(f"== {workload}: {len(plain)} end-to-end runs, {len(traced)} traced ==")
        if plain:
            print(f"  {'metric':<20} {'unit':<9} {'median':>12} {'q1':>12} {'q3':>12} {'n':>4}")
            for name, metric in plain[0]["metrics"].items():
                values = [r["metrics"][name]["value"] for r in plain]
                q1, mid, q3 = quartiles(values)
                print(
                    f"  {name:<20} {metric['unit']:<9} {_g(mid):>12} "
                    f"{_g(q1):>12} {_g(q3):>12} {len(values):>4}"
                )
            failed = sum(r["failed"] for r in plain)
            attempted = sum(r["attempted"] for r in plain)
            print(f"  invocations failed: {failed} of {attempted}")
        if traced:
            newest = max(traced, key=lambda r: r["stamp"])
            print_record(newest)
    return 0


if __name__ == "__main__":
    sys.exit(main())
