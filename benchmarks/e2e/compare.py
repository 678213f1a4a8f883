#!/usr/bin/env python3
"""Compare parent and change runs of the end-to-end benchmark.

    python3 benchmarks/e2e/compare.py --parent P1.json ... --change C1.json ...

Takes the ``--out`` files of at least ten runs per side, paired by
position (run them alternating: parent, change, parent, change, ...),
and prints one row per (workload, metric): each side's median and
quartiles, the pairs the change won, and a verdict:

* ``improved`` -- the change wins at least 9 of 10 pairs (ties count for
  neither side) and the medians differ by more than the parent's
  interquartile range; ``worse`` is the mirror image;
* for end-to-end metrics, ``regressed`` when the change's median is worse
  than the parent's by more than the metric's bound in ``BENCHMARK.json``,
  ``unresolved`` when either side's spread (IQR / median) exceeds that
  bound (unless every change run beats every parent run), else ``worse,
  within bound`` or ``within bound``;
* for per-layer metrics, which have no bound, ``no claim`` otherwise.

Exits 1 when any end-to-end metric regressed, or when a client timing
(``ops_per_s``, ``p50_ms``, ``tail_ms``: too noisy on a shared machine
for a bound, so listed with the per-layer metrics) is ``worse`` by the
paired rule.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Tuple

from metrics import CLIENT_TIMINGS

HERE = Path(__file__).resolve().parent
BENCHMARK = HERE.parents[1] / "BENCHMARK.json"
MIN_PAIRS = 10

Key = Tuple[str, str]


def load(paths: List[str]) -> List[Dict[Key, float]]:
    """One {(workload, metric): value} map per result file."""
    runs = []
    for path in paths:
        data = json.loads(Path(path).read_text())
        values: Dict[Key, float] = {}
        for result in data["results"]:
            for section in ("end_to_end", "per_layer"):
                for metric, value in result.get(section, {}).items():
                    values[(result["workload"], metric)] = float(value)
        runs.append(values)
    return runs


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(parent: List[float], change: List[float], lower_is_better: bool,
            bound: float = None) -> Tuple[str, int]:
    sign = 1.0 if lower_is_better else -1.0
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) < 0)
    losses = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    p_q1, p_med, p_q3 = quartiles(parent)
    c_q1, c_med, c_q3 = quartiles(change)
    clear_gap = abs(c_med - p_med) > p_q3 - p_q1
    better = sign * (c_med - p_med) < 0
    if wins >= 0.9 * len(parent) and clear_gap and better:
        return "improved", wins
    if bound is not None:
        worse_by = sign * (c_med - p_med) / abs(p_med) if p_med else 0.0
        if worse_by > bound:
            return "regressed", wins
        spread = max((p_q3 - p_q1) / abs(p_med or 1.0), (c_q3 - c_q1) / abs(c_med or 1.0))
        if spread > bound:
            every_run_better = (
                max(change) < min(parent) if lower_is_better else min(change) > max(parent)
            )
            return ("improved" if every_run_better else "unresolved"), wins
    if losses >= 0.9 * len(parent) and clear_gap and not better:
        return ("worse" if bound is None else "worse, within bound"), wins
    return ("no claim" if bound is None else "within bound"), wins


def main(argv: List[str] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", nargs="+", required=True, metavar="FILE")
    parser.add_argument("--change", nargs="+", required=True, metavar="FILE")
    args = parser.parse_args(argv)
    if len(args.parent) != len(args.change) or len(args.parent) < MIN_PAIRS:
        parser.error(f"need the same number (>= {MIN_PAIRS}) of parent and change files")
    spec = json.loads(BENCHMARK.read_text())
    declared = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    parents, changes = load(args.parent), load(args.change)
    keys = sorted(set.intersection(*(set(run) for run in parents + changes)))
    failed = False
    print(f"{'workload':15} {'metric':34} {'parent median [q1, q3]':>34} "
          f"{'change median [q1, q3]':>34} {'wins':>6}  verdict")
    for workload, metric in keys:
        info = declared.get(metric)
        if info is None:
            continue
        parent = [run[(workload, metric)] for run in parents]
        change = [run[(workload, metric)] for run in changes]
        result, wins = verdict(parent, change, info["better"] == "lower", info.get("bound"))
        failed |= result == "regressed" or (metric in CLIENT_TIMINGS and result == "worse")
        p_q1, p_med, p_q3 = quartiles(parent)
        c_q1, c_med, c_q3 = quartiles(change)
        print(f"{workload:15} {metric:34} {p_med:12.5g} [{p_q1:9.5g}, {p_q3:9.5g}] "
              f"{c_med:12.5g} [{c_q1:9.5g}, {c_q3:9.5g}] {wins:3}/{len(parent):<2}  {result}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
