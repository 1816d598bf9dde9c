#!/usr/bin/env python3
"""Alternating benchmark pairs of two checkouts, and the rule for a gain.

    python3 scripts/ab_pairs.py PARENT CHANGE --workload sweep --pairs 10 \\
        --seconds 25 --seed 0xC0FFEE

Runs ``python3 bench/run.py`` in the PARENT and the CHANGE checkout in
turn, the parent first in even pairs and the change first in odd ones, and
reads the result line that run.py prints last; stderr gets each pair's
metrics as one JSON line.  For each end-to-end metric of the parent's
BENCHMARK.json it prints each side's median and quartiles, the change's
median over the parent's, the pairs the change wins (ties count for
neither side) and whether a gain holds: the change wins at least nine
tenths of the pairs and its median is better than the parent's by more
than the parent's interquartile range.

Next to the gain it prints the no-regression rule, with each metric's
``bound`` from BENCHMARK.json taken as a fraction of the parent's median.
A metric is worse when the change's median is worse than the parent's by
more than the bound.  It is unresolved when the parent's interquartile
range is wider than the bound, so the runs cannot tell a move of that
size, unless every change run beats every parent run.

The two checkouts must sit at resolved paths of equal length: path length
alone moves the benchmark (the process's memory layout changes with it),
so the script exits 2 with one line on stderr when they differ.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
from pathlib import Path


def result_metrics(stdout: str) -> dict[str, float]:
    """The metric values of run.py's last output line, by name."""
    last = stdout.strip().splitlines()[-1]
    return {name: m["value"] for name, m in json.loads(last)["metrics"].items()}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile), inclusive method."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summarize(pairs: list[tuple[dict, dict]], better: dict[str, str],
              bounds: dict[str, float] | None = None) -> list[dict]:
    """One row per metric of ``better`` (name -> "lower" or "higher") that
    every run reports, from ``pairs`` of (parent, change) metric values.
    ``bounds`` (name -> fraction of the parent's median) decides ``worse``
    and ``unresolved``; a metric without a bound is neither."""
    rows = []
    for name, direction in better.items():
        if not all(name in p and name in c for p, c in pairs):
            continue
        sign = 1.0 if direction == "higher" else -1.0
        parent = [p[name] for p, _ in pairs]
        change = [c[name] for _, c in pairs]
        pq, cq = quartiles(parent), quartiles(change)
        wins = sum(sign * (c - p) > 0.0 for p, c in zip(parent, change))
        gain = (wins >= math.ceil(0.9 * len(pairs))
                and sign * (cq[1] - pq[1]) > pq[2] - pq[0])
        allowed = (bounds or {}).get(name, math.inf) * abs(pq[1])
        worse = sign * (cq[1] - pq[1]) < -allowed
        beats_all = all(sign * (c - p) > 0.0 for p in parent for c in change)
        unresolved = pq[2] - pq[0] > allowed and not beats_all
        rows.append({"metric": name, "better": direction, "parent": pq,
                     "change": cq, "ratio": cq[1] / pq[1] if pq[1] else math.nan,
                     "wins": wins, "pairs": len(pairs), "gain": gain,
                     "worse": worse, "unresolved": unresolved})
    return rows


def format_rows(rows: list[dict]) -> str:
    """The rows as a text table: quartiles as q1/median/q3."""
    def q(t):
        return "/".join(f"{v:.4g}" for v in t)

    def yes(flag):
        return "yes" if flag else "no"

    lines = [f"{'metric':18s} {'better':6s} {'parent q1/med/q3':26s}"
             f" {'change q1/med/q3':26s} {'ratio':>7s} wins  gain  worse"
             f" unresolved"]
    for r in rows:
        lines.append(f"{r['metric']:18s} {r['better']:6s} {q(r['parent']):26s}"
                     f" {q(r['change']):26s} {r['ratio']:7.4f}"
                     f" {r['wins']:2d}/{r['pairs']:<2d} {yes(r['gain']):5s}"
                     f" {yes(r['worse']):5s} {yes(r['unresolved'])}")
    return "\n".join(lines)


def run_once(checkout: Path, workload: str, seconds: float, seed: int) -> dict:
    """The metrics of one ``bench/run.py`` run in ``checkout``."""
    done = subprocess.run(
        ["python3", "bench/run.py", "--workload", workload, "--seconds",
         str(seconds), "--seed", str(seed)],
        cwd=checkout, capture_output=True, text=True, check=True)
    return result_metrics(done.stdout)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--seed", type=lambda s: int(s, 0), default=0xC0FFEE)
    args = parser.parse_args(argv)
    parent, change = (str(p.resolve()) for p in (args.parent, args.change))
    if len(parent) != len(change):
        print(f"ab_pairs: checkout paths differ in length ({len(parent)}:"
              f" {parent}, {len(change)}: {change})", file=sys.stderr)
        return 2
    spec = json.loads((args.parent / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    pairs = []
    for k in range(args.pairs):
        order = ["parent", "change"] if k % 2 == 0 else ["change", "parent"]
        got = {side: run_once(getattr(args, side), args.workload,
                              args.seconds, args.seed) for side in order}
        pairs.append((got["parent"], got["change"]))
        # every run's metrics, for the record
        print(json.dumps({"pair": k + 1, "first": order[0], **got}),
              file=sys.stderr, flush=True)
    print(format_rows(summarize(pairs, better, bounds)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
