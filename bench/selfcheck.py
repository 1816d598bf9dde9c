#!/usr/bin/env python3
"""Self-check of the benchmark itself.

    python3 bench/selfcheck.py           # tiny inputs, about a minute
    python3 bench/selfcheck.py --full    # also full inputs at both seeds

Asserts that:

1. a tiny run of every workload prints each metric BENCHMARK.json
   declares, with its unit;
2. every op of every workload, at both sizes, has an oracle entry, and
   every known defect names an op that exists;
3. in each traced run no span's self time is negative, no per-layer
   ``*.self_s`` is negative, and the spans' self times sum to at most the
   traced wall time;
4. verdicts and verdict_accuracy are the same at seed 0xC0FFEE and at 7
   (tiny inputs; with --full, full inputs too).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import oracle  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from cli_ops import cli_ops  # noqa: E402

SEEDS = (0xC0FFEE, 7)


def check_oracle() -> None:
    ids = set()
    for size in ("tiny", "full"):
        for name, build in workloads.BUILDERS.items():
            for op in build(SEEDS[0], size):
                oracle.expected(op.key)  # raises KeyError when missing
                ids.add(op.id)
        for name, _ in cli_ops(SEEDS[0], size):
            oracle.expected(("cli", name))
            ids.add(f"cli/{name}")
    missing = set(oracle.KNOWN_AT_SEED) - ids
    assert not missing, f"known defects name no op: {missing}"


def check_runs(size: str) -> None:
    spec = run.declared()
    verdicts = {}
    for workload in spec["workloads"]:
        for seed in SEEDS:
            res = run.run(workload, seed, 0, 0, size)
            assert set(res["metrics"]) == set(spec["end_to_end"])
            assert all(m["unit"] == spec["end_to_end"][k]
                       for k, m in res["metrics"].items())
            assert res["failed"] == 0, f"{workload}: ops raised"
            verdicts[workload, seed] = (
                {r["id"]: r["verdict"] for r in res["detail"]["ops"]},
                res["metrics"]["verdict_accuracy"]["value"])
        first, second = (verdicts[workload, s] for s in SEEDS)
        assert first == second, f"{workload}: verdicts differ between seeds"
        print(f"{workload}: {len(first[0])} verdicts, accuracy"
              f" {first[1]:.4f} at both seeds ({size})")
        if size == "tiny":
            res = run.run(workload, SEEDS[0], 0, 1, size)
            assert set(res["metrics"]) == set(spec["per_layer"])
            assert all(m["unit"] == spec["per_layer"][k]
                       for k, m in res["metrics"].items())
            detail = res["detail"]
            assert detail["spans_self_s_min"] >= -1e-6, detail
            negative = {k: m["value"] for k, m in res["metrics"].items()
                        if k.endswith(".self_s") and m["value"] < 0}
            assert not negative, f"{workload}: negative self time {negative}"
            assert detail["spans_self_s_total"] <= detail["traced_wall_s"], detail
            print(f"{workload}: span self time {detail['spans_self_s_total']:.3f}"
                  f" s within traced wall {detail['traced_wall_s']:.3f} s")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--full", action="store_true",
                        help="also compare full-size verdicts at both seeds")
    args = parser.parse_args(argv)
    check_oracle()
    check_runs("tiny")
    if args.full:
        check_runs("full")
    print("selfcheck: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
