#!/usr/bin/env python3
"""Counterexample safari over random ordinal sums.

Draws random ordinal sums (1-3 summands, widths log-uniform down to 1e-5,
random inner kinds), runs the counterexample search, the intrinsic
``check_gph`` and ``classify`` on each, and reports the search's violation
gaps.  Every non-trivial ordinal sum must fail both checks and be NotGPH;
a draw that a check passes, or that classify gives a family, would be a
bug worth keeping, so the script exits nonzero in that case and prints
the offending construction.

    python scripts/hunt_ordinal_sums.py --draws 50 --seed 7
"""

import argparse
import sys

from tnormlab import GridSpec, Lukasiewicz, OrdinalSum, Product, SchweizerSklar
from tnormlab.analysis import check_gph, find_gph_counterexample
from tnormlab.classify import classify
from tnormlab.core import spec_label
from tnormlab.rng import SplitMix64

INNER_KINDS = [
    lambda u: Lukasiewicz(),
    lambda u: Product(),
    lambda u: SchweizerSklar(0.5 + 3.0 * u),
    lambda u: SchweizerSklar(-2.0 + 1.5 * u),
]


def random_ordinal_sum(rng: SplitMix64) -> OrdinalSum:
    """1-3 summands, one in each of as many equal slots of [0, 1]: its
    width log-uniform between 1e-5 and the slot's, its place in the slot
    uniform."""
    count = 1 + int(rng.next_unit() * 3) % 3
    slot = 1.0 / count
    summands = []
    for i in range(count):
        width = slot * (1e-5 / slot) ** rng.next_unit()
        lower = i * slot + (slot - width) * rng.next_unit()
        upper = min((i + 1) * slot, lower + width)
        inner = INNER_KINDS[int(rng.next_unit() * 4) % 4](rng.next_unit())
        summands.append((lower, upper, inner))
    return OrdinalSum(summands)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--draws", type=int, default=25)
    parser.add_argument("--seed", type=lambda s: int(s, 0), default=7)
    parser.add_argument("--points", type=int, default=51)
    parser.add_argument("--samples", type=int, default=2_000)
    args = parser.parse_args(argv)

    rng = SplitMix64(args.seed)
    grid = GridSpec(points=args.points, samples=args.samples, seed=args.seed)
    misses = []
    gaps = []
    for i in range(args.draws):
        spec = random_ordinal_sum(rng)
        report = find_gph_counterexample(spec, grid)
        verdict = check_gph(spec, None, grid)
        label = spec_label(spec)
        passed = [name for name, check in (("counterexample", report),
                                           ("verify", verdict)) if check.passed]
        family = classify(spec, grid).family
        if family != "NotGPH":
            passed.append(f"classify ({family})")
        if passed:
            misses.append(label)
            print(f"[{i:03d}] PASSES {' and '.join(passed)}  {label}")
            continue
        w = report.witness
        gaps.append(w.gap)
        print(f"[{i:03d}] gap {w.gap:9.3e} at (l={w.lam:.4g}, x={w.x:.4g},"
              f" y={w.y:.4g}) via {report.metadata['witness_source']:>6}"
              f"  {label}")

    if gaps:
        print(f"\n{len(gaps)} witnesses; gap min {min(gaps):.3e}, "
              f"median {sorted(gaps)[len(gaps) // 2]:.3e}, max {max(gaps):.3e}")
    if misses:
        print(f"{len(misses)} draws passed a check:", *misses, sep="\n  ")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
