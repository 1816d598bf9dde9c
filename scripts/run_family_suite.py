#!/usr/bin/env python3
"""Run the whole verification battery over the family matrix.

For every catalog member (the acceptance parameter set) this runs: axiom
suite, scaling sweep against the catalog companion (which is the intrinsic
one, so there is one residual), strict-regularity predicate, diagonal scan,
minimum-equivalences, continuity equivalence, and the classifier; then
prints one row per member and a summary.  Each fixed ordinal sum gets the
counterexample search and the classifier.  The script exits 1 when a
member is classified as another family, or a sum is not NotGPH with a
witness.

    python scripts/run_family_suite.py --points 101 --seed 0xC0FFEE
    python scripts/run_family_suite.py --json out/suite.json
"""

import argparse
import json
import sys
import time

from tnormlab import (
    Catalog,
    CShelf,
    Drastic,
    GridSpec,
    Lukasiewicz,
    Minimum,
    OrdinalSum,
    Product,
    SchweizerSklar,
    check_axioms,
    check_continuity_equivalence,
    check_gph,
    check_pseudo_homogeneous,
    check_tm_equivalences,
    classify,
    find_gph_counterexample,
    scan_diagonal,
)
from tnormlab.classify import _verdict
from tnormlab.core import spec_label

MATRIX = [
    Minimum(),
    Product(),
    Drastic(),
    SchweizerSklar(-2.0),
    SchweizerSklar(-1.0),
    SchweizerSklar(-0.5),
    SchweizerSklar(0.5),
    SchweizerSklar(1.0),
    SchweizerSklar(2.0),
    SchweizerSklar(3.0),
    CShelf(0.25),
    CShelf(0.5),
    CShelf(0.75),
    CShelf(0.005),
    CShelf(0.995),
]

ORDINAL_SUMS = [
    OrdinalSum([(0.0, 0.5, Lukasiewicz())]),
    OrdinalSum([(0.5, 1.0, Product())]),
    OrdinalSum([(0.2, 0.6, Lukasiewicz()), (0.6, 1.0, Product())]),
]


def run_member(spec, grid):
    t0 = time.perf_counter()
    # the catalog companion is the intrinsic T(x, x*y) behind a kind guard
    companion = Catalog(spec)
    gph = check_gph(spec, companion, grid)
    row = {
        "tnorm": spec_label(spec),
        "axioms": check_axioms(spec, grid).passed,
        "catalog_residual": gph.max_residual,
        "strict_regularity": check_pseudo_homogeneous(companion, grid).passed,
        "diagonal_limit": scan_diagonal(spec, grid).metadata["limit"],
        "tm_equivalences": check_tm_equivalences(spec, grid).passed,
        "continuity_equivalence": check_continuity_equivalence(spec,
                                                               grid).passed,
    }
    result = classify(spec, grid)
    row["classified_as"] = result.family
    row["parameter"] = result.parameter
    row["seconds"] = round(time.perf_counter() - t0, 3)
    return row


def run_ordinal_sum(spec, grid):
    report = find_gph_counterexample(spec, grid)
    w = report.witness
    return {
        "tnorm": spec_label(spec),
        "witness": None if w is None else w.to_dict(),
        "sweep_max_residual": report.metadata["sweep_max_residual"],
        "classified_as": classify(spec, grid).family,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--points", type=int, default=GridSpec.points)
    parser.add_argument("--samples", type=int, default=GridSpec.samples)
    parser.add_argument("--seed", type=lambda s: int(s, 0), default=GridSpec.seed)
    parser.add_argument("--json", metavar="PATH",
                        help="also dump the full results as JSON")
    args = parser.parse_args(argv)

    grid = GridSpec(points=args.points, samples=args.samples, seed=args.seed)
    rows = [run_member(spec, grid) for spec in MATRIX]
    sums = [run_ordinal_sum(spec, grid) for spec in ORDINAL_SUMS]

    header = (f"{'member':<12} {'axioms':<7} {'catalog':<10}"
              f" {'strict':<7} {'lim':<4} {'classified':<20} {'s':<6}")
    print(header)
    print("-" * len(header))
    for r in rows:
        param = "" if r["parameter"] is None else f"({r['parameter']:.6g})"
        print(f"{r['tnorm']:<12} {str(r['axioms']):<7}"
              f" {r['catalog_residual']:<10.2e}"
              f" {str(r['strict_regularity']):<7} {str(r['diagonal_limit']):<4}"
              f" {r['classified_as'] + param:<20} {r['seconds']:<6}")
    print()
    for s in sums:
        w = s["witness"]
        where = (f"gap {w['gap']:.4f} at ({w['lambda']:.4g}, {w['x']:.4g},"
                 f" {w['y']:.4g})") if w else "no witness"
        print(f"{s['tnorm']:<28} -> {s['classified_as']:<8} {where}"
              f" (sweep max {s['sweep_max_residual']:.4f})")

    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump({"grid": {"points": grid.points, "seed": grid.seed,
                                "samples": grid.samples},
                       "members": rows, "ordinal_sums": sums}, fh, indent=2)
        print(f"\nwrote {args.json}")
    # every member is its own family; every non-trivial ordinal sum fails
    # the scaling equation
    wrong = [r["tnorm"] for spec, r in zip(MATRIX, rows)
             if r["classified_as"] != _verdict(spec)[0]]
    misses = [s["tnorm"] for s in sums
              if s["classified_as"] != "NotGPH" or s["witness"] is None]
    if wrong:
        print(f"{len(wrong)} members classified as another family:", *wrong,
              sep="\n  ")
    if misses:
        print(f"{len(misses)} ordinal sums not NotGPH with a witness:",
              *misses, sep="\n  ")
    return int(bool(wrong or misses))


if __name__ == "__main__":
    sys.exit(main())
