#!/usr/bin/env python3
"""Minor page faults and seconds per op of one in-process benchmark workload.

    python3 scripts/fault_census.py --workload sweep [--seed 0xC0FFEE]
        [--size full|tiny]

Builds the workload's op list from bench/workloads.py and runs it in a
fresh interpreter: one untimed warm-up pass over every op, then one
measured pass in the built order, reading ``getrusage(RUSAGE_SELF)``
minor faults and ``perf_counter`` around each op.  glibc's heap trimming
puts a process into one of two fault modes chosen by its memory layout,
which the length of ``argv`` alone can flip, so the census runs twice:
once with the child's ``argv`` padded by 0 characters and once by 32.

Prints one JSON object: for each padding, the totals of the measured pass,
its groups (a sweep op's grid size, the ``@n`` of its id; a battery op's
check, the last part of its id; all battery ops share one grid) and each
op.  Every entry holds ``minor_faults`` and ``seconds``.
"""

from __future__ import annotations

import argparse
import json
import resource
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

#: the argv paddings, in characters, whose heap-trim modes the census shows.
PADS = (0, 32)


def group_of(op_id: str) -> str:
    """The census group of an op: ``@n`` for a sweep op, else its check."""
    _, at, points = op_id.rpartition("@")
    return f"@{points}" if at else op_id.rsplit("/", 1)[1]


def reduce(records: list[dict]) -> dict:
    """The measured pass's records, each with ``id``, ``minor_faults`` and
    ``seconds``, as totals, per-group sums (in first-seen order) and per-op
    entries."""
    def entry():
        return {"minor_faults": 0, "seconds": 0.0}

    total, groups, ops = entry(), {}, {}
    for rec in records:
        for acc in (total, groups.setdefault(group_of(rec["id"]), entry()),
                    ops.setdefault(rec["id"], entry())):
            acc["minor_faults"] += rec["minor_faults"]
            acc["seconds"] += rec["seconds"]
    return {"total": total, "groups": groups, "ops": ops}


def _measure(workload: str, seed: int, size: str) -> list[dict]:
    """One warm-up pass, then one measured pass: a record per op."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]
    import workloads

    ops = workloads.BUILDERS[workload](seed, size)
    for op in ops:
        op.run()
    records = []
    for op in ops:
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        t0 = time.perf_counter()
        op.run()
        seconds = time.perf_counter() - t0
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
        records.append({"id": op.id, "minor_faults": faults,
                        "seconds": seconds})
    return records


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("sweep", "battery"))
    parser.add_argument("--seed", type=lambda s: int(s, 0), default=0xC0FFEE)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    # a child run: its records on stdout; the padding only moves the layout
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--pad", default="", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        print(json.dumps(_measure(args.workload, args.seed, args.size)))
        return 0

    modes = {}
    for pad in PADS:
        done = subprocess.run(
            [sys.executable, __file__, "--child", "--workload", args.workload,
             "--seed", str(args.seed), "--size", args.size, "--pad", "." * pad],
            capture_output=True, text=True, check=True)
        modes[f"pad{pad}"] = reduce(json.loads(done.stdout))
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "size": args.size, "modes": modes}, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
