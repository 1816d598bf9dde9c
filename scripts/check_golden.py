#!/usr/bin/env python3
"""Compare benchmark op digests with bench/golden.json.

Each gate names a seed, a workload, the ops it exempts and how many ops it
gates.  It reads the one-pass report bench/run.py leaves in bench/out and
fails when a gated digest differs from golden or the number of gated ops is
not the expected one.  Run the passes first, then:

    python3 bench/run.py --workload powers --seconds 0
    ...
    python3 scripts/check_golden.py
"""

import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"

#: cli ops whose classify evidence changed on purpose.
CLI_EVIDENCE = {"cli/classify-osum-json", "cli/classify-ss:-1-json",
                "cli/classify-cshelf:0.25-json"}


def _check(op: str) -> str:
    return op.rsplit("/", 1)[1]


def _not_fixed_counterexample(op: str) -> bool:
    """All but the counterexample ops of the 15 matrix members and the 3
    fixed ordinal sums; the seeded rosum labels changed with the
    mini-syntax."""
    return _check(op) != "counterexample" or op.startswith("battery/rosum")


#: (seed, workload, exempt op, ops gated)
GATES = [
    # powers/archimedean/* changed on purpose with the archimedean redesign
    (12648430, "powers", lambda op: op.startswith("powers/archimedean/"), 81),
    (12648430, "battery",
     lambda op: _check(op) in {"classify", "counterexample"}, 75),
    (12648430, "battery", _not_fixed_counterexample, 18),
    (7, "battery", _not_fixed_counterexample, 18),
    (12648430, "cli", CLI_EVIDENCE.__contains__, 17),
    (7, "cli", CLI_EVIDENCE.__contains__, 17),
    (12648430, "sweep", lambda op: False, 108),
    (7, "sweep", lambda op: False, 108),
]


def main() -> int:
    golden = json.loads((BENCH / "golden.json").read_text())
    failed = False
    for seed, workload, exempt, expected in GATES:
        report = BENCH / "out" / f"{workload}-full-seed{seed}-trace0.json"
        got = {o["id"]: o["digest"]
               for o in json.loads(report.read_text())["ops"]}
        want = {op: d for op, d in golden[str(seed)][workload].items()
                if not exempt(op)}
        changed = [op for op in sorted(want) if got.get(op) != want[op]]
        print(f"{workload} seed {seed}: {len(want)} ops gated"
              f" (expected {expected}), {len(changed)} changed")
        for op in changed:
            print(f"  {op}")
        failed |= bool(changed) or len(want) != expected
    return int(failed)


if __name__ == "__main__":
    sys.exit(main())
