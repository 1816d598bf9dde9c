#!/usr/bin/env python3
"""Run each one-pass benchmark and gate it against bench/golden.json.

    python3 scripts/check_golden.py

A gate names a seed, a workload, the ops it exempts, how many ops it gates
and whether verdict_accuracy must be 1.0.  The script runs bench/run.py
once per (seed, workload) the gates name.  A gate fails when run.py's
result line says "correct": false, when a required accuracy reads less,
when a gated op digest differs from golden or when the gated count is off.
"""

import json
import subprocess
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


#: (seed, workload, exempt op, ops gated, verdict_accuracy must be 1.0)
GATES = [
    # powers/archimedean/* changed on purpose with the archimedean redesign
    (12648430, "powers", lambda op: op.startswith("powers/archimedean/"), 81,
     True),
    (12648430, "battery",
     lambda op: _check(op) in {"classify", "counterexample"}, 75, True),
    (12648430, "battery", _not_fixed_counterexample, 18, True),
    (7, "battery", _not_fixed_counterexample, 18, True),
    (12648430, "cli", CLI_EVIDENCE.__contains__, 17, False),
    (7, "cli", CLI_EVIDENCE.__contains__, 17, False),
    (12648430, "sweep", lambda op: False, 108, False),
    (7, "sweep", lambda op: False, 108, False),
]


def run_pass(seed: int, workload: str) -> tuple[dict, dict]:
    """run.py's result line and the op digests of one full pass."""
    out = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0"],
        check=True, capture_output=True, text=True).stdout
    print(out, end="")
    report = BENCH / "out" / f"{workload}-full-seed{seed}-trace0.json"
    return (json.loads(out.splitlines()[-1]),
            {o["id"]: o["digest"] for o in json.loads(report.read_text())["ops"]})


def failures(result: dict, got: dict, want: dict, expected: int,
             exact: bool) -> list[str]:
    """Why a gate with golden digests ``want`` fails on a pass with result
    line ``result`` and op digests ``got``; empty when it passes."""
    reasons = [] if result["correct"] else ["run.py says correct: false"]
    accuracy = result["metrics"]["verdict_accuracy"]["value"]
    if exact and accuracy < 1.0:
        reasons.append(f"verdict_accuracy {accuracy} < 1.0")
    if len(want) != expected:
        reasons.append(f"{len(want)} ops gated, expected {expected}")
    return reasons + [f"changed: {op}" for op in sorted(want)
                      if got.get(op) != want[op]]


def main() -> int:
    golden = json.loads((BENCH / "golden.json").read_text())
    passes = {}
    failed = False
    for seed, workload, exempt, expected, exact in GATES:
        if (seed, workload) not in passes:
            passes[seed, workload] = run_pass(seed, workload)
        want = {op: d for op, d in golden[str(seed)][workload].items()
                if not exempt(op)}
        reasons = failures(*passes[seed, workload], want, expected, exact)
        print(f"{workload} seed {seed}: {len(want)} ops gated,"
              f" {'FAILED' if reasons else 'ok'}")
        for reason in reasons:
            print(f"  {reason}")
        failed |= bool(reasons)
    return int(failed)


if __name__ == "__main__":
    sys.exit(main())
