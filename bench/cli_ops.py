"""The ``cli`` workload: argv lists for ``python -m tnormlab``.

Shared by the process runner in run.py and the in-process replay in
worker.py, and kept free of tnormlab imports so run.py stays light.
"""

from __future__ import annotations

import json

OSUM = "osum:[0.2,0.6,luk;0.6,1,prod]"
EINSTEIN = "expr:x*y/(2-(x+y-x*y))"

#: (name, argv, takes --seed); names are the oracle keys in oracle.CLI.
_OPS = [
    ("catalog", ["catalog"], False),
    ("catalog-json", ["catalog", "--json"], False),
    ("eval-prod", ["eval", "--tnorm", "prod", "--x", "0.5", "--y", "0.4"], False),
    ("eval-luk-catalog-json", ["eval", "--tnorm", "luk", "--f", "catalog",
                               "--x", "0.9", "--y", "0.5", "--json"], False),
    ("eval-ss:-1-json", ["eval", "--tnorm", "ss:-1", "--x", "0.5",
                         "--y", "0.25", "--json"], False),
    ("verify-ss:2-json", ["verify", "--tnorm", "ss:2", "--json"], True),
    ("verify-min-catalog-json", ["verify", "--tnorm", "min", "--f", "catalog",
                                 "--json"], True),
    ("verify-cshelf:0.5-json", ["verify", "--tnorm", "cshelf:0.5", "--f-catalog",
                                "--json"], True),
    ("verify-prod-fexpr-json", ["verify", "--tnorm", "prod", "--f-expr", "x*y",
                                "--json"], True),
    ("verify-osum-json", ["verify", "--tnorm", OSUM, "--json"], True),
    ("verify-einstein-json", ["verify", "--tnorm", EINSTEIN, "--json"], True),
    ("counterexample-prod-json", ["counterexample", "--tnorm", "prod", "--json"],
     True),
    ("counterexample-drastic-json", ["counterexample", "--tnorm", "drastic",
                                     "--json"], True),
    ("counterexample-osum-json", ["counterexample", "--tnorm",
                                  "osum:[0.5,1,prod]", "--json"], True),
    ("classify-ss:-1-json", ["classify", "--tnorm", "ss:-1", "--json"], True),
    ("classify-cshelf:0.25-json", ["classify", "--tnorm", "cshelf:0.25",
                                   "--json"], True),
    ("classify-osum-json", ["classify", "--tnorm", "osum:[0,0.5,luk]", "--json"],
     True),
    ("usage-ss:0", ["verify", "--tnorm", "ss:0"], False),
    ("classify-ss:2-151-assoc-full", ["classify", "--tnorm", "ss:2", "--points",
                                      "151", "--assoc-full"], True),
    ("verify-ss:2-101-csv", ["verify", "--tnorm", "ss:2", "--points", "101",
                             "--csv"], True),
]

#: the heavy ops a tiny self-check run leaves out.
_HEAVY = {"classify-ss:2-151-assoc-full", "verify-ss:2-101-csv"}

SUBCOMMANDS = ("catalog", "eval", "verify", "counterexample", "classify")


def cli_ops(seed: int, size: str = "full") -> list[tuple[str, list[str]]]:
    """(name, argv) for each op; timed passes shuffle this order."""
    ops = []
    for name, argv, seeded in _OPS:
        if size == "tiny" and name in _HEAVY:
            continue
        ops.append((name, argv + (["--seed", str(seed)] if seeded else [])))
    return ops


def cli_verdict(exit_code: int, stdout: bytes) -> dict:
    """Exit code plus the fields the oracle checks, parsed from stdout."""
    verdict = {"exit": exit_code}
    text = stdout.decode("utf-8", "replace")
    if text.startswith("lambda,x,y,"):
        verdict["lines"] = text.count("\n")
        return verdict
    if text.startswith("family="):
        verdict["family"] = text.split()[0].split("=", 1)[1]
        return verdict
    try:
        doc = json.loads(text)
    except ValueError:
        return verdict
    if isinstance(doc, float):  # eval without --json prints the bare value
        verdict["value"] = doc
    elif isinstance(doc, dict):
        for field in ("passed", "family", "parameter", "value"):
            if field in doc:
                verdict[field] = doc[field]
        if "families" in doc:
            verdict["families"] = len(doc["families"])
    return verdict
