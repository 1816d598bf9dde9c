"""One fresh interpreter running one in-process workload (see run.py).

Protocol on stdout: the line ``ready`` once set-up is done (tnormlab
imported, inputs built, one untimed warm-up op run), then, unless
``--setup-only``, one line ``result <json>``.  Library output is sent to
stderr so that it cannot corrupt the protocol.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import random
import resource
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(BENCH), "src"), BENCH]

import oracle  # noqa: E402
import pace  # noqa: E402
import workloads  # noqa: E402
from cli_ops import cli_ops  # noqa: E402
from tnormlab import cli  # noqa: E402


class _CountingSink(io.TextIOBase):
    """Stand-in stdout for the in-process CLI replay: counts bytes only."""

    def __init__(self):
        self.bytes = 0

    def write(self, text):
        self.bytes += len(text.encode("utf-8"))
        return len(text)


def _replay_ops(seed: int, size: str, sink: _CountingSink) -> list[workloads.Op]:
    def replay(argv):
        saved = sys.stdout, sys.stderr
        sys.stdout, sys.stderr = sink, io.StringIO()  # stderr is not counted
        try:
            return cli.main(argv)
        except SystemExit as exc:  # argparse rejects the argv
            return exc.code
        finally:
            sys.stdout, sys.stderr = saved

    return [workloads.Op(f"cli/{name}", ("cli", name),
                         lambda argv=argv: replay(argv),
                         lambda code: {"exit": code})
            for name, argv in cli_ops(seed, size)]


def _run_op(op: workloads.Op):
    """(seconds, raw result or None, error text or None)."""
    t0 = time.perf_counter()
    try:
        raw = op.run()
        error = None
    except Exception as exc:  # an op that raises is a failed op, not a crash
        raw = None
        error = f"{type(exc).__name__}: {exc}"
    return time.perf_counter() - t0, raw, error


def _record(op: workloads.Op, raw, error, digest: bool) -> dict:
    rec = {"id": op.id, "error": error}
    if error is None:
        rec["verdict"] = op.verdict(raw)
        if op.key[0] == "cli":  # the replay checks the exit code only
            rec["match"] = rec["verdict"]["exit"] == oracle.expected(op.key)["exit"]
        else:
            rec["match"] = oracle.matches(op.key, rec["verdict"])
        if digest:
            rec["digest"] = hashlib.sha256(
                workloads.report_text(raw).encode("utf-8")).hexdigest()
    else:
        rec["match"] = False
    return rec


def _timed_passes(ops, seconds: float, seed: int) -> tuple[list, list, list]:
    """Whole passes over ``ops`` until ``seconds`` have passed; at least
    one.  Returns latencies, calibration samples (pace.py; one before the
    first op and one after each) and records.

    Each pass runs the ops in a new order drawn from ``seed``.  Ops of
    similar cost sit next to each other in the built list, so in a fixed
    order a latency percentile would rest on the few milliseconds in which
    one group runs; shuffled, it samples the whole run."""
    order = random.Random(seed)
    latencies, cal, records = [], [pace.sample()], []
    start = time.perf_counter()
    first_pass = True
    while True:
        for op in order.sample(ops, len(ops)):
            dt, raw, error = _run_op(op)
            cal.append(pace.sample())
            latencies.append(dt)
            records.append(_record(op, raw, error, digest=first_pass))
            del raw
        first_pass = False
        if time.perf_counter() - start >= seconds:
            return latencies, cal, records


def _traced_pass(ops, sink: _CountingSink) -> dict:
    import spans  # imported here: only traced runs wrap the library

    t0 = time.perf_counter()
    for op in ops:
        _run_op(op)
    untraced = time.perf_counter() - t0

    tracer = spans.Tracer()
    spans.install(tracer)
    sink.bytes = 0
    records = []
    t0 = time.perf_counter()
    for op in ops:
        tracer.op = op.id
        _, raw, error = _run_op(op)
        tracer.end_op()
        records.append(_record(op, raw, error, digest=False))
    traced = time.perf_counter() - t0
    layer = tracer.metrics()
    layer["trace_overhead"] = traced / untraced
    layer["traced_wall_s"] = traced
    layer["cli.stdout_bytes"] = sink.bytes
    return {"layer": layer, "records": records, "spans": tracer.spans}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=lambda s: int(s, 0), required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans-out")
    args = parser.parse_args(argv)

    proto = os.fdopen(os.dup(1), "w")
    sys.stdout = sys.stderr

    sink = _CountingSink()
    if args.workload == "cli":
        ops = _replay_ops(args.seed, args.size, sink)
    else:
        ops = workloads.BUILDERS[args.workload](args.seed, args.size)
    _run_op(ops[0])  # untimed warm-up
    print("ready", file=proto, flush=True)
    if args.setup_only:
        return 0

    result = {}
    if args.trace:
        traced = _traced_pass(ops, sink)
        result["per_layer"] = traced["layer"]
        result["records"] = traced["records"]
        if args.spans_out:
            with open(args.spans_out, "w", encoding="utf-8") as fh:
                json.dump(traced["spans"], fh, separators=(",", ":"))
    else:
        latencies, cal, records = _timed_passes(ops, args.seconds, args.seed)
        result.update(latencies=latencies, calibration=cal, records=records)
    result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print("result " + json.dumps(result), file=proto, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
