#!/usr/bin/env python3
"""tnormlab benchmark: time to verdict on four closed-loop workloads.

    python3 bench/run.py --workload sweep --seed 0xC0FFEE --seconds 10 --trace 0

Run from the repository root.  One caller, no threads: each workload is a
fixed list of operations run back to back, the next one starting when the
previous one has returned.

- sweep, battery, powers: in-process calls of tnormlab's public functions,
  in a fresh interpreter (worker.py) so that peak RSS belongs to the
  workload.  ``setup_s`` is the median, over several fresh interpreters,
  of start, ``import tnormlab``, building the inputs and one warm-up op.
- cli: ``python -m tnormlab`` processes, one at a time.  ``setup_s`` is the
  median wall time of ``python -m tnormlab --help``.

Every time (op, process, set-up) is reported at a reference host speed:
pace.py times a fixed loop just before and just after it and scales the
measured time by the loop's nominal over its measured time, so the host's
drift between runs does not read as a change of tnormlab.  The run and
its children are kept on one CPU, where the loop is timed too.

Every verdict is checked against oracle.py, written from the paper's table
and closed forms.  The run measures whole passes over the op list until
``--seconds`` have passed (at least one pass), each pass in a new order
drawn from ``--seed``.  An op's latency is its median over the passes;
``verdicts_per_s`` is the rate of one pass at these latencies and
``verdict_ms.p50``/``.p90`` their percentiles over the op set.  With
``--trace 1`` it instead reports the per-layer metrics of one traced pass
(spans.py) and the overhead of tracing over an untraced pass.

The last line of stdout is the result: ``{"correct", "attempted",
"failed", "metrics"}``.  ``correct`` is true when every mismatch with the
oracle is one of oracle.KNOWN_AT_SEED and no op failed.  ``failed`` counts
ops that raised, crashed or timed out.  The full record (machine, seed,
per-op verdicts, report digests, changes against golden.json) goes to
``bench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import random
import resource
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import oracle  # noqa: E402
import pace  # noqa: E402
from cli_ops import SUBCOMMANDS, cli_ops, cli_verdict  # noqa: E402

DEFAULT_SEED = 0xC0FFEE

#: fresh interpreters whose set-up time is measured per run (median).
SETUP_SAMPLES = 5

#: a child that takes longer is killed and its op counts as failed; a
#: worker gets this long for set-up and again on top of --seconds.
CHILD_TIMEOUT_S = 150


def declared() -> dict:
    """Workload names, and metric names with their units, as BENCHMARK.json
    declares them: ``{"workloads": [...], "end_to_end": {name: unit},
    "per_layer": {name: unit}}``."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {"workloads": [w["name"] for w in spec["workloads"]],
            **{key: {m["name"]: m["unit"] for m in spec[key]}
               for key in ("end_to_end", "per_layer")}}


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    env.pop("TNORMLAB_SEED", None)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"  # one caller, no thread pools
    return env


def _run_child(argv: list[str]) -> tuple[float, int, bytes]:
    """Wall seconds, exit code and stdout of one child process."""
    t0 = time.perf_counter()
    with subprocess.Popen(argv, cwd=ROOT, env=_child_env(),
                          stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL) as proc:
        try:
            out, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            return time.perf_counter() - t0, -9, b""
    return time.perf_counter() - t0, proc.returncode, out


def _worker(workload: str, seed: int, seconds: float, trace: int, size: str,
            setup_only: bool = False, spans_out: Path | None = None):
    """Run worker.py; return (set-up seconds, result dict or None)."""
    argv = [sys.executable, str(BENCH / "worker.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace",
            str(trace), "--size", size]
    if setup_only:
        argv.append("--setup-only")
    if spans_out is not None:
        argv += ["--spans-out", str(spans_out)]
    t0 = time.perf_counter()
    ready = rest = ""
    with subprocess.Popen(argv, cwd=ROOT, env=_child_env(),
                          stdout=subprocess.PIPE, text=True) as proc:
        try:
            if select.select([proc.stdout], [], [], CHILD_TIMEOUT_S)[0]:
                ready = proc.stdout.readline()
            setup = time.perf_counter() - t0
            if ready:
                rest, _ = proc.communicate(timeout=seconds + CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            pass
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    if ready.strip() != "ready" or proc.returncode != 0:
        raise BenchError(f"worker for {workload} failed (exit {proc.returncode})")
    if setup_only:
        return setup, None
    line = rest.strip().splitlines()[-1] if rest.strip() else ""
    if not line.startswith("result "):
        raise BenchError(f"worker for {workload} printed no result")
    return setup, json.loads(line[len("result "):])


# --------------------------------------------------------------------------
# the cli workload: whole processes
# --------------------------------------------------------------------------

def _cli_pass(seed: int, size: str, cal: list[float],
              order: random.Random | None = None):
    """Latencies and records of one pass; in a shuffled order if given.
    A calibration sample is appended to ``cal`` after each process (``cal``
    must already hold the one before the first)."""
    ops = cli_ops(seed, size)
    if order is not None:
        ops = order.sample(ops, len(ops))
    latencies, records = [], []
    for name, argv in ops:
        dt, code, out = _run_child([sys.executable, "-m", "tnormlab", *argv])
        cal.append(pace.sample())
        latencies.append(dt)
        key = ("cli", name)
        verdict = cli_verdict(code, out)
        crashed = code not in (0, 1, 2)
        records.append({
            "id": f"cli/{name}",
            "error": f"exit {code}" if crashed else None,
            "verdict": verdict,
            "match": not crashed and oracle.matches(key, verdict),
            "unanswered": code == 2 and oracle.expected(key)["exit"] != 2,
            "digest": hashlib.sha256(out).hexdigest(),
            "subcommand": argv[0],
        })
    return latencies, records


def _cli_passes(seed: int, seconds: float, size: str):
    """Passes until ``seconds`` have passed, each in a new order drawn from
    ``seed``, as worker.py does for the in-process workloads.  Returns
    latencies, calibration samples and records."""
    order = random.Random(seed)
    latencies, cal, records = [], [pace.sample()], []
    start = time.perf_counter()
    while True:
        lat, rec = _cli_pass(seed, size, cal, order)
        latencies += lat
        records += rec
        if time.perf_counter() - start >= seconds:
            return latencies, cal, records


def _cli_help() -> float:
    dt, code, _ = _run_child([sys.executable, "-m", "tnormlab", "--help"])
    if code != 0:
        raise BenchError(f"`python -m tnormlab --help` exited {code}")
    return dt


def _setups(measure) -> tuple[list[float], list[float]]:
    """SETUP_SAMPLES set-up times from ``measure()``, and the calibration
    samples around them."""
    times, cal = [], [pace.sample()]
    for _ in range(SETUP_SAMPLES):
        times.append(measure())
        cal.append(pace.sample())
    return times, cal


# --------------------------------------------------------------------------
# reduction
# --------------------------------------------------------------------------

def _per_op(latencies: list[float], records: list[dict]) -> dict[str, float]:
    """Each op's median latency over the run's passes; ``latencies[i]`` is
    the time of ``records[i]``."""
    by_op: dict[str, list[float]] = {}
    for rec, dt in zip(records, latencies):
        by_op.setdefault(rec["id"], []).append(dt)
    return {op_id: statistics.median(v) for op_id, v in by_op.items()}


def _end_to_end(setup: list[float], latencies: list[float],
                records: list[dict], rss_mb: float) -> dict:
    """The rate and the percentiles are taken over the per-op median
    latencies, one per op of the op set, so a stall in one pass does not
    move them."""
    n = len(records)
    unanswered = sum(bool(r["error"] or r.get("unanswered")) for r in records)
    per_op = list(_per_op(latencies, records).values())
    deciles = statistics.quantiles(per_op, n=10, method="inclusive")
    return {
        "setup_s": statistics.median(setup),
        "verdicts_per_s": len(per_op) / sum(per_op),
        "verdict_ms.p50": 1e3 * statistics.median(per_op),
        "verdict_ms.p90": 1e3 * deciles[8],
        "verdict_accuracy": sum(bool(r["match"]) for r in records) / n,
        "answered_share": 1.0 - unanswered / n,
        "peak_rss_mb": rss_mb,
    }


def _machine() -> dict:
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = None
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": numpy_version,
            "nproc": os.cpu_count(), "cpu": cpu, "platform": platform.platform()}


def _golden_changes(seed: int, workload: str, records: list[dict]):
    """Count of first-pass reports whose digest differs from golden.json,
    or None when golden.json has no entry for this seed."""
    golden = json.loads((BENCH / "golden.json").read_text())
    want = golden.get(str(seed), {}).get(workload)
    if want is None:
        return None
    first = {r["id"]: r.get("digest") for r in records[:len(want)]}
    return sum(first.get(op_id) != digest for op_id, digest in want.items())


def run(workload: str, seed: int, seconds: float, trace: int, size: str) -> dict:
    if not (ROOT / "src" / "tnormlab" / "__init__.py").is_file():
        raise BenchError(f"no tnormlab sources under {ROOT / 'src'}")
    out_dir = BENCH / "out"
    out_dir.mkdir(exist_ok=True)
    stem = f"{workload}-{size}-seed{seed}-trace{trace}"
    detail = {"workload": workload, "seed": seed, "seconds": seconds,
              "size": size, "trace": trace}

    if trace:
        spans_out = out_dir / f"{stem}.spans.json"
        _, result = _worker(workload, seed, seconds, 1, size, spans_out=spans_out)
        records = result["records"]
        layer = result["per_layer"]
        if workload == "cli":
            cal = [pace.sample()]
            lat, records = _cli_pass(seed, size, cal)
            by_sub = {sub: [] for sub in SUBCOMMANDS}
            for dt, rec in zip(pace.scaled(lat, cal), records):
                by_sub[rec["subcommand"]].append(dt)
            for sub, values in by_sub.items():
                layer[f"cli.process_ms.{sub}"] = 1e3 * statistics.median(values)
        else:
            for sub in SUBCOMMANDS:
                layer[f"cli.process_ms.{sub}"] = 0.0
        units = declared()["per_layer"]
        metrics = {name: layer[name] for name in units}
        detail["spans_self_s_total"] = layer["spans.self_s_total"]
        detail["spans_self_s_min"] = layer["spans.self_s_min"]
        detail["traced_wall_s"] = layer["traced_wall_s"]
        detail["spans_file"] = spans_out.name
    else:
        if workload == "cli":
            setup, setup_cal = _setups(_cli_help)
            latencies, cal, records = _cli_passes(seed, seconds, size)
            rss_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        else:
            setup, setup_cal = _setups(lambda: _worker(
                workload, seed, seconds, 0, size, setup_only=True)[0])
            _, result = _worker(workload, seed, seconds, 0, size)
            latencies = result["latencies"]
            cal = result["calibration"]
            records = result["records"]
            rss_kb = result["maxrss_kb"]
        rss_mb = rss_kb / 1024.0
        scaled = pace.scaled(latencies, cal)
        metrics = _end_to_end(pace.scaled(setup, setup_cal), scaled, records,
                              rss_mb)
        units = declared()["end_to_end"]
        detail.update(
            setup_samples=setup, latency_samples=len(latencies),
            op_ms={op_id: 1e3 * dt
                   for op_id, dt in _per_op(scaled, records).items()},
            calibration_s=statistics.median(setup_cal + cal),
            unscaled_metrics=_end_to_end(setup, latencies, records, rss_mb))
        if size == "full":  # golden.json holds full-size reports only
            detail["changed_reports"] = _golden_changes(seed, workload, records)

    wrong = sorted({r["id"] for r in records if not r["match"]})
    failed = sum(bool(r["error"]) for r in records)
    detail.update(
        machine=_machine(),
        wrong_verdicts=wrong,
        unexpected_wrong=[i for i in wrong if i not in oracle.KNOWN_AT_SEED],
        ops=records[:len({r["id"] for r in records})],
        metrics={k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    )
    # measured only by traced runs
    detail["trace_overhead"] = metrics.get("trace_overhead")
    (out_dir / f"{stem}.json").write_text(json.dumps(detail, indent=1) + "\n")
    return {
        "correct": failed == 0 and not detail["unexpected_wrong"],
        "attempted": len(records),
        "failed": failed,
        "metrics": detail["metrics"],
        "detail": detail,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=declared()["workloads"],
                        required=True)
    parser.add_argument("--seed", type=lambda s: int(s, 0), default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: the self-check's small inputs")
    args = parser.parse_args(argv)
    pace.pin_one_cpu()
    try:
        res = run(args.workload, args.seed, args.seconds, args.trace, args.size)
    except BenchError as err:
        print(f"bench: {err}", file=sys.stderr)
        return 1
    for name, m in res["metrics"].items():
        print(f"{args.workload:8s} {name:42s} {m['value']:.6g} {m['unit']}")
    detail = res["detail"]
    print(f"{args.workload:8s} wrong verdicts: {detail['wrong_verdicts']};"
          f" changed reports vs golden: {detail.get('changed_reports')}")
    print(json.dumps({k: res[k] for k in ("correct", "attempted", "failed",
                                          "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
