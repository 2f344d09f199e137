"""Run one benchmark workload and print its metrics.

Usage, from the repository root:

    python3 bench/run.py --workload small-batch --seed 1 --seconds 10 --trace 0

Workloads are defined in workloads.py; metric names, units and bounds in
BENCHMARK.json at the repository root.  The package is imported from the
checkout's own src/ directory.  Every operation's answer is checked after it
is timed; a wrong answer fails the run (exit code 1).

--trace 0  end-to-end metrics.  Set-up is timed in fresh interpreters, then
           one client runs operations back to back, in this process, until
           the operations have taken --seconds in total and at least
           MIN_SAMPLES have run.
--trace 1  per-layer metrics.  A fixed number of operations (proportional to
           --seconds) runs twice, untraced and then traced, so counts repeat
           exactly for a seed and the difference gives the tracing overhead.

The last line of output is one JSON object: correct, attempted, failed and
metrics (name -> value and unit).  Times are in reference seconds (see
reference.py): measured seconds scaled by how fast a fixed pure-Python
workload, timed between the operations, ran meanwhile.  The notes above the
last line give the measured times as well.
"""
from __future__ import annotations

import argparse
import json
import math
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from array import array
from pathlib import Path

from reference import reference_pass, scale

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

SETUP_PROBES = 9
# a run reports a 90th percentile, so it needs ten samples beyond it
MIN_SAMPLES = 100
# a reference pass runs before each block of this many seconds of operations
BLOCK_S = 0.1
# traced runs execute this many operations per second of --seconds in each of
# their two passes, about half of what the untraced loop completes
TRACE_OPS_PER_SECOND = {"small-batch": 4000, "hard-decide": 200, "large-lift": 7}
MAX_REPORTED_FAILURES = 10


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(TRACE_OPS_PER_SECOND))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (SRC / "injhom" / "__init__.py").is_file():
        print(f"error: no package source under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(SRC))
    import injhom

    if Path(injhom.__file__).resolve().parent != (SRC / "injhom").resolve():
        print(f"error: imported injhom from {injhom.__file__}, not {SRC}", file=sys.stderr)
        return 2

    if args.trace:
        result = traced_run(args)
        wanted = spec["per_layer"]
    else:
        result = untraced_run(args)
        wanted = spec["end_to_end"]

    metrics = result.pop("metrics")
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        print(f"error: metrics not measured: {missing}", file=sys.stderr)
        return 2
    failures = result.pop("failures")
    for failure in failures[:MAX_REPORTED_FAILURES]:
        print(f"FAILED {failure}")
    print(f"workload {args.workload} seed {args.seed}: {result['attempted']} operations, "
          f"{len(failures)} failed (failed_frac {len(failures) / result['attempted']:.6g})")
    for name, line in result.pop("notes").items():
        print(f"  {name}: {line}")
    out = {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted}
    for name, v in out.items():
        print(f"  {name} = {v['value']:.6g} {v['unit']}")
    print(json.dumps({
        "correct": not failures,
        "attempted": result["attempted"],
        "failed": len(failures),
        "metrics": out,
    }))
    return 0 if not failures else 1


def untraced_run(args) -> dict:
    import workloads
    from env import set_up

    gadgets, targets = set_up()
    stream = workloads.WORKLOADS[args.workload](random.Random(args.seed), gadgets, targets)
    probes: list[tuple[float, float]] = []

    def probe_when_due(busy: float) -> None:
        # set-up probes spread evenly over the timed region sample the same
        # machine conditions as the operations do
        if len(probes) < SETUP_PROBES and busy >= len(probes) * args.seconds / SETUP_PROBES:
            probes.append(setup_probe())

    durations, failures, factor = closed_loop(stream, seconds=args.seconds,
                                              between=probe_when_due)
    # read before the percentile computation below allocates its own copies
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    while len(probes) < SETUP_PROBES:
        probes.append(setup_probe())
    if len(durations) < MIN_SAMPLES:
        raise RuntimeError(f"the stream ended after {len(durations)} operations")
    ms = [d * 1e3 for d in durations]
    setup = [elapsed * f for elapsed, f in probes]
    timed = sum(durations)
    return {
        "attempted": len(durations),
        "failures": failures,
        "notes": {
            "setup probes (reference s)": " ".join(f"{p:.4f}" for p in setup),
            "setup probes (measured s)": " ".join(f"{p:.4f}" for p, _ in probes),
            "latency samples": f"{len(ms)} operations, {timed / factor:.3f} s timed",
            "reference scale": f"{factor:.4f} during operations; measured "
                               f"{len(durations) * factor / timed:.6g} operations per second",
        },
        "metrics": {
            "setup_s": statistics.median(setup),
            "ops_per_s": len(durations) / timed,
            "latency_p50_ms": statistics.median(ms),
            "latency_p90_ms": statistics.quantiles(ms, n=10)[8],
            "peak_rss_mb": peak_rss_mb,
        },
    }


def traced_run(args) -> dict:
    import workloads
    from env import set_up
    from spans import Tracer

    tracer = Tracer()
    tracer.op_id = "setup"
    tracer.install()
    gadgets, targets = set_up()
    tracer.uninstall()

    count = math.ceil(TRACE_OPS_PER_SECOND[args.workload] * args.seconds)
    make = workloads.WORKLOADS[args.workload]
    plain, failures, _ = closed_loop(
        make(random.Random(args.seed), gadgets, targets), count=count)
    tracer.install()
    try:
        traced, traced_failures, factor = closed_loop(
            make(random.Random(args.seed), gadgets, targets), count=count, tracer=tracer)
    finally:
        tracer.uninstall()

    untraced_rate = len(plain) / sum(plain)
    traced_rate = len(traced) / (sum(traced) - tracer.probe_s * factor)
    metrics = tracer.layer_metrics(factor)
    metrics["trace.overhead_frac"] = 1 - traced_rate / untraced_rate
    return {
        "attempted": len(plain) + len(traced),
        "failures": failures + traced_failures,
        "notes": {
            "passes": f"{len(plain)} operations untraced, then the same {len(traced)} traced; "
                      f"{len(tracer.spans)} spans",
            "operations per reference second": f"{untraced_rate:.6g} untraced, "
                                               f"{traced_rate:.6g} traced",
            "reference scale": f"{factor:.4f} during the traced pass",
        },
        "metrics": metrics,
    }


def setup_probe() -> tuple[float, float]:
    """Measured set-up seconds in a fresh interpreter, and their reference scale."""
    done = subprocess.run(
        [sys.executable, str(BENCH / "setup_probe.py"), str(SRC)],
        capture_output=True, text=True, timeout=120, check=True,
    )
    elapsed, factor = done.stdout.strip().splitlines()[-1].split()
    return float(elapsed), float(factor)


def closed_loop(stream, seconds: float | None = None, count: int | None = None,
                tracer=None, between=None) -> tuple[array, list[str], float]:
    """Run operations one after another for `seconds` of operation time, or `count` of them.

    A timed run goes on past `seconds` until MIN_SAMPLES operations have run.
    `between(busy)`, if given, runs untimed before each operation.  Returns
    the durations in reference seconds, the failures, and the factor from
    measured to reference seconds over all operations.  Durations are kept as
    packed 4-byte floats: the record adds 0.7 MB to the peak RSS at 180 000
    operations, so a program that runs twice as many reads about 2 % higher
    on small-batch `peak_rss_mb`.
    """
    durations = array("f")
    failures: list[str] = []
    # a reference pass before each block of BLOCK_S of operations and after
    # the last; the vCPU's speed switches between levels about once a second
    reference_pass()  # the first pass in a process runs slower
    passes = [reference_pass()]
    block_starts = [0]
    busy = 0.0
    for i, op in enumerate(stream):
        if between is not None:
            between(busy)
        if busy >= len(block_starts) * BLOCK_S:
            passes.append(reference_pass())
            block_starts.append(len(durations))
        if tracer is not None:
            tracer.op_id = i
        start = time.perf_counter()
        try:
            out = op.call()
            error = None
        except Exception:  # a raising operation is a failed operation, not a failed run
            out, error = None, "raised " + traceback.format_exc(limit=-3)
        elapsed = time.perf_counter() - start
        if error is None:
            error = op.check(out)
        del out
        durations.append(elapsed)
        busy += elapsed
        if error is not None:
            failures.append(f"operation {i} ({op.kind}): {error}")
        if count is not None and len(durations) >= count:
            break
        if seconds is not None and busy >= seconds and len(durations) >= MIN_SAMPLES:
            break
    passes.append(reference_pass())
    # each block is scaled by the mean of the passes on either side of it
    for b, (lo, hi) in enumerate(zip(block_starts, block_starts[1:] + [len(durations)])):
        f = scale(passes[b:b + 2])
        for i in range(lo, hi):
            durations[i] *= f
    return durations, failures, sum(durations) / busy


if __name__ == "__main__":
    sys.exit(main())
