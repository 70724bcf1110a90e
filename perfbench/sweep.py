"""One sweep of one workload in a fresh interpreter, so corbel's caches start empty.

Prints one JSON line: when the inputs were built (``time.perf_counter``,
which is system-wide, so the parent can subtract its spawn time), the sweep's
wall time, each instance's latency, the mismatches found by the checks, peak
RSS, and with ``--trace`` the per-layer metrics.  Checks and trace analysis
run after the timed sweep.

    python3 perfbench/sweep.py --workload graphs-gb --seed 1 [--trace] [--jobs 1]
    python3 perfbench/sweep.py --workload graphs-gb --seed 1 --setup-only
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"


def import_corbel() -> None:
    sys.path.insert(0, str(SRC))
    import corbel

    if SRC not in Path(corbel.__file__).resolve().parents:
        raise SystemExit(f"corbel imported from {corbel.__file__}, not from {SRC}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--jobs", type=int, default=None, help="whisker-jobs2 pool size")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    import_corbel()
    import workloads

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
    instances = workloads.build(args.workload, args.seed)
    inputs_built = time.perf_counter()
    if args.setup_only:
        print(json.dumps({"inputs_built": inputs_built}))
        return 0

    OUT.mkdir(exist_ok=True)
    latency_dir = None
    jobs = args.jobs or workloads.WHISKER_JOBS
    if args.workload == "whisker-jobs2" and tracer is None:
        latency_dir = Path(tempfile.mkdtemp(dir=OUT))
        workloads.record_call_latency(latency_dir)

    results, latencies, errors = [], [], []
    start = time.perf_counter()
    for k, inst in enumerate(instances):
        if tracer is not None:
            tracer.instance = k
        t0 = time.perf_counter()
        try:
            results.append(workloads.evaluate(args.workload, inst.payload, jobs))
            errors.append(None)
        except Exception as exc:  # a failed instance is counted, not fatal
            results.append(None)
            errors.append(f"{inst.id}: {type(exc).__name__}: {exc}")
        latencies.append(time.perf_counter() - t0)
    sweep_s = time.perf_counter() - start

    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    peak_kb += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss

    mismatches = []
    failed = 0
    for inst, res, err in zip(instances, results, errors):
        bad = [err] if err else workloads.check(args.workload, inst, res)
        failed += bool(bad)
        mismatches += bad
    attempted = len(instances)
    if args.workload == "whisker-jobs2":
        # the sweep's instances are the verify records
        attempted = len(workloads.expected()["whisker"])
        failed = attempted if errors[0] else min(attempted, len(mismatches))
        latencies = []
        if latency_dir is not None:
            for path in sorted(latency_dir.glob("*.lat")):
                latencies += [float(x) for x in path.read_text().split()]
            shutil.rmtree(latency_dir)
            if not latencies:
                raise SystemExit("whisker-jobs2: no oracle_depth_reg call was timed; "
                                 "the verify pool no longer forks from this process")

    out = {
        "inputs_built": inputs_built,
        "sweep_s": sweep_s,
        "attempted": attempted,
        "failed": failed,
        "mismatches": mismatches[:20],
        "latencies_s": latencies,
        "peak_rss_mb": peak_kb / 1024,
    }
    if tracer is not None:
        out["layers"] = tracing.layer_metrics(tracer.spans)
        tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl")
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
