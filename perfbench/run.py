"""Run one workload of the corbel benchmark and print its metrics.

    python3 perfbench/run.py --workload corona-cm --seed 1 --seconds 15 --trace 0

Each sweep runs in a fresh interpreter (``sweep.py``), so corbel's module
caches start empty as they do for every ``corbel verify`` run.  Set-up is
the time from spawning that interpreter until the workload's inputs are
built: start-up, import, graph enumeration and spec building.  With
``--trace 0`` the run makes a fixed number of sweeps, sized so that they
fill ``--seconds`` at the commit that defined the benchmark (see
``workloads.SWEEP_S``), measures set-up SETUPS times, and reports the
end-to-end metrics as medians over its sweeps and set-ups.  With
``--trace 1`` it makes one untraced and one traced sweep and reports the
per-layer metrics of the traced one, which are 0 for layers the workload
does not reach; on whisker-jobs2 it adds a serial sweep, which gives the
pool speed-up and is the untraced twin of the traced sweep (the tracer only
sees the process it runs in).

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it give every
metric with its unit, the tail's percentile and sample count, failed_frac
and the machine.  A full record goes to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUPS = 5
CHILD_TIMEOUT_S = 170


class ChildFailed(RuntimeError):
    pass


def machine() -> dict:
    model = ""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "cpu": model,
    }


def loadavg() -> str:
    try:
        return Path("/proc/loadavg").read_text().strip()
    except OSError:
        return ""


def spawn(workload: str, seed: int, deadline: float, *flags: str) -> dict:
    """Run sweep.py in a fresh interpreter and return its record."""
    cmd = [sys.executable, str(HERE / "sweep.py"), "--workload", workload, "--seed", str(seed), *flags]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - start))
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
    if proc.returncode != 0:
        raise ChildFailed(f"{' '.join(cmd[1:])} exited with {proc.returncode}")
    rec = json.loads(out.splitlines()[-1])
    rec["setup_s"] = rec.pop("inputs_built") - start
    rec["wall_s"] = time.perf_counter() - start
    return rec


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples) at the highest percentile with 10 samples beyond it.

    With 10 samples or fewer no percentile has 10 beyond it; the maximum is used.
    """
    xs = sorted(latencies)
    n = len(xs)
    rank = n - 10 if n > 10 else n
    return xs[rank - 1], 100.0 * rank / n, n


def summarize(rec: dict) -> None:
    lat = rec.pop("latencies_s")
    rec["instance_p50_ms"] = statistics.median(lat) * 1000
    value, pct, n = tail(lat)
    rec["instance_tail_ms"] = value * 1000
    rec["tail_percentile"] = pct
    rec["tail_samples"] = n


def end_to_end(sweeps: list[dict], setups: list[float]) -> dict[str, tuple[float, str]]:
    """The end-to-end metrics of a run: medians over its sweeps and set-ups."""
    for s in sweeps:
        summarize(s)

    def med(key):
        return statistics.median(s[key] for s in sweeps)

    return {
        "setup_s": (statistics.median(setups), "s"),
        "sweep_s": (med("sweep_s"), "s"),
        "instance_p50_ms": (med("instance_p50_ms"), "ms"),
        "instance_tail_ms": (med("instance_tail_ms"), "ms"),
        "peak_rss_mb": (med("peak_rss_mb"), "MB"),
    }


def measure(workload: str, seed: int, n_sweeps: int, deadline: float) -> tuple[dict, list, dict]:
    sweeps = [spawn(workload, seed, deadline) for _ in range(n_sweeps)]
    setups = [s["setup_s"] for s in sweeps]
    while len(setups) < SETUPS:
        setups.append(spawn(workload, seed, deadline, "--setup-only")["setup_s"])
    return end_to_end(sweeps, setups), sweeps, {"setups_s": setups}


def measure_traced(workload: str, seed: int, deadline: float) -> tuple[dict, list, dict]:
    sweeps = [spawn(workload, seed, deadline)]
    serial = ()
    if workload == "whisker-jobs2":
        serial = ("--jobs", "1")
        sweeps.append(spawn(workload, seed, deadline, *serial))
    traced = spawn(workload, seed, deadline, "--trace", *serial)
    twin = sweeps[-1]
    layers = traced.pop("layers")
    layers["cli.pool_speedup"] = twin["sweep_s"] / sweeps[0]["sweep_s"] if serial else 0.0
    layers["trace.overhead_frac"] = traced["sweep_s"] / twin["sweep_s"] - 1
    sweeps.append(traced)
    for s in sweeps:
        s.pop("latencies_s")
    units = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    metrics = {m["name"]: (layers[m["name"]], m["unit"]) for m in units}
    return metrics, sweeps, {}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "corbel" / "__init__.py").is_file():
        print(f"error: corbel sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; known: {', '.join(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "machine": machine(), "loadavg_start": loadavg()}
    deadline = time.perf_counter() + CHILD_TIMEOUT_S
    try:
        if args.trace:
            metrics, sweeps, extra = measure_traced(args.workload, args.seed, deadline)
        else:
            n_sweeps = workloads.sweeps_per_run(args.workload, args.seconds)
            metrics, sweeps, extra = measure(args.workload, args.seed, n_sweeps, deadline)
    except (ChildFailed, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    record["loadavg_end"] = loadavg()

    attempted = sum(s["attempted"] for s in sweeps)
    failed = sum(s["failed"] for s in sweeps)
    mismatches = [m for s in sweeps for m in s["mismatches"]]
    record.update(extra, sweeps=sweeps, attempted=attempted, failed=failed,
                  metrics={k: {"value": v, "unit": u} for k, (v, u) in metrics.items()})
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(record, indent=1) + "\n")

    for key, (value, unit) in metrics.items():
        print(f"{args.workload} {key} = {value:.6g} {unit}")
    if not args.trace:
        s = sweeps[0]
        print(f"{args.workload} sweeps = {len(sweeps)} of {s['attempted']} instances; tail at "
              f"p{s['tail_percentile']:.1f} of {s['tail_samples']} samples per sweep")
    print(f"{args.workload} failed_frac = {failed / attempted:.6g} ({failed} of {attempted})")
    for m in mismatches[:10]:
        print(f"{args.workload} mismatch: {m}")
    print(f"machine: {json.dumps(record['machine'])} loadavg {record['loadavg_start']} -> "
          f"{record['loadavg_end']}")
    print(json.dumps({
        "correct": failed == 0 and not mismatches,
        "attempted": attempted,
        "failed": failed,
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
