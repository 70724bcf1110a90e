"""Run every workload twice over ten seeds and compare the two sets of runs.

    python3 perfbench/baseline.py [--out FILE]

Each run is ``run.py`` in a fresh interpreter with BENCHMARK.json's
``run_seconds``.  Within a set the runs go seed by seed, and within a seed
workload by workload, so that a slow spell of the machine spreads over all
workloads instead of hitting one.  The second set starts when the first
ends.  For each set, workload and end-to-end metric this prints the median
over the seeds and the spread, (Q3 - Q1) / median from
``statistics.quantiles(n=4)``; then the change of the second median over the
first, in the metric's worse direction, beside the metric's bound, and
failed_frac.  With ``--out`` both sets, their summaries and every run's
result line are written as JSON; ``baseline.json`` was written this way.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEEDS = range(1, 11)
SETS = 2


def run_set(bench: dict) -> dict[str, list[dict]]:
    runs: dict[str, list[dict]] = {w["name"]: [] for w in bench["workloads"]}
    for seed in SEEDS:
        for wl in runs:
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", wl, "--seed", str(seed),
                   "--seconds", str(bench["run_seconds"]), "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
            result = json.loads(proc.stdout.splitlines()[-1])
            runs[wl].append({"seed": seed, **result})
            values = {k: round(v["value"], 4) for k, v in result["metrics"].items()}
            print(f"{wl} seed {seed}: correct={result['correct']} {values}", flush=True)
    return runs


def summarize(bench: dict, runs: dict[str, list[dict]]) -> dict[str, dict]:
    summary = {}
    for wl, rows in runs.items():
        attempted = sum(r["attempted"] for r in rows)
        summary[wl] = {"failed_frac": sum(r["failed"] for r in rows) / attempted}
        for metric in bench["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in rows]
            q1, med, q3 = statistics.quantiles(values, n=4)
            summary[wl][metric["name"]] = {"median": med, "spread": (q3 - q1) / med}
    return summary


def worse_by(metric: dict, first: float, second: float) -> float:
    """How much worse the second median is than the first, as a share of the first."""
    change = (second - first) / first
    return change if metric["better"] == "lower" else -change


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(HERE))
    from run import machine

    sets = []
    for k in range(SETS):
        print(f"set {k + 1}", flush=True)
        runs = run_set(bench)
        sets.append({"summary": summarize(bench, runs), "runs": runs})

    comparison: dict[str, dict] = {}
    for wl in sets[0]["summary"]:
        first, second = sets[0]["summary"][wl], sets[1]["summary"][wl]
        print(f"{wl}: failed_frac = {first['failed_frac']:.6g}, {second['failed_frac']:.6g}")
        comparison[wl] = {}
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            a, b = first[name], second[name]
            worse = worse_by(metric, a["median"], b["median"])
            comparison[wl][name] = {"worse_by": worse, "bound": bound}
            print(f"  {name:18s} median {a['median']:10.6g} / {b['median']:10.6g} {metric['unit']:3s}"
                  f"  spread {a['spread']:.3f} / {b['spread']:.3f}  worse by {worse:+.3f}"
                  f"  bound {bound}")
    if args.out:
        record = {"machine": machine(), "run_seconds": bench["run_seconds"], "seeds": list(SEEDS),
                  "sets": sets, "comparison": comparison}
        args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
