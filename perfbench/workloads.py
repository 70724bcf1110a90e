"""Seeded inputs, per-instance work and correctness checks of each workload.

corbel is driven only through public functions, always looked up on the
``corbel`` package at call time so that the tracer's wrappers are seen.
Expected values come from ``expected.json`` (written by ``make_expected.py``);
depth, regularity and dimension are label-invariant, so relabeled inputs are
checked against their isomorphism class.

Workloads:

- ``corona-cm``: whole isomorphism classes from the ``verify thm5.6``
  universe (161 covered coronas, 62 classes), spread over its cost range,
  with one heavy class and always with the class of the depth
  counterexample ``k2|S=1,2|H=p3,p3``;
  instances keep universe order.  The seed does not change the sample:
  seeded samples moved the median instance latency by a factor of two
  between seeds, because cheap instances run faster or slower depending on
  which other classes filled corbel's cluster cache first.
- ``graphs-depth``: the 143 connected graphs on at most 6 vertices, seeded
  relabeling; both thm2.4/thm2.5 bounds and the oracle on each.
- ``graphs-gb``: the 996 connected graphs on at most 7 vertices, seeded
  relabeling; the admissible-path initial ideal checked against Buchberger.
- ``whisker-jobs2``: ``run_verification("thm4.6", jobs=2)``, the whiskers
  over gap-free connected graphs on at most 4 vertices.  Its universe is
  fixed, so the seed does not change it.
"""

from __future__ import annotations

import functools
import json
import os
import random
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import corbel
import corbel.cli

HERE = Path(__file__).resolve().parent

WORKLOADS = ("corona-cm", "graphs-depth", "graphs-gb", "whisker-jobs2")
COUNTEREXAMPLE = "k2|S=1,2|H=p3,p3"
# One class per this many of equal size and similar cost goes into a sample.
CORONA_STRATUM = 4
# Classes with no labeling recorded at this cost or more are left out: they
# time the overhead of a call, not the engines, and vary by half between
# sweeps.  Without them the median and the tail rank sit among a dozen
# instances of like cost spread over the sweep, so those two latencies do
# not hang on one or two instances and on one moment of the machine's speed.
CORONA_FLOOR_MS = 20
# Classes recorded as dearer than this are heavy: the sample takes only one
# of them, or a sweep would outgrow a run (the 17 heavy classes cost 150 s).
CORONA_CLASS_CAP_MS = 4500
WHISKER_JOBS = 2
# Wall time of one sweep at the commit that defined the benchmark, on a
# 2-core Xeon VM with Python 3.11.  A run makes round(seconds / SWEEP_S)
# sweeps, at least one: the count depends on --seconds only, so a slower
# commit takes as many samples as a faster one.  At the benchmark's 15 s
# that is one sweep each: this machine's speed drifts by a quarter over
# minutes, so ten short runs in a row spread less than ten long ones.
SWEEP_S = {"corona-cm": 16.5, "graphs-depth": 13.5, "graphs-gb": 14.5, "whisker-jobs2": 15.0}


def sweeps_per_run(workload: str, seconds: float) -> int:
    return max(1, round(seconds / SWEEP_S[workload]))


@functools.cache
def expected() -> dict:
    return json.loads((HERE / "expected.json").read_text())


@dataclass
class Instance:
    id: str
    payload: object
    expect: dict | None


def _rng(workload: str, seed: int) -> random.Random:
    # string seeds hash with sha512, independent of PYTHONHASHSEED
    return random.Random(f"{workload}:{seed}")


def relabel(g, rng: random.Random):
    perm = list(g.vertices())
    rng.shuffle(perm)
    return corbel.from_edge_list(g.n, [(perm[a - 1], perm[b - 1]) for a, b in g.edges()])


def corona_sample() -> list[dict]:
    """Universe entries of the corona-cm sample: whole classes across the cost range.

    Classes of equal size (labelings in the universe) are sorted by recorded
    cost and cut into strata of CORONA_STRATUM; the middle class of each is
    taken, and the counterexample's class instead in its own stratum.
    Classes whose every labeling costs less than CORONA_FLOOR_MS are not
    sampled.  Of
    the heavy classes, dearer than CORONA_CLASS_CAP_MS, only the one of
    median cost among those with more than one labeling is taken: a
    large-homology class whose repeats a label-invariant oracle would not
    recompute.
    """
    universe = expected()["corona"]
    cost: dict[int, float] = {}
    size: dict[int, int] = {}
    for e in universe:
        cost[e["class"]] = cost.get(e["class"], 0.0) + e["weight_ms"]
        size[e["class"]] = size.get(e["class"], 0) + 1
    must = next(e["class"] for e in universe if e["id"] == COUNTEREXAMPLE)
    dear = {e["class"] for e in universe if e["weight_ms"] >= CORONA_FLOOR_MS}
    kept = sorted(
        (c for c in dear if cost[c] <= CORONA_CLASS_CAP_MS), key=lambda c: (size[c], cost[c], c)
    )
    chosen = set()
    for n in sorted(set(size.values())):
        same = [c for c in kept if size[c] == n]
        for i in range(0, len(same), CORONA_STRATUM):
            stratum = same[i:i + CORONA_STRATUM]
            chosen.add(must if must in stratum else stratum[len(stratum) // 2])
    heavy = sorted((c for c in cost if cost[c] > CORONA_CLASS_CAP_MS and size[c] > 1),
                   key=lambda c: (cost[c], c))
    chosen.add(heavy[len(heavy) // 2])
    return [e for e in universe if e["class"] in chosen]


def corona_spec(entry: dict):
    return corbel.GenCoronaSpec(
        corbel.graph_from_name(entry["base"]),
        tuple(entry["S"]),
        tuple(corbel.graph_from_name(h) for h in entry["H"]),
    )


def build(workload: str, seed: int) -> list[Instance]:
    """The workload's inputs for this seed; this is the timed set-up."""
    if workload == "corona-cm":
        return [Instance(e["id"], corona_spec(e), e) for e in corona_sample()]
    if workload == "graphs-depth":
        rng = _rng(workload, seed)
        reps = list(corbel.enumerate_connected_graphs(6))
        want = expected()["graphs"]
        return [Instance(str(k), relabel(g, rng), want[k]) for k, g in enumerate(reps)]
    if workload == "graphs-gb":
        rng = _rng(workload, seed)
        reps = list(corbel.enumerate_connected_graphs(7))
        return [Instance(str(k), relabel(g, rng), None) for k, g in enumerate(reps)]
    if workload == "whisker-jobs2":
        return [Instance("thm4.6", "thm4.6", None)]
    raise ValueError(f"unknown workload {workload!r}")


def evaluate(workload: str, payload, jobs: int = WHISKER_JOBS):
    """One instance's work; the value returned is what gets checked."""
    if workload == "corona-cm":
        spec = payload
        composite = spec.composite()
        depth, reg = corbel.oracle_depth_reg(composite)
        dim = corbel.dimension(composite, 2).value
        cm_flags = [
            corbel.oracle_depth_reg(h)[0] == corbel.dimension(h, 2).value
            for h in spec.attachments
        ]
        is_cm = corbel.classify_cm(spec, 2, cm_flags).is_cm
        bound = None
        if all(corbel.graphs.is_connected(h) for h in spec.attachments):
            bound = corbel.depth_lower_bound_g2_gen(spec, 2).value
        return {"depth": depth, "reg": reg, "dim": dim, "is_cm": is_cm, "bound": bound}
    if workload == "graphs-depth":
        g = payload
        lower = corbel.depth_lower_bound_general(g).value
        upper = corbel.depth_upper_bound_kappa(g).value
        depth, reg = corbel.oracle_depth_reg(g)
        return {"depth": depth, "reg": reg, "lower": lower, "upper": upper}
    if workload == "graphs-gb":
        return corbel.initial_ideal(payload) == corbel.buchberger_oracle(payload)
    if workload == "whisker-jobs2":
        return corbel.cli.run_verification(payload, jobs=jobs)
    raise ValueError(f"unknown workload {workload!r}")


def check(workload: str, inst: Instance, result) -> list[str]:
    """Mismatches against the expected values; empty when the result is right."""
    if workload == "corona-cm":
        want = {k: inst.expect[k] for k in ("depth", "reg", "dim", "is_cm", "bound")}
        bad = [f"{inst.id}: {k} {result[k]!r} != {v!r}" for k, v in want.items() if result[k] != v]
        # the pinned counterexample: bound 9 exceeds depth 8, and must stay so
        holds = result["bound"] is None or result["depth"] >= result["bound"]
        if holds != inst.expect["bound_holds"]:
            bad.append(f"{inst.id}: bound verdict {holds} != {inst.expect['bound_holds']}")
        return bad
    if workload == "graphs-depth":
        return [f"graph {inst.id}: {k} {result[k]!r} != {v!r}"
                for k, v in inst.expect.items() if result[k] != v]
    if workload == "graphs-gb":
        return [] if result is True else [f"graph {inst.id}: initial ideal differs from Buchberger"]
    if workload == "whisker-jobs2":
        # one mismatch at most per verify record
        want = expected()["whisker"]
        got = {r["id"]: r for r in result.records}
        bad = [f"{rid}: missing" for rid in want if rid not in got]
        bad += [f"{rid}: unexpected record" for rid in got if rid not in want]
        for rid, rec in got.items():
            if rid in want and (rec["verdict"] != "pass" or rec["oracle"] != want[rid]):
                bad.append(f"{rid}: {rec['verdict']} with reg {rec['oracle']!r}, want {want[rid]!r}")
        return bad
    raise ValueError(f"unknown workload {workload!r}")


def record_call_latency(outdir: Path) -> None:
    """Time every ``oracle_depth_reg`` call, in this process and forked workers.

    ``run_verification`` runs the whisker sweep inside its own process pool,
    so per-instance latency is taken at the one public call each instance
    makes.  Each process appends its durations, in seconds, to its own file.
    """
    orig = corbel.oracle_depth_reg

    def timed(*args, **kwargs):
        start = time.perf_counter()
        result = orig(*args, **kwargs)
        elapsed = time.perf_counter() - start
        with open(outdir / f"{os.getpid()}.lat", "a", encoding="utf-8") as fh:
            fh.write(f"{elapsed!r}\n")
        return result

    rebind(orig, timed)


def rebind(orig, replacement) -> None:
    """Point every corbel module attribute bound to ``orig`` at ``replacement``."""
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "corbel" or name.startswith("corbel.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is orig:
                setattr(mod, attr, replacement)
