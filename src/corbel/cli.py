"""Command line surface: analyze one input, verify a sweep, enumerate a class.

``corbel analyze`` reports invariants, applicable bounds, and optionally the
homological oracle values and the cutset decomposition for one graph or
construction.  ``corbel verify`` sweeps a small universe and checks one tagged
statement against the oracle on every instance, exiting 1 on any violation.
``corbel enumerate`` streams construction specs as JSON lines.

Exit codes: 0 success, 1 verification failure, 2 usage or parse problem,
3 cap exceeded.
"""

from __future__ import annotations

import argparse
import csv
import io
import itertools
import json
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

from . import betti, decomposition, formulas, groebner, invariants
from .constructions import (
    GenCoronaSpec,
    class_membership,
    spec_from_json_dict,
    whisker,
    whisker_matching_labeling,
    whisker_on_set,
)
from .errors import CapError, InputError, ParseError, UsageError
from .graphs import (
    CONNECTED_GRAPH_COUNTS,
    Graph,
    disjoint_union,
    enumerate_connected_graphs,
    from_graph6,
    from_json_dict,
    graph_from_name,
    is_connected,
    is_free_vertex,
    to_graph6,
    to_json_dict,
)


# ---------------------------------------------------------------------------
# verification runs


@dataclass
class VerificationRun:
    """Outcome of one theorem sweep."""

    tag: str
    universe: str
    records: list[dict] = field(default_factory=list)
    wall_time_s: float = 0.0

    @property
    def passed(self) -> int:
        return sum(1 for r in self.records if r["verdict"] == "pass")

    @property
    def failed(self) -> int:
        return len(self.records) - self.passed

    @property
    def ok(self) -> bool:
        return self.failed == 0

    def to_json_dict(self) -> dict:
        return {
            "tag": self.tag,
            "universe": self.universe,
            "records": self.records,
            "passed": self.passed,
            "failed": self.failed,
            "wall_time_s": round(self.wall_time_s, 3),
        }


def _record(instance_id: str, formula, oracle, ok: bool) -> dict:
    return {
        "id": instance_id,
        "formula": formula,
        "oracle": oracle,
        "verdict": "pass" if ok else "fail",
    }


def _connected_reps(max_n: int) -> list[Graph]:
    if max_n < 1:
        return []
    return list(enumerate_connected_graphs(max_n))


def _all_graph_classes(max_n: int) -> list[Graph]:
    """One representative per isomorphism class of all graphs on <= max_n vertices."""
    conn = _connected_reps(max_n)
    out: list[Graph] = []

    def rec(budget: int, start: int, acc: list[Graph]) -> None:
        if acc:
            g = acc[0]
            for other in acc[1:]:
                g = disjoint_union(g, other)
            out.append(g)
        for k in range(start, len(conn)):
            if conn[k].n <= budget:
                rec(budget - conn[k].n, k, acc + [conn[k]])

    rec(max_n, 0, [])
    return out


ATTACHMENT_POOL = ("k1", "k2", "p3", "2k1")
CRITERION_BASES = ("k2", "k3", "p3")


def g2_universe(
    bases=CRITERION_BASES,
    attachments=ATTACHMENT_POOL,
    max_total: int = 8,
) -> list[tuple[str, GenCoronaSpec]]:
    """Covered corona specs over the named bases, bounded by total size.

    Every subset S of base vertices containing all non-free ones is used,
    with every assignment of named attachments to S, kept when the composite
    stays within max_total vertices.  Deterministic order.
    """
    pool = [(name, graph_from_name(name)) for name in attachments]
    out = []
    for base_name in bases:
        base = graph_from_name(base_name)
        required = sorted(
            v for v in base.vertices() if not is_free_vertex(base, v)
        )
        optional = [v for v in base.vertices() if v not in required]
        for k in range(len(optional) + 1):
            for extra in itertools.combinations(optional, k):
                s = tuple(sorted(set(required) | set(extra)))
                for assign in itertools.product(pool, repeat=len(s)):
                    total = base.n + sum(g.n for _, g in assign)
                    if total > max_total:
                        continue
                    spec = GenCoronaSpec(base, s, tuple(g for _, g in assign))
                    names = ",".join(name for name, _ in assign)
                    sid = f"{base_name}|S={','.join(map(str, s)) or '-'}|H={names or '-'}"
                    out.append((sid, spec))
    out.sort(key=lambda pair: pair[0])
    return out


def _depth_reg(g: Graph) -> tuple[int, int]:
    return betti.oracle_depth_reg(g)


def _is_cm(g: Graph) -> bool:
    depth, _ = _depth_reg(g)
    return depth == decomposition.dimension(g, 2).value


# --- payload builders, one per tag ----------------------------------------


def _build_gb_oracle(opts) -> tuple[str, list[dict]]:
    max_n = opts.get("max_n") or 6
    payloads = [
        {"id": to_graph6(g), "graph": to_json_dict(g)}
        for g in _connected_reps(max_n)
    ]
    return f"connected graphs on at most {max_n} vertices", payloads


def _build_depth_sandwich(opts) -> tuple[str, list[dict]]:
    max_n = opts.get("max_n") or 5
    payloads = [
        {"id": to_graph6(g), "graph": to_json_dict(g)}
        for g in _connected_reps(max_n)
    ]
    return f"connected graphs on at most {max_n} vertices", payloads


def _build_g2_sweep(opts) -> tuple[str, list[dict]]:
    # The depth lower bounds assume connected attachments, so the sweep
    # drops instances with a disconnected block (2K1 stays in the pool for
    # the CM and dimension sweeps, which have no such hypothesis).
    max_total = opts.get("max_total") or 8
    univ = g2_universe(max_total=max_total)
    payloads = [
        {"id": sid, "spec": spec.to_json_dict()}
        for sid, spec in univ
        if all(is_connected(h) for h in spec.attachments)
    ]
    return (
        f"covered coronas over K2, K3, P3 with at most {max_total} vertices"
        " and connected attachments",
        payloads,
    )


def _build_whisker_sweep(opts) -> tuple[str, list[dict]]:
    max_base = opts.get("max_base") or 4
    payloads = []
    for g in _connected_reps(max_base):
        spec, _ = whisker(g)
        payloads.append(
            {"id": f"W({to_graph6(g)})", "spec": spec.to_json_dict()}
        )
    return f"whiskers over connected graphs on at most {max_base} vertices", payloads


def _build_whisker_gapfree(opts) -> tuple[str, list[dict]]:
    max_base = opts.get("max_base") or 4
    payloads = []
    for g in _connected_reps(max_base):
        rep = invariants.invariant_report(g)
        if not rep.gap_free:
            continue
        spec, _ = whisker(g)
        payloads.append(
            {"id": f"W({to_graph6(g)})", "spec": spec.to_json_dict(), "p": g.n}
        )
    return (
        f"whiskers over gap-free connected graphs on at most {max_base} vertices",
        payloads,
    )


def _build_ws_sweep(opts) -> tuple[str, list[dict]]:
    max_base = opts.get("max_base") or 4
    payloads = []
    for g in _connected_reps(max_base):
        required = frozenset(
            v for v in g.vertices() if not is_free_vertex(g, v)
        )
        optional = sorted(set(g.vertices()) - required)
        for k in range(len(optional) + 1):
            for extra in itertools.combinations(optional, k):
                s = tuple(sorted(required | set(extra)))
                spec, _ = whisker_on_set(g, s)
                sid = f"W_{{{','.join(map(str, s)) or '-'}}}({to_graph6(g)})"
                payloads.append({"id": sid, "spec": spec.to_json_dict()})
    payloads.sort(key=lambda p: p["id"])
    return (
        f"partial whiskers covering all non-free vertices, base at most {max_base} vertices",
        payloads,
    )


def _build_hyper_bound(opts) -> tuple[str, list[dict]]:
    max_n = opts.get("max_n") or 5
    payloads = [
        {"id": to_graph6(g), "kind": "sweep", "graph": to_json_dict(g)}
        for g in _connected_reps(max_n)
    ]
    for name in ("k2", "p3", "k3"):
        g = graph_from_name(name)
        labeled = whisker_matching_labeling(g)
        payloads.append(
            {
                "id": f"labeled:W({name})",
                "kind": "labeling",
                "graph": to_json_dict(labeled),
                "p": g.n,
            }
        )
    return (
        f"connected graphs on at most {max_n} vertices plus labeled whiskers",
        payloads,
    )


def _build_cm_class(opts) -> tuple[str, list[dict]]:
    max_total = opts.get("max_total") or 8
    univ = g2_universe(max_total=max_total)
    payloads = []
    for sid, spec in univ:
        if spec.base.num_edges() == 0:
            continue
        payloads.append({"id": sid, "spec": spec.to_json_dict()})
    return (
        f"connected covered coronas with non-empty base, at most {max_total} vertices",
        payloads,
    )


def _build_dim_check(opts) -> tuple[str, list[dict]]:
    max_total = opts.get("max_total") or 8
    payloads = []
    for sid, spec in g2_universe(max_total=max_total):
        if spec.base.is_complete():
            payloads.append({"id": sid, "kind": "spec", "spec": spec.to_json_dict()})
    for n in range(1, 6):
        for m in range(2, 5):
            payloads.append({"id": f"k{n},m={m}", "kind": "complete", "n": n, "m": m})
    return (
        f"complete-base coronas at most {max_total} vertices, plus complete graphs",
        payloads,
    )


def _build_exact_seq(opts) -> tuple[str, list[dict]]:
    max_n = opts.get("max_n") or 4
    payloads = []
    for g in _connected_reps(max_n):
        for v in g.vertices():
            if not is_free_vertex(g, v):
                payloads.append(
                    {"id": f"{to_graph6(g)}@v{v}", "graph": to_json_dict(g), "v": v}
                )
    return (
        f"connected graphs on at most {max_n} vertices, each non-free vertex",
        payloads,
    )


def _build_iv_drop(opts) -> tuple[str, list[dict]]:
    max_n = opts.get("max_n") or 6
    payloads = [
        {"id": to_graph6(g), "graph": to_json_dict(g)}
        for g in _all_graph_classes(max_n)
    ]
    return f"all graphs on at most {max_n} vertices", payloads


def _build_enum(opts) -> tuple[str, list[dict]]:
    max_n = opts.get("max_n") or 6
    payloads = [{"id": f"n={n}", "n": n} for n in range(1, max_n + 1)]
    return f"connected graph counts for n up to {max_n}", payloads


_BUILDERS = {
    "gb-oracle": _build_gb_oracle,
    "thm2.4": _build_depth_sandwich,
    "thm2.5": _build_depth_sandwich,
    "thm3.2": _build_g2_sweep,
    "thm3.3": _build_whisker_sweep,
    "thm3.5": _build_g2_sweep,
    "thm4.2": _build_ws_sweep,
    "thm4.3": _build_hyper_bound,
    "thm4.6": _build_whisker_gapfree,
    "thm5.6": _build_cm_class,
    "lem5.1": _build_dim_check,
    "exact-seq": _build_exact_seq,
    "iv-drop": _build_iv_drop,
    "enum": _build_enum,
}


def _run_instance(tag: str, payload: dict) -> dict:
    """Evaluate one sweep instance; pure function of the payload."""
    pid = payload["id"]
    if tag == "gb-oracle":
        g = from_json_dict(payload["graph"])
        paths_ideal = groebner.initial_ideal(g)
        buch = groebner.buchberger_oracle(g)
        return _record(
            pid,
            len(paths_ideal.generators),
            len(buch.generators),
            paths_ideal == buch,
        )
    if tag == "thm2.4":
        g = from_json_dict(payload["graph"])
        bound = formulas.depth_lower_bound_general(g, 2).value
        depth, _ = _depth_reg(g)
        return _record(pid, bound, depth, depth >= bound)
    if tag == "thm2.5":
        g = from_json_dict(payload["graph"])
        bound = formulas.depth_upper_bound_kappa(g, 2).value
        depth, _ = _depth_reg(g)
        return _record(pid, bound, depth, depth <= bound)
    if tag == "thm3.2":
        spec = spec_from_json_dict(payload["spec"])
        bound = formulas.depth_lower_bound_g2_gen(spec, 2).value
        depth, _ = _depth_reg(spec.composite())
        return _record(pid, bound, depth, depth >= bound)
    if tag == "thm3.3":
        spec = spec_from_json_dict(payload["spec"])
        depths = [_depth_reg(h)[0] for h in spec.attachments]
        value = formulas.depth_equality_gprime(spec, 2, depth_of_h=depths).value
        depth, _ = _depth_reg(spec.composite())
        return _record(pid, value, depth, depth == value)
    if tag == "thm3.5":
        spec = spec_from_json_dict(payload["spec"])
        depths = [_depth_reg(h)[0] for h in spec.attachments]
        bound = formulas.depth_lower_bound_g2_binom(spec, depths).value
        depth, _ = _depth_reg(spec.composite())
        return _record(pid, bound, depth, depth >= bound)
    if tag == "thm4.2":
        spec = spec_from_json_dict(payload["spec"])
        bound = formulas.reg_upper_bound_g1(spec, 2).value
        _, reg = _depth_reg(spec.composite())
        return _record(pid, bound, reg, reg <= bound)
    if tag == "thm4.3":
        g = from_json_dict(payload["graph"])
        ideal = groebner.initial_ideal(g)
        bound, _ = invariants.hypergraph_induced_matching_bound(ideal)
        if payload["kind"] == "labeling":
            target = payload["p"] + 1
            return _record(pid, bound, target, bound >= target)
        _, reg = _depth_reg(g)
        return _record(pid, bound, reg, bound <= reg)
    if tag == "thm4.6":
        spec = spec_from_json_dict(payload["spec"])
        value = payload["p"] + 1
        _, reg = _depth_reg(spec.composite())
        return _record(pid, value, reg, reg == value)
    if tag == "thm5.6":
        spec = spec_from_json_dict(payload["spec"])
        cm_flags = [_is_cm(h) for h in spec.attachments]
        verdict = decomposition.classify_cm(spec, 2, cm_flags)
        composite = spec.composite()
        depth, _ = _depth_reg(composite)
        dim = decomposition.dimension(composite, 2).value
        oracle_cm = depth == dim
        return _record(pid, verdict.is_cm, oracle_cm, verdict.is_cm == oracle_cm)
    if tag == "lem5.1":
        if payload["kind"] == "complete":
            n, m = payload["n"], payload["m"]
            g = graph_from_name(f"k{n}")
            value = decomposition.dimension(g, m).value
            return _record(pid, n + m - 1, value, value == n + m - 1)
        spec = spec_from_json_dict(payload["spec"])
        dims = [decomposition.dimension(h, 2).value for h in spec.attachments]
        value = formulas.dim_g2prime(spec, dims).value
        dim = decomposition.dimension(spec.composite(), 2).value
        return _record(pid, value, dim, value == dim)
    if tag == "exact-seq":
        g = from_json_dict(payload["graph"])
        triple = decomposition.decompose_at_vertex(g, payload["v"])
        d0, r0 = _depth_reg(g)
        dv, rv = _depth_reg(triple.completed)
        dm, rm = _depth_reg(triple.deleted)
        dvm, rvm = _depth_reg(triple.completed_deleted)
        depth_ok = d0 >= min(dv, dm, dvm + 1)
        reg_ok = r0 <= max(rv, rm, rvm + 1)
        return _record(
            pid,
            {"depth_floor": min(dv, dm, dvm + 1), "reg_ceil": max(rv, rm, rvm + 1)},
            {"depth": d0, "reg": r0},
            depth_ok and reg_ok,
        )
    if tag == "iv-drop":
        g = from_json_dict(payload["graph"])
        iv0 = invariants.free_vertex_counts(g)[1]
        worst = -1
        for v in g.vertices():
            if is_free_vertex(g, v):
                continue
            triple = decomposition.decompose_at_vertex(g, v)
            worst = max(
                worst,
                invariants.free_vertex_counts(triple.completed)[1],
                invariants.free_vertex_counts(triple.deleted)[1],
                invariants.free_vertex_counts(triple.completed_deleted)[1],
            )
        if worst < 0:
            return _record(pid, iv0, None, True)
        return _record(pid, iv0, worst, worst < iv0)
    if tag == "enum":
        n = payload["n"]
        count = sum(1 for g in enumerate_connected_graphs(n) if g.n == n)
        expected = CONNECTED_GRAPH_COUNTS[n - 1]
        return _record(pid, expected, count, count == expected)
    raise UsageError(f"unknown verification tag {tag!r}")


def _pool_entry(item: tuple[str, dict]) -> dict:
    tag, payload = item
    return _run_instance(tag, payload)


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def run_verification(tag: str, jobs: int = 1, **opts) -> VerificationRun:
    """Sweep one tagged statement over its default universe.

    opts may carry max_n, max_base, or max_total to resize the universe.
    jobs asks for that many worker processes; the pool never exceeds the
    usable CPUs or the instance count, and one worker means a serial run.
    """
    if tag not in _BUILDERS:
        raise UsageError(
            f"unknown verification tag {tag!r}; known: {', '.join(sorted(_BUILDERS))}"
        )
    if jobs < 1:
        raise UsageError(f"jobs must be at least 1, got {jobs}")
    start = time.perf_counter()
    universe, payloads = _BUILDERS[tag](opts)
    workers = min(jobs, _usable_cpus(), len(payloads))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            records = list(pool.map(_pool_entry, [(tag, p) for p in payloads]))
    else:
        records = [_run_instance(tag, p) for p in payloads]
    run = VerificationRun(tag, universe, records, time.perf_counter() - start)
    return run


# ---------------------------------------------------------------------------
# analyze


def _load_graph_arg(args) -> tuple[Graph, GenCoronaSpec | None]:
    chosen = [x for x in (args.graph, args.graph6, args.spec) if x]
    if len(chosen) != 1:
        raise UsageError("analyze needs exactly one of --graph, --graph6, --spec")
    if args.graph:
        with open(args.graph, encoding="utf-8") as fh:
            return from_json_dict(json.load(fh)), None
    if args.graph6:
        return from_graph6(args.graph6), None
    with open(args.spec, encoding="utf-8") as fh:
        spec = spec_from_json_dict(json.load(fh))
    return spec.composite(), spec


def analyze_report(
    g: Graph,
    spec: GenCoronaSpec | None,
    m: int = 2,
    with_oracle: bool = False,
    with_decomposition: bool = False,
) -> dict:
    """Full analysis record for one graph or construction."""
    if m < 2:
        raise InputError("m must be at least 2")
    rep = invariants.invariant_report(g)
    report: dict = {
        "m": m,
        "graph": to_json_dict(g),
        "graph6": to_graph6(g),
        "invariants": rep.to_json_dict(),
    }
    bounds = [formulas.depth_lower_bound_general(g, m)]
    if rep.c == 1 and g.n > 0:
        bounds.append(formulas.depth_upper_bound_kappa(g, m))

    oracle_vals = None
    if with_oracle:
        if m != 2:
            raise InputError("the homological oracle supports m = 2 only")
        depth, reg = _depth_reg(g)
        oracle_vals = {"depth": depth, "reg": reg}

    if spec is not None:
        membership = class_membership(spec, m=m)
        report["construction"] = spec.to_json_dict()
        report["membership"] = membership.to_json_dict()
        if membership.in_g2:
            bounds.append(formulas.depth_lower_bound_g2_gen(spec, m))
        if membership.in_g1:
            bounds.append(formulas.reg_upper_bound_g1(spec, m))
            base = spec.base
            base_rep = invariants.invariant_report(base)
            if len(spec.attach_set) == base.n and base_rep.gap_free and m == 2:
                bounds.append(formulas.reg_gapfree_whisker(base))
        if membership.in_g2 and m == 2 and with_oracle:
            depths = [_depth_reg(h)[0] for h in spec.attachments]
            bounds.append(formulas.depth_lower_bound_g2_binom(spec, depths))
            full = class_membership(spec, depth_of_h=depths, m=m)
            if full.in_gprime:
                bounds.append(formulas.depth_equality_gprime(spec, m, depths))
        elif membership.in_gprime:
            bounds.append(formulas.depth_equality_gprime(spec, m))
        if spec.base.is_complete() and m == 2:
            dims = [decomposition.dimension(h, 2).value for h in spec.attachments]
            bounds.append(formulas.dim_g2prime(spec, dims))
    report["bounds"] = [b.to_json_dict() for b in bounds]
    if oracle_vals is not None:
        report["oracle"] = oracle_vals

    if with_decomposition:
        primes = decomposition.minimal_primes(g, m)
        dim = decomposition.dimension(g, m)
        report["decomposition"] = {
            "primes": [p.to_json_dict() for p in primes],
            "dimension": dim.value,
            "witness": dim.witness.to_json_dict(),
        }
        if rep.c == 1 and g.n > 0:
            unmixed, bad = decomposition.is_unmixed(g, m)
            report["decomposition"]["unmixed"] = unmixed
            report["decomposition"]["unmixed_witness"] = (
                bad.to_json_dict() if bad is not None else None
            )
    return report


def _flatten_for_csv(report: dict) -> dict:
    row: dict = {"graph6": report["graph6"], "m": report["m"]}
    row.update(report["invariants"])
    for bound in report["bounds"]:
        row[bound["name"]] = bound["value"]
    for key in ("depth", "reg"):
        if "oracle" in report:
            row[f"oracle_{key}"] = report["oracle"][key]
    if "decomposition" in report:
        row["dimension"] = report["decomposition"]["dimension"]
        if "unmixed" in report["decomposition"]:
            row["unmixed"] = report["decomposition"]["unmixed"]
    return row


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_analyze(args) -> int:
    g, spec = _load_graph_arg(args)
    report = analyze_report(
        g,
        spec,
        m=args.m,
        with_oracle=args.oracle,
        with_decomposition=args.decompose,
    )
    if args.format == "csv":
        row = _flatten_for_csv(report)
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=list(row))
        writer.writeheader()
        writer.writerow(row)
        _emit(buf.getvalue(), args.out)
    else:
        _emit(json.dumps(report, indent=2, sort_keys=True) + "\n", args.out)
    return 0


def cmd_verify(args) -> int:
    opts = {}
    if args.max_n is not None:
        opts["max_n"] = args.max_n
    if args.max_base is not None:
        opts["max_base"] = args.max_base
    if args.max_total is not None:
        opts["max_total"] = args.max_total
    if args.m != 2:
        raise UsageError("verification sweeps run against the m = 2 oracle")
    run = run_verification(args.tag, jobs=args.jobs, **opts)
    if args.format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["id", "formula", "oracle", "verdict"])
        for rec in run.records:
            writer.writerow(
                [rec["id"], json.dumps(rec["formula"]), json.dumps(rec["oracle"]), rec["verdict"]]
            )
        _emit(buf.getvalue(), args.out)
    else:
        _emit(json.dumps(run.to_json_dict(), indent=2, sort_keys=True) + "\n", args.out)
    print(
        f"{run.tag}: {run.passed} passed, {run.failed} failed "
        f"({run.wall_time_s:.2f}s, {len(run.records)} instances)",
        file=sys.stderr,
    )
    return 0 if run.ok else 1


def _enumerate_specs(args):
    if args.max_base is not None and args.max_base < 1:
        return
    max_base = args.max_base if args.max_base is not None else 3
    if args.cls == "g1":
        for g in _connected_reps(max_base):
            required = frozenset(v for v in g.vertices() if not is_free_vertex(g, v))
            optional = sorted(set(g.vertices()) - required)
            for k in range(len(optional) + 1):
                for extra in itertools.combinations(optional, k):
                    s = tuple(sorted(required | set(extra)))
                    spec, _ = whisker_on_set(g, s)
                    yield spec
        return
    names = tuple(x.strip() for x in args.attachments.split(",") if x.strip())
    max_total = args.max_total if args.max_total is not None else 8
    pool = [(name, graph_from_name(name)) for name in names]
    for g in _connected_reps(max_base):
        required = sorted(v for v in g.vertices() if not is_free_vertex(g, v))
        optional = [v for v in g.vertices() if v not in required]
        for k in range(len(optional) + 1):
            for extra in itertools.combinations(optional, k):
                s = tuple(sorted(set(required) | set(extra)))
                for assign in itertools.product(pool, repeat=len(s)):
                    total = g.n + sum(h.n for _, h in assign)
                    if total > max_total:
                        continue
                    yield GenCoronaSpec(g, s, tuple(h for _, h in assign))


def cmd_enumerate(args) -> int:
    lines = [json.dumps(spec.to_json_dict(), sort_keys=True) for spec in _enumerate_specs(args)]
    text = "".join(line + "\n" for line in lines)
    _emit(text, args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="corbel",
        description="Exact depth, regularity, and dimension for binomial edge ideals "
        "of whisker and corona constructions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_an = sub.add_parser("analyze", help="analyze one graph or construction")
    p_an.add_argument("--graph", help="path to a graph JSON file {n, edges}")
    p_an.add_argument("--graph6", help="graph6 string")
    p_an.add_argument("--spec", help="path to a construction JSON file {base, S, H}")
    p_an.add_argument("--m", type=int, default=2, help="row count of the complete pairing graph")
    p_an.add_argument("--oracle", action="store_true", help="include Groebner oracle depth/reg")
    p_an.add_argument("--decompose", action="store_true", help="include cutset decomposition")
    p_an.add_argument("--out", help="write the report here instead of stdout")
    p_an.add_argument("--format", choices=("json", "csv"), default="json")
    p_an.set_defaults(func=cmd_analyze)

    p_ve = sub.add_parser("verify", help="sweep one tagged statement against the oracle")
    p_ve.add_argument("tag", help="one of: " + ", ".join(sorted(_BUILDERS)))
    p_ve.add_argument("--m", type=int, default=2)
    p_ve.add_argument("--max-n", type=int, dest="max_n")
    p_ve.add_argument("--max-base", type=int, dest="max_base")
    p_ve.add_argument("--max-total", type=int, dest="max_total")
    p_ve.add_argument("--jobs", type=int, default=1)
    p_ve.add_argument("--out", help="write the run report here instead of stdout")
    p_ve.add_argument("--format", choices=("json", "csv"), default="json")
    p_ve.set_defaults(func=cmd_verify)

    p_en = sub.add_parser("enumerate", help="stream construction specs as JSON lines")
    p_en.add_argument("--class", dest="cls", choices=("g1", "g2"), required=True)
    p_en.add_argument("--max-base", type=int, dest="max_base")
    p_en.add_argument("--max-total", type=int, dest="max_total")
    p_en.add_argument(
        "--attachments",
        default=",".join(ATTACHMENT_POOL),
        help="comma separated attachment names (default %(default)s)",
    )
    p_en.add_argument("--out", help="write the stream here instead of stdout")
    p_en.set_defaults(func=cmd_enumerate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (UsageError, InputError, ParseError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
