"""The statements ``corbel verify`` checks, one table entry per tag.

Each ``Check`` names the one size option its universe reads and that
option's default, a universe function ``size -> (description, payloads)``
and a module-level ``evaluate(payload) -> record``.  A payload is a dict of
an id, the ``Graph`` or ``GenCoronaSpec`` itself and any plain extra keys;
both classes are frozen dataclasses of ints and tuples, so a payload pickles
as it is and an evaluator runs unchanged in a worker process.  Evaluators reach
the oracle as ``betti.oracle_depth_reg`` at call time, so a caller that
rebinds that module attribute sees every call.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import partial
from typing import Callable

from . import betti, decomposition, formulas, groebner, invariants
from .constructions import (
    GenCoronaSpec,
    covered_coronas,
    covering_sets,
    whisker,
    whisker_matching_labeling,
    whisker_on_set,
)
from .graphs import (
    CONNECTED_GRAPH_COUNTS,
    Graph,
    bits,
    disjoint_union,
    enumerate_connected_graphs,
    graph_from_name,
    is_connected,
    non_free_vertices,
    to_graph6,
)


@dataclass(frozen=True)
class Check:
    """One verify tag: its size option, its universe, and its evaluator."""

    tag: str
    size: str
    default: int
    universe: Callable[[int], tuple[str, list[dict]]]
    evaluate: Callable[[dict], dict]


def _record(instance_id: str, formula, oracle, ok: bool) -> dict:
    return {
        "id": instance_id,
        "formula": formula,
        "oracle": oracle,
        "verdict": "pass" if ok else "fail",
    }


# how the oracle's value must compare with a bound of each kind
_HOLDS = {"lower": operator.ge, "upper": operator.le, "equality": operator.eq}


def _against(instance_id: str, report: formulas.BoundReport, value) -> dict:
    """The record of the oracle's value checked against report in its direction."""
    return _record(instance_id, report.value, value, _HOLDS[report.kind](value, report.value))


# --- universes -------------------------------------------------------------


ATTACHMENT_POOL = ("k1", "k2", "p3", "2k1")
CRITERION_BASES = ("k2", "k3", "p3")


def g2_universe(max_total: int = 8) -> list[tuple[str, GenCoronaSpec]]:
    """Covered corona specs over CRITERION_BASES, bounded by total size.

    Every subset S of base vertices containing all non-free ones is used,
    with every assignment of ATTACHMENT_POOL graphs to S, kept when the
    composite stays within max_total vertices.  Sorted by id.
    """
    pool = [(name, graph_from_name(name)) for name in ATTACHMENT_POOL]
    out = []
    for base_name in CRITERION_BASES:
        base = graph_from_name(base_name)
        for names, spec in covered_coronas(base, pool, max_total):
            s = spec.attach_set
            sid = f"{base_name}|S={','.join(map(str, s)) or '-'}|H={','.join(names) or '-'}"
            out.append((sid, spec))
    out.sort(key=lambda pair: pair[0])
    return out


def _graph_payloads(graphs) -> list[dict]:
    return [{"id": to_graph6(g), "graph": g} for g in graphs]


def _connected_graphs(max_n: int) -> tuple[str, list[dict]]:
    payloads = _graph_payloads(enumerate_connected_graphs(max_n))
    return f"connected graphs on at most {max_n} vertices", payloads


def _whiskers(max_base: int, gap_free: bool = False) -> tuple[str, list[dict]]:
    payloads = []
    for g in enumerate_connected_graphs(max_base):
        if gap_free and invariants.induced_matching_number(g)[0] != 1:
            continue
        payloads.append({"id": f"W({to_graph6(g)})", "spec": whisker(g)})
    kind = "gap-free connected" if gap_free else "connected"
    return f"whiskers over {kind} graphs on at most {max_base} vertices", payloads


def _partial_whiskers(max_base: int) -> tuple[str, list[dict]]:
    payloads = []
    for g in enumerate_connected_graphs(max_base):
        for s in covering_sets(g):
            sid = f"W_{{{','.join(map(str, s)) or '-'}}}({to_graph6(g)})"
            payloads.append({"id": sid, "spec": whisker_on_set(g, s)})
    payloads.sort(key=lambda p: p["id"])
    return (
        f"partial whiskers covering all non-free vertices, base at most {max_base} vertices",
        payloads,
    )


def _coronas(max_total: int, keep) -> list[dict]:
    return [
        {"id": sid, "spec": spec}
        for sid, spec in g2_universe(max_total=max_total)
        if keep(spec)
    ]


def _coronas_connected_attachments(max_total: int) -> tuple[str, list[dict]]:
    # The depth lower bounds assume connected attachments, so the sweep
    # drops instances with a disconnected block (2K1 stays in the pool for
    # the CM and dimension sweeps, which have no such hypothesis).
    payloads = _coronas(max_total, lambda spec: all(is_connected(h) for h in spec.attachments))
    return (
        f"covered coronas over K2, K3, P3 with at most {max_total} vertices"
        " and connected attachments",
        payloads,
    )


def _coronas_with_base_edges(max_total: int) -> tuple[str, list[dict]]:
    payloads = _coronas(max_total, lambda spec: spec.base.num_edges() > 0)
    return (
        f"connected covered coronas with non-empty base, at most {max_total} vertices",
        payloads,
    )


def _complete_base_coronas(max_total: int) -> tuple[str, list[dict]]:
    payloads = _coronas(max_total, lambda spec: spec.base.is_complete())
    for n in range(1, 6):
        for m in range(2, 5):
            payloads.append({"id": f"k{n},m={m}", "kind": "complete", "n": n, "m": m})
    return (
        f"complete-base coronas at most {max_total} vertices, plus complete graphs",
        payloads,
    )


def _graphs_and_labeled_whiskers(max_n: int) -> tuple[str, list[dict]]:
    payloads = _graph_payloads(enumerate_connected_graphs(max_n))
    for name in ("k2", "p3", "k3"):
        g = graph_from_name(name)
        labeled = whisker_matching_labeling(g)
        payloads.append(
            {"id": f"labeled:W({name})", "kind": "labeling", "graph": labeled, "p": g.n}
        )
    return (
        f"connected graphs on at most {max_n} vertices plus labeled whiskers",
        payloads,
    )


def _non_free_vertex_choices(max_n: int) -> tuple[str, list[dict]]:
    payloads = []
    for g in enumerate_connected_graphs(max_n):
        for v in bits(non_free_vertices(g)):
            payloads.append({"id": f"{to_graph6(g)}@v{v}", "graph": g, "v": v})
    return (
        f"connected graphs on at most {max_n} vertices, each non-free vertex",
        payloads,
    )


def _all_graph_classes(max_n: int) -> list[Graph]:
    """One representative per isomorphism class of all graphs on <= max_n vertices."""
    conn = list(enumerate_connected_graphs(max_n))
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


def _all_graphs(max_n: int) -> tuple[str, list[dict]]:
    return f"all graphs on at most {max_n} vertices", _graph_payloads(_all_graph_classes(max_n))


def _orders(max_n: int) -> tuple[str, list[dict]]:
    enumerate_connected_graphs(max_n)  # checks the size before the sweep starts
    payloads = [{"id": f"n={n}", "n": n} for n in range(1, max_n + 1)]
    return f"connected graph counts for n up to {max_n}", payloads


# --- evaluators ------------------------------------------------------------


def _paths_match_buchberger(payload: dict) -> dict:
    g = payload["graph"]
    paths_ideal = groebner.initial_ideal(g)
    buch = groebner.buchberger_oracle(g)
    return _record(
        payload["id"],
        len(paths_ideal.masks),
        len(buch.masks),
        paths_ideal == buch,
    )


def _general_depth_lower(payload: dict) -> dict:
    g = payload["graph"]
    bound = formulas.depth_lower_bound_general(g, 2)
    depth, _ = betti.oracle_depth_reg(g)
    return _against(payload["id"], bound, depth)


def _kappa_depth_upper(payload: dict) -> dict:
    g = payload["graph"]
    bound = formulas.depth_upper_bound_kappa(g, 2)
    depth, _ = betti.oracle_depth_reg(g)
    return _against(payload["id"], bound, depth)


def _g2_depth_lower(payload: dict) -> dict:
    spec = payload["spec"]
    bound = formulas.depth_lower_bound_g2_gen(spec, 2)
    depth, _ = betti.oracle_depth_reg(spec.composite())
    return _against(payload["id"], bound, depth)


def _gprime_depth_equality(payload: dict) -> dict:
    spec = payload["spec"]
    depths = [betti.oracle_depth_reg(h)[0] for h in spec.attachments]
    bound = formulas.depth_equality_gprime(spec, 2, depth_of_h=depths)
    depth, _ = betti.oracle_depth_reg(spec.composite())
    return _against(payload["id"], bound, depth)


def _g2_depth_lower_binom(payload: dict) -> dict:
    spec = payload["spec"]
    depths = [betti.oracle_depth_reg(h)[0] for h in spec.attachments]
    bound = formulas.depth_lower_bound_g2_binom(spec, depths)
    depth, _ = betti.oracle_depth_reg(spec.composite())
    return _against(payload["id"], bound, depth)


def _g1_reg_upper(payload: dict) -> dict:
    spec = payload["spec"]
    bound = formulas.reg_upper_bound_g1(spec, 2)
    _, reg = betti.oracle_depth_reg(spec.composite())
    return _against(payload["id"], bound, reg)


def _hypergraph_reg_lower(payload: dict) -> dict:
    g = payload["graph"]
    ideal = groebner.initial_ideal(g)
    bound, _ = invariants.hypergraph_induced_matching_bound(ideal)
    if payload.get("kind") == "labeling":
        target = payload["p"] + 1
        return _record(payload["id"], bound, target, bound >= target)
    _, reg = betti.oracle_depth_reg(g)
    return _record(payload["id"], bound, reg, bound <= reg)


def _gap_free_whisker_reg(payload: dict) -> dict:
    spec = payload["spec"]
    bound = formulas.reg_gapfree_whisker(spec.base)
    _, reg = betti.oracle_depth_reg(spec.composite())
    return _against(payload["id"], bound, reg)


def _cm_classification(payload: dict) -> dict:
    spec = payload["spec"]
    cm_flags = [
        betti.oracle_depth_reg(h)[0] == decomposition.dimension(h, 2).value
        for h in spec.attachments
    ]
    verdict = decomposition.classify_cm(spec, 2, cm_flags)
    composite = spec.composite()
    depth, _ = betti.oracle_depth_reg(composite)
    dim = decomposition.dimension(composite, 2).value
    oracle_cm = depth == dim
    return _record(payload["id"], verdict.is_cm, oracle_cm, verdict.is_cm == oracle_cm)


def _corona_dimension(payload: dict) -> dict:
    if payload.get("kind") == "complete":
        n, m = payload["n"], payload["m"]
        value = decomposition.dimension(graph_from_name(f"k{n}"), m).value
        return _record(payload["id"], n + m - 1, value, value == n + m - 1)
    spec = payload["spec"]
    dims = [decomposition.dimension(h, 2).value for h in spec.attachments]
    bound = formulas.dim_g2prime(spec, dims)
    dim = decomposition.dimension(spec.composite(), 2).value
    return _against(payload["id"], bound, dim)


def _exact_sequence(payload: dict) -> dict:
    g = payload["graph"]
    triple = decomposition.decompose_at_vertex(g, payload["v"])
    d0, r0 = betti.oracle_depth_reg(g)
    dv, rv = betti.oracle_depth_reg(triple.completed)
    dm, rm = betti.oracle_depth_reg(triple.deleted)
    dvm, rvm = betti.oracle_depth_reg(triple.completed_deleted)
    depth_ok = d0 >= min(dv, dm, dvm + 1)
    reg_ok = r0 <= max(rv, rm, rvm + 1)
    return _record(
        payload["id"],
        {"depth_floor": min(dv, dm, dvm + 1), "reg_ceil": max(rv, rm, rvm + 1)},
        {"depth": d0, "reg": r0},
        depth_ok and reg_ok,
    )


def _iv_drop(payload: dict) -> dict:
    g = payload["graph"]
    nonfree = non_free_vertices(g)
    iv0 = nonfree.bit_count()
    worst = -1
    for v in bits(nonfree):
        triple = decomposition.decompose_at_vertex(g, v)
        worst = max(
            worst,
            non_free_vertices(triple.completed).bit_count(),
            non_free_vertices(triple.deleted).bit_count(),
            non_free_vertices(triple.completed_deleted).bit_count(),
        )
    if worst < 0:
        return _record(payload["id"], iv0, None, True)
    return _record(payload["id"], iv0, worst, worst < iv0)


def _graph_count(payload: dict) -> dict:
    n = payload["n"]
    count = sum(1 for g in enumerate_connected_graphs(n) if g.n == n)
    expected = CONNECTED_GRAPH_COUNTS[n - 1]
    return _record(payload["id"], expected, count, count == expected)


CHECKS: dict[str, Check] = {
    check.tag: check
    for check in (
        Check("gb-oracle", "max_n", 6, _connected_graphs, _paths_match_buchberger),
        Check("thm2.4", "max_n", 5, _connected_graphs, _general_depth_lower),
        Check("thm2.5", "max_n", 5, _connected_graphs, _kappa_depth_upper),
        Check("thm3.2", "max_total", 8, _coronas_connected_attachments, _g2_depth_lower),
        Check("thm3.3", "max_base", 4, _whiskers, _gprime_depth_equality),
        Check("thm3.5", "max_total", 8, _coronas_connected_attachments, _g2_depth_lower_binom),
        Check("thm4.2", "max_base", 4, _partial_whiskers, _g1_reg_upper),
        Check("thm4.3", "max_n", 5, _graphs_and_labeled_whiskers, _hypergraph_reg_lower),
        Check("thm4.6", "max_base", 4, partial(_whiskers, gap_free=True), _gap_free_whisker_reg),
        Check("thm5.6", "max_total", 8, _coronas_with_base_edges, _cm_classification),
        Check("lem5.1", "max_total", 8, _complete_base_coronas, _corona_dimension),
        Check("exact-seq", "max_n", 4, _non_free_vertex_choices, _exact_sequence),
        Check("iv-drop", "max_n", 6, _all_graphs, _iv_drop),
        Check("enum", "max_n", 6, _orders, _graph_count),
    )
}
