"""Graph invariants feeding the depth, regularity, and dimension formulas.

Everything here is exact and exhaustive; caps keep the searches at desk
scale.  All counts are additive over disjoint unions where that makes sense
(components, isolated vertices, diameters, free vertex counts, induced
matchings).

Both induced-matching invariants come from one search over supports as
bitmasks: the induced matching number of a graph is its edges with weight 1,
the 2-uniform case of the generator-support bound, which weighs each
generator support e by |e| - 1.
"""

from __future__ import annotations

import itertools
from dataclasses import asdict, dataclass
from typing import NamedTuple

from .errors import CapError, InputError
from .graphs import Graph, bits, connected_components, non_free_vertices

MATCHING_CAP = 16
CONNECTIVITY_CAP = 18


def _component_diameter(g: Graph, comp: int) -> int:
    # BFS layers from every vertex of the component mask
    best = 0
    for src in bits(comp):
        seen = frontier = 1 << src
        ecc = -1
        while frontier:
            ecc += 1
            reach = 0
            for u in bits(frontier):
                reach |= g.adj[u]
            frontier = reach & ~seen
            seen |= frontier
        best = max(best, ecc)
    return best


def isolated_count(g: Graph) -> int:
    return g.adj[1:].count(0)


def _induced_matching(supports: tuple[int, ...], weights: list[int]) -> tuple[int, tuple[int, ...]]:
    """Best total weight of an induced matching of the supports, and its indices.

    An induced matching is a set of pairwise disjoint supports (bitmasks)
    whose union contains no other support; the supports must be distinct and
    inclusion-minimal.  Indices are added in increasing order and the first
    maximum met is kept, so ties go to the lexicographically smallest index
    tuple.
    """
    # a support that spoils adding s to a matching disjoint from s meets s
    near = [[t for t in supports if t & s and t != s] for s in supports]
    best_val = 0
    best: tuple[int, ...] = ()

    def dfs(cands: list[int], union: int, chosen: tuple[int, ...], val: int):
        # cands: indices above chosen[-1], each extending chosen on its own
        nonlocal best_val, best
        if val > best_val:
            best_val, best = val, chosen
        left = sum(weights[k] for k in cands)
        for i, k in enumerate(cands):
            if val + left <= best_val:
                return
            left -= weights[k]
            u = union | supports[k]
            nxt = [
                j
                for j in cands[i + 1 :]
                if not supports[j] & u and all(t & ~(u | supports[j]) for t in near[j])
            ]
            dfs(nxt, u, chosen + (k,), val + weights[k])

    dfs(list(range(len(supports))), 0, (), 0)
    return best_val, best


def check_matching_cap(n: int) -> None:
    if n > MATCHING_CAP:
        raise CapError("induced matching search capped", size=n, cap=MATCHING_CAP)


def induced_matching_number(g: Graph) -> tuple[int, tuple[tuple[int, int], ...]]:
    """Largest set of edges pairwise disjoint and mutually non-adjacent.

    Exact search; ties between maximum witnesses break lexicographically.
    """
    check_matching_cap(g.n)
    edges = g.edges()
    size, best = _induced_matching(tuple(1 << a | 1 << b for a, b in edges), [1] * len(edges))
    return size, tuple(edges[i] for i in best)


class KappaResult(NamedTuple):
    value: int
    complete_convention: bool


def vertex_connectivity(g: Graph) -> KappaResult:
    """Minimum vertex cut size; complete graphs report n-1 with a flag.

    The search tries the C(n, k) vertex sets of each size k in turn, so a
    non-complete graph past CONNECTIVITY_CAP vertices raises CapError.
    """
    if g.n == 0:
        raise InputError("vertex connectivity needs a non-empty graph")
    if len(connected_components(g)) != 1:
        raise InputError("vertex connectivity is defined here for connected graphs only")
    if g.is_complete():
        return KappaResult(g.n - 1, True)
    if g.n > CONNECTIVITY_CAP:
        raise CapError("vertex connectivity search capped", size=g.n, cap=CONNECTIVITY_CAP)
    full = (2 << g.n) - 2
    singles = [1 << v for v in g.vertices()]
    for k in range(1, g.n - 1):
        for cut in itertools.combinations(singles, k):
            if len(connected_components(g, full ^ sum(cut))) > 1:
                return KappaResult(k, False)
    raise RuntimeError("unreachable: non-complete connected graph has a cut")


@dataclass(frozen=True)
class InvariantReport:
    """Bundle of the invariants the closed-form bounds consume."""

    n: int
    c: int
    isolated: int
    diam_sum: int
    d: int
    f: int
    iv: int
    im: int
    gap_free: bool
    kappa: int | None
    kappa_complete_convention: bool

    def to_json_dict(self) -> dict:
        return asdict(self)


def invariant_report(g: Graph) -> InvariantReport:
    # the capped search runs first, so an oversized graph fails before any other
    im, _ = induced_matching_number(g)
    comps = connected_components(g)
    iso = isolated_count(g)
    diam_sum = sum(_component_diameter(g, c) for c in comps)
    iv = non_free_vertices(g).bit_count()
    gap_free = g.num_edges() > 0 and im == 1
    if g.n > 0 and len(comps) == 1:
        kappa = vertex_connectivity(g)
        kval, kflag = kappa.value, kappa.complete_convention
    else:
        kval, kflag = None, False
    return InvariantReport(
        n=g.n,
        c=len(comps),
        isolated=iso,
        diam_sum=diam_sum,
        d=iso + diam_sum,
        f=g.n - iv,
        iv=iv,
        im=im,
        gap_free=gap_free,
        kappa=kval,
        kappa_complete_convention=kflag,
    )


def hypergraph_induced_matching_bound(ideal) -> tuple[int, tuple[int, ...]]:
    """Best value of sum(|e_i| - 1) over induced matchings of generator supports.

    An induced matching here is a pairwise disjoint set of supports such that
    no other generator support lies inside its union.  The search runs on
    ``ideal.masks``, which the ``MonomialIdealSF`` constructor keeps minimal;
    the witness is the matched generator masks, ties in mask order.
    """
    best_val, best = _induced_matching(ideal.masks, [m.bit_count() - 1 for m in ideal.masks])
    return best_val, tuple(ideal.masks[i] for i in best)
