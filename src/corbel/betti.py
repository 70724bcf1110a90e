"""Exact Betti tables of squarefree monomial ideals, and the homological oracle.

Graded Betti numbers of R/I come from reduced simplicial homology of
restrictions of the Stanley-Reisner complex, summed over the lcm lattice
(restrictions outside the lattice are cones and contribute nothing).  All
homology is computed over the rationals by exact integer elimination; no
floating point anywhere.  Characteristic zero is baked in.

Depth is read off as number-of-variables minus projective dimension.  For a
graph the oracle works on the lex initial ideal of its edge binomial ideal:
the initial ideal is squarefree, so depth and regularity of the two quotients
agree, whatever the labeling, and the oracle resolves the initial ideal of
the cheapest of a few relabelings.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .errors import CapError
from .graphs import Graph, canonical_form, from_edge_list
from .groebner import MonomialIdealSF, initial_ideal

BETTI_VAR_CAP = 20
LATTICE_CAP = 50000


def lcm_lattice(ideal: MonomialIdealSF) -> list[frozenset[int]]:
    """All joins of nonempty generator subsets, deduplicated and sorted."""
    lattice: set[frozenset[int]] = set()
    for g in ideal.generators:
        fresh = {g | u for u in lattice}
        fresh.add(g)
        lattice |= fresh
        if len(lattice) > LATTICE_CAP:
            raise CapError("lcm lattice too large", size=len(lattice), cap=LATTICE_CAP)
    return sorted(lattice, key=lambda s: (len(s), sorted(s)))


# ---------------------------------------------------------------------------
# reduced homology of a restricted Stanley-Reisner complex
#
# A restriction is described by a vertex bitmask and generator bitmasks;
# faces are the vertex subsets containing no generator.  The e-vector
# e[k] = rank of reduced homology in degree k-1 multiplies under joins, and a
# restriction splits as a join over connected clusters of generators.  A
# cluster renumbered onto vertices 0..s-1 is keyed by (s, masks) in the cache.
#
# A cluster goes strip -> recluster -> ranks.  Strip: a vertex u whose link
# is a cone is deleted, which keeps the homotopy type (a strong collapse;
# Barmak-Minian, DCG 47, 2012).  The link of u has the ideal (I : x_u) on the
# other vertices, and it is a cone when a surviving vertex lies in no minimal
# generator of that colon.  Deleting u drops every generator containing u;
# once a vertex is left in no generator, the cluster is a cone and has no
# homology.  Recluster: if the strip deleted a vertex, the survivors split
# into clusters again, each looked up or computed the same way under its own
# key.  Ranks: a cluster with nothing to strip is enumerated face by face and
# its homology read off the ranks of its boundary maps.

_cluster_cache: dict[tuple[int, frozenset[int]], tuple[int, ...]] = {}


def _matrix_rank(columns: list[dict[int, int]]) -> int:
    """Rank over the rationals via integer column elimination."""
    pivots: dict[int, dict[int, int]] = {}
    rank = 0
    for col in columns:
        col = dict(col)
        while col:
            low = max(col)
            piv = pivots.get(low)
            if piv is None:
                g = 0
                for x in col.values():
                    g = gcd(g, x)
                if g > 1:
                    col = {r: x // g for r, x in col.items()}
                pivots[low] = col
                rank += 1
                break
            a, b = piv[low], col[low]
            new = {r: a * x for r, x in col.items()}
            for r, x in piv.items():
                y = new.get(r, 0) - b * x
                if y:
                    new[r] = y
                else:
                    new.pop(r, None)
            col = new
    return rank


def _faces_by_level(s: int, gen_masks: frozenset[int]) -> list[list[int]]:
    gens_by_v = [[gm for gm in gen_masks if gm >> v & 1] for v in range(s)]
    levels = [[0]]
    while True:
        nxt = []
        for fmask in levels[-1]:
            for v in range(fmask.bit_length(), s):
                cand = fmask | 1 << v
                if not any(gm & cand == gm for gm in gens_by_v[v]):
                    nxt.append(cand)
        if not nxt:
            return levels
        levels.append(nxt)


def _homology(s: int, gen_masks: frozenset[int]) -> tuple[int, ...]:
    """e-vector of a complex from its faces and the ranks of its boundary maps."""
    levels = _faces_by_level(s, gen_masks)
    index_of = [{m: i for i, m in enumerate(lv)} for lv in levels]
    ranks = [0] * (len(levels) + 1)
    for k in range(1, len(levels)):
        rows = index_of[k - 1]
        cols = []
        for fmask in levels[k]:
            col = {}
            sign = 1
            for v in range(s):
                if fmask >> v & 1:
                    col[rows[fmask & ~(1 << v)]] = sign
                    sign = -sign
            cols.append(col)
        ranks[k] = _matrix_rank(cols)
    return tuple(len(levels[k]) - ranks[k] - ranks[k + 1] for k in range(len(levels)))


def _union(masks) -> int:
    out = 0
    for m in masks:
        out |= m
    return out


def _link_cover(gens: list[int], bit: int) -> int:
    """The vertices in some minimal generator of (I : x_u), u the vertex of bit."""
    cut = [g ^ bit for g in gens if g & bit]
    kept = [g for g in gens if not g & bit and not any(c & g == c for c in cut)]
    return _union(cut) | _union(kept)


def _renumbered(verts: int, cluster: list[int]) -> tuple[int, frozenset[int]]:
    """The cluster on its vertices renumbered 0..s-1 in order, as a cache key."""
    local = {}
    m = verts
    while m:
        low = m & -m
        local[low] = 1 << len(local)
        m ^= low
    masks = []
    for g in cluster:
        out = 0
        while g:
            low = g & -g
            out |= local[low]
            g ^= low
        masks.append(out)
    return len(local), frozenset(masks)


def _join_e_vector(vertices: int, gens: list[int]) -> tuple[int, ...]:
    """e-vector of the complex on vertices, the join of its generator clusters.

    A vertex in no generator is a cone apex, so there is no homology.
    """
    if vertices & ~_union(gens):
        return (0,)
    remaining = list(gens)
    e = (1,)
    while remaining:
        cluster = [remaining.pop()]
        verts = cluster[0]
        changed = True
        while changed:
            changed = False
            rest = []
            for g in remaining:
                if g & verts:
                    cluster.append(g)
                    verts |= g
                    changed = True
                else:
                    rest.append(g)
            remaining = rest
        ce = _cluster_e_vector(*_renumbered(verts, cluster))
        if not any(ce):
            return (0,)
        e = _convolve(e, ce)
    return e


def _cluster_e_vector(s: int, gen_masks: frozenset[int]) -> tuple[int, ...]:
    """e[k] = dim of reduced homology in degree k-1 for one generator cluster."""
    key = (s, gen_masks)
    hit = _cluster_cache.get(key)
    if hit is not None:
        return hit
    alive = (1 << s) - 1
    gens = list(gen_masks)
    stripped = True
    while stripped and not alive & ~_union(gens):
        stripped = False
        for u in range(s):
            bit = 1 << u
            if alive & bit and alive & ~bit & ~_link_cover(gens, bit):
                gens = [g for g in gens if not g & bit]
                alive ^= bit
                stripped = True
    if alive == (1 << s) - 1:
        e = _homology(s, gen_masks)
    else:
        e = _join_e_vector(alive, gens)
    _cluster_cache[key] = e
    return e


def _convolve(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    out[i + j] += x * y
    return tuple(out)


@dataclass(frozen=True)
class BettiTable:
    """Graded Betti numbers of R/I, quotient convention (entry (0,0) is 1)."""

    n_vars: int
    entries: tuple[tuple[tuple[int, int], int], ...]
    pd: int
    depth: int
    reg: int

    def entry(self, i: int, j: int) -> int:
        for (a, b), val in self.entries:
            if (a, b) == (i, j):
                return val
        return 0

    def to_json_dict(self) -> dict:
        return {
            "entries": [[i, j, val] for (i, j), val in self.entries],
            "pd": self.pd,
            "depth": self.depth,
            "reg": self.reg,
            "vars": self.n_vars,
        }


def betti_table(ideal: MonomialIdealSF) -> BettiTable:
    """Betti table of R/I over the lcm lattice; exact, characteristic zero."""
    if ideal.n_vars > BETTI_VAR_CAP:
        raise CapError("betti table capped", size=ideal.n_vars, cap=BETTI_VAR_CAP)
    entries: dict[tuple[int, int], int] = {(0, 0): 1}
    gen_masks = [sum(1 << v for v in g) for g in ideal.generators]
    for sigma in lcm_lattice(ideal):
        smask = sum(1 << v for v in sigma)
        inside = [g for g in gen_masks if not g & ~smask]
        e = _join_e_vector(smask, inside)
        j = len(sigma)
        for k, rank in enumerate(e):
            if rank:
                i = j - k
                if i < 1:
                    raise RuntimeError("internal consistency error: homological index")
                entries[(i, j)] = entries.get((i, j), 0) + rank
    pd = max(i for i, _ in entries)
    reg = max(j - i for i, j in entries)
    ordered = tuple(sorted(entries.items()))
    return BettiTable(ideal.n_vars, ordered, pd, ideal.n_vars - pd, reg)


def sr_dimension(ideal: MonomialIdealSF) -> int:
    """Krull dimension of R/I: the largest face of the Stanley-Reisner complex."""
    gens = sorted(ideal.generators, key=len)
    nv = ideal.n_vars
    best = 0

    def dfs(v: int, chosen: frozenset[int], size: int):
        nonlocal best
        if size > best:
            best = size
        if v > nv or size + (nv - v + 1) <= best:
            return
        cand = chosen | {v}
        if not any(g <= cand for g in gens):
            dfs(v + 1, cand, size + 1)
        dfs(v + 1, chosen, size)

    dfs(1, frozenset(), 0)
    return best


_oracle_cache: dict[tuple[int, int], tuple[int, int]] = {}


def _bfs_order(g: Graph, start: int) -> list[int]:
    """Breadth-first order from start, neighbours by (degree, label).

    Components the search does not reach follow, each from its first
    vertex by (degree, label).
    """
    def key(v):
        return (len(g.adj[v]), v)

    roots = sorted(g.vertices(), key=key)
    order = [start]
    seen = {start}
    k = 0
    while len(order) < g.n:
        if k == len(order):
            root = next(v for v in roots if v not in seen)
            order.append(root)
            seen.add(root)
        for w in sorted(g.adj[order[k]] - seen, key=key):
            order.append(w)
            seen.add(w)
        k += 1
    return order


def _oracle_ideal(g: Graph) -> MonomialIdealSF:
    """The initial ideal the oracle resolves: the smallest of g's candidate labelings.

    The candidates are the labels as given, then for each vertex the
    breadth-first order from it, a vertex's new label being its position.
    Each is scored by (sum of generator degrees, generator count, candidate
    index).  A degree sum of 2|E| means the labeling is closed and every
    generator is an edge's quadric, so the search stops there.  Reversed
    orders are left out: under k -> n+1-k an admissible i-j path becomes one
    from n+1-j to n+1-i, so x_k and y_(n+1-k) swap places in the initial
    ideal, which keeps its score and its Betti table.
    """
    edges = g.edges()
    closed_sum = 2 * len(edges)
    orders = [list(g.vertices())] + [_bfs_order(g, v) for v in g.vertices()]
    best = best_score = None
    for order in orders:
        pos = {v: k for k, v in enumerate(order, start=1)}
        relabeled = from_edge_list(g.n, [(pos[a], pos[b]) for a, b in edges])
        ideal = initial_ideal(relabeled)
        score = (sum(len(s) for s in ideal.generators), len(ideal.generators))
        if best_score is None or score < best_score:
            best, best_score = ideal, score
            if score[0] == closed_sum:
                break
    return best


def oracle_depth_reg(g: Graph) -> tuple[int, int]:
    """(depth, regularity) of the edge binomial quotient of g, via Hochster.

    Computed on a lex initial ideal in the 2n-variable ring, taken under the
    cheapest of a fixed set of relabelings of g (see ``_oracle_ideal``).
    The initial ideal is squarefree under every labeling, so its depth and
    regularity equal those of the binomial ideal itself (Conca-Varbaro,
    square-free Groebner degenerations), and hence do not depend on the
    labeling; its lcm lattice does, by several times.  Results are cached
    per isomorphism class, under ``canonical_form(g)``, so a relabeling of
    a graph already resolved builds no second table.
    """
    if 2 * g.n > BETTI_VAR_CAP:
        raise CapError("betti table capped", size=2 * g.n, cap=BETTI_VAR_CAP)
    key = canonical_form(g)
    hit = _oracle_cache.get(key)
    if hit is not None:
        return hit
    table = betti_table(_oracle_ideal(g))
    result = (table.depth, table.reg)
    _oracle_cache[key] = result
    return result
