"""Exact Betti tables of squarefree monomial ideals, and the homological oracle.

A Betti table is built in three steps.  First the lcm lattice: every
multidegree with a nonzero graded Betti number of R/I is in it.  Second the
Mayer-Vietoris tree (E. Saenz-de-Cabezon, Multigraded Betti numbers without
computing minimal free resolutions, AAECC 20, 2009), which emits
multidegrees at positions.  Write I = J + (m_r), and K for the intersection
of J and (m_r), generated by the lcms of m_r with the generators of J.  The
Mayer-Vietoris sequence bounds beta_{i,a}(I) by beta_{i,a}(J) +
beta_{i,a}((m_r)) + beta_{i-1,a}(K), and Hilbert series add along it.
Unrolled, a multidegree a emitted c times at position s bounds
beta_{s+1,a}(R/I) by c, and at each a the alternating sums of emitted
counts and of Betti numbers agree.  So a multidegree the tree never emits
has no Betti numbers, and one emitted at a single position s, c times, has
beta_{s+1,a} = c.  Third, Hochster's formula, only on the multidegrees
emitted at two or more positions: their Betti numbers come from reduced
simplicial homology of restrictions of the Stanley-Reisner complex.  All
homology is computed over the rationals by exact integer elimination; no
floating point anywhere.  Characteristic zero is baked in.  All three steps
work on bitmasks, bit v for variable v, the form ``MonomialIdealSF`` stores
its generators in; a multidegree's degree is its bit count.

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
from .graphs import Graph, bits, canonical_form, from_edge_list
from .groebner import MonomialIdealSF, initial_ideal

BETTI_VAR_CAP = 20
LATTICE_CAP = 50000


def lcm_lattice(ideal: MonomialIdealSF) -> list[int]:
    """All joins of nonempty subsets of ``ideal.masks``, deduplicated, in increasing order."""
    lattice: set[int] = set()
    for g in ideal.masks:
        fresh = {g | u for u in lattice}
        fresh.add(g)
        lattice |= fresh
        if len(lattice) > LATTICE_CAP:
            raise CapError("lcm lattice too large", size=len(lattice), cap=LATTICE_CAP)
    return sorted(lattice)


# ---------------------------------------------------------------------------
# reduced homology of a restricted Stanley-Reisner complex
#
# A restriction is described by a vertex bitmask and generator bitmasks;
# faces are the vertex subsets containing no generator.  Its e-vector is
# e[k] = rank of reduced homology in degree k-1.  ``_e_vector`` takes the
# first case that applies, and caches every case but the first under the
# restriction renumbered onto vertices 0..s-1 in order, the key (s, masks):
#   - cone: a vertex in no generator is a cone apex, so e is zero;
#   - join: the cluster grown from the first generator, by taking in every
#     generator that meets it, misses some vertices.  The complex is the
#     join of the complexes on the cluster and on the rest, so e is the
#     product of theirs; the rest is skipped when the cluster's e is zero;
#   - strip: a vertex u whose link is a cone is deleted, which keeps the
#     homotopy type (a strong collapse; Barmak-Minian, DCG 47, 2012).  The
#     link of u has the ideal (I : x_u) on the other vertices, and it is a
#     cone when another vertex lies in no minimal generator of that colon.
#     The lowest such u goes, with every generator containing it;
#   - ranks: the faces are enumerated and e read off the ranks of the
#     boundary maps.
# Each case other than ranks deletes a vertex or splits off a nonempty part,
# so the recursion is shallower than twice the number of vertices.

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


def _e_vector(vertices: int, gens: list[int]) -> tuple[int, ...]:
    """e[k] = dim of reduced homology in degree k-1 of the complex on vertices."""
    if vertices & ~_union(gens):
        return (0,)
    key = _renumbered(vertices, gens)
    e = _cluster_cache.get(key)
    if e is not None:
        return e
    cluster = gens[0]
    while (grown := _union(g for g in gens if g & cluster)) != cluster:
        cluster = grown
    if cluster != vertices:
        e = _e_vector(cluster, [g for g in gens if g & cluster])
        if any(e):
            e = _convolve(e, _e_vector(vertices ^ cluster, [g for g in gens if not g & cluster]))
    else:
        rest = vertices
        while rest:
            bit = rest & -rest
            if vertices & ~bit & ~_link_cover(gens, bit):
                e = _e_vector(vertices ^ bit, [g for g in gens if not g & bit])
                break
            rest ^= bit
        else:
            e = _homology(*key)
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


def _tree_order(mask: int) -> tuple[int, int, int]:
    """Generator order in a tree node: lowest variable, then degree, then mask."""
    return (mask & -mask, mask.bit_count(), mask)


def _minimal(masks: set[int]) -> list[int]:
    """The inclusion-minimal masks, in tree order."""
    kept: list[int] = []
    for m in sorted(masks, key=int.bit_count):
        if not any(k & m == k for k in kept):
            kept.append(m)
    return sorted(kept, key=_tree_order)


def _mayer_vietoris_tree(gen_masks: tuple[int, ...]) -> dict[int, dict[int, int]]:
    """Multidegrees the Mayer-Vietoris tree emits: mask -> {position: count}.

    A node is a list of minimal generators at a position s; the root is the
    ideal at s = 0.  A node emits (s, m_k) for each of its generators m_k
    and, for each k >= 2, has a child at s + 1 on the minimal elements of
    {lcm(m_j, m_k) : j < k}.  Raises CapError past LATTICE_CAP nodes.
    """
    emitted: dict[int, dict[int, int]] = {}
    stack = [(0, sorted(gen_masks, key=_tree_order))]
    nodes = 0
    while stack:
        s, gens = stack.pop()
        nodes += 1
        if nodes > LATTICE_CAP:
            raise CapError("Mayer-Vietoris tree too large", size=nodes, cap=LATTICE_CAP)
        for k, m in enumerate(gens):
            at = emitted.setdefault(m, {})
            at[s] = at.get(s, 0) + 1
            if k:
                stack.append((s + 1, _minimal({g | m for g in gens[:k]})))
    return emitted


def betti_table(ideal: MonomialIdealSF) -> BettiTable:
    """Betti table of R/I; exact, characteristic zero.

    Each multidegree of the lcm lattice is read off the Mayer-Vietoris tree
    when the tree emits it at one position only, and computed by Hochster's
    formula when the tree emits it at two or more.
    """
    if ideal.n_vars > BETTI_VAR_CAP:
        raise CapError("betti table capped", size=ideal.n_vars, cap=BETTI_VAR_CAP)
    lattice = lcm_lattice(ideal)
    emitted = _mayer_vietoris_tree(ideal.masks)
    entries: dict[tuple[int, int], int] = {(0, 0): 1}
    found = 0
    for smask in lattice:
        at = emitted.get(smask)
        if at is None:
            continue
        found += 1
        j = smask.bit_count()
        if len(at) == 1:
            ((s, count),) = at.items()
            entries[(s + 1, j)] = entries.get((s + 1, j), 0) + count
            continue
        inside = [g for g in ideal.masks if not g & ~smask]
        for k, rank in enumerate(_e_vector(smask, inside)):
            if rank:
                i = j - k
                if i - 1 not in at:
                    raise RuntimeError("internal consistency error: homological index")
                entries[(i, j)] = entries.get((i, j), 0) + rank
    if found != len(emitted):
        raise RuntimeError("internal consistency error: tree multidegree outside the lcm lattice")
    pd = max(i for i, _ in entries)
    reg = max(j - i for i, j in entries)
    ordered = tuple(sorted(entries.items()))
    return BettiTable(ideal.n_vars, ordered, pd, ideal.n_vars - pd, reg)


def sr_dimension(ideal: MonomialIdealSF) -> int:
    """Krull dimension of R/I: the largest face of the Stanley-Reisner complex."""
    gens = sorted(ideal.masks, key=int.bit_count)
    nv = ideal.n_vars
    best = 0

    def dfs(v: int, chosen: int, size: int):
        nonlocal best
        if size > best:
            best = size
        if v > nv or size + (nv - v + 1) <= best:
            return
        cand = chosen | 1 << v
        if all(g & ~cand for g in gens):
            dfs(v + 1, cand, size + 1)
        dfs(v + 1, chosen, size)

    dfs(1, 0, 0)
    return best


_oracle_cache: dict[tuple[int, int], tuple[int, int]] = {}


def reset() -> None:
    """Forget every memoized result."""
    _oracle_cache.clear()
    _cluster_cache.clear()


def _bfs_order(g: Graph, start: int) -> list[int]:
    """Breadth-first order from start, neighbours by (degree, label).

    Components the search does not reach follow, each from its first
    vertex by (degree, label).
    """
    def key(v):
        return (g.adj[v].bit_count(), v)

    roots = sorted(g.vertices(), key=key)
    order = [start]
    seen = 1 << start
    k = 0
    while len(order) < g.n:
        if k == len(order):
            root = next(v for v in roots if not seen >> v & 1)
            order.append(root)
            seen |= 1 << root
        fresh = g.adj[order[k]] & ~seen
        order += sorted(bits(fresh), key=key)
        seen |= fresh
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
        score = (sum(m.bit_count() for m in ideal.masks), len(ideal.masks))
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
    a graph already resolved builds no second table.  The caches last one
    ``corbel verify`` run; a library caller can empty them with ``reset()``.
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
