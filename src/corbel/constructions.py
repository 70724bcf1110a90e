"""Whisker and generalized corona constructions, plus class membership.

A generalized corona hangs an attachment graph H_i on each vertex v_i of a
chosen base-vertex subset S: the composite keeps the base on labels 1..p and
places each attachment block contiguously after it, joining v_i to every
vertex of its block.  The classes of interest require S to cover every
non-free base vertex.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import InputError
from .graphs import Graph, bits, from_edge_list, from_json_dict, non_free_vertices, to_json_dict


@dataclass(frozen=True)
class GenCoronaSpec:
    """Base graph, attachment vertices, and one attachment graph per vertex.

    ``attach_set[i]`` receives ``attachments[i]``; the composite labels the
    base 1..p and then each attachment block in list order.
    """

    base: Graph
    attach_set: tuple[int, ...]
    attachments: tuple[Graph, ...]

    def __post_init__(self):
        if len(self.attach_set) != len(self.attachments):
            raise InputError("attach_set and attachments must have equal length")
        for v in self.attach_set:
            self.base._check_vertex(v)
        if len(set(self.attach_set)) != len(self.attach_set):
            raise InputError("attach_set has repeated vertices")
        for h in self.attachments:
            if h.n < 1:
                raise InputError("attachments must be non-empty graphs")

    def total_vertices(self) -> int:
        return self.base.n + sum(h.n for h in self.attachments)

    def composite(self) -> Graph:
        edges = list(self.base.edges())
        off = self.base.n  # block i holds labels off+1..off+|H_i|
        for v, h in zip(self.attach_set, self.attachments):
            edges.extend((a + off, b + off) for a, b in h.edges())
            edges.extend((v, w + off) for w in h.vertices())
            off += h.n
        return from_edge_list(off, edges)

    def to_json_dict(self) -> dict:
        return {
            "base": to_json_dict(self.base),
            "S": list(self.attach_set),
            "H": [to_json_dict(h) for h in self.attachments],
        }


def spec_from_json_dict(obj) -> GenCoronaSpec:
    if not isinstance(obj, dict) or not {"base", "S", "H"} <= set(obj):
        raise InputError("spec JSON must be an object with 'base', 'S', and 'H' keys")
    if not (isinstance(obj["S"], list) and isinstance(obj["H"], list)):
        raise InputError("spec JSON 'S' and 'H' must be lists")
    return GenCoronaSpec(
        from_json_dict(obj["base"]),
        tuple(obj["S"]),
        tuple(from_json_dict(h) for h in obj["H"]),
    )


def covering_sets(g: Graph):
    """Yield every vertex set S of g that contains all non-free vertices.

    Each S is a sorted tuple.  Sets with fewer free vertices come first, and
    sets of one size follow ``itertools.combinations`` order on the free ones.
    """
    required = non_free_vertices(g)
    optional = [1 << v for v in g.vertices() if not required >> v & 1]
    for k in range(len(optional) + 1):
        for extra in itertools.combinations(optional, k):
            yield tuple(bits(required | sum(extra)))


def covered_coronas(base: Graph, pool, max_total: int):
    """Yield every covered corona over base with attachments drawn from pool.

    pool is a sequence of (name, graph) pairs.  For each S from
    ``covering_sets(base)``, every assignment of pool entries to the vertices
    of S is tried in ``itertools.product`` order, and kept when the composite
    has at most max_total vertices.  Yields (attachment names, spec).
    """
    for s in covering_sets(base):
        for assign in itertools.product(pool, repeat=len(s)):
            if base.n + sum(h.n for _, h in assign) <= max_total:
                names = tuple(name for name, _ in assign)
                yield names, GenCoronaSpec(base, s, tuple(h for _, h in assign))


def whisker(g: Graph) -> GenCoronaSpec:
    """Attach one pendant vertex to every vertex; in the composite vertex i gets pendant n+i."""
    if g.n < 1:
        raise InputError("whisker needs a non-empty graph")
    return whisker_on_set(g, g.vertices())


def whisker_on_set(g: Graph, s) -> GenCoronaSpec:
    """Attach one pendant vertex to each vertex of s (sorted for determinism)."""
    s = tuple(sorted(set(s)))
    k1 = from_edge_list(1, [])
    return GenCoronaSpec(g, s, tuple(k1 for _ in s))


@dataclass(frozen=True)
class ClassMembership:
    """Membership flags; ``in_gprime`` is None when no attachment depths are given.

    ``witness`` is a non-free base vertex outside the attachment set when the
    covering condition fails, else None.
    """

    in_g1: bool
    in_g2: bool
    in_gprime: bool | None
    witness: int | None

    def to_json_dict(self) -> dict:
        return {
            "in_G1": self.in_g1,
            "in_G2": self.in_g2,
            "in_Gprime": self.in_gprime,
            "witness": self.witness,
        }


def class_membership(spec: GenCoronaSpec, depth_of_h=None, m: int = 2) -> ClassMembership:
    """Decide membership of the composite in the whisker-type classes.

    in_G2: every non-free base vertex carries an attachment.
    in_G1: additionally every attachment is a single vertex.
    in_Gprime: additionally each attachment attains the maximal depth
    m + |V(H_i)| - 1.  With depth_of_h supplied that is checked directly;
    without it, complete attachments are certified (they attain the maximum
    exactly) and anything else yields None, meaning not decidable here.
    """
    if m < 2:
        raise InputError("m must be at least 2")
    uncovered = non_free_vertices(spec.base) & ~sum(1 << v for v in spec.attach_set)
    witness = bits(uncovered)[0] if uncovered else None
    in_g2 = witness is None
    in_g1 = in_g2 and all(h.n == 1 and h.num_edges() == 0 for h in spec.attachments)
    in_gprime: bool | None = None
    if depth_of_h is not None:
        depths = tuple(depth_of_h)
        if len(depths) != len(spec.attachments):
            raise InputError("depth_of_h must list one depth per attachment")
        in_gprime = in_g2 and all(
            d == m + h.n - 1 for d, h in zip(depths, spec.attachments)
        )
    elif all(h.is_complete() for h in spec.attachments):
        in_gprime = in_g2
    return ClassMembership(in_g1, in_g2, in_gprime, witness)


def whisker_matching_labeling(g: Graph) -> Graph:
    """Whisker of g relabeled so one base edge's pendants get the lowest labels.

    The lexicographically least base edge is placed on vertices (3, 4) with
    pendants 1 and 2; remaining base vertices take 5..p+2 with pendants
    p+3..2p.  This ordering exposes a large induced matching among the lex
    initial ideal's generator supports.
    """
    if g.num_edges() == 0:
        raise InputError("needs a graph with at least one edge")
    a, b = g.edges()[0]
    others = [v for v in g.vertices() if v not in (a, b)]
    relabel = {a: 3, b: 4}
    for k, v in enumerate(others):
        relabel[v] = 5 + k
    p = g.n
    edges = [(relabel[u], relabel[v]) for u, v in g.edges()]
    # pendants: base 3 -> 1, base 4 -> 2, base 4+l -> p+2+l
    edges.append((1, 3))
    edges.append((2, 4))
    for l in range(1, p - 1):
        edges.append((4 + l, p + 2 + l))
    return from_edge_list(2 * p, edges)

