"""Cutsets, minimal primes, dimension, unmixedness, and the CM classification.

A vertex set T is a cutset when every one of its members v is a cut vertex
of the graph left after deleting the other members; the empty set always
qualifies.  One component search on G - T decides this: putting v back into
G - T merges the k components it has neighbours in into one, so the count
drops, and v is a cut vertex of G - (T - v), exactly when k >= 2.

Each cutset T names a minimal prime whose dimension is
(n - |T|) + (m - 1) * c(T): every component left after deleting T
contributes its vertex count plus m - 1, the deleted block contributes
nothing.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import NamedTuple

from .constructions import GenCoronaSpec, class_membership
from .errors import CapError, InputError
from .graphs import (
    Graph,
    bits,
    connected_components,
    g_v_operation,
    induced_subgraph,
    is_connected,
    is_free_vertex,
)

CUTSET_CAP = 12


@dataclass(frozen=True)
class Cutset:
    """A cutset with the components it leaves behind, all as vertex masks."""

    vertices: int
    parts: tuple[int, ...]

    @property
    def c(self) -> int:
        return len(self.parts)

    def to_json_dict(self) -> dict:
        return {
            "T": bits(self.vertices),
            "components": [bits(p) for p in self.parts],
        }


def enumerate_cutsets(g: Graph) -> list[Cutset]:
    """All cutsets, sorted by size then lexicographically."""
    if g.n > CUTSET_CAP:
        raise CapError("cutset enumeration capped", size=g.n, cap=CUTSET_CAP)
    full = (2 << g.n) - 2
    nbrs = {1 << v: g.adj[v] for v in g.vertices()}
    out = []
    for size in range(g.n + 1):
        for t in itertools.combinations(nbrs, size):
            parts = connected_components(g, full ^ sum(t))
            if all(sum(1 for p in parts if nbrs[b] & p) >= 2 for b in t):
                out.append(Cutset(sum(t), tuple(parts)))
    return out


@dataclass(frozen=True)
class MinimalPrime:
    """Minimal prime attached to a cutset, with its dimension."""

    cutset: Cutset
    dim: int

    def to_json_dict(self) -> dict:
        d = self.cutset.to_json_dict()
        d["dim"] = self.dim
        return d


def minimal_primes(g: Graph, m: int = 2) -> list[MinimalPrime]:
    if m < 2:
        raise InputError("m must be at least 2")
    return [
        MinimalPrime(cs, (g.n - cs.vertices.bit_count()) + (m - 1) * cs.c)
        for cs in enumerate_cutsets(g)
    ]


class DimensionResult(NamedTuple):
    value: int
    witness: Cutset


def dimension(g: Graph, m: int = 2) -> DimensionResult:
    """Krull dimension of the quotient: the largest minimal-prime dimension.

    The witness is the first maximizing cutset in (size, lex) order.
    """
    best = max(minimal_primes(g, m), key=lambda p: p.dim)  # max keeps the first
    return DimensionResult(best.dim, best.cutset)


def is_unmixed(g: Graph, m: int = 2) -> tuple[bool, Cutset | None]:
    """Whether all minimal primes share one dimension; witness on failure.

    The witness is the first cutset in (size, lex) order whose prime's
    dimension differs from that of the empty cutset's prime.
    """
    if not is_connected(g) or g.n == 0:
        raise InputError("unmixedness check needs a connected graph")
    primes = minimal_primes(g, m)
    for p in primes:
        if p.dim != primes[0].dim:
            return False, p.cutset
    return True, None


@dataclass(frozen=True)
class DecompositionTriple:
    """The three graphs behind the vertex decomposition at v.

    ``completed`` keeps all labels; the two deletions are relabeled onto
    1..n-1 in label order.
    """

    completed: Graph
    deleted: Graph
    completed_deleted: Graph


def decompose_at_vertex(g: Graph, v: int) -> DecompositionTriple:
    """(G_v, G - v, G_v - v) for a non-free vertex v."""
    if is_free_vertex(g, v):
        raise InputError(f"vertex {v} is free; the decomposition needs a non-free vertex")
    gv = g_v_operation(g, v)
    rest = ((2 << g.n) - 2) ^ 1 << v
    return DecompositionTriple(gv, induced_subgraph(g, rest), induced_subgraph(gv, rest))


class CmVerdict(NamedTuple):
    is_cm: bool
    reason: str


def classify_cm(spec: GenCoronaSpec, m: int = 2, cm_of_h=()) -> CmVerdict:
    """Cohen-Macaulay classification of a covered corona composite.

    ``cm_of_h`` supplies one boolean per attachment: whether that
    attachment's own edge binomial quotient is Cohen-Macaulay.  The verdict
    reason names the first violated clause.  The base-is-a-single-vertex case
    is routed through the cone results; a cone over a connected non-complete
    graph is outside the classification and raises.
    """
    if m < 2:
        raise InputError("m must be at least 2")
    cm_flags = tuple(bool(x) for x in cm_of_h)
    if len(cm_flags) != len(spec.attachments):
        raise InputError("cm_of_h must list one verdict per attachment")
    d = spec.composite()
    if not is_connected(d) or d.n == 0:
        raise InputError("classification needs a connected composite")
    if not class_membership(spec).in_g2:
        raise InputError("attachment set does not cover all non-free base vertices")
    if d.is_complete():
        return CmVerdict(True, "complete composite")
    if m > 2:
        return CmVerdict(False, "for m > 2 only complete composites qualify")

    base = spec.base
    if base.num_edges() > 0:
        if not base.is_complete():
            return CmVerdict(False, "base graph is not complete")
        for idx, h in enumerate(spec.attachments):
            if not is_connected(h):
                return CmVerdict(False, f"attachment {idx + 1} is disconnected")
        for idx, flag in enumerate(cm_flags):
            if not flag:
                return CmVerdict(False, f"attachment {idx + 1} is not Cohen-Macaulay")
        if len(spec.attach_set) < base.n:
            return CmVerdict(True, "complete base, good attachments, uncovered base vertex")
        if any(h.is_complete() for h in spec.attachments):
            return CmVerdict(True, "complete base, good attachments, complete attachment")
        return CmVerdict(False, "every base vertex is covered and no attachment is complete")

    # edgeless base: only the single-apex cone is classified
    if base.n == 1 and len(spec.attachments) == 1:
        ncomp = len(connected_components(spec.attachments[0]))
        if ncomp == 2:
            return CmVerdict(cm_flags[0], "cone over two components follows the attachment")
        if ncomp >= 3:
            return CmVerdict(False, "cone over three or more components is not unmixed")
        raise InputError(
            "cone over a connected non-complete graph is outside the implemented classification"
        )
    raise InputError("classification needs a base with at least one edge")
