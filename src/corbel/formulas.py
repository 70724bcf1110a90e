"""Closed-form depth, regularity, and dimension bounds.

Every function here is pure arithmetic over invariants computed elsewhere:
it takes a graph or a corona spec (plus any attachment depths or dimensions
it needs), reads only the invariants its formula uses, and returns a
BoundReport carrying the tag, the value, whether it bounds from below or
above or is an equality, and the inputs it consumed.  Nothing in this module
touches a Groebner basis, and no corona's composite D is built: every vertex
of an attachment block is joined to that block's base vertex, so the blocks
add no component, c(D) = c(base) and |V(D)| = ``spec.total_vertices()``.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

from .constructions import GenCoronaSpec, class_membership
from .errors import InputError
from .graphs import Graph, connected_components, is_connected, ncomponents, non_free_vertices
from .invariants import (
    _component_diameter,
    induced_matching_number,
    isolated_count,
    vertex_connectivity,
)

Kind = str  # "lower" | "upper" | "equality"


@dataclass(frozen=True)
class BoundReport:
    """One evaluated bound: tag, value, direction, and the inputs used."""

    name: str
    value: int
    kind: Kind
    inputs: dict

    def to_json_dict(self) -> dict:
        return asdict(self)


def _f_d_c(g: Graph) -> tuple[int, int, int]:
    """f, d and c as ``invariant_report`` computes them, without its capped searches."""
    comps = connected_components(g)
    d = isolated_count(g) + sum(_component_diameter(g, comp) for comp in comps)
    return g.n - non_free_vertices(g).bit_count(), d, len(comps)


def depth_lower_bound_general(g: Graph, m: int = 2) -> BoundReport:
    """depth >= f + d + (m-2)c, valid for every simple graph."""
    if m < 2:
        raise InputError("m must be at least 2")
    f, d, c = _f_d_c(g)
    value = f + d + (m - 2) * c
    return BoundReport(
        "thm2.4",
        value,
        "lower",
        {"f": f, "d": d, "c": c, "m": m},
    )


def depth_upper_bound_kappa(g: Graph, m: int = 2) -> BoundReport:
    """depth <= m + n - kappa for connected non-complete graphs.

    Complete graphs have no disconnecting set, so they get the weaker
    connected-graph form m + n - 1; the inputs record the convention.
    """
    if m < 2:
        raise InputError("m must be at least 2")
    if not is_connected(g) or g.n == 0:
        raise InputError("upper bound needs a connected graph")
    kappa, complete = vertex_connectivity(g)
    if complete:
        # no disconnecting set exists; fall back to the connected-graph form,
        # which complete graphs attain exactly
        value = m + g.n - 1
    else:
        value = m + g.n - kappa
    return BoundReport(
        "thm2.5",
        value,
        "upper",
        {
            "n": g.n,
            "kappa": kappa,
            "m": m,
            "complete_convention": complete,
        },
    )


def _require_connected_attachments(spec: GenCoronaSpec, name: str) -> None:
    # The inductive proofs bound each attachment's own depth by |V(H_i)| + m - 1,
    # which only holds for connected H_i; disconnected ones break the bound
    # (attach 2K1 to a path's middle vertex and the formula exceeds the depth).
    for i, h in enumerate(spec.attachments):
        if not is_connected(h):
            raise InputError(
                f"{name} needs connected attachments; attachment {i + 1} is not"
            )


def depth_lower_bound_g2_gen(spec: GenCoronaSpec, m: int = 2) -> BoundReport:
    """depth >= sum(f(H_i) + d(H_i)) + p - l + (m-1)c(D) for covered coronas.

    Requires every attachment to be connected.
    """
    if m < 2:
        raise InputError("m must be at least 2")
    if not class_membership(spec).in_g2:
        raise InputError("attachment set does not cover all non-free base vertices")
    _require_connected_attachments(spec, "thm3.2")
    f_plus_d = [f + d for f, d, _ in map(_f_d_c, spec.attachments)]
    p = spec.base.n
    ell = len(spec.attach_set)
    c = ncomponents(spec.base)
    value = sum(f_plus_d) + p - ell + (m - 1) * c
    return BoundReport(
        "thm3.2",
        value,
        "lower",
        {
            "attachment_f_plus_d": f_plus_d,
            "p": p,
            "l": ell,
            "c": c,
            "m": m,
        },
    )


def depth_equality_gprime(spec: GenCoronaSpec, m: int = 2, depth_of_h=None) -> BoundReport:
    """depth = |V(D)| + (m-1)c(D) when every attachment attains maximal depth.

    Certification goes through class_membership: pass depth_of_h (the
    attachments' own quotient depths at this m) so membership in the
    maximal-depth subclass can be checked, or rely on the connected
    complete-attachment shortcut encoded there.
    """
    if m < 2:
        raise InputError("m must be at least 2")
    membership = class_membership(spec, depth_of_h=depth_of_h, m=m)
    if not membership.in_g2:
        raise InputError("attachment set does not cover all non-free base vertices")
    if membership.in_gprime is not True:
        raise InputError("maximal-depth condition on the attachments is not certified")
    n = spec.total_vertices()
    c = ncomponents(spec.base)
    value = n + (m - 1) * c
    return BoundReport(
        "thm3.3",
        value,
        "equality",
        {"n": n, "c": c, "m": m},
    )


def depth_lower_bound_g2_binom(spec: GenCoronaSpec, depth_of_h) -> BoundReport:
    """depth >= sum depth(R_i/J_{H_i}) + p - l + c(D), the m = 2 statement.

    Requires every attachment to be connected.
    """
    if not class_membership(spec).in_g2:
        raise InputError("attachment set does not cover all non-free base vertices")
    _require_connected_attachments(spec, "thm3.5")
    depths = [int(x) for x in depth_of_h]
    if len(depths) != len(spec.attachments):
        raise InputError("depth_of_h must list one depth per attachment")
    p = spec.base.n
    ell = len(spec.attach_set)
    c = ncomponents(spec.base)
    value = sum(depths) + p - ell + c
    return BoundReport(
        "thm3.5",
        value,
        "lower",
        {"depth_of_h": depths, "p": p, "l": ell, "c": c},
    )


def reg_upper_bound_g1(spec: GenCoronaSpec, m: int = 2) -> BoundReport:
    """reg <= (m-1)(|S| + im(G)) for whiskered graphs, capped at n - 1.

    With m >= n the cap is the exact value n - 1; below that the bound is
    the minimum of the class bound and n - 1.
    """
    if m < 2:
        raise InputError("m must be at least 2")
    membership = class_membership(spec)
    if not membership.in_g1:
        raise InputError("spec is not a whisker construction covering all non-free vertices")
    im, _ = induced_matching_number(spec.base)
    n_total = spec.total_vertices()
    ell = len(spec.attach_set)
    class_bound = (m - 1) * (ell + im)
    if m >= n_total:
        value = n_total - 1
    else:
        value = min(class_bound, n_total - 1)
    return BoundReport(
        "thm4.2",
        value,
        "upper",
        {
            "s": ell,
            "im": im,
            "m": m,
            "n_total": n_total,
            "class_bound": class_bound,
        },
    )


def reg_gapfree_whisker(g: Graph) -> BoundReport:
    """reg(R/J_{W(G)}) = |V(G)| + 1 for gap-free G with at least one edge."""
    im, _ = induced_matching_number(g)
    if im != 1:
        raise InputError("graph is not gap-free")
    return BoundReport("thm4.6", g.n + 1, "equality", {"p": g.n, "im": im})


def dim_g2prime(spec: GenCoronaSpec, dim_of_h) -> BoundReport:
    """dim = p - |S| + 1 + sum dim(R_i/J_{H_i}) over a complete base (m = 2).

    On the lem5.1 sweep universe this fails on exactly one instance, the
    double star k2|S=1,2|H=2k1,2k1: S is the whole base and every attachment
    is disconnected.  The formula gives 9; the cutset dimension and the
    Stanley-Reisner dimension of the initial ideal both give 8.  The same
    pattern, disconnected attachments on every vertex of a whole complete
    base, puts the formula 1 above both dimensions on K2, K3 and K4 with 2K1
    on every vertex and on K2 and K3 with 3K1 on every vertex.  Once any
    attachment is connected the two agree (k2 with 2K1 and K1 gives 7 = 7;
    k3 with 2K1, 2K1 and K2 gives 12 = 12).  PAPER.md holds only the
    abstract, so it does not settle whether the lemma excludes that case
    (for example by asking for connected attachments, as thm3.2 and thm3.5
    do); the formula is evaluated as stated.
    """
    if not spec.base.is_complete():
        raise InputError("dimension formula needs a complete base")
    dims = [int(x) for x in dim_of_h]
    if len(dims) != len(spec.attachments):
        raise InputError("dim_of_h must list one dimension per attachment")
    p = spec.base.n
    ell = len(spec.attach_set)
    value = p - ell + 1 + sum(dims)
    return BoundReport(
        "lem5.1",
        value,
        "equality",
        {"p": p, "s": ell, "dim_of_h": dims},
    )
