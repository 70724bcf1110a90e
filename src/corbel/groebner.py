"""Lex Groebner bases of binomial edge ideals, two independent ways.

The ideal of a graph on 1..n lives in 2n variables ordered
x_1 > ... > x_n > y_1 > ... > y_n; variable x_k is index k and y_k is index
n+k.  Monomials are exponent tuples of length 2n, so Python's tuple
comparison is exactly the lex order.

``reduced_groebner_basis`` builds the basis combinatorially from admissible
paths; ``buchberger_oracle`` recomputes the initial ideal from the edge
generators alone with exact rational arithmetic.  The two must agree.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from fractions import Fraction

from .errors import CapError, InputError
from .graphs import Graph

GROEBNER_CAP = 12
BUCHBERGER_CAP = 7


@dataclass(frozen=True)
class AdmissiblePath:
    """An induced path i = v_0, ..., v_r = j with i < j.

    Interior vertices lie outside [i, j]; interiors above j contribute x
    factors and interiors below i contribute y factors to the coefficient
    monomial.
    """

    vertices: tuple[int, ...]

    @property
    def i(self) -> int:
        return self.vertices[0]

    @property
    def j(self) -> int:
        return self.vertices[-1]

    def u_support(self, n: int) -> frozenset[int]:
        """Variable indices of the coefficient monomial u."""
        interior = self.vertices[1:-1]
        xs = {k for k in interior if k > self.j}
        ys = {n + l for l in interior if l < self.i}
        return frozenset(xs | ys)


def admissible_paths(g: Graph, i: int, j: int) -> list[AdmissiblePath]:
    """All admissible paths from i to j, shortest first.

    A path is admissible when its interior avoids [i, j] and no proper
    subsequence of it is a path, that is, when it is an induced path.  The
    walk prunes a branch as soon as the new vertex has a chord to an earlier
    path vertex, since no extension of that branch is induced.
    """
    g._check_vertex(i)
    g._check_vertex(j)
    if i >= j:
        raise InputError(f"need i < j, got ({i}, {j})")
    found = []
    path = [i]
    used = {i}

    def extend():
        last = path[-1]
        for w in sorted(g.adj[last]):
            # w's only neighbour on the path so far must be the last vertex
            if w in used or len(g.adj[w] & used) > 1:
                continue
            if w == j:
                found.append(tuple(path) + (w,))
            elif w < i or w > j:
                used.add(w)
                path.append(w)
                extend()
                path.pop()
                used.discard(w)

    extend()
    return [AdmissiblePath(p) for p in sorted(found, key=lambda t: (len(t), t))]


@dataclass(frozen=True)
class Binomial:
    """plus - minus with both coefficients one; plus is the lex leading term."""

    plus: tuple[int, ...]
    minus: tuple[int, ...]

    def __post_init__(self):
        if self.plus == self.minus:
            raise InputError("degenerate binomial")


@dataclass(frozen=True)
class MonomialIdealSF:
    """Squarefree monomial ideal given by inclusion-minimal generator supports."""

    n_vars: int
    generators: tuple[frozenset[int], ...]

    def __post_init__(self):
        gens = sorted(set(self.generators), key=lambda s: sorted(s))
        for s in gens:
            if not s:
                raise InputError("empty generator support")
            if not all(isinstance(v, int) and 1 <= v <= self.n_vars for v in s):
                raise InputError(f"support {sorted(s)} leaves the variable range")
        for a, b in itertools.combinations(gens, 2):
            if a <= b or b <= a:
                raise InputError("generator supports are not inclusion-minimal")
        object.__setattr__(self, "generators", tuple(gens))

    @staticmethod
    def from_supports(n_vars: int, supports, minimalize: bool = False) -> "MonomialIdealSF":
        sets = [frozenset(s) for s in supports]
        if minimalize:
            sets = [s for s in sets if not any(o < s for o in sets)]
            sets = list(set(sets))
        return MonomialIdealSF(n_vars, tuple(sets))

    def to_json_dict(self) -> dict:
        return {
            "n_vars": self.n_vars,
            "generators": [sorted(s) for s in self.generators],
        }


def ideal_from_json_dict(obj) -> MonomialIdealSF:
    if not isinstance(obj, dict) or "n_vars" not in obj or "generators" not in obj:
        raise InputError("ideal JSON must be an object with 'n_vars' and 'generators' keys")
    return MonomialIdealSF(obj["n_vars"], tuple(frozenset(s) for s in obj["generators"]))


def _support_to_exp(nv: int, support) -> tuple[int, ...]:
    exp = [0] * nv
    for k in support:
        exp[k - 1] = 1
    return tuple(exp)


def reduced_groebner_basis(g: Graph, cap: int = GROEBNER_CAP) -> list[Binomial]:
    """Reduced lex basis: one element u * (x_i y_j - x_j y_i) per admissible path.

    Two paths with the same support yield the same element; duplicates are
    removed.  Sorted by leading term, largest first.
    """
    if g.n > cap:
        raise CapError("groebner path enumeration capped", size=g.n, cap=cap)
    n = g.n
    nv = 2 * n
    out = {}
    for i, j in itertools.combinations(range(1, n + 1), 2):
        for path in admissible_paths(g, i, j):
            u = path.u_support(n)
            plus = _support_to_exp(nv, u | {i, n + j})
            minus = _support_to_exp(nv, u | {j, n + i})
            out[plus] = Binomial(plus, minus)
    return [out[k] for k in sorted(out, reverse=True)]


def initial_ideal(g: Graph, cap: int = GROEBNER_CAP) -> MonomialIdealSF:
    """Minimal generators of the lex initial ideal of the edge binomial ideal."""
    basis = reduced_groebner_basis(g, cap=cap)
    supports = [frozenset(k + 1 for k, e in enumerate(b.plus) if e) for b in basis]
    return MonomialIdealSF.from_supports(2 * g.n, supports, minimalize=True)


# ---------------------------------------------------------------------------
# Buchberger oracle: exact rationals, normal pair selection, full reduction.
# Polynomials are dicts mapping exponent tuples to nonzero Fractions.

def _divides(a: tuple[int, ...], b: tuple[int, ...]) -> bool:
    return all(x <= y for x, y in zip(a, b))


def _mono_mul(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(x + y for x, y in zip(a, b))


def _mono_div(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(x - y for x, y in zip(a, b))


def _mono_lcm(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(max(x, y) for x, y in zip(a, b))


def _normal_form(p: dict, basis: list[dict], lts: list[tuple[int, ...]]) -> dict:
    result = {}
    work = dict(p)
    while work:
        mono = max(work)
        coef = work.pop(mono)
        hit = -1
        for idx, lt in enumerate(lts):
            if _divides(lt, mono):
                hit = idx
                break
        if hit < 0:
            result[mono] = coef
            continue
        shift = _mono_div(mono, lts[hit])
        for m2, c2 in basis[hit].items():
            if m2 == lts[hit]:
                continue
            m3 = _mono_mul(m2, shift)
            nc = work.get(m3, Fraction(0)) - coef * c2
            if nc:
                work[m3] = nc
            else:
                work.pop(m3, None)
    return result


def _make_monic(p: dict) -> dict:
    lc = p[max(p)]
    if lc == 1:
        return p
    return {m: c / lc for m, c in p.items()}


def buchberger_oracle(g: Graph, cap: int = BUCHBERGER_CAP) -> MonomialIdealSF:
    """Initial ideal recomputed from scratch with Buchberger's algorithm.

    Runs over exact rationals with normal (smallest lcm degree) pair
    selection and full reduction, then minimalizes.  Non-unit coefficients in
    the fully reduced basis are reported as an internal consistency error.
    """
    if g.n > cap:
        raise CapError("buchberger oracle capped", size=g.n, cap=cap)
    n = g.n
    nv = 2 * n
    basis: list[dict] = []
    lts: list[tuple[int, ...]] = []
    for a, b in g.edges():
        plus = _support_to_exp(nv, {a, n + b})
        minus = _support_to_exp(nv, {b, n + a})
        basis.append({plus: Fraction(1), minus: Fraction(-1)})
        lts.append(plus)

    heap: list = []
    for ia, ib in itertools.combinations(range(len(basis)), 2):
        lcm = _mono_lcm(lts[ia], lts[ib])
        heapq.heappush(heap, (sum(lcm), lcm, ia, ib))

    while heap:
        _, lcm, ia, ib = heapq.heappop(heap)
        # product criterion: coprime leading terms reduce to zero
        if lcm == _mono_mul(lts[ia], lts[ib]):
            continue
        f, h = basis[ia], basis[ib]
        s: dict = {}
        for m, c in f.items():
            m2 = _mono_mul(m, _mono_div(lcm, lts[ia]))
            s[m2] = s.get(m2, Fraction(0)) + c
        for m, c in h.items():
            m2 = _mono_mul(m, _mono_div(lcm, lts[ib]))
            nc = s.get(m2, Fraction(0)) - c
            if nc:
                s[m2] = nc
            else:
                s.pop(m2, None)
        r = _normal_form(s, basis, lts)
        if not r:
            continue
        r = _make_monic(r)
        lt = max(r)
        for ia2 in range(len(basis)):
            lcm2 = _mono_lcm(lts[ia2], lt)
            heapq.heappush(heap, (sum(lcm2), lcm2, ia2, len(basis)))
        basis.append(r)
        lts.append(lt)

    # minimalize: drop elements whose leading term another leading term divides
    keep = []
    for i, lt in enumerate(lts):
        dominated = False
        for k, lt2 in enumerate(lts):
            if k == i:
                continue
            if _divides(lt2, lt) and (lt2 != lt or k < i):
                dominated = True
                break
        if not dominated:
            keep.append(i)

    reduced: list[dict] = []
    kept_basis = [basis[i] for i in keep]
    kept_lts = [lts[i] for i in keep]
    for pos in range(len(kept_basis)):
        others = kept_basis[:pos] + kept_basis[pos + 1:]
        other_lts = kept_lts[:pos] + kept_lts[pos + 1:]
        b = kept_basis[pos]
        lt = kept_lts[pos]
        tail = {m: c for m, c in b.items() if m != lt}
        tail = _normal_form(tail, others, other_lts)
        final = {lt: Fraction(1)}
        final.update(tail)
        for c in final.values():
            if c != 1 and c != -1:
                raise RuntimeError(
                    "internal consistency error: non-unit coefficient in reduced basis"
                )
        reduced.append(final)

    supports = []
    for lt in kept_lts:
        if any(e > 1 for e in lt):
            raise RuntimeError("internal consistency error: non-squarefree leading term")
        supports.append(frozenset(k + 1 for k, e in enumerate(lt) if e))
    return MonomialIdealSF.from_supports(nv, supports, minimalize=True)
