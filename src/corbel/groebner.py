"""Lex Groebner bases of binomial edge ideals, two independent ways.

The ideal of a graph on 1..n lives in 2n variables ordered
x_1 > ... > x_n > y_1 > ... > y_n; variable x_k is index k and y_k is index
n+k.

``reduced_groebner_basis`` builds the basis combinatorially from admissible
paths, with monomials as exponent tuples of length 2n, so Python's tuple
comparison is exactly the lex order.  ``buchberger_oracle`` recomputes the
initial ideal from the edge generators alone, with exact arithmetic over Q
and nothing from the path walk.  It packs each monomial into one int,
a guarded bit field per variable with x_1 on top, so int comparison is lex
order and products, quotients, divisibility, lcm and degree are a few
integer operations; it drops useless critical pairs with Gebauer and
Moeller's criteria M, F and B.  The two must agree.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .errors import CapError, InputError
from .graphs import Graph

GROEBNER_CAP = 12
BUCHBERGER_CAP = 10


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
        # type(x) is int: a bool, such as JSON's true, is not a count or an index
        if not (type(self.n_vars) is int and self.n_vars >= 0):
            raise InputError(f"variable count must be a nonnegative integer, got {self.n_vars!r}")
        for s in self.generators:
            ok = type(s) is frozenset and all(type(v) is int and 1 <= v <= self.n_vars for v in s)
            if not (s and ok):
                raise InputError(f"support {s!r} is not a nonempty frozenset of 1..{self.n_vars}")
        gens = sorted(set(self.generators), key=sorted)
        for a, b in itertools.combinations(gens, 2):
            if a <= b or b <= a:
                raise InputError("generator supports are not inclusion-minimal")
        object.__setattr__(self, "generators", tuple(gens))

    @cached_property
    def masks(self) -> tuple[int, ...]:
        """Generator supports as bitmasks, bit v for variable v, in generator order."""
        return tuple(sum(1 << v for v in s) for s in self.generators)

    def to_json_dict(self) -> dict:
        return {
            "n_vars": self.n_vars,
            "generators": [sorted(s) for s in self.generators],
        }


def ideal_from_json_dict(obj) -> MonomialIdealSF:
    if not isinstance(obj, dict) or "n_vars" not in obj or "generators" not in obj:
        raise InputError("ideal JSON must be an object with 'n_vars' and 'generators' keys")
    gens = obj["generators"]
    ok = isinstance(gens, list) and all(isinstance(s, list) for s in gens)
    if not (ok and all(type(v) is int for s in gens for v in s)):
        raise InputError("ideal JSON 'generators' must be a list of lists of integers")
    return MonomialIdealSF(obj["n_vars"], tuple(frozenset(s) for s in gens))


def _support_to_exp(nv: int, support) -> tuple[int, ...]:
    exp = [0] * nv
    for k in support:
        exp[k - 1] = 1
    return tuple(exp)


def reduced_groebner_basis(g: Graph) -> list[Binomial]:
    """Reduced lex basis: one element u * (x_i y_j - x_j y_i) per admissible path.

    Distinct admissible paths give distinct leading terms.  Sorted by
    leading term, largest first.
    """
    if g.n > GROEBNER_CAP:
        raise CapError("groebner path enumeration capped", size=g.n, cap=GROEBNER_CAP)
    n = g.n
    nv = 2 * n
    out = []
    for i, j in itertools.combinations(range(1, n + 1), 2):
        for path in admissible_paths(g, i, j):
            u = path.u_support(n)
            plus = _support_to_exp(nv, u | {i, n + j})
            minus = _support_to_exp(nv, u | {j, n + i})
            out.append(Binomial(plus, minus))
    return sorted(out, key=lambda b: b.plus, reverse=True)


def initial_ideal(g: Graph) -> MonomialIdealSF:
    """Minimal generators of the lex initial ideal: the basis's leading terms."""
    basis = reduced_groebner_basis(g)
    supports = (frozenset(k + 1 for k, e in enumerate(b.plus) if e) for b in basis)
    return MonomialIdealSF(2 * g.n, tuple(supports))


# ---------------------------------------------------------------------------
# Buchberger oracle: packed monomials, Gebauer-Moeller pair pruning.
# Polynomials are dicts mapping packed monomials to nonzero coefficients,
# plain ints until a division by a non-unit leading coefficient makes them
# Fractions.

EXP_BITS = 7  # every exponent stays below 2**EXP_BITS, or the oracle raises


class _Packing:
    """Monomials in nv variables packed into one int, lex order kept.

    One field per variable, x_1 in the most significant field and y_n in
    the least, so comparing the ints compares the monomials in lex order.
    A field has EXP_BITS exponent bits, a guard bit above them, and enough
    zero bits above the guard that a whole degree fits in one field.  With
    every guard bit clear, products and quotients are + and -, and
    divisibility, lcm and degree take a few word operations.
    """

    def __init__(self, nv: int):
        self.nv = nv
        self.width = EXP_BITS + 1 + nv.bit_length()
        self.guard = sum(1 << (k * self.width + EXP_BITS) for k in range(nv))
        self._ones = sum(1 << (k * self.width) for k in range(nv))
        self._top = (nv - 1) * self.width
        self._field = (1 << self.width) - 1

    def pack(self, exps) -> int:
        if not all(0 <= e < 1 << EXP_BITS for e in exps):
            raise OverflowError(f"exponents {tuple(exps)} leave 0..2**{EXP_BITS}-1")
        m = 0
        for e in exps:
            m = (m << self.width) | e
        return m

    def unpack(self, m: int) -> tuple[int, ...]:
        w, f = self.width, self._field
        return tuple((m >> (k * w)) & f for k in range(self.nv - 1, -1, -1))

    def mul(self, a: int, b: int) -> int:
        c = a + b
        if c & self.guard:
            raise OverflowError(f"a packed exponent reached 2**{EXP_BITS}")
        return c

    def divides(self, a: int, b: int) -> bool:
        """a | b: no field of b - a borrows from its guard bit."""
        g = self.guard
        return ((b | g) - a) & g == g

    def first_divisor(self, m: int, lts) -> int:
        """Position of the first monomial in lts dividing m, or -1."""
        g = self.guard
        mg = m | g
        for pos, lt in enumerate(lts):
            if (mg - lt) & g == g:
                return pos
        return -1

    def lcm(self, a: int, b: int) -> int:
        """Field-wise max: the guard bits of (a | G) - b mark fields where a >= b."""
        d = ((a | self.guard) - b) & self.guard
        mask = d - (d >> EXP_BITS)
        return (a & mask) | (b & ~mask)

    def degree(self, m: int) -> int:
        """Sum of the fields, gathered into the top field by one multiply."""
        return ((m * self._ones) >> self._top) & self._field


def _normal_form(p: dict, basis: list[dict], lts: list[int], pk: _Packing) -> dict:
    """Full reduction of p by basis, whose elements have leading terms lts."""
    result = {}
    work = dict(p)
    while work:
        mono = max(work)
        coef = work.pop(mono)
        hit = pk.first_divisor(mono, lts)
        if hit < 0:
            result[mono] = coef
            continue
        lt = lts[hit]
        shift = mono - lt
        for m2, c2 in basis[hit].items():
            if m2 == lt:
                continue
            m3 = pk.mul(m2, shift)
            nc = work.get(m3, 0) - coef * c2
            if nc:
                work[m3] = nc
            else:
                work.pop(m3, None)
    return result


def _make_monic(p: dict, lt: int) -> dict:
    lc = p[lt]
    if lc == 1:
        return p
    if lc == -1:
        return {m: -c for m, c in p.items()}
    return {m: Fraction(c) / lc for m, c in p.items()}


def _s_polynomial(f: dict, lt_f: int, h: dict, lt_h: int, lcm: int, pk: _Packing) -> dict:
    """lcm/lt_f * f - lcm/lt_h * h for monic f and h; the lcm terms cancel."""
    s: dict = {}
    shift = lcm - lt_f
    for m, c in f.items():
        if m != lt_f:
            s[pk.mul(m, shift)] = c
    shift = lcm - lt_h
    for m, c in h.items():
        if m != lt_h:
            m2 = pk.mul(m, shift)
            nc = s.get(m2, 0) - c
            if nc:
                s[m2] = nc
            else:
                s.pop(m2, None)
    return s


def _update(pairs: list, live: list[int], lts: list[int], pk: _Packing) -> tuple[list, list[int]]:
    """Gebauer-Moeller UPDATE for the newest basis element, lts[-1].

    Returns the new pair heap and the new live (non-redundant) elements.
    Pairs (new, g) for live g are pruned by criterion M (another new pair's
    lcm properly divides this one's) and F (of equal lcms one pair stays);
    pairs with coprime leading terms take part in that pruning, then drop
    out (Buchberger's product criterion).  An old pair falls to criterion B
    when the new leading term divides its lcm and neither of its elements'
    lcms with the new term equals it.  Live elements whose leading term the
    new one divides become redundant.
    """
    new = len(lts) - 1
    lt_h = lts[new]
    cand = [(pk.lcm(lt_h, lts[g]), g) for g in live]
    lcms = [l1 for l1, _ in cand]
    kept: list = []
    kept_lcms: list[int] = []
    for pos, (l1, g) in enumerate(cand):
        coprime = l1 == lt_h + lts[g]
        if coprime or (
            pk.first_divisor(l1, kept_lcms) < 0 and pk.first_divisor(l1, lcms[pos + 1:]) < 0
        ):
            kept.append((l1, g))
            kept_lcms.append(l1)
    survivors = [
        pair
        for pair in pairs
        if not pk.divides(lt_h, pair[1])
        or pk.lcm(lts[pair[2]], lt_h) == pair[1]
        or pk.lcm(lts[pair[3]], lt_h) == pair[1]
    ]
    for l1, g in kept:
        if l1 != lt_h + lts[g]:
            survivors.append((pk.degree(l1), l1, g, new))
    heapq.heapify(survivors)
    return survivors, [g for g in live if not pk.divides(lt_h, lts[g])] + [new]


def buchberger_oracle(g: Graph) -> MonomialIdealSF:
    """Initial ideal recomputed from scratch with Buchberger's algorithm.

    Takes only the edge binomials x_a y_b - x_b y_a.  Monomials are packed
    ints (see ``_Packing``): products and quotients are + and -, and an
    exponent reaching its guard bit raises OverflowError.  Pairs wait in a
    heap by (lcm degree, lcm), the normal selection strategy, and are pruned
    by Gebauer and Moeller's criteria M, F and B and the product criterion
    (J. Symb. Comput. 6, 1988).  S-polynomials are fully reduced against the
    non-redundant elements only.  Coefficients are ints, and Fractions once
    a leading coefficient is not +-1, so the arithmetic is exact over Q.
    The final basis is interreduced; a non-unit coefficient or a
    non-squarefree leading term in it is reported as an internal
    consistency error.
    """
    if g.n > BUCHBERGER_CAP:
        raise CapError("buchberger oracle capped", size=g.n, cap=BUCHBERGER_CAP)
    n = g.n
    nv = 2 * n
    pk = _Packing(nv)
    basis: list[dict] = []
    lts: list[int] = []
    live: list[int] = []
    pairs: list = []
    for a, b in g.edges():
        plus = pk.pack(_support_to_exp(nv, {a, n + b}))
        minus = pk.pack(_support_to_exp(nv, {b, n + a}))
        basis.append({plus: 1, minus: -1})
        lts.append(plus)
        pairs, live = _update(pairs, live, lts, pk)
    while pairs:
        _, lcm, ia, ib = heapq.heappop(pairs)
        s = _s_polynomial(basis[ia], lts[ia], basis[ib], lts[ib], lcm, pk)
        r = _normal_form(s, [basis[i] for i in live], [lts[i] for i in live], pk)
        if r:
            lt = max(r)
            basis.append(_make_monic(r, lt))
            lts.append(lt)
            pairs, live = _update(pairs, live, lts, pk)

    # the live leading terms form an antichain: interreduce the tails
    supports = []
    for pos, i in enumerate(live):
        others = live[:pos] + live[pos + 1:]
        lt = lts[i]
        tail = {m: c for m, c in basis[i].items() if m != lt}
        tail = _normal_form(tail, [basis[k] for k in others], [lts[k] for k in others], pk)
        for c in tail.values():
            if c != 1 and c != -1:
                raise RuntimeError(
                    "internal consistency error: non-unit coefficient in reduced basis"
                )
        exps = pk.unpack(lt)
        if any(e > 1 for e in exps):
            raise RuntimeError("internal consistency error: non-squarefree leading term")
        supports.append(frozenset(k + 1 for k, e in enumerate(exps) if e))
    return MonomialIdealSF(nv, tuple(supports))
