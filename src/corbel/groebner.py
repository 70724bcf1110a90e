"""Lex Groebner bases of binomial edge ideals, two independent ways.

The ideal of a graph on 1..n has 2n variables, ordered
x_1 > ... > x_n > y_1 > ... > y_n; variable x_k is index k and y_k is index
n+k.

``reduced_groebner_basis`` builds the basis combinatorially from admissible
paths (Herzog, Hibi, Hreinsdottir, Kahle and Rauh, Adv. Appl. Math. 45,
2010).  Every monomial there is squarefree and is a variable mask, bit v
for variable v.  One walk per start vertex, over the graph's neighbour
masks, finds every admissible path from that vertex together with its
coefficient monomial as a mask; ``initial_ideal`` passes the leading terms
straight to ``MonomialIdealSF``, which stores generators as masks.

``buchberger_oracle`` recomputes the initial ideal from the edge generators
alone, with nothing from the path walk.  Those generators are differences
x_a y_b - x_b y_a of two monomials, and every S-polynomial and remainder of
such differences is again a difference of two monomials, or zero
(Eisenbud and Sturmfels, *Binomial ideals*, Duke Math. J. 84, 1996,
section 1).  So a basis element is a leading term and a tail, and no
coefficient is stored or divided.  It packs each monomial into one int, a
guarded bit field per variable with x_1 on top, so int comparison is lex
order and products, quotients and divisibility are a few integer
operations.  The reduction is the one place that needs real exponents,
since S-polynomials carry squares such as y_1^2.  Each leading term is
checked squarefree as it is appended, so the pair bookkeeping reads
leading terms and lcms as variable masks, with or, and and and-not:
Buchberger's product criterion goes first, then Gebauer and Moeller's
criteria M and F in one pass sorted by lcm degree, then their criterion B.
The two engines must agree.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from functools import cached_property

from .errors import CapError, InputError
from .graphs import Graph, bits

GROEBNER_CAP = 12
BUCHBERGER_CAP = 10


def _walk(adj: tuple[int, ...], n: int, i: int) -> list[tuple[int, int, int]]:
    """(j, used, u) for every admissible path from i, in no particular order.

    used is the path's vertex mask and u its coefficient monomial as a
    variable mask (bit v for variable v).  The walk adds a vertex w only
    when w's one neighbour on the path is the last vertex, so every path it
    holds is induced.  Each w then closes a path at j = w when
    i < w < bound, the smallest interior vertex above i so far, and also
    goes on as an interior vertex: as y_w when w < i, and as x_w when w > i,
    which lowers the bound.  A branch whose bound leaves no j above i stops.
    """
    found = []
    stack = [(i, 1 << i, n + 1, 0)]
    while stack:
        last, used, bound, u = stack.pop()
        last_bit = 1 << last
        rest = adj[last] & ~used
        while rest:
            bit = rest & -rest
            rest ^= bit
            w = bit.bit_length() - 1
            if adj[w] & used != last_bit:
                continue
            grown = used | bit
            if w < i:
                stack.append((w, grown, bound, u | 1 << (n + w)))
            elif w >= bound:
                stack.append((w, grown, bound, u | bit))
            else:
                found.append((w, grown, u))
                if w > i + 1:
                    stack.append((w, grown, w, u | bit))
    return found


@dataclass(frozen=True)
class MonomialIdealSF:
    """Squarefree monomial ideal given by its inclusion-minimal generators.

    Each generator is a variable mask, bit v for variable v with
    1 <= v <= n_vars; the constructor stores them in increasing order.
    """

    n_vars: int
    masks: tuple[int, ...]

    def __post_init__(self):
        # type(x) is int: a bool, such as JSON's true, is not a count, an index or a mask
        if not (type(self.n_vars) is int and self.n_vars >= 0):
            raise InputError(f"variable count must be a nonnegative integer, got {self.n_vars!r}")
        top = 2 << self.n_vars
        for m in self.masks:
            if not (type(m) is int and 0 < m < top and not m & 1):
                raise InputError(f"mask {m!r} is not a nonempty set of variables 1..{self.n_vars}")
        masks = sorted(set(self.masks))
        # a proper subset has the smaller mask, so it comes first
        if any(a & b == a for a, b in itertools.combinations(masks, 2)):
            raise InputError("generator supports are not inclusion-minimal")
        object.__setattr__(self, "masks", tuple(masks))

    @cached_property
    def generators(self) -> tuple[frozenset[int], ...]:
        """The generators as sets of variables, in mask order."""
        return tuple(
            frozenset(v for v in range(1, m.bit_length()) if m >> v & 1) for m in self.masks
        )


def _path_masks(g: Graph) -> list[tuple[int, int, int]]:
    """(i, j, u) for every admissible path of g, from one walk per start i."""
    if g.n > GROEBNER_CAP:
        raise CapError("groebner path enumeration capped", size=g.n, cap=GROEBNER_CAP)
    return [(i, j, u) for i in range(1, g.n) for j, _, u in _walk(g.adj, g.n, i)]


def reduced_groebner_basis(g: Graph) -> list[tuple[int, int]]:
    """Reduced lex basis: one element u * (x_i y_j - x_j y_i) per admissible path.

    Each element is a (leading term, tail) pair of variable masks.
    Distinct admissible paths give distinct leading terms, and these form
    an antichain, so the first variable where two differ is in the larger
    one alone: sorting by variable list puts the largest leading term first.
    """
    n = g.n
    out = [(u | 1 << i | 1 << (n + j), u | 1 << j | 1 << (n + i)) for i, j, u in _path_masks(g)]
    return sorted(out, key=lambda b: bits(b[0]))


def initial_ideal(g: Graph) -> MonomialIdealSF:
    """Minimal generators of the lex initial ideal: the supports of u * x_i y_j."""
    n = g.n
    return MonomialIdealSF(2 * n, tuple(u | 1 << i | 1 << (n + j) for i, j, u in _path_masks(g)))


# ---------------------------------------------------------------------------
# Buchberger oracle: packed monomials, Gebauer-Moeller pair pruning.
# A basis element k is the difference lts[k] - tails[k] of two packed
# monomials; no coefficient is stored, since every one is +1 or -1.

EXP_BITS = 7  # every exponent stays below 2**EXP_BITS, or the oracle raises


class _Packing:
    """Monomials in nv variables packed into one int, lex order kept.

    One field per variable, x_1 in the most significant field and y_n in
    the least, so comparing the ints compares the monomials in lex order.
    A field has EXP_BITS exponent bits and a guard bit above them.  With
    every guard bit clear, products and quotients are + and -, and
    divisibility takes a few word operations.
    """

    def __init__(self, nv: int):
        self.width = EXP_BITS + 1
        self.guard = sum(1 << (k * self.width + EXP_BITS) for k in range(nv))
        # units[v] is variable v alone, for 1 <= v <= nv
        self.units = (0, *(1 << ((nv - v) * self.width) for v in range(1, nv + 1)))
        self.ones = sum(self.units)

    def mul(self, a: int, b: int) -> int:
        c = a + b
        if c & self.guard:
            raise OverflowError(f"a packed exponent reached 2**{EXP_BITS}")
        return c

    def first_divisor(self, m: int, lts) -> int:
        """Position of the first monomial in lts dividing m, or -1."""
        g = self.guard
        mg = m | g
        for pos, lt in enumerate(lts):
            if (mg - lt) & g == g:
                return pos
        return -1


def _reduce_term(m: int, lts: list[int], tails: list[int], pk: _Packing) -> int:
    """m rewritten by the first lts[k] dividing it, m / lts[k] * tails[k], until none does."""
    while True:
        k = pk.first_divisor(m, lts)
        if k < 0:
            return m
        m = pk.mul(m - lts[k], tails[k])


def _remainder(
    a: int, b: int, lts: list[int], tails: list[int], pk: _Packing
) -> tuple[int, int] | None:
    """Full reduction of a - b by the differences lts[k] - tails[k].

    Each step rewrites the larger term by the first leading term dividing
    it; the difference is zero, and None is returned, once the two terms
    meet.  When the larger term is irreducible it is the leading term, and
    the smaller is reduced on its own.  Returns (leading term, tail).
    """
    while a != b:
        if a < b:
            a, b = b, a
        k = pk.first_divisor(a, lts)
        if k < 0:
            return a, _reduce_term(b, lts, tails, pk)
        a = pk.mul(a - lts[k], tails[k])
    return None


def _update(pairs: list, lts: list[int], pk: _Packing) -> list:
    """Gebauer-Moeller UPDATE for the newest basis element, lts[-1].

    Returns the pair heap.  The new leading term is checked squarefree
    here, once as it is appended, so every leading term and pair lcm has
    fields of 0 or 1 and works as a variable mask: lcm is |, a shared
    variable is &, a divides b when a & ~b is 0, and the degree is the bit
    count.  Pairs (new, g) for older g whose leading terms share no
    variable make no pair (Buchberger's product criterion).  The leading
    terms form an antichain, so such an lcm neither divides nor is divided
    by any other, and criteria M and F lose nothing by its absence.  M
    (another new pair's lcm properly divides this one's) and F (of equal
    lcms, the pair with the highest g stays) are then one pass in order of
    lcm degree, lcm and descending g: a pair stays when no kept lcm divides
    its own.  An old pair falls to criterion B when the new leading term
    divides its lcm and neither of its elements' lcms with the new term
    equals it.  The new pairs are pushed onto the heap in place, unless B
    dropped a pair, when the heap is rebuilt.
    """
    new = len(lts) - 1
    h = lts[new]
    if h & ~pk.ones:
        raise RuntimeError("internal consistency error: non-squarefree leading term")
    cands = []
    for g in range(new):
        if h & lts[g]:
            lcm = h | lts[g]
            cands.append((lcm.bit_count(), lcm, -g))
    cands.sort()
    kept: list = []
    for deg, lcm, g in cands:
        for pair in kept:
            if not pair[1] & ~lcm:
                break
        else:
            kept.append((deg, lcm, -g, new))
    survivors = [
        pair for pair in pairs
        if h & ~pair[1] or lts[pair[2]] | h == pair[1] or lts[pair[3]] | h == pair[1]
    ]
    if len(survivors) < len(pairs):
        survivors += kept
        heapq.heapify(survivors)
        return survivors
    for pair in kept:
        heapq.heappush(pairs, pair)
    return pairs


def buchberger_oracle(g: Graph) -> MonomialIdealSF:
    """Initial ideal recomputed from scratch with Buchberger's algorithm.

    Takes only the edge binomials x_a y_b - x_b y_a.  Every S-polynomial and
    remainder of differences of two monomials is again such a difference or
    zero (Eisenbud and Sturmfels, Duke Math. J. 84, 1996, section 1), so
    each basis element is a leading term and a tail, and the S-polynomial
    of elements a and b is (lcm / lt_b) tail_b - (lcm / lt_a) tail_a.
    Monomials are packed ints (see ``_Packing``): products and quotients
    are + and -, and an exponent reaching its guard bit raises
    OverflowError.  Pairs wait in a heap by (lcm degree, lcm), the normal
    selection strategy, and are pruned by Gebauer and Moeller's criteria M,
    F and B and the product criterion (J. Symb. Comput. 6, 1988).  Each
    leading term is checked squarefree as it is appended, so the pair
    bookkeeping is or, and and and-not on variable masks: the product
    criterion comes first, and M and F are one pass sorted by lcm degree
    (see ``_update``).  The generators are homogeneous and pairs leave by
    lcm degree, so a new leading term, reduced against every older one and
    of no lower degree, divides none: the basis is one list
    (``MonomialIdealSF`` refuses a redundant element).  Its tails are
    interreduced.  A non-squarefree leading term, or a reduced tail not
    below its leading term, is reported as an internal consistency error.
    """
    if g.n > BUCHBERGER_CAP:
        raise CapError("buchberger oracle capped", size=g.n, cap=BUCHBERGER_CAP)
    n = g.n
    nv = 2 * n
    pk = _Packing(nv)
    lts: list[int] = []
    tails: list[int] = []
    pairs: list = []
    units = pk.units
    for a, b in g.edges():
        lts.append(units[a] | units[n + b])
        tails.append(units[b] | units[n + a])
        pairs = _update(pairs, lts, pk)
    while pairs:
        _, lcm, ia, ib = heapq.heappop(pairs)
        s_a = pk.mul(lcm - lts[ia], tails[ia])
        s_b = pk.mul(lcm - lts[ib], tails[ib])
        r = _remainder(s_a, s_b, lts, tails, pk)
        if r:
            lts.append(r[0])
            tails.append(r[1])
            pairs = _update(pairs, lts, pk)

    # interreduce the tails: each stays below its own leading term, so that never divides it
    masks = []
    for lt, tail in zip(lts, tails):
        if _reduce_term(tail, lts, tails, pk) >= lt:
            raise RuntimeError(
                "internal consistency error: reduced tail not below its leading term"
            )
        masks.append(sum(1 << v for v in range(1, nv + 1) if lt & units[v]))
    return MonomialIdealSF(nv, tuple(masks))
