"""Admissible-path Groebner bases and the Buchberger cross-check."""

import heapq
import itertools
import random

import pytest
from hypothesis import given, strategies as st

from corbel import groebner
from corbel.checks import CHECKS
from corbel.errors import CapError, InputError
from corbel.graphs import enumerate_connected_graphs, from_edge_list, graph_from_name, to_graph6
from corbel.groebner import (
    BUCHBERGER_CAP,
    EXP_BITS,
    GROEBNER_CAP,
    MonomialIdealSF,
    _Packing,
    _update,
    _walk,
    buchberger_oracle,
    initial_ideal,
    reduced_groebner_basis,
)

DIAMOND = from_edge_list(4, [(1, 2), (1, 3), (1, 4), (2, 3), (3, 4)])


def path_count(g):
    return sum(len(_walk(g.adj, g.n, i)) for i in g.vertices())


def path_masks(g, i, j):
    """Vertex masks of the admissible paths from i to j, as the walk finds them."""
    return sorted(used for end, used, _ in _walk(g.adj, g.n, i) if end == j)


def vertex_mask(vertices):
    return sum(1 << v for v in vertices)


def test_admissible_path_counts():
    assert path_count(graph_from_name("p3")) == 2
    assert path_count(graph_from_name("p4")) == 3
    assert path_count(graph_from_name("k3")) == 3
    assert path_count(graph_from_name("c4")) == 6
    assert path_count(DIAMOND) == 6


def test_interior_vertex_rule():
    # 1-2-3 in P3 has interior 2, neither below 1 nor above 3
    assert path_masks(graph_from_name("p3"), 1, 3) == []
    # 1-4-3 in C4 has interior 4 > 3
    assert path_masks(graph_from_name("c4"), 1, 3) == [vertex_mask((1, 4, 3))]


def test_complete_graphs_have_only_edge_paths():
    # every longer path in K_n has a chord, so it is not induced
    for n in range(2, 8):
        k = graph_from_name(f"k{n}")
        for i in range(1, n + 1):
            for j in range(i + 1, n + 1):
                assert path_masks(k, i, j) == [vertex_mask((i, j))]
    gens = initial_ideal(graph_from_name("k10")).generators
    assert len(gens) == 45
    assert all(len(s) == 2 for s in gens)


def test_initial_ideal_supports_c4():
    # edges give x_i y_j; the two length-2 paths carry one extra variable
    gens = sorted(sorted(s) for s in initial_ideal(graph_from_name("c4")).generators)
    assert gens == [[1, 4, 7], [1, 6], [1, 8], [2, 5, 8], [2, 7], [3, 8]]


def test_initial_ideal_supports_diamond():
    gens = sorted(sorted(s) for s in initial_ideal(DIAMOND).generators)
    assert gens == [[1, 6], [1, 7], [1, 8], [2, 5, 8], [2, 7], [3, 8]]


def test_path_graphs_have_edge_generators_only():
    for n in (2, 3, 4, 5):
        g = graph_from_name(f"p{n}")
        gens = initial_ideal(g).generators
        assert len(gens) == n - 1
        assert all(len(s) == 2 for s in gens)


def test_reduced_basis_is_monic_and_reduced():
    gb = reduced_groebner_basis(graph_from_name("c4"))
    assert len(gb) == 6
    leads = [lead for lead, _ in gb]
    # no lead divides another lead
    for a, b in itertools.permutations(leads, 2):
        assert a & ~b


@pytest.mark.parametrize(
    "g",
    [
        graph_from_name("p4"),
        graph_from_name("k3"),
        graph_from_name("c4"),
        graph_from_name("c5"),
        DIAMOND,
        from_edge_list(4, [(1, 2), (1, 3), (1, 4)]),
        from_edge_list(5, [(1, 2), (2, 3), (2, 4), (4, 5)]),
    ],
)
def test_buchberger_agrees(g):
    assert buchberger_oracle(g) == initial_ideal(g)


def _relabeled(g, rng):
    perm = list(g.vertices())
    rng.shuffle(perm)
    return from_edge_list(g.n, [(perm[u - 1], perm[v - 1]) for u, v in g.edges()])


_rng = random.Random(20261018)
# lex initial ideals depend on the labels, so canonical representatives alone
# would leave most labelings untested
RELABELED_GRAPHS = [(to_graph6(g), _relabeled(g, _rng)) for g in enumerate_connected_graphs(6)]


@pytest.mark.parametrize(
    "g", [g for _, g in RELABELED_GRAPHS], ids=[k for k, _ in RELABELED_GRAPHS]
)
def test_buchberger_agrees_on_relabeled_graphs(g):
    assert buchberger_oracle(g) == initial_ideal(g)


_, _WHISKER_PAYLOADS = CHECKS["thm3.3"].universe(5)


@pytest.mark.parametrize("payload", _WHISKER_PAYLOADS, ids=[p["id"] for p in _WHISKER_PAYLOADS])
def test_buchberger_agrees_on_whiskers(payload):
    # the whiskers of verify thm3.3 --max-base 5: up to 10 vertices, 20 variables
    g = payload["spec"].composite()
    assert buchberger_oracle(g) == initial_ideal(g)
    h = _relabeled(g, random.Random(payload["id"]))
    assert buchberger_oracle(h) == initial_ideal(h)


# every connected graph on exactly 7 vertices, one size past RELABELED_GRAPHS
SEVEN_VERTEX_GRAPHS = [
    (to_graph6(g), _relabeled(g, _rng)) for g in enumerate_connected_graphs(7) if g.n == 7
]


def test_buchberger_agrees_on_relabeled_seven_vertex_graphs():
    assert len(SEVEN_VERTEX_GRAPHS) == 853
    for name, g in SEVEN_VERTEX_GRAPHS:
        assert buchberger_oracle(g) == initial_ideal(g), name


def test_buchberger_agrees_on_dense_random_graphs():
    # past 7 vertices the whiskers above are all sparse; these reach 10
    # vertices at densities up to 0.7, with many more S-pairs per graph
    rng = random.Random(20261020)
    for k in range(100):
        n, density = rng.randint(8, 10), (0.3, 0.5, 0.7)[k % 3]
        edges = [e for e in itertools.combinations(range(1, n + 1), 2) if rng.random() < density]
        g = from_edge_list(n, edges)
        assert buchberger_oracle(g) == initial_ideal(g), (n, edges)


def test_whisker_universe_size():
    assert len(_WHISKER_PAYLOADS) == 31
    assert max(p["spec"].composite().n for p in _WHISKER_PAYLOADS) == 10


# --- packed monomials against their exponent-tuple definitions --------------

_LIMIT = 1 << EXP_BITS


def pack(pk, exps):
    """The packed monomial with these exponents, x_1's first."""
    return sum(e * u for e, u in zip(exps, pk.units[1:]))


def unpack(pk, m):
    return tuple(m // u % (1 << pk.width) for u in pk.units[1:])


@st.composite
def _exponents(draw, count=2, limit=_LIMIT):
    nv = draw(st.integers(1, 20))
    vecs = [draw(st.lists(st.integers(0, limit - 1), min_size=nv, max_size=nv)) for _ in range(count)]
    return (_Packing(nv), *[tuple(v) for v in vecs])


@given(_exponents())
def test_packed_order_is_lex_order(case):
    pk, a, b = case
    assert unpack(pk, pack(pk, a)) == a
    assert (pack(pk, a) < pack(pk, b)) == (a < b)
    assert (pack(pk, a) == pack(pk, b)) == (a == b)


@given(_exponents())
def test_packed_quotient(case):
    pk, a, b = case
    if all(x <= y for x, y in zip(a, b)):
        assert unpack(pk, pack(pk, b) - pack(pk, a)) == tuple(y - x for x, y in zip(a, b))


@given(_exponents(count=4, limit=4))
def test_packed_first_divisor(case):
    pk, m, *cands = case
    want = next((k for k, c in enumerate(cands) if all(x <= y for x, y in zip(c, m))), -1)
    assert pk.first_divisor(pack(pk, m), [pack(pk, c) for c in cands]) == want


@given(_exponents())
def test_packed_product_raises_at_the_guard_bit(case):
    pk, a, b = case
    total = tuple(x + y for x, y in zip(a, b))
    if max(total) < _LIMIT:
        assert unpack(pk, pk.mul(pack(pk, a), pack(pk, b))) == total
    else:
        with pytest.raises(OverflowError):
            pk.mul(pack(pk, a), pack(pk, b))


def test_buchberger_raises_when_an_exponent_reaches_the_guard(monkeypatch):
    # an S-polynomial of the star 2-1-3 carries y_1^2; one exponent bit cannot hold it
    star = from_edge_list(3, [(1, 2), (1, 3)])
    monkeypatch.setattr(groebner, "EXP_BITS", 1)
    with pytest.raises(OverflowError):
        buchberger_oracle(star)


def test_update_applies_the_gebauer_moeller_criteria():
    # variables a > b > c > d; each case worked by hand from the textbook
    # UPDATE, on leading terms that form an antichain, as they always do
    pk = _Packing(4)
    a, b, c, d = pk.units[1:]
    abc = a + b + c
    # B: h = ac divides the old lcm abc, but lcm(ab, ac) equals it, so the
    # old pair stays; F keeps one of the two new pairs with lcm abc
    pairs = _update([(3, abc, 0, 1)], [a + b, b + c, a + c], pk)
    assert sorted(pairs) == [(3, abc, 0, 1), (3, abc, 1, 2)]
    # B drops the old pair: h = b divides abc, and both lcms with b are smaller
    pairs = _update([(3, abc, 0, 1)], [a + b, b + c, b], pk)
    assert sorted(pairs) == [(2, b + c, 1, 2), (2, a + b, 0, 2)]
    # M: lcm(ab, bc) = abc properly divides lcm(ab, acd) = abcd
    pairs = _update([], [b + c, a + c + d, a + b], pk)
    assert pairs == [(3, abc, 0, 2)]
    # coprime leading terms make no pair
    assert _update([], [c + d, a + b], pk) == []


def test_criterion_b_keeps_a_pair_when_either_lcm_with_the_new_term_equals_its_own():
    # variables a > b > c > d and h = ad, which divides the old lcm abcd;
    # lcm(ab, ad) = abd differs from it and lcm(bcd, ad) equals it, so the
    # old pair stays with bcd on either side.  M drops the new pair with lcm
    # abcd, since abd properly divides it
    pk = _Packing(4)
    a, b, c, d = pk.units[1:]
    abcd = a + b + c + d
    pairs = _update([(4, abcd, 0, 1)], [a + b, b + c + d, a + d], pk)
    assert sorted(pairs) == [(3, a + b + d, 0, 2), (4, abcd, 0, 1)]
    pairs = _update([(4, abcd, 0, 1)], [b + c + d, a + b, a + d], pk)
    assert sorted(pairs) == [(3, a + b + d, 1, 2), (4, abcd, 0, 1)]


def _textbook_update(old_pairs, supports):
    """Becker and Weispfenning's UPDATE (*Groebner Bases*, 1993, section
    5.5) for the newest support, on leading terms as sets of variables, with
    C walked by increasing older index.  Returns the kept old pairs and the
    new pairs as (lcm, older index)."""
    h = supports[-1]
    c = list(range(len(supports) - 1))
    d = []
    while c:
        g1 = c.pop(0)
        lcm = h | supports[g1]
        if not h & supports[g1] or not any(h | supports[g2] <= lcm for g2 in c + d):
            d.append(g1)
    new = {(h | supports[g], g) for g in d if h & supports[g]}
    kept = set()
    for a, b in old_pairs:
        lcm = supports[a] | supports[b]
        if not h <= lcm or supports[a] | h == lcm or supports[b] | h == lcm:
            kept.add((a, b))
    return kept, new


@st.composite
def _antichain_and_pairs(draw):
    nv = draw(st.integers(1, 8))
    supports = []
    for mask in draw(st.lists(st.integers(1, (1 << nv) - 1), min_size=1, max_size=12)):
        s = frozenset(v for v in range(nv) if mask >> v & 1)
        if not any(s <= t or t <= s for t in supports):
            supports.append(s)
    older = list(itertools.combinations(range(len(supports) - 1), 2))
    old_pairs = draw(st.lists(st.sampled_from(older), unique=True)) if older else []
    return nv, supports, old_pairs


@given(_antichain_and_pairs())
def test_update_matches_the_textbook_update(case):
    nv, supports, old_pairs = case
    pk = _Packing(nv)

    def packed(s):
        return pack(pk, tuple(int(v in s) for v in range(nv)))

    heap = [(len(supports[a] | supports[b]), packed(supports[a] | supports[b]), a, b)
            for a, b in old_pairs]
    heapq.heapify(heap)
    heap = _update(heap, [packed(s) for s in supports], pk)
    assert all(heap[(k - 1) // 2] <= heap[k] for k in range(1, len(heap)))
    kept, new = _textbook_update(old_pairs, supports)
    newest = len(supports) - 1
    assert {(a, b) for _, _, a, b in heap if b < newest} == kept
    assert {(deg, lcm, a) for deg, lcm, a, b in heap if b == newest} == {
        (len(lcm), packed(lcm), g) for lcm, g in new
    }


def test_buchberger_remainder_count_on_relabeled_graphs(monkeypatch):
    # a change that keeps every output but reduces more S-pairs shows here
    calls = []
    remainder = groebner._remainder

    def counted(*args):
        calls.append(args)
        return remainder(*args)

    monkeypatch.setattr(groebner, "_remainder", counted)
    for _, g in RELABELED_GRAPHS:
        buchberger_oracle(g)
    assert len(calls) == 5361


def test_caps():
    for engine, cap in (
        (reduced_groebner_basis, GROEBNER_CAP),
        (initial_ideal, GROEBNER_CAP),
        (buchberger_oracle, BUCHBERGER_CAP),
    ):
        with pytest.raises(CapError) as exc:
            engine(graph_from_name(f"p{cap + 1}"))
        assert (exc.value.size, exc.value.cap) == (cap + 1, cap)


def _reversed(g):
    return from_edge_list(g.n, [(g.n + 1 - u, g.n + 1 - v) for u, v in g.edges()])


SMALL_GRAPHS = [(to_graph6(g), g) for g in enumerate_connected_graphs(6)] + RELABELED_GRAPHS


def test_reversed_labels_swap_x_and_y():
    # under k -> n+1-k an admissible i-j path becomes an admissible path
    # between the images of j and i, so the initial ideal is the original
    # one with variable v renamed 2n+1-v: x_k and y_(n+1-k) trade places
    for name, g in SMALL_GRAPHS:
        nv = 2 * g.n
        mirrored = MonomialIdealSF(
            nv,
            tuple(
                sum(1 << (nv + 1 - v) for v in range(1, nv + 1) if m >> v & 1)
                for m in initial_ideal(g).masks
            ),
        )
        assert initial_ideal(_reversed(g)) == mirrored, name


def _induced_paths_by_definition(g, i, j):
    """Every vertex sequence from i to j whose interior avoids [i, j] and in
    which two vertices are adjacent exactly when they are consecutive."""
    outside = [v for v in g.vertices() if v < i or v > j]
    found = []
    for k in range(len(outside) + 1):
        for interior in itertools.permutations(outside, k):
            seq = (i, *interior, j)
            if all(
                g.has_edge(seq[a], seq[b]) == (b == a + 1)
                for a, b in itertools.combinations(range(len(seq)), 2)
            ):
                found.append(seq)
    return found


def test_admissible_paths_match_the_definition():
    # an induced path is the only path on its vertex set, so its mask names it
    for name, g in SMALL_GRAPHS:
        for i, j in itertools.combinations(g.vertices(), 2):
            want = sorted(map(vertex_mask, _induced_paths_by_definition(g, i, j)))
            assert path_masks(g, i, j) == want, (name, i, j)


def test_initial_ideal_is_the_leading_terms_of_the_basis():
    # both read the one path walk; this keeps its two readers in step
    for name, g in SMALL_GRAPHS:
        leads = tuple(lead for lead, _ in reduced_groebner_basis(g))
        assert initial_ideal(g) == MonomialIdealSF(2 * g.n, leads), name


def test_reduced_basis_is_in_descending_lex_order():
    # exponent tuples, x_1's first, compare as Python tuples in lex order
    for name, g in SMALL_GRAPHS:
        nv = 2 * g.n
        basis = [
            tuple(tuple(m >> v & 1 for v in range(1, nv + 1)) for m in pair)
            for pair in reduced_groebner_basis(g)
        ]
        leads = [lead for lead, _ in basis]
        assert leads == sorted(leads, reverse=True), name
        assert all(tail < lead for lead, tail in basis), name


def test_one_generator_per_admissible_path():
    # distinct admissible paths give distinct leading terms, and those form
    # an antichain, so the initial ideal has nothing to deduplicate or prune
    for name, g in SMALL_GRAPHS:
        paths = path_count(g)
        assert paths == len(reduced_groebner_basis(g)) == len(initial_ideal(g).generators), name


def test_monomial_ideal_validates_minimality():
    with pytest.raises(InputError):
        MonomialIdealSF(4, (0b10, 0b110))


@pytest.mark.parametrize(
    "n_vars,generators",
    [
        (True, (0b10,)),
        (-1, ()),
        ("3", (0b10,)),
        (3, (True,)),
        (3, (frozenset({1, 2}),)),  # a support, not a mask
        (3, (0,)),  # an empty support
        (2, (0b1000,)),  # a variable past n_vars
        (2, (0b11,)),  # bit 0 names no variable
        (3, (-0b110,)),
    ],
)
def test_malformed_monomial_ideal_is_an_input_error(n_vars, generators):
    with pytest.raises(InputError):
        MonomialIdealSF(n_vars, generators)
