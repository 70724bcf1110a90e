"""Homological oracle: Mayer-Vietoris tree Betti numbers, depth, reg, dimension."""

import functools
import itertools
import operator
import random
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from corbel import betti
from corbel.checks import CHECKS, g2_universe
from corbel.cli import run_verification
from corbel.constructions import whisker
from corbel.errors import CapError
from corbel.graphs import (
    canonical_form,
    disjoint_union,
    enumerate_connected_graphs,
    from_edge_list,
    graph_from_name,
    to_graph6,
)
from corbel.groebner import MonomialIdealSF, initial_ideal
from corbel.betti import (
    BETTI_VAR_CAP,
    BettiTable,
    betti_table,
    lcm_lattice,
    oracle_depth_reg,
    sr_dimension,
)

DIAMOND = from_edge_list(4, [(1, 2), (1, 3), (1, 4), (2, 3), (3, 4)])


def test_triangle_table():
    tab = betti_table(initial_ideal(graph_from_name("k3")))
    assert dict(tab.entries) == {(0, 0): 1, (1, 2): 3, (2, 3): 2}
    assert tab.pd == 2
    assert tab.depth == 4
    assert tab.reg == 1


def test_two_generator_chain():
    # x1*y2 and x2*y3 intersect in a single variable pair
    ideal = MonomialIdealSF(6, (0b100010, 0b1000100))
    tab = betti_table(ideal)
    assert dict(tab.entries) == {(0, 0): 1, (1, 2): 2, (2, 4): 1}
    assert (tab.depth, tab.reg) == (4, 2)


def test_k4_linear_resolution():
    tab = betti_table(initial_ideal(graph_from_name("k4")))
    assert dict(tab.entries) == {(0, 0): 1, (1, 2): 6, (2, 3): 8, (3, 4): 3}
    assert (tab.depth, tab.reg) == (5, 1)


def test_diamond_table():
    tab = betti_table(initial_ideal(DIAMOND))
    assert dict(tab.entries) == {
        (0, 0): 1,
        (1, 2): 5,
        (1, 3): 1,
        (2, 3): 5,
        (2, 4): 4,
        (3, 4): 1,
        (3, 5): 4,
        (4, 6): 1,
    }
    assert (tab.depth, tab.reg) == (4, 2)


def _bits(mask):
    return [v for v in range(mask.bit_length()) if mask >> v & 1]


def test_lattice_members_triangle():
    lat = lcm_lattice(initial_ideal(graph_from_name("k3")))
    assert lat == sorted(lat)
    assert sorted(_bits(m) for m in lat) == [
        [1, 2, 5, 6],
        [1, 2, 6],
        [1, 5],
        [1, 5, 6],
        [1, 6],
        [2, 6],
    ]


def _brute_lattice(ideal):
    """Reference: the OR of every nonempty subset of the generator masks."""
    joins = set()
    for r in range(1, len(ideal.masks) + 1):
        for subset in itertools.combinations(ideal.masks, r):
            joins.add(functools.reduce(operator.or_, subset))
    return sorted(joins)


def test_lattice_is_the_or_of_every_generator_subset():
    rng = random.Random(20261019)
    ideals = [initial_ideal(g) for g in enumerate_connected_graphs(5)]
    for _ in range(100):
        ideal = _random_ideal(rng)
        ideals.append(MonomialIdealSF(ideal.n_vars, ideal.masks[:8]))
    for ideal in ideals:
        assert lcm_lattice(ideal) == _brute_lattice(ideal), ideal


def test_masks_decode_to_the_generators_in_order():
    for g in enumerate_connected_graphs(5):
        ideal = initial_ideal(g)
        assert list(ideal.masks) == sorted(ideal.masks)
        assert [sorted(s) for s in ideal.generators] == [_bits(m) for m in ideal.masks]


def test_reading_generators_keeps_equality_and_hash():
    # generators is cached on the instance, outside the dataclass fields
    read = initial_ideal(graph_from_name("c4"))
    assert read.generators is read.generators
    fresh = initial_ideal(graph_from_name("c4"))
    assert read == fresh and fresh == read
    assert hash(read) == hash(fresh)
    assert len({read, fresh}) == 1


def test_zero_ideal_depth_is_var_count():
    assert oracle_depth_reg(graph_from_name("2k1")) == (4, 0)
    assert oracle_depth_reg(graph_from_name("k1")) == (2, 0)


@pytest.mark.parametrize(
    "name,expected",
    [
        ("p3", (4, 2)),
        ("p4", (5, 3)),
        ("p5", (6, 4)),
        ("k3", (4, 1)),
        ("k4", (5, 1)),
        ("c4", (4, 2)),
        ("c5", (5, 3)),
    ],
)
def test_oracle_named_graphs(name, expected):
    assert oracle_depth_reg(graph_from_name(name)) == expected


def test_path_and_cycle_families():
    for n in range(2, 7):
        assert oracle_depth_reg(graph_from_name(f"p{n}")) == (n + 1, n - 1)
    for n in range(4, 7):
        assert oracle_depth_reg(graph_from_name(f"c{n}")) == (n, n - 2)


def test_disjoint_union_adds():
    g = disjoint_union(graph_from_name("k1"), graph_from_name("k2"))
    assert oracle_depth_reg(g) == (5, 1)
    h = disjoint_union(graph_from_name("k2"), graph_from_name("k2"))
    assert oracle_depth_reg(h) == (6, 2)


def test_sr_dimension():
    assert sr_dimension(initial_ideal(graph_from_name("p4"))) == 5
    assert sr_dimension(initial_ideal(graph_from_name("k5"))) == 6
    assert sr_dimension(MonomialIdealSF(4, ())) == 4
    assert sr_dimension(MonomialIdealSF(0, ())) == 0


def test_var_cap():
    with pytest.raises(CapError) as exc:
        betti_table(MonomialIdealSF(BETTI_VAR_CAP + 1, (0b110,)))
    assert (exc.value.size, exc.value.cap) == (BETTI_VAR_CAP + 1, BETTI_VAR_CAP)


def test_lattice_cap_is_read_at_call_time(monkeypatch):
    # the triangle's lattice has 6 elements; a real cap-sized lattice is too dear
    monkeypatch.setattr(betti, "LATTICE_CAP", 5)
    ideal = initial_ideal(graph_from_name("k3"))
    for engine in (lcm_lattice, betti_table):
        with pytest.raises(CapError) as exc:
            engine(ideal)
        assert (exc.value.size, exc.value.cap) == (6, 5)
    # a lattice of exactly the cap's size is allowed
    monkeypatch.setattr(betti, "LATTICE_CAP", 6)
    assert len(lcm_lattice(ideal)) == 6


@st.composite
def _squarefree_ideal(draw):
    """A squarefree monomial ideal in at most 8 variables, minimal generators only."""
    nv = draw(st.integers(0, 8))
    masks = set(draw(st.lists(st.integers(1, (1 << nv) - 1), max_size=8))) if nv else set()
    minimal = [m for m in masks if not any(k != m and k & m == k for k in masks)]
    return MonomialIdealSF(nv, tuple(m << 1 for m in minimal))


@given(_squarefree_ideal())
def test_sr_dimension_is_the_largest_face(ideal):
    # a face is a set of variables containing no generator
    faces = [f << 1 for f in range(1 << ideal.n_vars)]
    want = max(f.bit_count() for f in faces if all(g & ~f for g in ideal.masks))
    assert sr_dimension(ideal) == want


def test_tree_walk_caps_its_node_count(monkeypatch):
    # K4's initial ideal walks 9 nodes; under any lower cap the walk stops
    # at the node past it
    gen_masks = initial_ideal(graph_from_name("k4")).masks
    cap = 1
    while True:
        monkeypatch.setattr(betti, "LATTICE_CAP", cap)
        try:
            betti._mayer_vietoris_tree(gen_masks)
        except CapError as exc:
            assert (exc.size, exc.cap) == (cap + 1, cap)
            assert str(exc) == f"Mayer-Vietoris tree too large (size {cap + 1} > cap {cap})"
            cap += 1
        else:
            break
    assert cap == 9


def _lattice_betti_table(ideal):
    """Reference: Hochster's formula on every element of the lcm lattice."""
    entries = {(0, 0): 1}
    for smask in lcm_lattice(ideal):
        inside = [g for g in ideal.masks if not g & ~smask]
        j = smask.bit_count()
        for k, rank in enumerate(betti._e_vector(smask, inside)):
            if rank:
                assert j - k >= 1
                entries[(j - k, j)] = entries.get((j - k, j), 0) + rank
    pd = max(i for i, _ in entries)
    reg = max(j - i for i, j in entries)
    return BettiTable(ideal.n_vars, tuple(sorted(entries.items())), pd, ideal.n_vars - pd, reg)


def _relabel_ideal(ideal, perm):
    masks = [sum(1 << perm[v - 1] for v in _bits(m)) for m in ideal.masks]
    return MonomialIdealSF(ideal.n_vars, tuple(masks))


@settings(max_examples=25, deadline=None)
@given(st.permutations(range(1, 7)))
def test_table_is_label_invariant(perm):
    ideal = MonomialIdealSF(6, (0b100010, 0b1000100, 0b11000))
    shuffled = _relabel_ideal(ideal, list(perm))
    a = betti_table(ideal)
    b = betti_table(shuffled)
    assert dict(a.entries) == dict(b.entries)


@settings(max_examples=15, deadline=None)
@given(st.permutations(range(1, 6)))
def test_oracle_is_graph_label_invariant(perm):
    base = graph_from_name("c5")
    relabeled = from_edge_list(
        5, [(perm[u - 1], perm[v - 1]) for u, v in base.edges()]
    )
    assert oracle_depth_reg(relabeled) == oracle_depth_reg(base)


def _relabeled(g, rng):
    perm = list(g.vertices())
    rng.shuffle(perm)
    return from_edge_list(g.n, [(perm[u - 1], perm[v - 1]) for u, v in g.edges()])


def _class_pairs():
    """Connected graphs on at most 5 vertices and W(P3), each with a seeded relabeling."""
    rng = random.Random(20260218)
    named = [(to_graph6(g), g) for g in enumerate_connected_graphs(5)]
    named.append(("W(p3)", whisker(graph_from_name("p3")).composite()))
    return [(k, g, _relabeled(g, rng)) for k, g in named]


CLASS_PAIRS = _class_pairs()
ORACLE_GRAPHS = [x for k, g, h in CLASS_PAIRS for x in ((k, g), (f"{k}-shuffled", h))]


@pytest.mark.parametrize("g", [g for _, g in ORACLE_GRAPHS], ids=[k for k, _ in ORACLE_GRAPHS])
def test_oracle_matches_the_input_labels(g):
    # the oracle resolves a relabeled initial ideal; depth and regularity
    # must be those of the initial ideal on the labels as given
    t = betti_table(initial_ideal(g))
    assert oracle_depth_reg(g) == (t.depth, t.reg)


@pytest.mark.parametrize("g,h", [p[1:] for p in CLASS_PAIRS], ids=[p[0] for p in CLASS_PAIRS])
def test_class_cache_answers_as_a_fresh_call_under_each_labeling(monkeypatch, g, h):
    # the graph and its relabeling build one table between them
    built = []
    monkeypatch.setattr(betti, "betti_table", lambda ideal: built.append(ideal) or betti_table(ideal))
    cached = [oracle_depth_reg(g), oracle_depth_reg(h)]
    assert len(built) == 1
    fresh = []
    for x in (g, h):
        betti.reset()
        fresh.append(oracle_depth_reg(x))
    assert cached == fresh


def _graph_from_key(key):
    """The graph a canonical_form key encodes: bit (b-1)(b-2)/2 + (a-1) is edge ab."""
    n, mask = key
    pairs = itertools.combinations(range(1, n + 1), 2)
    return from_edge_list(n, [(a, b) for a, b in pairs if mask >> ((b - 1) * (b - 2) // 2 + a - 1) & 1])


def _isomorphism(g, h):
    """A vertex map g -> h carrying edges onto edges, by backtracking, or None."""
    if g.n != h.n or len(g.edges()) != len(h.edges()):
        return None
    order = sorted(g.vertices(), key=lambda v: -g.degree(v))
    image: dict[int, int] = {}

    def extend(k):
        if k == len(order):
            return True
        v = order[k]
        for w in h.vertices():
            if w in image.values() or h.degree(w) != g.degree(v):
                continue
            if all(g.has_edge(v, u) == h.has_edge(w, image[u]) for u in order[:k]):
                image[v] = w
                if extend(k + 1):
                    return True
                del image[v]
        return False

    return dict(image) if extend(0) else None


def _assert_key_encodes(g):
    h = _graph_from_key(canonical_form(g))
    image = _isomorphism(g, h)
    assert image is not None and sorted(image.values()) == list(h.vertices())
    assert {frozenset(map(image.get, e)) for e in g.edges()} == set(map(frozenset, h.edges()))


def test_every_oracle_key_of_the_default_sweeps_encodes_its_input(monkeypatch):
    # each key decodes to a graph isomorphic to the input, so equal keys mean
    # isomorphic graphs and a cache hit never answers for another class
    seen = {}
    real = betti.oracle_depth_reg

    def recording(g):
        seen.setdefault((g.n, frozenset(g.edges())), g)
        return real(g)

    monkeypatch.setattr(betti, "oracle_depth_reg", recording)
    for tag in CHECKS:
        run_verification(tag)
    assert len(seen) >= 200 and max(g.n for g in seen.values()) == 8
    for g in seen.values():
        _assert_key_encodes(g)


def test_every_oracle_key_one_size_up_encodes_its_input():
    # the oracle's largest inputs, 9 and 10 vertices, where no brute-force
    # reference reaches: the composites of `thm5.6 --max-total 10` and the
    # whiskers of `thm3.3 --max-base 5`, each also under a seeded relabeling
    rng = random.Random(5)
    graphs = [spec.composite() for _, spec in g2_universe(max_total=10)]
    graphs = [g for g in graphs if g.n >= 9]
    graphs += [whisker(g).composite() for g in enumerate_connected_graphs(5) if g.n == 5]
    assert len(graphs) == 75 + 21
    for g in graphs:
        _assert_key_encodes(g)
        _assert_key_encodes(_relabeled(g, rng))


def test_oracle_caps_before_any_initial_ideal(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("initial ideal built for a capped graph")

    monkeypatch.setattr(betti, "initial_ideal", forbidden)
    with pytest.raises(CapError) as exc:
        oracle_depth_reg(graph_from_name(f"p{BETTI_VAR_CAP // 2 + 1}"))
    assert (exc.value.size, exc.value.cap) == (BETTI_VAR_CAP + 2, BETTI_VAR_CAP)


def test_oracle_scores_the_given_labels_and_one_bfs_order_per_vertex(monkeypatch):
    # C5 is not closed under any labeling, so no candidate ends the search early
    built = []
    monkeypatch.setattr(betti, "initial_ideal", lambda g: built.append(g) or initial_ideal(g))
    betti._oracle_ideal(graph_from_name("c5"))
    assert len(built) == 5 + 1


def _k_polynomial_of_table(table):
    coeffs = [0] * (table.n_vars + 1)
    for (i, j), val in table.entries:
        coeffs[j] += (-1) ** i * val
    return coeffs


def _k_polynomial_of_faces(ideal):
    """Sum over faces F of the Stanley-Reisner complex of t^|F| (1-t)^(n-|F|)."""
    n = ideal.n_vars
    masks = [sum(1 << (v - 1) for v in s) for s in ideal.generators]
    f_vector = [0] * (n + 1)
    for face in range(1 << n):
        if not any(m & face == m for m in masks):
            f_vector[bin(face).count("1")] += 1
    coeffs = [0] * (n + 1)
    for k, count in enumerate(f_vector):
        for m in range(n - k + 1):
            coeffs[k + m] += count * (-1) ** m * comb(n - k, m)
    return coeffs


@pytest.mark.parametrize("g", [g for _, g in ORACLE_GRAPHS], ids=[k for k, _ in ORACLE_GRAPHS])
def test_k_polynomial_identity(g):
    # sum of (-1)^i b_ij t^j equals the face count expansion (Miller-Sturmfels
    # ch. 1 and 5); checked on the ideal the oracle resolves and on the
    # initial ideal under the labels as given
    for ideal in (betti._oracle_ideal(g), initial_ideal(g)):
        assert _k_polynomial_of_table(betti_table(ideal)) == _k_polynomial_of_faces(ideal)


def _reference_e_vector(s, gen_masks):
    """Reduced homology ranks from every face: no strip, no clusters, no cache."""
    faces = [f for f in range(1 << s) if not any(g & f == g for g in gen_masks)]
    levels = [[f for f in faces if bin(f).count("1") == k] for k in range(s + 1)]
    ranks = [0] * (s + 2)
    for k in range(1, s + 1):
        rows = {f: i for i, f in enumerate(levels[k - 1])}
        cols = []
        for f in levels[k]:
            bits = [v for v in range(s) if f >> v & 1]
            cols.append({rows[f ^ (1 << v)]: (-1) ** i for i, v in enumerate(bits)})
        ranks[k] = betti._matrix_rank(cols)
    return [len(levels[k]) - ranks[k] - ranks[k + 1] for k in range(s + 1)]


def _random_antichain(rng, s):
    masks = {
        sum(1 << v for v in rng.sample(range(s), rng.randint(1, min(s, 4))))
        for _ in range(rng.randint(2, 10))
    }
    return frozenset(m for m in masks if not any(o != m and o & m == o for o in masks))


HOMOLOGY_CASES = [
    (1, frozenset({0b1})),  # one non-vertex: only the empty face
    (3, frozenset({0b001, 0b010, 0b100})),  # the empty complex, degree-1 generators
    (4, frozenset({0b0011, 0b0110})),  # vertex 4 is a cone apex
    (4, frozenset({0b0001, 0b0110, 0b1100})),  # a degree-1 generator beside a path
    (5, frozenset({0b00111, 0b11000})),  # a circle joined with two points
    (6, frozenset({0b000111, 0b011000, 0b100100, 0b101000})),  # the strip splits it in two
] + [(s, frozenset({(1 << s) - 1})) for s in range(2, 7)]  # simplex boundaries
_rng = random.Random(20261018)
HOMOLOGY_CASES += [(s, _random_antichain(_rng, s)) for s in (_rng.randint(2, 8) for _ in range(60))]


def _random_covering_antichain(rng, s):
    """An antichain whose supports cover all s vertices, so no vertex is a cone apex."""
    while True:
        masks = set()
        while betti._union(masks) != (1 << s) - 1:
            masks.add(sum(1 << v for v in rng.sample(range(s), rng.randint(2, 3))))
        kept = frozenset(m for m in masks if not any(o != m and o & m == o for o in masks))
        if betti._union(kept) == (1 << s) - 1:
            return kept


# 9 to 12 vertices: chains of strips and splits, at most 4,096 faces for the reference
_rng = random.Random(20261019)
HOMOLOGY_CASES += [(s, _random_covering_antichain(_rng, s)) for s in (_rng.randint(9, 12) for _ in range(24))]


@pytest.mark.parametrize("s,gens", HOMOLOGY_CASES)
def test_cluster_e_vector_matches_every_face_homology(s, gens):
    e = list(betti._e_vector((1 << s) - 1, list(gens)))
    ref = _reference_e_vector(s, gens)
    width = max(len(e), len(ref))
    assert e + [0] * (width - len(e)) == ref + [0] * (width - len(ref))


@pytest.mark.parametrize("s", range(2, 7))
def test_simplex_boundary_survives_the_strip(s):
    # no link in the boundary of a simplex is a cone, so its sphere is kept
    assert betti._e_vector((1 << s) - 1, [(1 << s) - 1]) == (0,) * (s - 1) + (1,)


def test_a_restriction_on_other_vertex_bits_hits_the_same_cache_entry():
    # the independence complex of a 6-cycle, two circles at a point: no
    # vertex is a cone apex and no link is a cone
    cycle = [0b000011, 0b000110, 0b001100, 0b011000, 0b110000, 0b100001]
    e = betti._e_vector(0b111111, cycle)
    entries = len(betti._cluster_cache)
    # the same restriction on bits 1, 3, 4, 7, 9, 12, in the same order
    spread = [1 << 1, 1 << 3, 1 << 4, 1 << 7, 1 << 9, 1 << 12]

    def moved(mask):
        return sum(b for v, b in enumerate(spread) if mask >> v & 1)

    assert betti._e_vector(moved(0b111111), [moved(g) for g in cycle]) == e
    assert len(betti._cluster_cache) == entries


GRAPHS_6 = [(to_graph6(g), g) for g in enumerate_connected_graphs(6)]


@pytest.mark.parametrize("g", [g for _, g in GRAPHS_6], ids=[k for k, _ in GRAPHS_6])
def test_tree_table_equals_the_lattice_sum_on_small_graphs(g):
    # as given and under a relabeling seeded by the graph, through the
    # initial ideal and through the ideal the oracle resolves
    h = _relabeled(g, random.Random(to_graph6(g)))
    for ideal in {f(x) for x in (g, h) for f in (initial_ideal, betti._oracle_ideal)}:
        assert betti_table(ideal) == _lattice_betti_table(ideal)


THM56 = CHECKS["thm5.6"].universe(CHECKS["thm5.6"].default)[1]


@pytest.mark.parametrize("payload", THM56, ids=[p["id"] for p in THM56])
def test_tree_table_equals_the_lattice_sum_on_default_coronas(payload):
    ideal = betti._oracle_ideal(payload["spec"].composite())
    assert betti_table(ideal) == _lattice_betti_table(ideal)


def _random_ideal(rng):
    n = rng.randint(1, 11)
    masks = _random_antichain(rng, n)
    return MonomialIdealSF(n, tuple(m << 1 for m in masks))


def test_tree_table_equals_the_lattice_sum_on_random_ideals():
    rng = random.Random(20261018)
    for _ in range(200):
        ideal = _random_ideal(rng)
        assert betti_table(ideal) == _lattice_betti_table(ideal)
