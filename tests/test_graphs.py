"""Graph container, graph6 codec, isomorphism, and enumeration."""

import hashlib
import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from corbel.constructions import whisker
from corbel.errors import CapError, InputError, ParseError
from corbel.graphs import (
    CONNECTED_GRAPH_COUNTS,
    ENUMERATION_CAP,
    bits,
    canonical_form,
    connected_components,
    disjoint_union,
    enumerate_connected_graphs,
    from_edge_list,
    from_graph6,
    from_json_dict,
    g_v_operation,
    graph_from_name,
    induced_subgraph,
    is_connected,
    is_free_vertex,
    ncomponents,
    non_free_vertices,
    parse_graph_name,
    to_graph6,
    to_json_dict,
)
from corbel.invariants import invariant_report, vertex_connectivity


def test_named_graphs():
    p4 = graph_from_name("p4")
    assert p4.n == 4
    assert sorted(tuple(sorted(e)) for e in p4.edges()) == [(1, 2), (2, 3), (3, 4)]
    k3 = graph_from_name("k3")
    assert k3.num_edges() == 3
    c5 = graph_from_name("c5")
    assert c5.num_edges() == 5
    assert graph_from_name("3k1").num_edges() == 0
    assert graph_from_name("3k1").n == 3


@pytest.mark.parametrize("bad", ["q7", "k0", "c2", "", "p", "0k1", "00k1"])
def test_named_graph_rejects(bad):
    with pytest.raises(InputError):
        graph_from_name(bad)
    with pytest.raises(InputError):
        parse_graph_name(bad)


def test_parsed_name_gives_the_order_with_no_graph_built():
    for name, kind in (("p4", "p"), ("k3", "k"), ("c5", "c"), ("3k1", ""), (" K2 ", "k")):
        assert parse_graph_name(name) == (kind, graph_from_name(name).n)
    # far too large to build, and read all the same
    assert parse_graph_name("1000000000k1") == ("", 10**9)
    assert parse_graph_name("k30000") == ("k", 30000)


@pytest.mark.parametrize(
    "name,code",
    [("p3", "Bg"), ("p4", "Ch"), ("k3", "Bw"), ("k4", "C~"), ("k5", "D~{")],
)
def test_graph6_known_codes(name, code):
    g = graph_from_name(name)
    assert to_graph6(g) == code
    back = from_graph6(code)
    assert back.n == g.n
    assert set(back.edges()) == set(g.edges())


def test_graph6_rejects_malformed():
    with pytest.raises(ParseError):
        from_graph6("")
    # valid 3-vertex header followed by junk
    with pytest.raises(ParseError) as exc:
        from_graph6("Bg!")
    assert exc.value.offset is not None
    with pytest.raises(ParseError):
        from_graph6("\x7f\x7f")


@given(
    st.integers(min_value=1, max_value=8).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.sets(
                st.tuples(
                    st.integers(1, n), st.integers(1, n)
                ).filter(lambda e: e[0] != e[1]),
                max_size=12,
            ),
        )
    )
)
def test_graph6_round_trip(data):
    n, edges = data
    g = from_edge_list(n, edges)
    back = from_graph6(to_graph6(g))
    assert back.n == g.n
    assert set(back.edges()) == set(g.edges())


@pytest.mark.parametrize("n,head", [(63, "~??~"), (64, "~?@?"), (100, "~?@c")])
def test_graph6_round_trip_past_62_vertices(n, head):
    # past 62 vertices the size field is "~" and three 6-bit groups
    rng = random.Random(n)
    pairs = itertools.combinations(range(1, n + 1), 2)
    g = from_edge_list(n, [e for e in pairs if rng.random() < 0.5])
    code = to_graph6(g)
    assert code[:4] == head
    assert len(code) == 4 + (n * (n - 1) // 2 + 5) // 6
    assert from_graph6(code) == g
    assert from_graph6(code + "\n") == g


def test_json_round_trip():
    g = graph_from_name("c4")
    assert from_json_dict(to_json_dict(g)) == g


def test_components_and_connectivity():
    g = disjoint_union(graph_from_name("p3"), graph_from_name("k2"))
    assert g.n == 5
    assert connected_components(g) == [0b1110, 0b110000]
    assert ncomponents(g) == 2
    assert not is_connected(g)
    assert is_connected(graph_from_name("c5"))


def test_free_vertices():
    p3 = graph_from_name("p3")
    assert is_free_vertex(p3, 1)
    assert not is_free_vertex(p3, 2)
    # completing the middle vertex of P3 yields a triangle
    g = g_v_operation(p3, 2)
    assert set(g.edges()) == set(graph_from_name("k3").edges())
    assert is_free_vertex(g, 2)


def test_induced_subgraph_relabels():
    p4 = graph_from_name("p4")
    sub = induced_subgraph(p4, 0b11100)
    assert sub.n == 3
    assert sub.edges() == [(1, 2), (2, 3)]
    assert induced_subgraph(graph_from_name("c4"), 0b11010).edges() == [(1, 3), (2, 3)]
    assert induced_subgraph(p4, 0) == from_edge_list(0, [])
    # bit 0, a bit above n, a negative mask and a non-int are not vertex masks
    for bad in (0b1, 0b100000, -2, True, {2, 3}):
        with pytest.raises(InputError):
            induced_subgraph(p4, bad)


def brute_force_canonical_form(g):
    """Reference key: every relabeling that lists vertices by descending degree."""
    n = g.n
    if n == 0:
        return (0, 0)
    by_degree = {}
    for v in g.vertices():
        by_degree.setdefault(g.degree(v), []).append(v)
    classes = [tuple(by_degree[d]) for d in sorted(by_degree, reverse=True)]
    edges = g.edges()
    best = None
    for parts in itertools.product(*(itertools.permutations(c) for c in classes)):
        label = {}
        nxt = 1
        for part in parts:
            for v in part:
                label[v] = nxt
                nxt += 1
        mask = 0
        for u, v in edges:
            a, b = sorted((label[u], label[v]))
            mask |= 1 << ((b - 1) * (b - 2) // 2 + (a - 1))
        if best is None or mask < best:
            best = mask
    return (n, best)


def relabeled(g, rng):
    perm = list(g.vertices())
    rng.shuffle(perm)
    label = dict(zip(g.vertices(), perm))
    return from_edge_list(g.n, [(label[u], label[v]) for u, v in g.edges()])


def test_canonical_form_is_label_invariant():
    a = from_edge_list(4, [(1, 2), (2, 3), (3, 4)])
    b = from_edge_list(4, [(4, 2), (2, 1), (1, 3)])
    assert canonical_form(a) == canonical_form(b)
    assert canonical_form(a) != canonical_form(graph_from_name("c4"))


def test_canonical_form_matches_reference_on_enumerator_candidates():
    # the enumerator extends each representative by a new top vertex with
    # every nonempty neighbourhood; these are all the graphs it keys
    reps = list(enumerate_connected_graphs(5))
    candidates = [from_edge_list(1, [])]
    for base in reps:
        n = base.n + 1
        for mask in range(1, 1 << base.n):
            extra = [(v, n) for v in base.vertices() if mask >> (v - 1) & 1]
            candidates.append(from_edge_list(n, base.edges() + extra))
    assert len(candidates) == 1 + 1 + 3 + 2 * 7 + 6 * 15 + 21 * 31
    for g in candidates:
        assert canonical_form(g) == brute_force_canonical_form(g)


@settings(deadline=None)
@given(
    st.integers(min_value=0, max_value=7).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.sets(st.sampled_from(list(itertools.combinations(range(1, n + 1), 2))))
            if n >= 2 else st.just(set()),
            st.permutations(range(1, n + 1)),
        )
    )
)
def test_canonical_form_matches_reference_under_relabeling(data):
    n, edges, perm = data
    g = from_edge_list(n, edges)
    h = from_edge_list(n, [(perm[u - 1], perm[v - 1]) for u, v in edges])
    key = canonical_form(g)
    assert key == brute_force_canonical_form(g)
    assert canonical_form(h) == key


def _petersen():
    outer = [(i, i % 5 + 1) for i in range(1, 6)]
    spokes = [(i, i + 5) for i in range(1, 6)]
    inner = [(6 + i, 6 + (i + 2) % 5) for i in range(5)]
    return from_edge_list(10, outer + spokes + inner)


@pytest.mark.parametrize(
    "name,g",
    [
        ("c9", graph_from_name("c9")),
        ("k8", graph_from_name("k8")),
        ("petersen", _petersen()),
        ("W(C6)", whisker(graph_from_name("c6")).composite()),
    ],
)
def test_canonical_form_on_graphs_the_permutation_walk_could_not_reach(name, g):
    rng = random.Random(name)
    a, b = relabeled(g, rng), relabeled(g, rng)
    assert canonical_form(a) == canonical_form(b) == canonical_form(g)


def test_is_isomorphic_rejects_other_graphs_with_nine_edges():
    c9 = graph_from_name("c9")
    p9_chord = from_edge_list(9, graph_from_name("p9").edges() + [(2, 7)])
    assert c9.num_edges() == p9_chord.num_edges()
    assert canonical_form(c9) != canonical_form(p9_chord)
    # same degree sequence, so only the canonical form can tell them apart
    c4_c5 = disjoint_union(graph_from_name("c4"), graph_from_name("c5"))
    assert canonical_form(c9) != canonical_form(c4_c5)


def test_connected_enumeration_counts():
    # 1, 1, 2, 6, 21 isomorphism classes of connected graphs on 1..5 vertices
    got = {}
    for g in enumerate_connected_graphs(5):
        got[g.n] = got.get(g.n, 0) + 1
    assert got == {1: 1, 2: 1, 3: 2, 4: 6, 5: 21}
    seen = [canonical_form(g) for g in enumerate_connected_graphs(4)]
    assert len(seen) == len(set(seen))


def test_enumeration_stream_is_pinned():
    # recorded from the degree-class permutation walk, before the search
    # replaced it: same graphs, same labels, same order
    stream = list(enumerate_connected_graphs(7))
    counts = [sum(1 for g in stream if g.n == n) for n in range(1, 8)]
    assert tuple(counts) == CONNECTED_GRAPH_COUNTS
    assert [g.n for g in stream] == sorted(g.n for g in stream)
    digest = hashlib.sha256("\n".join(to_graph6(g) for g in stream).encode()).hexdigest()
    assert digest == "09e09348d9c039224b1257e6e043f0c36ea3c615554a2c219fa487a2d68375fc"


def test_enumeration_size_is_checked_at_the_call():
    with pytest.raises(CapError) as exc:
        enumerate_connected_graphs(ENUMERATION_CAP + 1)
    assert (exc.value.size, exc.value.cap) == (ENUMERATION_CAP + 1, ENUMERATION_CAP)
    for bad in (0, -2, "5", 3.0):
        with pytest.raises(InputError):
            enumerate_connected_graphs(bad)


def test_components_within_match_the_induced_subgraph():
    for g in enumerate_connected_graphs(6):
        for k in (1, 2):
            for dropped in itertools.combinations(g.vertices(), k):
                keep = sorted(set(g.vertices()) - set(dropped))
                sub = induced_subgraph(g, sum(1 << v for v in keep))
                # new label i is keep[i - 1], the i-th kept vertex in label order
                assert sub.edges() == [
                    (i, j)
                    for i, j in itertools.combinations(range(1, len(keep) + 1), 2)
                    if g.has_edge(keep[i - 1], keep[j - 1])
                ]
                want = [sum(1 << keep[v - 1] for v in bits(c)) for c in connected_components(sub)]
                assert connected_components(g, sum(1 << v for v in keep)) == want


def _reference_components(nbrs, within):
    """Vertex sets of the components induced on ``within``, by lowest member."""
    parts, seen = [], set()
    for start in sorted(within):
        if start in seen:
            continue
        comp, stack = {start}, [start]
        while stack:
            for w in nbrs[stack.pop()] & (within - comp):
                comp.add(w)
                stack.append(w)
        seen |= comp
        parts.append(comp)
    return parts


def _reference_eccentricity(nbrs, src):
    dist, frontier = {src: 0}, [src]
    while frontier:
        nxt = []
        for u in frontier:
            for w in nbrs[u] - dist.keys():
                dist[w] = dist[u] + 1
                nxt.append(w)
        frontier = nxt
    return max(dist.values())


@settings(deadline=None, max_examples=150)
@given(
    st.integers(min_value=0, max_value=8).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.sets(st.sampled_from(list(itertools.combinations(range(1, n + 1), 2))))
            if n >= 2 else st.just(set()),
        )
    )
)
def test_graph_layer_matches_set_references(data):
    # every reference below is built from g.edges() alone, on Python sets
    n, edges = data
    g = from_edge_list(n, edges)
    assert g.edges() == sorted(edges)
    nbrs = {v: set() for v in g.vertices()}
    for u, v in g.edges():
        nbrs[u].add(v)
        nbrs[v].add(u)
    allv = set(g.vertices())

    assert len(g.adj) == n + 1 and g.adj[0] == 0
    for u in g.vertices():
        assert g.adj[u] == sum(1 << w for w in nbrs[u])
        assert not g.adj[u] & 1 and g.degree(u) == len(nbrs[u])
        for w in g.vertices():
            assert (g.adj[u] >> w & 1) == (g.adj[w] >> u & 1) == g.has_edge(u, w)

    comps = _reference_components(nbrs, allv)
    assert [set(bits(c)) for c in connected_components(g)] == comps
    report = invariant_report(g)
    assert report.c == len(comps)
    assert report.isolated == sum(1 for v in allv if not nbrs[v])
    assert report.diam_sum == sum(max(_reference_eccentricity(nbrs, s) for s in c) for c in comps)

    free = {v for v in allv if all(b in nbrs[a] for a, b in itertools.combinations(nbrs[v], 2))}
    assert non_free_vertices(g) == sum(1 << v for v in allv - free)
    assert (report.f, report.iv) == (len(free), n - len(free))
    for v in g.vertices():
        assert is_free_vertex(g, v) == (v in free)
        completed = sorted(set(edges) | set(itertools.combinations(sorted(nbrs[v]), 2)))
        assert g_v_operation(g, v).edges() == completed
        assert g_v_operation(g, v) == from_edge_list(n, completed)

    if len(comps) == 1:
        if g.is_complete():
            want = (n - 1, True)
        else:
            want = next(
                (k, False)
                for k in range(1, n)
                for cut in itertools.combinations(sorted(allv), k)
                if len(_reference_components(nbrs, allv - set(cut))) > 1
            )
        assert vertex_connectivity(g) == want
        assert report.kappa == want[0]
