"""Cutsets, minimal primes, dimension, and the Cohen-Macaulay classifier."""

import itertools

import pytest

from corbel.checks import g2_universe
from corbel.errors import CapError, InputError
from corbel.graphs import (
    bits,
    connected_components,
    enumerate_connected_graphs,
    from_edge_list,
    graph_from_name,
    induced_subgraph,
    to_graph6,
)
from corbel.groebner import initial_ideal
from corbel.betti import oracle_depth_reg, sr_dimension
from corbel.constructions import GenCoronaSpec, whisker
from corbel.decomposition import (
    CUTSET_CAP,
    classify_cm,
    decompose_at_vertex,
    dimension,
    enumerate_cutsets,
    is_unmixed,
    minimal_primes,
)


def cutset_sets(g):
    return sorted(bits(c.vertices) for c in enumerate_cutsets(g))


def test_cutsets_small_graphs():
    assert cutset_sets(graph_from_name("p3")) == [[], [2]]
    assert cutset_sets(graph_from_name("p4")) == [[], [2], [3]]
    assert cutset_sets(graph_from_name("k3")) == [[]]
    assert cutset_sets(graph_from_name("c4")) == [[], [1, 3], [2, 4]]


def test_cutset_parts():
    cs = {c.vertices: c for c in enumerate_cutsets(graph_from_name("p4"))}
    assert cs[1 << 2].parts == (0b10, 0b11000)
    assert cs[1 << 2].to_json_dict() == {"T": [2], "components": [[1], [3, 4]]}


@pytest.fixture(scope="module")
def comparison_graphs():
    """Every connected graph on at most 6 vertices and every default corona."""
    corona = [spec.composite() for _, spec in g2_universe()]
    return list(enumerate_connected_graphs(6)) + corona


def reference_cutsets(g):
    """(T, parts) as vertex masks for each T whose members v are cut vertices of G - (T - v)."""
    allv = set(g.vertices())
    out = []
    for size in range(g.n + 1):
        for t in itertools.combinations(g.vertices(), size):
            kept = True
            for v in t:
                # v is a cut vertex of G - (T - v): deleting it adds components
                keep = sum(1 << u for u in allv - (set(t) - {v}))
                with_v = len(connected_components(g, keep))
                kept = kept and len(connected_components(g, keep ^ 1 << v)) > with_v
            if kept:
                old = sorted(allv - set(t))
                rest = induced_subgraph(g, sum(1 << u for u in old))
                parts = [sum(1 << old[u - 1] for u in bits(p)) for p in connected_components(rest)]
                out.append((sum(1 << v for v in t), tuple(parts)))
    return out


def test_cutsets_match_the_cut_vertex_definition(comparison_graphs):
    assert len(comparison_graphs) == 143 + 161
    for g in comparison_graphs:
        got = [(c.vertices, c.parts) for c in enumerate_cutsets(g)]
        assert got == reference_cutsets(g), to_graph6(g)


def test_unmixed_at_two_is_the_component_count_criterion(comparison_graphs):
    # at m = 2 every prime has the empty cutset's dimension n + 1 exactly
    # when c(T) = |T| + 1
    mixed = 0
    for g in comparison_graphs:
        bad = [t for t, parts in reference_cutsets(g) if len(parts) != t.bit_count() + 1]
        ok, witness = is_unmixed(g, 2)
        assert ok == (not bad), to_graph6(g)
        if bad:
            mixed += 1
            assert witness.vertices == bad[0], to_graph6(g)
        else:
            assert witness is None
    assert 0 < mixed < len(comparison_graphs)


def test_minimal_primes_p4():
    primes = minimal_primes(graph_from_name("p4"))
    assert [(bits(p.cutset.vertices), p.dim) for p in primes] == [
        ([], 5),
        ([2], 5),
        ([3], 5),
    ]


def test_unmixedness():
    ok, _ = is_unmixed(graph_from_name("p4"))
    assert ok
    ok, witness = is_unmixed(graph_from_name("c4"))
    assert not ok
    assert bits(witness.vertices) in ([1, 3], [2, 4])


def test_dimension_values():
    assert dimension(graph_from_name("p4")).value == 5
    # complete graphs: n + m - 1
    assert dimension(graph_from_name("k3"), m=3).value == 5
    assert dimension(graph_from_name("k5"), m=4).value == 8
    comp = whisker(graph_from_name("p3")).composite()
    res = dimension(comp)
    assert res.value == 8
    assert bits(res.witness.vertices) == [2]
    ok, _ = is_unmixed(comp)
    assert not ok


@pytest.mark.parametrize("name", ["p4", "k3", "c4"])
def test_dimension_matches_stanley_reisner(name):
    g = graph_from_name(name)
    assert dimension(g).value == sr_dimension(initial_ideal(g))


@pytest.mark.parametrize("attachment, dim, min_prime_dim", [("2k1", 8, 7), ("p3", 9, 8)])
def test_counterexample_composites_match_stanley_reisner(attachment, dim, min_prime_dim):
    # K2 carrying the same attachment on both vertices: the double star is the
    # lem5.1 counterexample (formula 9), the P3 pair the thm3.2/thm3.5 one
    # (bound 9, depth 8, capped by its smallest minimal prime)
    h = graph_from_name(attachment)
    g = GenCoronaSpec(graph_from_name("k2"), (1, 2), (h, h)).composite()
    assert dimension(g).value == sr_dimension(initial_ideal(g)) == dim
    assert min(p.dim for p in minimal_primes(g)) == min_prime_dim


def test_dimension_matches_depth_iff_cm():
    # P4 is Cohen-Macaulay, C4 is not
    p4 = graph_from_name("p4")
    assert oracle_depth_reg(p4)[0] == dimension(p4).value
    c4 = graph_from_name("c4")
    assert oracle_depth_reg(c4)[0] == 4
    assert dimension(c4).value == 5


def test_cutset_cap():
    g = graph_from_name(f"p{CUTSET_CAP + 1}")
    for engine in (enumerate_cutsets, minimal_primes, dimension, is_unmixed):
        with pytest.raises(CapError) as exc:
            engine(g)
        assert (exc.value.size, exc.value.cap) == (CUTSET_CAP + 1, CUTSET_CAP)


def test_decompose_at_vertex():
    t = decompose_at_vertex(graph_from_name("p3"), 2)
    assert sorted(tuple(sorted(e)) for e in t.completed.edges()) == [
        (1, 2),
        (1, 3),
        (2, 3),
    ]
    assert t.deleted.n == 2
    assert t.completed_deleted.n == 2
    assert t.completed_deleted.num_edges() == 1


def test_classify_cm_whisker_of_path_is_not_cm():
    spec = whisker(graph_from_name("p3"))
    comp = spec.composite()
    verdict = classify_cm(spec, cm_of_h=(True, True, True))
    assert not verdict.is_cm
    assert "not complete" in verdict.reason
    # oracle agrees: depth 7, dimension 8
    assert oracle_depth_reg(comp)[0] == 7
    assert dimension(comp).value == 8


def test_classify_cm_whisker_of_k2_is_cm():
    spec = whisker(graph_from_name("k2"))
    comp = spec.composite()
    verdict = classify_cm(spec, cm_of_h=(True, True))
    assert verdict.is_cm
    assert oracle_depth_reg(comp)[0] == dimension(comp).value == 5


def test_classify_cm_uncovered_base_vertex():
    spec = GenCoronaSpec(graph_from_name("k3"), (1,), (graph_from_name("p3"),))
    verdict = classify_cm(spec, cm_of_h=(True,))
    assert verdict.is_cm
    assert "uncovered" in verdict.reason


def test_classify_cm_fully_covered_needs_complete_attachment():
    spec = GenCoronaSpec(
        graph_from_name("k2"), (1, 2),
        (graph_from_name("p3"), graph_from_name("p3")),
    )
    assert not classify_cm(spec, cm_of_h=(True, True)).is_cm
    spec2 = GenCoronaSpec(
        graph_from_name("k2"), (1, 2),
        (graph_from_name("p3"), graph_from_name("k2")),
    )
    assert classify_cm(spec2, cm_of_h=(True, True)).is_cm


def test_classify_cm_cone_routing():
    k1 = graph_from_name("k1")
    two = classify_cm(GenCoronaSpec(k1, (1,), (graph_from_name("2k1"),)), cm_of_h=(True,))
    assert two.is_cm
    three = classify_cm(GenCoronaSpec(k1, (1,), (graph_from_name("3k1"),)), cm_of_h=(True,))
    assert not three.is_cm
    with pytest.raises(InputError):
        classify_cm(GenCoronaSpec(k1, (1,), (graph_from_name("p3"),)), cm_of_h=(True,))


def test_classify_cm_rejects():
    spec = whisker(graph_from_name("k2"))
    with pytest.raises(InputError):
        classify_cm(spec, cm_of_h=(True,))  # wrong arity
    with pytest.raises(InputError):
        classify_cm(spec, m=1, cm_of_h=(True, True))
    disconnected = GenCoronaSpec(graph_from_name("2k1"), (), ())
    with pytest.raises(InputError):
        classify_cm(disconnected, cm_of_h=())


def test_m_greater_than_two_only_complete():
    spec = GenCoronaSpec(graph_from_name("k2"), (1,), (graph_from_name("k1"),))
    verdict = classify_cm(spec, m=3, cm_of_h=(True,))
    assert not verdict.is_cm
    k3_as_corona = GenCoronaSpec(graph_from_name("k3"), (), ())
    assert classify_cm(k3_as_corona, m=3, cm_of_h=()).is_cm
