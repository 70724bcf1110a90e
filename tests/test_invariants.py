"""Combinatorial invariants feeding the bound formulas."""

import dataclasses
import itertools

import pytest
from hypothesis import given, strategies as st

from corbel.errors import CapError
from corbel.graphs import (
    disjoint_union,
    enumerate_connected_graphs,
    from_edge_list,
    graph_from_name,
    non_free_vertices,
    to_graph6,
)
from corbel.groebner import MonomialIdealSF, initial_ideal
from corbel.constructions import whisker_matching_labeling
from corbel.invariants import (
    CONNECTIVITY_CAP,
    MATCHING_CAP,
    hypergraph_induced_matching_bound,
    induced_matching_number,
    invariant_report,
    vertex_connectivity,
)


def test_p4_report():
    rep = invariant_report(graph_from_name("p4"))
    assert dataclasses.asdict(rep) == {
        "n": 4,
        "c": 1,
        "isolated": 0,
        "diam_sum": 3,
        "d": 3,
        "f": 2,
        "iv": 2,
        "im": 1,
        "gap_free": True,
        "kappa": 1,
        "kappa_complete_convention": False,
    }


def test_disconnected_report():
    g = disjoint_union(graph_from_name("p3"), graph_from_name("k1"))
    rep = invariant_report(g)
    assert rep.c == 2
    assert rep.isolated == 1
    assert rep.diam_sum == 2
    assert rep.d == 3
    assert rep.kappa is None


def test_free_vertex_counts():
    rep = invariant_report(graph_from_name("p4"))
    assert (rep.f, rep.iv) == (2, 2)
    assert non_free_vertices(graph_from_name("p4")) == 0b1100
    rep = invariant_report(graph_from_name("k3"))
    assert (rep.f, rep.iv) == (3, 0)
    rep = invariant_report(graph_from_name("c4"))
    assert (rep.f, rep.iv) == (0, 4)


def test_induced_matching():
    val, witness = induced_matching_number(graph_from_name("p5"))
    assert val == 2
    assert len(witness) == 2
    assert induced_matching_number(graph_from_name("c5"))[0] == 1
    assert induced_matching_number(graph_from_name("p4"))[0] == 1


def test_induced_matching_cap():
    with pytest.raises(CapError) as exc:
        induced_matching_number(graph_from_name(f"p{MATCHING_CAP + 1}"))
    assert (exc.value.size, exc.value.cap) == (MATCHING_CAP + 1, MATCHING_CAP)


def _brute_induced_matching(supports, weights):
    """Best weight of an induced matching and the smallest maximizing index tuple.

    Checks every index subset by size; a subset of an induced matching is
    one, so the sizes stop at the first with none.
    """
    best_val, best = 0, ()
    for r in itertools.count(1):
        found = False
        for idx in itertools.combinations(range(len(supports)), r):
            union = 0
            for k in idx:
                union |= supports[k]
            if union.bit_count() != sum(supports[k].bit_count() for k in idx):
                continue
            if sum(1 for t in supports if not t & ~union) != r:
                continue
            found = True
            val = sum(weights[k] for k in idx)
            if val > best_val or (val == best_val and idx < best):
                best_val, best = val, idx
        if not found:
            return best_val, best


def test_induced_matching_against_brute_force():
    graphs = list(enumerate_connected_graphs(6))
    assert len(graphs) == 143
    for g in graphs:
        edges = g.edges()
        masks = [1 << a | 1 << b for a, b in edges]
        val, idx = _brute_induced_matching(masks, [1] * len(edges))
        expected = (val, tuple(edges[k] for k in idx))
        assert induced_matching_number(g) == expected, to_graph6(g)


def test_hypergraph_bound_against_brute_force():
    graphs = list(enumerate_connected_graphs(5))
    assert len(graphs) == 31
    # {2,4,6} lies in the union of the other three supports, not of any two
    triple = MonomialIdealSF(6, (0b110, 0b11000, 0b1100000, 0b1010100))
    for ideal in [initial_ideal(g) for g in graphs] + [triple]:
        gens = ideal.generators
        masks = [sum(1 << v for v in e) for e in gens]
        val, idx = _brute_induced_matching(masks, [len(e) - 1 for e in gens])
        expected = (val, tuple(masks[k] for k in idx))
        assert hypergraph_induced_matching_bound(ideal) == expected, ideal


def test_gap_free():
    assert invariant_report(graph_from_name("k3")).gap_free
    assert not invariant_report(graph_from_name("p5")).gap_free
    # an edgeless graph has no edge to be gap-free about
    assert not invariant_report(graph_from_name("3k1")).gap_free


def test_vertex_connectivity():
    assert vertex_connectivity(graph_from_name("p4")) == (1, False)
    assert vertex_connectivity(graph_from_name("c4")) == (2, False)
    # complete graphs have no disconnecting set; value follows the n-1
    # convention and the flag records that the usual definition ran out
    assert vertex_connectivity(graph_from_name("k4")) == (3, True)


def test_vertex_connectivity_cap():
    # K_n less a maximum matching, the search's worst case: no cut below n - 2
    n = CONNECTIVITY_CAP + 1
    k = graph_from_name(f"k{n}")
    matching = {(v, v + 1) for v in range(1, n, 2)}
    cocktail_party = from_edge_list(n, [e for e in k.edges() if e not in matching])
    with pytest.raises(CapError) as exc:
        vertex_connectivity(cocktail_party)
    assert (exc.value.size, exc.value.cap) == (n, CONNECTIVITY_CAP)
    # a complete graph needs no search, so it is not capped
    assert vertex_connectivity(k) == (n - 1, True)


def test_hypergraph_bound_against_reg():
    # generator supports of in(J) for a path: bound meets the oracle reg
    p4 = graph_from_name("p4")
    bound, witness = hypergraph_induced_matching_bound(initial_ideal(p4))
    assert bound == 3
    assert witness


@pytest.mark.parametrize("name,target", [("k2", 3), ("p3", 4), ("k3", 4)])
def test_hypergraph_bound_under_labeling(name, target):
    # the relabeled whisker exposes a witness of size p+1
    lab = whisker_matching_labeling(graph_from_name(name))
    bound, _ = hypergraph_induced_matching_bound(initial_ideal(lab))
    assert bound >= target


@given(
    st.integers(min_value=2, max_value=6).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.sets(
                st.tuples(st.integers(1, n), st.integers(1, n)).filter(
                    lambda e: e[0] != e[1]
                ),
                min_size=1,
                max_size=8,
            ),
        )
    )
)
def test_gap_free_matches_im(data):
    n, edges = data
    g = from_edge_list(n, edges)
    rep = invariant_report(g)
    assert rep.gap_free == (rep.im == 1)
    assert rep.im >= 1
    assert rep.f + rep.iv == g.n
