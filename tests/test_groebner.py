"""Admissible-path Groebner bases and the Buchberger cross-check."""

import pytest

from corbel.errors import CapError, InputError
from corbel.graphs import from_edge_list, graph_from_name
from corbel.groebner import (
    BUCHBERGER_CAP,
    GROEBNER_CAP,
    MonomialIdealSF,
    admissible_paths,
    buchberger_oracle,
    initial_ideal,
    reduced_groebner_basis,
)

DIAMOND = from_edge_list(4, [(1, 2), (1, 3), (1, 4), (2, 3), (3, 4)])


def path_count(g):
    return sum(
        len(admissible_paths(g, i, j))
        for i in range(1, g.n + 1)
        for j in range(i + 1, g.n + 1)
    )


def test_admissible_path_counts():
    assert path_count(graph_from_name("p3")) == 2
    assert path_count(graph_from_name("p4")) == 3
    assert path_count(graph_from_name("k3")) == 3
    assert path_count(graph_from_name("c4")) == 6
    assert path_count(DIAMOND) == 6


def test_interior_vertex_rule():
    # 1-2-3 in P3 has interior 2, neither below 1 nor above 3
    assert admissible_paths(graph_from_name("p3"), 1, 3) == []
    # 1-4-3 in C4 has interior 4 > 3
    paths = admissible_paths(graph_from_name("c4"), 1, 3)
    assert len(paths) == 1


def test_complete_graphs_have_only_edge_paths():
    # every longer path in K_n has a chord, so it is not induced
    for n in range(2, 8):
        k = graph_from_name(f"k{n}")
        for i in range(1, n + 1):
            for j in range(i + 1, n + 1):
                assert [p.vertices for p in admissible_paths(k, i, j)] == [(i, j)]
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
    leads = [b.plus for b in gb]
    # no lead divides another lead
    for a in leads:
        for b in leads:
            if a is not b:
                assert any(ai > bi for ai, bi in zip(a, b))


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


def test_caps():
    long_path = graph_from_name(f"p{GROEBNER_CAP + 1}")
    with pytest.raises(CapError):
        initial_ideal(long_path)
    with pytest.raises(CapError):
        buchberger_oracle(graph_from_name(f"p{BUCHBERGER_CAP + 1}"))


def test_monomial_ideal_validates_minimality():
    with pytest.raises(InputError):
        MonomialIdealSF(4, (frozenset({1}), frozenset({1, 2})))


def test_monomial_ideal_json_round_trip():
    ideal = initial_ideal(graph_from_name("c4"))
    from corbel.groebner import ideal_from_json_dict

    assert ideal_from_json_dict(ideal.to_json_dict()) == ideal
