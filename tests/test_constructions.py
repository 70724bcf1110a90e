"""Whisker and corona builders and class membership."""

import pytest

from corbel.errors import InputError
from corbel.constructions import (
    GenCoronaSpec,
    class_membership,
    spec_from_json_dict,
    whisker,
    whisker_matching_labeling,
    whisker_on_set,
)
from corbel.graphs import canonical_form, from_edge_list, graph_from_name, non_free_vertices


def edges_of(g):
    return sorted(tuple(sorted(e)) for e in g.edges())


def test_whisker_p3_shape():
    spec = whisker(graph_from_name("p3"))
    comp = spec.composite()
    assert comp.n == 6
    assert edges_of(comp) == [(1, 2), (1, 4), (2, 3), (2, 5), (3, 6)]
    assert spec.attach_set == (1, 2, 3)
    assert all(h.n == 1 for h in spec.attachments)


def test_whisker_k2_is_p4():
    comp = whisker(graph_from_name("k2")).composite()
    assert canonical_form(comp) == canonical_form(graph_from_name("p4"))


def test_whisker_on_set_shape():
    spec = whisker_on_set(graph_from_name("p3"), {1, 3})
    comp = spec.composite()
    assert comp.n == 5
    assert edges_of(comp) == [(1, 2), (1, 4), (2, 3), (3, 5)]
    assert spec.attach_set == (1, 3)


def test_generalized_corona_blocks():
    g = GenCoronaSpec(
        graph_from_name("k2"),
        (1, 2),
        (graph_from_name("k2"), graph_from_name("k1")),
    ).composite()
    assert g.n == 5
    # block vertices join only their chosen base vertex
    assert edges_of(g) == [(1, 2), (1, 3), (1, 4), (2, 5), (3, 4)]


def test_cone_of_p3_is_diamond():
    # a single-vertex base carrying H is the cone over H, apex labeled 1
    c = GenCoronaSpec(from_edge_list(1, []), (1,), (graph_from_name("p3"),)).composite()
    assert c.n == 4
    assert edges_of(c) == [(1, 2), (1, 3), (1, 4), (2, 3), (3, 4)]


def test_non_free_vertices():
    assert non_free_vertices(graph_from_name("p3")) == 0b100
    assert non_free_vertices(graph_from_name("k3")) == 0
    assert non_free_vertices(graph_from_name("c4")) == 0b11110


def test_membership_full_whisker():
    spec = whisker(graph_from_name("p3"))
    mem = class_membership(spec)
    assert mem.in_g1 and mem.in_g2 and mem.in_gprime
    assert mem.witness is None


def test_membership_uncovered_vertex():
    spec = whisker_on_set(graph_from_name("p3"), {1, 3})
    mem = class_membership(spec)
    assert not mem.in_g2
    assert not mem.in_g1
    assert mem.witness == 2  # the uncovered non-free vertex


def test_membership_needs_depths_for_gprime():
    # P3 attachment is not complete, so the depth condition cannot be
    # certified structurally; it resolves once depths are supplied
    spec = GenCoronaSpec(graph_from_name("k2"), (1,), (graph_from_name("p3"),))
    assert class_membership(spec).in_gprime is None
    assert class_membership(spec, depth_of_h=(4,)).in_gprime is True
    assert class_membership(spec, depth_of_h=(3,)).in_gprime is False


def test_membership_disconnected_attachment_stays_in_g2():
    spec = GenCoronaSpec(
        graph_from_name("k2"),
        (1, 2),
        (graph_from_name("2k1"), graph_from_name("k1")),
    )
    mem = class_membership(spec)
    assert mem.in_g2
    assert not mem.in_g1  # attachments are not all single vertices


def test_spec_json_round_trip():
    spec = whisker(graph_from_name("p3"))
    assert spec_from_json_dict(spec.to_json_dict()) == spec
    doc = spec.to_json_dict()
    assert set(doc) == {"base", "S", "H"}


def test_whisker_matching_labeling():
    lab = whisker_matching_labeling(graph_from_name("k2"))
    assert lab.n == 4
    assert edges_of(lab) == [(1, 3), (2, 4), (3, 4)]
    lab3 = whisker_matching_labeling(graph_from_name("p3"))
    assert lab3.n == 6
    assert edges_of(lab3) == [(1, 3), (2, 4), (3, 4), (4, 5), (5, 6)]
    with pytest.raises(InputError):
        whisker_matching_labeling(graph_from_name("2k1"))
