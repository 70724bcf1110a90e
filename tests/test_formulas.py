"""Closed-form bounds and equalities, pinned to hand-checked values.

The last section pins three instances where a stated equality or lower
bound exceeds the true oracle value.  Those are genuine counterexamples to
the claimed statements, kept here so the discrepancy stays visible; the
verification sweeps report them as failures as well.
"""

import pytest

from corbel.errors import InputError
from corbel.graphs import disjoint_union, from_edge_list, graph_from_name, is_connected
from corbel.betti import oracle_depth_reg, sr_dimension
from corbel.groebner import initial_ideal
from corbel.constructions import GenCoronaSpec, whisker, whisker_on_set
from corbel.decomposition import dimension
from corbel.formulas import (
    depth_equality_gprime,
    depth_lower_bound_g2_binom,
    depth_lower_bound_g2_gen,
    depth_lower_bound_general,
    depth_upper_bound_kappa,
    dim_g2prime,
    reg_gapfree_whisker,
    reg_upper_bound_g1,
)

K1 = graph_from_name("k1")
K2 = graph_from_name("k2")
K3 = graph_from_name("k3")
P3 = graph_from_name("p3")
P5 = graph_from_name("p5")


def test_depth_lower_bound_general():
    assert depth_lower_bound_general(graph_from_name("p4"), 2).value == 5
    assert depth_lower_bound_general(K1, 2).value == 2
    assert depth_lower_bound_general(K1, 5).value == 5
    assert depth_lower_bound_general(K3, 2).value == 4
    rep = depth_lower_bound_general(graph_from_name("p4"), 2)
    assert rep.kind == "lower"
    assert rep.name == "thm2.4"
    assert rep.inputs["f"] == 2 and rep.inputs["d"] == 3


def test_depth_lower_bounds_pass_the_induced_matching_cap():
    # neither bound reads im, so graphs past the matching search's cap of 16
    # vertices are evaluated, not refused
    assert depth_lower_bound_general(graph_from_name("p17"), 2).value == 18
    assert depth_lower_bound_general(graph_from_name("k17"), 2).value == 18
    assert depth_lower_bound_general(graph_from_name("c20"), 2).value == 10
    rep = depth_lower_bound_g2_gen(GenCoronaSpec(K2, (1,), (graph_from_name("p17"),)), 2)
    assert rep.value == 20 and rep.inputs["attachment_f_plus_d"] == [18]


def test_depth_upper_bound_kappa():
    assert depth_upper_bound_kappa(graph_from_name("p4"), 2).value == 5
    assert depth_upper_bound_kappa(graph_from_name("c4"), 2).value == 4
    rep = depth_upper_bound_kappa(graph_from_name("k4"), 2)
    assert rep.value == 5
    assert rep.inputs["complete_convention"] is True
    with pytest.raises(InputError):
        depth_upper_bound_kappa(disjoint_union(K2, K2), 2)
    # thm2.5 reads kappa alone, so the matching search's cap of 16 does not apply
    rep = depth_upper_bound_kappa(graph_from_name("p17"), 2)
    assert rep.value == 18 and rep.inputs["kappa"] == 1


def test_depth_lower_bound_g2_gen():
    wp3 = whisker(P3)
    assert depth_lower_bound_g2_gen(wp3, 2).value == 7
    assert depth_lower_bound_g2_gen(wp3, 3).value == 8
    wk2 = whisker(K2)
    assert depth_lower_bound_g2_gen(wk2, 2).value == 5


def test_depth_lower_bound_g2_gen_rejects():
    not_covered = whisker_on_set(P3, {1, 3})
    with pytest.raises(InputError):
        depth_lower_bound_g2_gen(not_covered, 2)
    disconnected = GenCoronaSpec(K2, (1,), (graph_from_name("2k1"),))
    with pytest.raises(InputError):
        depth_lower_bound_g2_gen(disconnected, 2)


def test_depth_equality_gprime():
    assert depth_equality_gprime(whisker(K2), 2).value == 5
    assert depth_equality_gprime(whisker(P3), 2).value == 7
    spec = GenCoronaSpec(K2, (1,), (P3,))
    rep = depth_equality_gprime(spec, 2, depth_of_h=(4,))
    assert rep.value == 6
    assert rep.kind == "equality"
    # depth 3 misses m + |V(H)| - 1 = 4, so the class is not certified
    with pytest.raises(InputError):
        depth_equality_gprime(spec, 2, depth_of_h=(3,))


def test_bounds_at_three_rows_meet_the_dimension_of_a_cm_ideal():
    # the ideal of a disjoint union of complete graphs is Cohen-Macaulay, and
    # each K2 has depth m + 1 = 4 at m = 3 (Bruns-Vetter), so depth = dim = 8
    two_k2 = disjoint_union(K2, K2)
    assert dimension(two_k2, 3).value == 8
    assert depth_lower_bound_general(two_k2, 3).value == 8
    # W(2K1) is 2K2 again, labeled 13|24, now read as a whisker in G'
    spec = whisker(graph_from_name("2k1"))
    assert spec.composite().edges() == [(1, 3), (2, 4)]
    assert depth_equality_gprime(spec, 3).value == 8


def test_depth_lower_bound_g2_binom():
    wp3 = whisker(P3)
    assert depth_lower_bound_g2_binom(wp3, (2, 2, 2)).value == 7
    spec = GenCoronaSpec(K2, (1,), (P5,))
    assert depth_lower_bound_g2_binom(spec, (6,)).value == 8
    spec2 = GenCoronaSpec(K3, (1,), (K2,))
    assert depth_lower_bound_g2_binom(spec2, (3,)).value == 6
    with pytest.raises(InputError):
        depth_lower_bound_g2_binom(wp3, (2, 2))
    disconnected = GenCoronaSpec(K2, (1,), (graph_from_name("2k1"),))
    with pytest.raises(InputError):
        depth_lower_bound_g2_binom(disconnected, (4,))


def test_reg_upper_bound_g1():
    assert reg_upper_bound_g1(whisker(K2), 2).value == 3
    assert reg_upper_bound_g1(whisker(P5), 2).value == 7
    # for m at least the variable-pair count the cap takes over
    assert reg_upper_bound_g1(whisker(K2), 10).value == 3
    not_g1 = GenCoronaSpec(K2, (1,), (P3,))
    with pytest.raises(InputError):
        reg_upper_bound_g1(not_g1, 2)


def test_reg_gapfree_whisker():
    assert reg_gapfree_whisker(K2).value == 3
    assert reg_gapfree_whisker(P3).value == 4
    assert reg_gapfree_whisker(graph_from_name("k4")).value == 5
    with pytest.raises(InputError):
        reg_gapfree_whisker(P5)  # induced matching number 2
    with pytest.raises(InputError):
        reg_gapfree_whisker(graph_from_name("2k1"))


def test_dim_g2prime():
    spec = GenCoronaSpec(K2, (1,), (P3,))
    assert dim_g2prime(spec, (4,)).value == 6
    assert dim_g2prime(whisker(K2), (2, 2)).value == 5
    assert dim_g2prime(GenCoronaSpec(K3, (), ()), ()).value == 4
    with pytest.raises(InputError):
        dim_g2prime(whisker(P3), (2, 2, 2))  # base not complete


def _spec(instance_id):
    """The corona a sweep id such as ``k2|S=1,2|H=c4,k1`` names."""
    base, attach_set, attachments = (part.split("=")[-1] for part in instance_id.split("|"))
    return GenCoronaSpec(
        graph_from_name(base),
        tuple(int(v) for v in attach_set.split(",")),
        tuple(graph_from_name(h) for h in attachments.split(",")),
    )


# On the default universe thm3.5 repeats thm3.2, since K1, K2 and P3 each
# have depth f + d.  A 4-cycle has depth 4 against f + d = 2, so on
# C4-attached coronas the binomial bound is strictly the stronger of the two.
@pytest.mark.parametrize(
    "instance_id,depth,gen,binom",
    [
        ("k2|S=1|H=c4", 6, 4, 6),
        ("k2|S=1,2|H=c4,k1", 7, 5, 7),
        ("p3|S=2|H=c4", 8, 5, 7),
        ("k3|S=1|H=c4", 7, 5, 7),
        ("k2|S=1,2|H=c4,k2", 8, 6, 8),
    ],
)
def test_binomial_bound_is_checked_apart_from_the_general_one(instance_id, depth, gen, binom):
    spec = _spec(instance_id)
    depths = [oracle_depth_reg(h)[0] for h in spec.attachments]
    assert depth_lower_bound_g2_gen(spec, 2).value == gen
    assert depth_lower_bound_g2_binom(spec, depths).value == binom > gen
    assert oracle_depth_reg(spec.composite())[0] == depth >= binom


def test_bound_report_json():
    rep = depth_lower_bound_general(P3, 2)
    doc = rep.to_json_dict()
    assert doc["name"] == "thm2.4"
    assert doc["kind"] == "lower"
    assert doc["value"] == rep.value


# -- pinned counterexamples --------------------------------------------------


def test_cone_of_path_breaks_depth_equality():
    # K1 joined to every vertex of P3: formula says 5, the ring has depth 4
    spec = GenCoronaSpec(K1, (1,), (P3,))
    claimed = depth_equality_gprime(spec, 2, depth_of_h=(4,)).value
    assert claimed == 5
    assert oracle_depth_reg(spec.composite())[0] == 4


def test_double_path_corona_breaks_depth_bounds():
    spec = GenCoronaSpec(K2, (1, 2), (P3, P3))
    assert depth_lower_bound_g2_gen(spec, 2).value == 9
    assert depth_lower_bound_g2_binom(spec, (4, 4)).value == 9
    assert oracle_depth_reg(spec.composite())[0] == 8


def test_double_star_breaks_dimension_formula():
    two = graph_from_name("2k1")
    spec = GenCoronaSpec(K2, (1, 2), (two, two))
    assert dim_g2prime(spec, (4, 4)).value == 9
    assert dimension(spec.composite()).value == 8


# S is the whole complete base and every attachment is disconnected: the
# formula exceeds the cutset dimension by exactly 1, and the Stanley-Reisner
# dimension of the initial ideal, which never enumerates cut sets, agrees
# with the cutset dimension.  One connected attachment closes the gap.
@pytest.mark.parametrize(
    "instance_id,formula,dim",
    [
        ("k2|S=1,2|H=2k1,2k1", 9, 8),
        ("k3|S=1,2,3|H=2k1,2k1,2k1", 13, 12),
        ("k4|S=1,2,3,4|H=2k1,2k1,2k1,2k1", 17, 16),
        ("k2|S=1,2|H=3k1,3k1", 13, 12),
        ("k3|S=1,2,3|H=3k1,3k1,3k1", 19, 18),
        ("k2|S=1,2|H=2k1,k1", 7, 7),
        ("k3|S=1,2,3|H=2k1,2k1,k2", 12, 12),
    ],
)
def test_dimension_formula_on_disconnected_attachments_over_a_whole_complete_base(
    instance_id, formula, dim
):
    spec = _spec(instance_id)
    assert spec.attach_set == tuple(spec.base.vertices()) and spec.base.is_complete()
    dims = [dimension(h).value for h in spec.attachments]
    composite = spec.composite()
    assert dim_g2prime(spec, dims).value == formula
    assert dimension(composite).value == sr_dimension(initial_ideal(composite)) == dim
    connected = any(is_connected(h) for h in spec.attachments)
    assert formula - dim == (0 if connected else 1)
