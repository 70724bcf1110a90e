"""The verify check table and the consumers of the shared corona generator."""

import contextlib
import dataclasses
import io
import json
from collections import Counter

import pytest

from corbel import formulas, invariants
from corbel.checks import CHECKS, g2_universe
from corbel.cli import main, run_verification


def enumerate_specs(*argv) -> list[dict]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["enumerate", *argv]) == 0
    return [json.loads(line) for line in out.getvalue().splitlines()]


def canonical(spec: dict) -> str:
    return json.dumps(spec, sort_keys=True)


@pytest.mark.parametrize("tag", sorted(CHECKS))
def test_default_universe_has_unique_ids(tag):
    check = CHECKS[tag]
    _, payloads = check.universe(check.default)
    ids = [p["id"] for p in payloads]
    assert ids
    assert len(set(ids)) == len(ids)


def test_enumerate_g1_matches_the_partial_whisker_universe():
    streamed = enumerate_specs("--class", "g1", "--max-base", "4")
    _, payloads = CHECKS["thm4.2"].universe(4)
    assert len(streamed) == 59
    assert sorted(map(canonical, streamed)) == sorted(canonical(p["spec"].to_json_dict()) for p in payloads)


def test_enumerate_g2_matches_g2_universe_up_to_base_labels():
    # enumerate's P3 is centred at vertex 1 and graph_from_name("p3")'s at
    # vertex 2, so specs are compared by a key that forgets base labels
    def key(spec: dict):
        attachments = tuple(sorted(map(canonical, spec["H"])))
        return (spec["base"]["n"], len(spec["base"]["edges"]), len(spec["S"]), attachments)

    streamed = [s for s in enumerate_specs("--class", "g2") if s["base"]["n"] >= 2]
    universe = [spec.to_json_dict() for _, spec in g2_universe()]
    assert len(streamed) == len(universe) == 161
    assert Counter(map(key, streamed)) == Counter(map(key, universe))


# tag, its formula, the formula's direction, then how many instances the
# moved bound must fail and how many the default sweep has
BOUND_TAGS = [
    ("thm2.4", "depth_lower_bound_general", "lower", 22, 31),
    ("thm2.5", "depth_upper_bound_kappa", "upper", 27, 31),
    # 88 attained, plus the pinned counterexample
    ("thm3.2", "depth_lower_bound_g2_gen", "lower", 89, 89),
    ("thm3.5", "depth_lower_bound_g2_binom", "lower", 89, 89),
    ("thm4.2", "reg_upper_bound_g1", "upper", 59, 59),
    ("thm3.3", "depth_equality_gprime", "equality", 10, 10),
    ("thm4.6", "reg_gapfree_whisker", "equality", 9, 9),
]
# a lower bound breaks when raised, an upper one when lowered, an equality either way
BREAKING_SHIFTS = {"lower": (1,), "upper": (-1,), "equality": (1, -1)}


@pytest.mark.parametrize(
    "tag,name,kind,failing,total,shift",
    [(*case, shift) for case in BOUND_TAGS for shift in BREAKING_SHIFTS[case[2]]],
)
def test_a_bound_moved_by_one_fails_where_it_is_attained(
    monkeypatch, sweep, tag, name, kind, failing, total, shift
):
    # a check that passes a wrong value shows here: every instance where the
    # bound is attained must fail once the bound moves past the oracle
    records = sweep(tag).records
    want = {r["id"] for r in records if r["formula"] == r["oracle"] or r["verdict"] == "fail"}
    formula = getattr(formulas, name)

    def moved(*args, **kwargs):
        report = formula(*args, **kwargs)
        assert report.kind == kind
        return dataclasses.replace(report, value=report.value + shift)

    monkeypatch.setattr(formulas, name, moved)
    run = run_verification(tag)
    assert {r["id"] for r in run.records if r["verdict"] == "fail"} == want
    assert (len(want), len(run.records)) == (failing, total)


@pytest.mark.parametrize("shift,labeled,failing", [(1, False, 31), (-1, True, 3)])
def test_the_matching_bound_moved_by_one_fails_where_it_is_attained(
    monkeypatch, sweep, shift, labeled, failing
):
    # thm4.3's bound is attained on all 34 records: raised, it passes the
    # oracle's reg on the 31 graphs; lowered, it falls short of p + 1 on the
    # 3 labeled whiskers
    records = sweep("thm4.3").records
    assert all(r["formula"] == r["oracle"] for r in records)
    want = {r["id"] for r in records if r["id"].startswith("labeled:") == labeled}
    bound = invariants.hypergraph_induced_matching_bound

    def moved(ideal):
        value, witness = bound(ideal)
        return value + shift, witness

    monkeypatch.setattr(invariants, "hypergraph_induced_matching_bound", moved)
    run = run_verification("thm4.3")
    assert {r["id"] for r in run.records if r["verdict"] == "fail"} == want
    assert (len(want), len(run.records)) == (failing, 34)


@pytest.mark.parametrize("shift,failing", [(1, 105), (-1, 104)])
def test_the_dimension_formula_moved_by_one_fails_on_every_spec_record(
    monkeypatch, sweep, shift, failing
):
    # lem5.1's 15 complete-graph records never read dim_g2prime, so they keep
    # passing; its 105 spec records fail once the formula moves, except that at
    # -1 the pinned double star, where the formula (9) exceeds the dimension
    # (8) by one, passes
    from test_acceptance import KNOWN_DIMENSION_FAILURE

    spec_ids = {r["id"] for r in sweep("lem5.1").records if "|" in r["id"]}
    formula = formulas.dim_g2prime

    def moved(*args, **kwargs):
        report = formula(*args, **kwargs)
        return dataclasses.replace(report, value=report.value + shift)

    monkeypatch.setattr(formulas, "dim_g2prime", moved)
    run = run_verification("lem5.1")
    want = spec_ids if shift > 0 else spec_ids - {KNOWN_DIMENSION_FAILURE}
    assert {r["id"] for r in run.records if r["verdict"] == "fail"} == want
    assert (len(want), len(run.records)) == (failing, 120)
