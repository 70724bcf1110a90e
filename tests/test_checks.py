"""The verify check table and the consumers of the shared corona generator."""

import contextlib
import io
import json
from collections import Counter

import pytest

from corbel.checks import CHECKS, g2_universe
from corbel.cli import main


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
    assert sorted(map(canonical, streamed)) == sorted(canonical(p["spec"]) for p in payloads)


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
