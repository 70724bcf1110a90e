"""Tests of the benchmark itself: inputs, sampling, metric names and spans."""

import json
import re
from pathlib import Path

import pytest

import corbel
import run
import tracing
import workloads

BENCH = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _edges(instances):
    return [(inst.id, inst.payload.n, inst.payload.edges()) for inst in instances]


@pytest.mark.parametrize("workload, count", [("graphs-depth", 143), ("graphs-gb", 996)])
def test_same_seed_same_graph_instances(workload, count):
    first = workloads.build(workload, 3)
    assert _edges(first) == _edges(workloads.build(workload, 3))
    assert _edges(first) != _edges(workloads.build(workload, 4))
    assert len(first) == count


def test_graphs_depth_check_flags_drift():
    inst = workloads.build("graphs-depth", 5)[-1]
    good = workloads.evaluate("graphs-depth", inst.payload)
    assert workloads.check("graphs-depth", inst, good) == []
    assert workloads.check("graphs-depth", inst, dict(good, reg=good["reg"] + 1))


def test_corona_instances_do_not_depend_on_the_seed():
    first = [(i.id, i.payload) for i in workloads.build("corona-cm", 1)]
    assert first == [(i.id, i.payload) for i in workloads.build("corona-cm", 2)]


def test_corona_sample_is_whole_classes_with_the_counterexample():
    universe = workloads.expected()["corona"]
    sample = workloads.corona_sample()
    chosen = {e["class"] for e in sample}
    assert sample == [e for e in universe if e["class"] in chosen]
    assert workloads.COUNTEREXAMPLE in {e["id"] for e in sample}
    assert 1 < len(chosen) < len({e["class"] for e in universe})
    dear = {e["class"] for e in sample if e["weight_ms"] >= workloads.CORONA_FLOOR_MS}
    assert dear == chosen


def test_counterexample_expectation_is_pinned():
    entry = next(
        e for e in workloads.expected()["corona"]
        if e["id"] == workloads.COUNTEREXAMPLE
    )
    assert (entry["bound"], entry["depth"], entry["bound_holds"]) == (9, 8, False)


def test_corona_check_flags_drift():
    inst = next(i for i in workloads.build("corona-cm", 0) if i.id == workloads.COUNTEREXAMPLE)
    good = {"depth": 8, "reg": inst.expect["reg"], "dim": 9, "is_cm": False, "bound": 9}
    assert workloads.check("corona-cm", inst, good) == []
    assert workloads.check("corona-cm", inst, dict(good, depth=9))


def test_metric_names_are_valid_and_match_the_code():
    metrics = BENCH["end_to_end"] + BENCH["per_layer"]
    names = [m["name"] for m in metrics]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names + [w["name"] for w in BENCH["workloads"]])
    assert all(UNIT.match(m["unit"]) for m in metrics)
    assert {"setup_s"} <= set(names)
    assert [w["name"] for w in BENCH["workloads"]] == list(workloads.WORKLOADS)

    sweeps = [{"sweep_s": 1.0, "peak_rss_mb": 30.0, "latencies_s": [0.001 * k for k in range(1, 31)]}]
    produced = run.end_to_end(sweeps, [0.2, 0.3, 0.25])
    assert list(produced) == [m["name"] for m in BENCH["end_to_end"]]
    assert all(produced[m["name"]][1] == m["unit"] for m in BENCH["end_to_end"])
    values = {name: value for name, (value, _) in produced.items()}
    assert values == pytest.approx({"setup_s": 0.25, "sweep_s": 1.0, "instance_p50_ms": 15.5,
                                    "instance_tail_ms": 20.0, "peak_rss_mb": 30.0})

    layers = set(tracing.layer_metrics([])) | {"cli.pool_speedup", "trace.overhead_frac"}
    assert layers == {m["name"] for m in BENCH["per_layer"]}


def test_tail_has_ten_samples_beyond_it():
    value, pct, n = run.tail([float(k) for k in range(1, 101)])
    assert (value, pct, n) == (90.0, 90.0, 100)
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 3)


def test_self_times_sum_to_their_parent_spans():
    g = corbel.from_edge_list(5, [(1, 3), (3, 5), (5, 2), (2, 4), (4, 1)])
    table = corbel.betti_table(corbel.initial_ideal(g))
    orig = corbel.betti.oracle_depth_reg
    tracer = tracing.Tracer()
    tracer.install()
    try:
        depth_reg = corbel.oracle_depth_reg(g)
    finally:
        tracer.uninstall()
    assert depth_reg == (table.depth, table.reg)
    assert corbel.oracle_depth_reg is orig and corbel.betti.oracle_depth_reg is orig
    spans = tracer.spans
    names = [s[0] for s in spans]
    assert names[0] == "betti.oracle_depth_reg"
    assert {"betti.betti_table", "betti.lcm_lattice", "groebner.initial_ideal"} <= set(names)
    own = tracing.self_times(spans)
    for k, (_, start, end, *_) in enumerate(spans):
        children = sum(e - s for _, s, e, parent, *_ in spans if parent == k)
        assert own[k] + children == pytest.approx(end - start, abs=1e-12)
        assert own[k] >= 0
    root = spans[0]
    assert sum(own) == pytest.approx(root[2] - root[1], abs=1e-12)

    layers = tracing.layer_metrics(spans)
    assert layers["betti.oracle_calls"] == 1
    assert layers["betti.oracle_cache_hits"] == 0
    assert layers["betti.lattice_elements"] > 0
