"""Write expected.json: the values every benchmark run is checked against.

    python3 perfbench/make_expected.py

Run once, at the commit that defines the benchmark, and commit the output;
rerunning it at a later commit would check the program against itself.

- ``corona``: the ``verify thm5.6`` universe in its order, each entry with
  its construction by name, isomorphism class, depth, regularity, dimension,
  CM verdict and thm3.2 bound, and its cost in milliseconds when its class
  runs alone in a fresh interpreter, which only weights the seeded sample.
- ``graphs``: depth, regularity and the thm2.4/thm2.5 bounds of each
  connected graph on at most 6 vertices, in enumeration order.
- ``whisker``: the regularity of each ``verify thm4.6`` record.
"""

from __future__ import annotations

import json
import multiprocessing
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))


def _class_values(entries: list[dict]) -> list[dict]:
    """Evaluate one class's entries in universe order; runs in a fresh process."""
    import workloads

    values = []
    for e in entries:
        start = time.perf_counter()
        v = workloads.evaluate("corona-cm", workloads.corona_spec(e))
        v["weight_ms"] = round((time.perf_counter() - start) * 1000, 1)
        values.append(v)
    return values


def corona_universe() -> list[dict]:
    import corbel.cli
    from corbel.graphs import canonical_form

    entries, keys = [], {}
    for sid, spec in corbel.cli.g2_universe():
        if spec.base.num_edges() == 0:
            continue
        base, s, h = sid.split("|")
        key = canonical_form(spec.composite())
        entries.append(
            {
                "id": sid,
                "base": base,
                "S": list(spec.attach_set),
                "H": [] if h == "H=-" else h[2:].split(","),
                "class": keys.setdefault(key, len(keys)),
            }
        )
    return entries


def graph_values() -> list[dict]:
    import corbel
    import workloads

    return [workloads.evaluate("graphs-depth", g) for g in corbel.enumerate_connected_graphs(6)]


def main() -> int:
    import corbel.cli

    universe = corona_universe()
    n_classes = 1 + max(e["class"] for e in universe)
    spawn = multiprocessing.get_context("spawn")
    for c in range(n_classes):
        members = [e for e in universe if e["class"] == c]
        with ProcessPoolExecutor(1, mp_context=spawn) as pool:
            values = pool.submit(_class_values, members).result()
        for e, v in zip(members, values):
            e.update(v)
            e["bound_holds"] = v["bound"] is None or v["depth"] >= v["bound"]

    graphs = graph_values()
    run = corbel.cli.run_verification("thm4.6")
    whisker = {r["id"]: r["oracle"] for r in run.records}

    expected = {
        "corona": universe,
        "graphs": graphs,
        "whisker": whisker,
    }
    (HERE / "expected.json").write_text(json.dumps(expected, indent=1) + "\n")
    print(f"{len(universe)} coronas in {n_classes} classes, "
          f"{len(graphs)} graphs, {len(whisker)} whiskers; corona weight {sum(e['weight_ms'] for e in universe) / 1000:.1f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
