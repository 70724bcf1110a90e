"""Spans around calls into corbel's public functions, and per-layer metrics.

The tracer wraps public names only, from outside the package: every corbel
module attribute bound to a wrapped function is rebound to the wrapper, so
internal calls such as ``betti_table`` -> ``lcm_lattice`` are seen too.
Spans are kept in memory as ``[name, start, end, parent, instance, count]``
and written out when the sweep ends.  A span's self time is its duration
minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from pathlib import Path

import corbel
import corbel.cli

from workloads import rebind


def _n_generators(args, result):
    return len(result.generators)


def _length(args, result):
    return len(result)


def _betti_sum(args, result):
    return sum(val for (i, _), val in result.entries if i >= 1)


def _graph_arg(args, result):
    g = args[0]
    return [g.n, g.edges()]


FORMULAS = (
    "depth_lower_bound_general",
    "depth_upper_bound_kappa",
    "depth_lower_bound_g2_gen",
    "depth_lower_bound_g2_binom",
    "depth_equality_gprime",
    "reg_upper_bound_g1",
    "reg_gapfree_whisker",
    "dim_g2prime",
)

# (layer, public name, what the span records as its count)
WRAPPED = (
    ("betti", "oracle_depth_reg", _graph_arg),
    ("betti", "betti_table", _betti_sum),
    ("betti", "lcm_lattice", _length),
    ("groebner", "initial_ideal", _n_generators),
    ("groebner", "reduced_groebner_basis", _length),
    ("groebner", "buchberger_oracle", _n_generators),
    ("decomposition", "dimension", None),
    ("decomposition", "minimal_primes", _length),
    ("decomposition", "classify_cm", None),
    ("graphs", "enumerate_connected_graphs", None),
    ("cli", "run_verification", None),
) + tuple(("formulas", name, None) for name in FORMULAS)

# Generator functions: the wrapper drains them inside the span.
GENERATORS = {"graphs.enumerate_connected_graphs"}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.instance = None
        self._stack: list[int] = []
        self._installed: list[tuple] = []

    def wrap(self, name: str, fn, count=None):
        drain = name in GENERATORS

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.instance, None]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                if drain:
                    result = list(result)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if count is not None:
                span[5] = count(args, result)
            return iter(result) if drain else result

        return wrapper

    def install(self) -> None:
        for layer, name, count in WRAPPED:
            orig = getattr(getattr(corbel, layer), name)
            wrapper = self.wrap(f"{layer}.{name}", orig, count)
            rebind(orig, wrapper)
            self._installed.append((orig, wrapper))

    def uninstall(self) -> None:
        for orig, wrapper in self._installed:
            rebind(wrapper, orig)
        self._installed.clear()

    def write(self, path: Path) -> None:
        keys = ("name", "start", "end", "parent", "instance", "count")
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")


def self_times(spans: list[list]) -> list[float]:
    """Duration of each span minus the durations of its direct children."""
    own = [end - start for _, start, end, *_ in spans]
    for _, start, end, parent, *_ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer metrics of one traced sweep (see BENCHMARK.json)."""
    own = self_times(spans)
    names = [s[0] for s in spans]
    total: dict[str, float] = defaultdict(float)
    count: dict[str, float] = defaultdict(float)
    for name, start, end, parent, _, n in spans:
        # time a layer spends inside itself is counted once, at the outer call
        if parent < 0 or names[parent] != name:
            total[name] += end - start
        if isinstance(n, (int, float)):
            count[name] += n
    table_self = sum(t for t, n in zip(own, names) if n == "betti.betti_table")
    formula_s = sum(
        end - start
        for name, start, end, parent, *_ in spans
        if name.startswith("formulas.") and (parent < 0 or not names[parent].startswith("formulas."))
    )
    oracle = [k for k, n in enumerate(names) if n == "betti.oracle_depth_reg"]
    reaches_table = set()
    for k, n in enumerate(names):
        if n == "betti.betti_table":
            p = spans[k][3]
            while p >= 0:
                reaches_table.add(p)
                p = spans[p][3]
    classes = {
        corbel.graphs.canonical_form(corbel.from_edge_list(n, [tuple(e) for e in edges]))
        for n, edges in (spans[k][5] for k in oracle)
    }
    lattice = count["betti.lcm_lattice"]
    return {
        "betti.table_self_s": table_self,
        "betti.lattice_s": total["betti.lcm_lattice"],
        "betti.lattice_elements": lattice,
        "betti.oracle_calls": len(oracle),
        "betti.oracle_cache_hits": sum(1 for k in oracle if k not in reaches_table),
        "betti.oracle_classes": len(classes),
        "betti.betti_sum": count["betti.betti_table"],
        "betti.betti_per_element": count["betti.betti_table"] / lattice if lattice else 0.0,
        "groebner.buchberger_s": total["groebner.buchberger_oracle"],
        "groebner.initial_ideal_s": total["groebner.initial_ideal"],
        "groebner.generators": count["groebner.initial_ideal"],
        "groebner.basis_elements": count["groebner.reduced_groebner_basis"],
        "decomposition.dimension_s": total["decomposition.dimension"],
        "decomposition.cutsets": count["decomposition.minimal_primes"],
        "formulas.bounds_s": formula_s,
        "graphs.enumerate_s": total["graphs.enumerate_connected_graphs"],
    }
