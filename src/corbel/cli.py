"""Command line surface: analyze one input, verify a sweep, enumerate a class.

``corbel analyze`` reports invariants, applicable bounds, and optionally the
homological oracle values and the cutset decomposition for one graph or
construction.  ``corbel verify`` sweeps a small universe and checks one tagged
statement against the oracle on every instance, exiting 1 on any violation.
``corbel enumerate`` streams construction specs as JSON lines.

Exit codes: 0 success, 1 verification failure, 2 usage or parse problem,
3 cap exceeded.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

from . import betti, decomposition, formulas, invariants
# g2_universe is imported for callers that reach it as corbel.cli.g2_universe
from .checks import ATTACHMENT_POOL, CHECKS, g2_universe  # noqa: F401
from .constructions import (
    GenCoronaSpec,
    class_membership,
    covered_coronas,
    covering_sets,
    spec_from_json_dict,
    whisker_on_set,
)
from .errors import CapError, InputError, ParseError, UsageError
from .graphs import (
    Graph,
    enumerate_connected_graphs,
    from_graph6,
    from_json_dict,
    graph_from_name,
    is_connected,
    parse_graph_name,
    to_graph6,
    to_json_dict,
)


# ---------------------------------------------------------------------------
# verification runs


@dataclass
class VerificationRun:
    """Outcome of one theorem sweep."""

    tag: str
    universe: str
    records: list[dict] = field(default_factory=list)
    wall_time_s: float = 0.0

    @property
    def passed(self) -> int:
        return sum(1 for r in self.records if r["verdict"] == "pass")

    @property
    def failed(self) -> int:
        return len(self.records) - self.passed

    @property
    def ok(self) -> bool:
        return self.failed == 0

    def to_json_dict(self) -> dict:
        return {
            "tag": self.tag,
            "universe": self.universe,
            "records": self.records,
            "passed": self.passed,
            "failed": self.failed,
            "wall_time_s": round(self.wall_time_s, 3),
        }


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def run_verification(tag: str, jobs: int = 1, **opts) -> VerificationRun:
    """Sweep one tagged statement over its default universe.

    opts may carry the one size option the tag reads (max_n, max_base or
    max_total, see ``corbel.checks.CHECKS``) to resize the universe; any
    other option, or a size below 1, is a usage error.  jobs asks for that
    many worker processes; the pool never exceeds the usable CPUs or the
    instance count, and one worker means a serial run.
    """
    check = CHECKS.get(tag)
    if check is None:
        raise UsageError(
            f"unknown verification tag {tag!r}; known: {', '.join(sorted(CHECKS))}"
        )
    if jobs < 1:
        raise UsageError(f"jobs must be at least 1, got {jobs}")
    flag = "--" + check.size.replace("_", "-")
    if set(opts) - {check.size}:
        raise UsageError(f"{tag} reads no size option other than {flag}")
    size = opts.get(check.size, check.default)
    if size < 1:
        raise UsageError(f"{flag} must be at least 1, got {size}")
    betti.reset()
    start = time.perf_counter()
    universe, payloads = check.universe(size)
    if not payloads:
        raise UsageError(f"{tag} {flag} {size} sweeps no instance")
    workers = min(jobs, _usable_cpus(), len(payloads))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            records = list(pool.map(check.evaluate, payloads))
    else:
        records = [check.evaluate(p) for p in payloads]
    return VerificationRun(tag, universe, records, time.perf_counter() - start)


# ---------------------------------------------------------------------------
# analyze


def _load_json(path: str):
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except RecursionError:
            raise InputError(f"{path}: JSON nested too deeply") from None


def _declared_n(obj) -> int:
    """A graph object's n when it is a positive int, else 0: the parser reports the rest."""
    n = obj.get("n") if isinstance(obj, dict) else None
    return n if type(n) is int and n > 0 else 0


def _load_graph_arg(args) -> tuple[Graph, GenCoronaSpec | None]:
    chosen = [x for x in (args.graph, args.graph6, args.spec) if x]
    if len(chosen) != 1:
        raise UsageError("analyze needs exactly one of --graph, --graph6, --spec")
    if args.graph6:
        return from_graph6(args.graph6), None
    # the vertex count is capped before any graph is built: parsing allocates n words
    if args.graph:
        doc = _load_json(args.graph)
        invariants.check_matching_cap(_declared_n(doc))
        return from_json_dict(doc), None
    doc = _load_json(args.spec)
    if isinstance(doc, dict):
        attached = doc.get("H") if isinstance(doc.get("H"), list) else []
        invariants.check_matching_cap(
            _declared_n(doc.get("base")) + sum(map(_declared_n, attached))
        )
    spec = spec_from_json_dict(doc)
    return spec.composite(), spec


def analyze_report(
    g: Graph,
    spec: GenCoronaSpec | None,
    m: int = 2,
    with_oracle: bool = False,
    with_decomposition: bool = False,
) -> dict:
    """Full analysis record for one graph or construction."""
    rep = invariants.invariant_report(g)
    report: dict = {
        "m": m,
        "graph": to_json_dict(g),
        "graph6": to_graph6(g),
        "invariants": rep.to_json_dict(),
    }
    bounds = [formulas.depth_lower_bound_general(g, m)]
    if rep.c == 1 and g.n > 0:
        bounds.append(formulas.depth_upper_bound_kappa(g, m))

    oracle_vals = None
    if with_oracle:
        if m != 2:
            raise InputError("the homological oracle supports m = 2 only")
        depth, reg = betti.oracle_depth_reg(g)
        oracle_vals = {"depth": depth, "reg": reg}

    if spec is not None:
        membership = class_membership(spec, m=m)
        report["construction"] = spec.to_json_dict()
        report["membership"] = membership.to_json_dict()
        # thm3.2 and thm3.5 hold for connected attachments only
        connected = all(is_connected(h) for h in spec.attachments)
        if membership.in_g2 and connected:
            bounds.append(formulas.depth_lower_bound_g2_gen(spec, m))
        if membership.in_g1:
            bounds.append(formulas.reg_upper_bound_g1(spec, m))
            base = spec.base
            gap_free = invariants.induced_matching_number(base)[0] == 1
            if len(spec.attach_set) == base.n and gap_free and m == 2:
                bounds.append(formulas.reg_gapfree_whisker(base))
        if membership.in_g2 and m == 2 and with_oracle:
            depths = [betti.oracle_depth_reg(h)[0] for h in spec.attachments]
            if connected:
                bounds.append(formulas.depth_lower_bound_g2_binom(spec, depths))
            full = class_membership(spec, depth_of_h=depths, m=m)
            if full.in_gprime:
                bounds.append(formulas.depth_equality_gprime(spec, m, depths))
        elif membership.in_gprime:
            bounds.append(formulas.depth_equality_gprime(spec, m))
        if spec.base.is_complete() and m == 2:
            dims = [decomposition.dimension(h, 2).value for h in spec.attachments]
            bounds.append(formulas.dim_g2prime(spec, dims))
    report["bounds"] = [b.to_json_dict() for b in bounds]
    if oracle_vals is not None:
        report["oracle"] = oracle_vals

    if with_decomposition:
        primes = decomposition.minimal_primes(g, m)
        dim = decomposition.dimension(g, m)
        report["decomposition"] = {
            "primes": [p.to_json_dict() for p in primes],
            "dimension": dim.value,
            "witness": dim.witness.to_json_dict(),
        }
        if rep.c == 1 and g.n > 0:
            unmixed, bad = decomposition.is_unmixed(g, m)
            report["decomposition"]["unmixed"] = unmixed
            report["decomposition"]["unmixed_witness"] = (
                bad.to_json_dict() if bad is not None else None
            )
    return report


def _flatten_for_csv(report: dict) -> dict:
    row: dict = {"graph6": report["graph6"], "m": report["m"]}
    row.update(report["invariants"])
    for bound in report["bounds"]:
        row[bound["name"]] = bound["value"]
    for key in ("depth", "reg"):
        if "oracle" in report:
            row[f"oracle_{key}"] = report["oracle"][key]
    if "decomposition" in report:
        row["dimension"] = report["decomposition"]["dimension"]
        if "unmixed" in report["decomposition"]:
            row["unmixed"] = report["decomposition"]["unmixed"]
    return row


@contextlib.contextmanager
def _output(out_path: str | None):
    # the --out file, or stdout, flushed here since a pipe buffers it; a closed pipe ends it quietly
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            yield fh
        return
    try:
        yield sys.stdout
        sys.stdout.flush()
    except BrokenPipeError:  # the rest goes to the null device, so the flush at exit passes
        with open(os.devnull, "w") as null:
            os.dup2(null.fileno(), sys.stdout.fileno())


def cmd_analyze(args) -> int:
    if args.m < 2:  # checked first, so every input form gives the same exit code
        raise InputError("m must be at least 2")
    g, spec = _load_graph_arg(args)
    report = analyze_report(
        g,
        spec,
        m=args.m,
        with_oracle=args.oracle,
        with_decomposition=args.decompose,
    )
    with _output(args.out) as fh:
        if args.format == "csv":
            row = _flatten_for_csv(report)
            writer = csv.DictWriter(fh, fieldnames=list(row))
            writer.writeheader()
            writer.writerow(row)
        else:
            fh.write(json.dumps(report, indent=2, sort_keys=True) + "\n")
    return 0


def cmd_verify(args) -> int:
    opts = {}
    if args.max_n is not None:
        opts["max_n"] = args.max_n
    if args.max_base is not None:
        opts["max_base"] = args.max_base
    if args.max_total is not None:
        opts["max_total"] = args.max_total
    run = run_verification(args.tag, jobs=args.jobs, **opts)
    with _output(args.out) as fh:
        if args.format == "csv":
            writer = csv.writer(fh)
            writer.writerow(["id", "formula", "oracle", "verdict"])
            for rec in run.records:
                formula, oracle = json.dumps(rec["formula"]), json.dumps(rec["oracle"])
                writer.writerow([rec["id"], formula, oracle, rec["verdict"]])
        else:
            fh.write(json.dumps(run.to_json_dict(), indent=2, sort_keys=True) + "\n")
    print(
        f"{run.tag}: {run.passed} passed, {run.failed} failed "
        f"({run.wall_time_s:.2f}s, {len(run.records)} instances)",
        file=sys.stderr,
    )
    return 0 if run.ok else 1


def _enumerate_specs(args):
    """The specs to stream, with every option checked before the first is made."""
    max_base = args.max_base if args.max_base is not None else 3
    bases = enumerate_connected_graphs(max_base)
    if args.cls == "g1":
        return (whisker_on_set(g, s) for g in bases for s in covering_sets(g))
    attachments = args.attachments if args.attachments is not None else ",".join(ATTACHMENT_POOL)
    names = tuple(x.strip() for x in attachments.split(",") if x.strip())
    if not names or len(set(names)) != len(names):
        raise UsageError(f"--attachments needs distinct graph names, got {attachments!r}")
    max_total = args.max_total if args.max_total is not None else 8
    orders = [parse_graph_name(name)[1] for name in names]
    # every base has a vertex, so an attachment of max_total vertices never fits
    pool = [(name, graph_from_name(name)) for name, n in zip(names, orders) if n < max_total]
    return (spec for g in bases for _, spec in covered_coronas(g, pool, max_total))


def cmd_enumerate(args) -> int:
    if args.cls == "g1" and (args.max_total is not None or args.attachments is not None):
        raise UsageError("--class g1 reads no --max-total or --attachments")
    for flag, size in (("--max-base", args.max_base), ("--max-total", args.max_total)):
        if size is not None and size < 1:
            raise UsageError(f"{flag} must be at least 1, got {size}")
    specs = _enumerate_specs(args)
    # each line is written as it is made, so a long stream shows its head early
    with _output(args.out) as fh:
        for spec in specs:
            fh.write(json.dumps(spec.to_json_dict(), sort_keys=True) + "\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="corbel",
        description="Exact depth, regularity, and dimension for binomial edge ideals "
        "of whisker and corona constructions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_an = sub.add_parser("analyze", help="analyze one graph or construction")
    p_an.add_argument("--graph", help="path to a graph JSON file {n, edges}")
    p_an.add_argument("--graph6", help="graph6 string")
    p_an.add_argument("--spec", help="path to a construction JSON file {base, S, H}")
    p_an.add_argument("--m", type=int, default=2, help="row count of the complete pairing graph")
    p_an.add_argument("--oracle", action="store_true", help="include homological oracle depth/reg")
    p_an.add_argument("--decompose", action="store_true", help="include cutset decomposition")
    p_an.add_argument("--out", help="write the report here instead of stdout")
    p_an.add_argument("--format", choices=("json", "csv"), default="json")
    p_an.set_defaults(func=cmd_analyze)

    p_ve = sub.add_parser("verify", help="sweep one tagged statement against the oracle")
    p_ve.add_argument("tag", help="one of: " + ", ".join(sorted(CHECKS)))
    p_ve.add_argument("--max-n", type=int, dest="max_n")
    p_ve.add_argument("--max-base", type=int, dest="max_base")
    p_ve.add_argument("--max-total", type=int, dest="max_total")
    p_ve.add_argument("--jobs", type=int, default=1)
    p_ve.add_argument("--out", help="write the run report here instead of stdout")
    p_ve.add_argument("--format", choices=("json", "csv"), default="json")
    p_ve.set_defaults(func=cmd_verify)

    p_en = sub.add_parser("enumerate", help="stream construction specs as JSON lines")
    p_en.add_argument("--class", dest="cls", choices=("g1", "g2"), required=True)
    p_en.add_argument("--max-base", type=int, dest="max_base")
    p_en.add_argument("--max-total", type=int, dest="max_total")
    p_en.add_argument(
        "--attachments",
        help=f"comma separated attachment names for g2 (default {','.join(ATTACHMENT_POOL)})",
    )
    p_en.add_argument("--out", help="write the stream here instead of stdout")
    p_en.set_defaults(func=cmd_enumerate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (
        UsageError, InputError, ParseError, OSError, UnicodeDecodeError, json.JSONDecodeError
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
