"""Command line surface: analyze, verify, enumerate, exit codes."""

import io
import json
import contextlib
import hashlib
import os
import select
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from corbel import betti, cli
from corbel.checks import CHECKS
from corbel.cli import main, run_verification
from corbel.errors import UsageError
from corbel.graphs import from_edge_list, graph_from_name, to_graph6


def run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(list(argv))
    return rc, out.getvalue(), err.getvalue()


def test_analyze_graph6_json():
    rc, out, _ = run_cli("analyze", "--graph6", "Ch", "--oracle")
    assert rc == 0
    doc = json.loads(out)
    assert doc["graph6"] == "Ch"
    assert doc["invariants"]["n"] == 4
    assert doc["invariants"]["d"] == 3
    assert doc["invariants"]["gap_free"] is True
    assert doc["oracle"] == {"depth": 5, "reg": 3}
    assert [(b["name"], b["value"]) for b in doc["bounds"]] == [
        ("thm2.4", 5),
        ("thm2.5", 5),
    ]


def test_analyze_one_vertex():
    rc, out, _ = run_cli("analyze", "--graph6", "@")
    assert rc == 0
    doc = json.loads(out)
    assert doc["graph"] == {"n": 1, "edges": []}
    assert [(b["name"], b["value"]) for b in doc["bounds"]] == [("thm2.4", 2), ("thm2.5", 2)]


def test_analyze_spec_full_report(tmp_path):
    spec = {
        "base": {"n": 3, "edges": [[1, 2], [2, 3]]},
        "S": [1, 2, 3],
        "H": [{"n": 1, "edges": []}] * 3,
    }
    path = tmp_path / "wp3.json"
    path.write_text(json.dumps(spec))
    rc, out, _ = run_cli("analyze", "--spec", str(path), "--oracle", "--decompose")
    assert rc == 0
    doc = json.loads(out)
    assert doc["membership"] == {
        "in_G1": True,
        "in_G2": True,
        "in_Gprime": True,
        "witness": None,
    }
    assert [(b["name"], b["value"]) for b in doc["bounds"]] == [
        ("thm2.4", 7),
        ("thm2.5", 7),
        ("thm3.2", 7),
        ("thm4.2", 4),
        ("thm4.6", 4),
        ("thm3.5", 7),
        ("thm3.3", 7),
    ]
    assert doc["oracle"] == {"depth": 7, "reg": 4}
    dec = doc["decomposition"]
    assert dec["dimension"] == 8
    assert dec["unmixed"] is False
    assert dec["witness"]["T"] == [2]


@pytest.mark.parametrize("n,gap_free", [(3, True), (5, False)])
def test_analyze_spec_states_thm46_only_on_gap_free_whiskers(tmp_path, n, gap_free):
    # W(P3) has induced matching number 1, W(P5) has 2
    spec = {
        "base": {"n": n, "edges": [[v, v + 1] for v in range(1, n)]},
        "S": list(range(1, n + 1)),
        "H": [{"n": 1, "edges": []}] * n,
    }
    path = tmp_path / "wp.json"
    path.write_text(json.dumps(spec))
    rc, out, _ = run_cli("analyze", "--spec", str(path))
    assert rc == 0
    names = [b["name"] for b in json.loads(out)["bounds"]]
    assert ("thm4.6" in names) is gap_free
    assert "thm4.2" in names


def test_analyze_spec_with_disconnected_attachments(tmp_path):
    # lem5.1's pinned double star k2|S=1,2|H=2k1,2k1: thm3.2 and thm3.5 need
    # connected attachments, so they are left out instead of failing the run
    spec = {"base": {"n": 2, "edges": [[1, 2]]}, "S": [1, 2], "H": [{"n": 2, "edges": []}] * 2}
    path = tmp_path / "double_star.json"
    path.write_text(json.dumps(spec))
    for extra in ((), ("--oracle", "--decompose")):
        rc, out, err = run_cli("analyze", "--spec", str(path), *extra)
        assert (rc, err) == (0, "")
        doc = json.loads(out)
        assert doc["membership"]["in_G2"] is True
        assert [(b["name"], b["value"]) for b in doc["bounds"]] == [
            ("thm2.4", 7),
            ("thm2.5", 7),
            ("lem5.1", 9),
        ]
    assert doc["oracle"] == {"depth": 7, "reg": 3}
    assert doc["decomposition"]["dimension"] == 8


def test_analyze_csv():
    rc, out, _ = run_cli("analyze", "--graph6", "Ch", "--format", "csv")
    assert rc == 0
    header, row = out.strip().splitlines()
    assert header == (
        "graph6,m,n,c,isolated,diam_sum,d,f,iv,im,gap_free,kappa,"
        "kappa_complete_convention,thm2.4,thm2.5"
    )
    assert row == "Ch,2,4,1,0,3,3,2,2,1,True,1,False,5,5"


def test_analyze_rejects_bad_m():
    rc, _, err = run_cli("analyze", "--graph6", "Ch", "--m", "1")
    assert rc == 2
    assert "error:" in err


def test_analyze_rejects_bad_graph6():
    rc, _, err = run_cli("analyze", "--graph6", "Bg!")
    assert rc == 2
    assert "byte" in err


def test_analyze_rejects_bad_spec_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    rc, _, err = run_cli("analyze", "--spec", str(path))
    assert rc == 2
    # bytes that are not UTF-8 are bad input too, not a crash
    path = tmp_path / "latin1.json"
    path.write_bytes(b'{"n": 1, "edges": [], "\xe9": 0}')
    for flag in ("--graph", "--spec"):
        rc, out, err = run_cli("analyze", flag, str(path))
        assert (rc, out) == (2, "")
        assert err.startswith("error: 'utf-8' codec can't decode")


K1 = {"n": 1, "edges": []}
K2 = {"n": 2, "edges": [[1, 2]]}


@pytest.mark.parametrize(
    "flag,doc",
    [
        ("--graph", {"n": 3, "edges": 5}),
        ("--graph", {"n": True, "edges": []}),
        ("--graph", {"n": 2, "edges": [[True, 2]]}),
        ("--spec", {"base": K2, "S": 5, "H": [K1]}),
        ("--spec", {"base": K2, "S": [1], "H": 5}),
        ("--spec", {"base": K2, "S": [[1]], "H": [K1]}),
        ("--spec", {"base": K2, "S": [True], "H": [K1]}),
    ],
    ids=["edges-int", "n-bool", "label-bool", "S-int", "H-int", "S-nested", "S-bool"],
)
def test_analyze_rejects_malformed_json(tmp_path, flag, doc):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(doc))
    rc, out, err = run_cli("analyze", flag, str(path))
    assert (rc, out) == (2, "")
    assert err.startswith("error: ")


def test_analyze_missing_file():
    rc, _, err = run_cli("analyze", "--graph", "/nonexistent/graph.json")
    assert rc == 2
    assert "error:" in err


def test_oracle_cap_is_exit_three(tmp_path):
    doc = {"n": 13, "edges": [[i, i + 1] for i in range(1, 13)]}
    path = tmp_path / "p13.json"
    path.write_text(json.dumps(doc))
    rc, _, err = run_cli("analyze", "--graph", str(path), "--oracle")
    assert rc == 3
    assert "capped" in err
    # the message names the size it saw and the cap: 2 * 13 variables
    assert err == "error: betti table capped (size 26 > cap 20)\n"


# corbel in a child process under a 1 GB address-space limit, so a run that
# builds something huge fails with MemoryError instead of swapping
_LIMITED = """
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
from corbel.cli import main
sys.exit(main(sys.argv[1:]))
"""
_SRC = str(Path(__file__).resolve().parents[1] / "src")
LIMITED_ENV = dict(
    os.environ, PYTHONPATH=os.pathsep.join(filter(None, (_SRC, os.environ.get("PYTHONPATH"))))
)


def limited_cli(*argv) -> list[str]:
    return [sys.executable, "-c", _LIMITED, *argv]


SIX_EDGES = [[i, i + 1] for i in range(1, 7)]


@pytest.mark.parametrize(
    "flag,doc,extra,size",
    [
        ("--graph", {"n": 10**6, "edges": SIX_EDGES}, ("--oracle",), 10**6),
        ("--graph", {"n": 4000, "edges": [[i, i + 1] for i in range(1, 4000)]}, (), 4000),
        (
            "--spec",
            {"base": {"n": 10**6, "edges": SIX_EDGES}, "S": [1], "H": [{"n": 1, "edges": []}]},
            (),
            10**6 + 1,
        ),
        (
            # a whisker on 70,000 edgeless vertices: its composite has
            # 140,000-bit neighbour masks, so it must not be built
            "--spec",
            {
                "base": {"n": 70000, "edges": []},
                "S": list(range(1, 70001)),
                "H": [{"n": 1, "edges": []}] * 70000,
            },
            (),
            140000,
        ),
        # parsing either file would allocate 10^8 words, so the cap is read first
        ("--graph", {"n": 10**8, "edges": []}, (), 10**8),
        (
            "--spec",
            {"base": {"n": 10**8, "edges": []}, "S": [1], "H": [{"n": 1, "edges": []}]},
            (),
            10**8 + 1,
        ),
    ],
    ids=[
        "graph-1e6-oracle",
        "graph-p4000",
        "spec-1e6-base",
        "spec-whisker-70000",
        "graph-1e8-unparsed",
        "spec-1e8-base-unparsed",
    ],
)
def test_oversized_analyze_exits_three_before_any_graph_search(tmp_path, flag, doc, extra, size):
    # every search over the graph takes time or memory in n; the capped
    # induced matching search refuses the graph first
    path = tmp_path / "input.json"
    path.write_text(json.dumps(doc))
    argv = limited_cli("analyze", flag, str(path), *extra)
    done = subprocess.run(argv, env=LIMITED_ENV, capture_output=True, text=True, timeout=3)
    assert (done.returncode, done.stdout) == (3, "")
    assert done.stderr == f"error: induced matching search capped (size {size} > cap 16)\n"
    # a bad --m is a usage error, read before the input's size, whichever flag gives it
    done = subprocess.run(
        argv + ["--m", "1"], env=LIMITED_ENV, capture_output=True, text=True, timeout=3
    )
    assert (done.returncode, done.stderr) == (2, "error: m must be at least 2\n")


@pytest.mark.parametrize("flag", ["--graph", "--spec"])
def test_deeply_nested_json_is_bad_input(tmp_path, flag):
    # the JSON parser recurses once per level, past the interpreter's limit here
    path = tmp_path / "nested.json"
    path.write_text("[" * 100_000)
    argv = limited_cli("analyze", flag, str(path))
    done = subprocess.run(argv, env=LIMITED_ENV, capture_output=True, text=True, timeout=3)
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr == f"error: {path}: JSON nested too deeply\n"


def test_verify_pass_and_fail_codes():
    rc, out, err = run_cli("verify", "thm2.4")
    assert rc == 0
    assert "31 passed, 0 failed" in err
    doc = json.loads(out)
    assert doc["failed"] == 0
    assert doc["tag"] == "thm2.4"

    rc, out, err = run_cli("verify", "lem5.1")
    assert rc == 1
    assert "119 passed, 1 failed" in err
    doc = json.loads(out)
    bad = [r for r in doc["records"] if r["verdict"] != "pass"]
    assert [r["id"] for r in bad] == ["k2|S=1,2|H=2k1,2k1"]


def test_verify_unknown_tag():
    rc, _, err = run_cli("verify", "bogus-tag")
    assert rc == 2
    assert "unknown verification tag" in err


def test_verify_takes_no_m_option(capsys):
    # sweeps always run at m = 2; argparse reads --m as an ambiguous prefix
    with pytest.raises(SystemExit) as exc:
        main(["verify", "enum", "--m", "2"])
    assert exc.value.code == 2
    assert "--m" in capsys.readouterr().err


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_verify_rejects_jobs_below_one(jobs):
    rc, _, err = run_cli("verify", "enum", "--jobs", jobs)
    assert rc == 2
    assert "jobs" in err
    with pytest.raises(UsageError):
        run_verification("enum", jobs=int(jobs))


@pytest.mark.parametrize(
    "tag, opts",
    [
        ("thm2.4", {"max_n": 0}),
        ("thm2.4", {"max_n": -1}),
        ("thm3.2", {"max_n": 3}),
        # sizes whose universe is empty: a sweep that tests nothing must not pass
        ("thm3.2", {"max_total": 1}),
        ("thm5.6", {"max_total": 1}),
        ("thm4.6", {"max_base": 1}),
        ("exact-seq", {"max_n": 2}),
    ],
)
def test_verify_rejects_bad_size_options(tag, opts):
    argv = [f"--{k.replace('_', '-')}={v}" for k, v in opts.items()]
    rc, out, err = run_cli("verify", tag, *argv)
    assert rc == 2
    assert out == ""
    assert "error:" in err
    with pytest.raises(UsageError):
        run_verification(tag, **opts)


@pytest.mark.parametrize(
    "tag, flag", [("thm3.3", "--max-base"), ("gb-oracle", "--max-n"), ("enum", "--max-n")]
)
def test_verify_above_the_enumeration_cap_exits_three(tag, flag):
    # a size cap, not a usage error: the README's exit 3
    rc, out, err = run_cli("verify", tag, flag, "8")
    assert rc == 3
    assert out == ""
    assert "connected graph enumeration capped: max_n 8 > 7" in err


def test_pool_is_clamped_to_cpus_and_instances(monkeypatch):
    sizes = []

    class RecordingPool:
        """Stands in for ProcessPoolExecutor: records max_workers, maps in-process."""

        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return list(map(fn, items))

    monkeypatch.setattr(cli, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 3)
    serial = run_verification("enum", max_n=5)
    assert sizes == []
    pooled = run_verification("enum", jobs=5000, max_n=5)
    assert sizes == [3]
    assert pooled.records == serial.records
    run_verification("enum", jobs=5000, max_n=2)
    assert sizes == [3, 2]
    # one instance or one job runs serially, without a pool
    run_verification("enum", jobs=5000, max_n=1)
    run_verification("enum", jobs=1, max_n=5)
    assert sizes == [3, 2]


def test_each_verify_run_starts_from_an_empty_engine(monkeypatch):
    # C5's class is resolved before the run; the run must still build one
    # table for each of the 31 classes, C5's included
    betti.oracle_depth_reg(graph_from_name("c5"))
    built = []
    table = betti.betti_table
    monkeypatch.setattr(betti, "betti_table", lambda ideal: built.append(ideal) or table(ideal))
    run = run_verification("thm2.4")
    assert len(run.records) == len(built) == 31


def _real_pool_of_two(monkeypatch) -> list:
    """Record each real pool's size; workers start from empty caches."""
    sizes = []

    class RecordingPool(cli.ProcessPoolExecutor):
        def __init__(self, max_workers):
            sizes.append(max_workers)
            super().__init__(max_workers=max_workers)

    monkeypatch.setattr(cli, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)
    return sizes


def test_real_pool_matches_the_serial_run(monkeypatch):
    sizes = _real_pool_of_two(monkeypatch)
    pooled = run_verification("thm4.6", jobs=2)
    assert sizes == [2]
    serial = run_verification("thm4.6", jobs=1)
    assert pooled.universe == serial.universe
    assert pooled.records == serial.records


def _pooled_digest_is_pinned(monkeypatch, tag: str) -> bool:
    from test_acceptance import RECORD_DIGESTS

    sizes = _real_pool_of_two(monkeypatch)
    pooled = run_verification(tag, jobs=2)
    assert sizes == [2]
    digest = hashlib.sha256(json.dumps(pooled.records, sort_keys=True).encode()).hexdigest()
    return digest == RECORD_DIGESTS[tag]


def test_real_pool_matches_the_pinned_digest_where_classes_repeat(monkeypatch):
    # thm3.2's 89 coronas fall into 40 isomorphism classes, so labelings of
    # one class land in different workers, each with its own class cache
    assert _pooled_digest_is_pinned(monkeypatch, "thm3.2")


@pytest.mark.parametrize("tag", ["thm4.3", "exact-seq", "lem5.1"])
def test_real_pool_carries_graph_payloads_with_extra_keys(monkeypatch, tag):
    # each payload crosses to a worker as its Graph or GenCoronaSpec beside
    # plain keys: thm4.3's labeling "kind" and "p", exact-seq's vertex "v",
    # and lem5.1's "complete" records, which carry no graph at all
    assert _pooled_digest_is_pinned(monkeypatch, tag)


def test_enumerate_streams_specs():
    rc, out, _ = run_cli("enumerate", "--class", "g2", "--max-total", "5")
    assert rc == 0
    lines = out.strip().splitlines()
    assert len(lines) == 37
    first = json.loads(lines[0])
    assert set(first) == {"base", "S", "H"}
    rc, out, _ = run_cli("enumerate", "--class", "g1", "--max-base", "2")
    assert rc == 0
    assert len(out.strip().splitlines()) == 6
    # the smallest size: K1 bare and K1 whiskered
    rc, out, _ = run_cli("enumerate", "--class", "g1", "--max-base", "1")
    assert rc == 0
    assert [json.loads(line)["S"] for line in out.splitlines()] == [[], [1]]


def test_enumerate_writes_its_first_line_before_the_stream_ends():
    # the whole stream is millions of lines; the head must not wait for them
    argv = limited_cli("enumerate", "--class", "g2", "--max-base", "7", "--max-total", "20")
    proc = subprocess.Popen(
        argv, env=LIMITED_ENV, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True
    )
    try:
        ready, _, _ = select.select([proc.stdout], [], [], 5)
        assert ready, "no output within 5 s"
        first = json.loads(proc.stdout.readline())
    finally:
        proc.kill()
        proc.wait(timeout=10)
        proc.stdout.close()
    assert first == {"base": {"n": 1, "edges": []}, "S": [], "H": []}


@pytest.mark.parametrize(
    "argv,lines,code",
    [
        (("enumerate", "--class", "g2", "--max-base", "7", "--max-total", "20"), 1, 0),
        # over 64 KB of JSON, more than the pipe holds
        (("verify", "thm2.4", "--max-n", "7"), 1, 0),
        # the reader leaves before any output, and the verdict still comes through
        (("verify", "thm3.2", "--max-total", "8"), 0, 1),
    ],
    ids=["enumerate", "verify-read-one-line", "verify-failing-unread"],
)
def test_a_closed_pipe_ends_output_quietly(argv, lines, code):
    proc = subprocess.Popen(
        limited_cli(*argv),
        env=LIMITED_ENV,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    try:
        for _ in range(lines):
            assert proc.stdout.readline()
        proc.stdout.close()
        _, err = proc.communicate(timeout=30)
    finally:
        proc.kill()
        proc.wait(timeout=10)
    assert proc.returncode == code
    for sign in ("error:", "Traceback", "Exception ignored"):
        assert sign not in err


ENUMERATE_TO_FOUR = ("enumerate", "--class", "g2", "--max-base", "2", "--max-total", "4")


@pytest.mark.parametrize("names", ["k30000", "1000000000k1", "k1,k30000"])
def test_enumerate_leaves_out_attachments_too_large_to_fit(names):
    # K30000 has 4.5 * 10^8 edges and 10^9 K1 a 10^9-entry mask tuple;
    # neither fits with a base under --max-total 4, so neither is built
    argv = limited_cli(*ENUMERATE_TO_FOUR, "--attachments", names)
    done = subprocess.run(argv, env=LIMITED_ENV, capture_output=True, text=True, timeout=2)
    assert (done.returncode, done.stderr) == (0, "")
    if names.startswith("k1,"):
        _, want, _ = run_cli(*ENUMERATE_TO_FOUR, "--attachments", "k1")
        assert done.stdout == want
        assert hashlib.sha256(want.encode()).hexdigest().startswith("442b7183")
    else:
        # only K1 and K2 with no attachment set are left
        assert [json.loads(line)["H"] for line in done.stdout.splitlines()] == [[], []]


def test_enumerate_requires_class():
    with pytest.raises(SystemExit):
        main(["enumerate"])


def test_enumerate_output_is_unchanged_by_explicit_defaults():
    _, default, _ = run_cli("enumerate", "--class", "g2", "--max-total", "5")
    _, explicit, _ = run_cli(
        "enumerate", "--class", "g2", "--max-total", "5", "--attachments", "k1,k2,p3,2k1"
    )
    assert explicit == default


@pytest.mark.parametrize(
    "argv",
    [
        ("--class", "g1", "--max-base", "0"),
        ("--class", "g2", "--max-base", "0"),
        ("--class", "g2", "--max-total", "0"),
        ("--class", "g2", "--max-total", "-3"),
        ("--class", "g1", "--max-total", "5"),
        ("--class", "g1", "--attachments", "k1"),
        ("--class", "g2", "--attachments", ""),
        ("--class", "g2", "--attachments", "k1,k1"),
        # a name too large to fit is still checked, and so are the rest
        ("--class", "g2", "--max-total", "4", "--attachments", "k30000,c2"),
        ("--class", "g2", "--max-total", "4", "--attachments", "1000000000k1,x3"),
        # a graph on no vertices is no attachment, and is refused before any line
        ("--class", "g2", "--max-base", "2", "--max-total", "4", "--attachments", "0k1"),
    ],
)
def test_enumerate_rejects_bad_options(argv, tmp_path):
    rc, out, err = run_cli("enumerate", *argv)
    assert (rc, out) == (2, "")
    assert err.startswith("error: ")
    # a rejected run creates no --out file either
    path = tmp_path / "specs.jsonl"
    assert run_cli("enumerate", *argv, "--out", str(path))[0] == 2
    assert not path.exists()


# --- random command lines, run in process --------------------------------------

@st.composite
def _graph(draw):
    """A graph JSON document, well formed for n from 0 to 10**6 or malformed."""
    n = draw(st.one_of(st.integers(0, 9), st.sampled_from([17, 10**6])))
    ends = st.integers(1, max(1, min(n, 9)))
    edges = draw(st.lists(st.tuples(ends, ends).filter(lambda e: e[0] != e[1]), max_size=10))
    bad_n = draw(st.one_of(st.just(-1), st.booleans(), st.text(max_size=2), st.none()))
    bad_edges = draw(st.lists(st.one_of(st.integers(-1, 99), st.text(max_size=1)), max_size=3))
    good = {"n": n, "edges": edges}
    bad = [{"n": n}, {"n": bad_n, "edges": edges}, {"n": n, "edges": bad_edges}]
    return draw(st.sampled_from([good, good, good, *bad]))


@st.composite
def _spec(draw):
    """A spec JSON document: a base, attachment vertices and attachments, fitting or not."""
    attach = draw(st.lists(st.integers(0, 9), max_size=4, unique=True))
    count = len(attach) + draw(st.sampled_from([0, 0, 0, 1]))
    attachments = draw(st.lists(_graph(), min_size=count, max_size=count))
    return {"base": draw(_graph()), "S": attach, "H": attachments}


# a JSON document of the right shape or not, or bytes that are no JSON or no UTF-8
_DOCS = (_graph(), _spec(), st.lists(st.integers(), max_size=3))
_FILE = st.one_of(*(d.map(lambda x: json.dumps(x).encode()) for d in _DOCS), st.binary(max_size=6))
# graph6 text: random, or the encoding of a graph on up to 8 vertices
_G6 = st.one_of(
    st.text(alphabet=[chr(c) for c in range(63, 127)], max_size=6),
    st.text(max_size=4),
    st.integers(1, 8).flatmap(
        lambda n: st.lists(st.tuples(st.integers(1, n), st.integers(1, n)), max_size=12).map(
            lambda es: to_graph6(from_edge_list(n, [(a, b) for a, b in es if a != b]))
        )
    ),
)


@st.composite
def _command_lines(draw):
    """(argv, file bytes): argv names the file as FILE wherever it reads one."""
    pick = lambda *choices: list(draw(st.sampled_from(choices)))  # noqa: E731
    size = lambda *flags: [(f, str(v)) for f in flags for v in range(-1, 5)]  # noqa: E731
    command = draw(st.sampled_from(["analyze", "verify", "enumerate"]))
    if command == "analyze":
        g6 = draw(_G6)
        one = [("--graph", "FILE"), ("--spec", "FILE"), ("--graph6", g6)]
        argv = pick(*one, *one, (), ("--spec", "FILE", "--graph6", g6))
        argv += pick((), (), *(("--m", str(m)) for m in range(-1, 5)))
        argv += pick((), ("--oracle",)) + pick((), ("--decompose",))
    elif command == "verify":
        # always one size option, so no tag sweeps its default universe; jobs <= 1 starts no pool
        tag = draw(st.sampled_from([*sorted(CHECKS), "thm9.9"]))
        own = "--" + CHECKS[tag].size.replace("_", "-") if tag in CHECKS else "--max-n"
        argv = [tag, *pick(*size(own, own, "--max-n", "--max-base", "--max-total"))]
        argv += pick((), (), ("--jobs", "1"), ("--jobs", "0"), ("--jobs", "-1"))
    else:
        argv = pick((), *[("--class", "g1"), ("--class", "g2")] * 2)
        argv += pick((), *size("--max-base")) + pick((), *size("--max-total"))
        argv += pick((), ("--attachments", "k1,p3"), ("--attachments", "k1,k1"))
    if command != "enumerate":
        argv += pick((), ("--format", "json"), ("--format", "csv"))
    return [command, *argv], draw(_FILE)


@settings(
    max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(case=_command_lines())
def test_random_command_lines_exit_with_a_documented_code(case, tmp_path):
    argv, data = case
    path = tmp_path / "input.json"
    path.unlink(missing_ok=True)  # a new file: rewriting one in place can wait for a disk flush
    path.write_bytes(data)
    argv = [str(path) if arg == "FILE" else arg for arg in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = main(argv)
        except SystemExit as exc:  # argparse's usage errors
            rc = exc.code
    assert rc in (0, 1, 2, 3), (argv, data)
