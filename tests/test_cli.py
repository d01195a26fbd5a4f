"""Command-line surface: formats, exit codes, determinism."""

import contextlib
import io
import json
import multiprocessing
import os
import subprocess
import sys
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from freiman.cli import _resolve_jobs, main
from freiman.verify import run_verify
from helpers import cli_env

C4_JSON = '{"n": 4, "edges": [[1, 2], [2, 3], [3, 4], [4, 1]]}'
K4_JSON = '{"n": 4, "edges": [[1, 2], [1, 3], [1, 4], [2, 3], [2, 4], [3, 4]]}'
BOWTIE_JSON = '{"n": 5, "edges": [[1, 2], [2, 3], [1, 3], [3, 4], [4, 5], [3, 5]]}'


def run_cli(args, capsys):
    code = main(args)
    out, err = capsys.readouterr()
    return code, out, err


def write(tmp_path, name, content):
    path = tmp_path / name
    path.write_text(content)
    return str(path)


def test_graph_classify_c4(tmp_path, capsys):
    path = write(tmp_path, "c4.json", C4_JSON)
    code, out, err = run_cli(["graph", "classify", path, "--no-timing"], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["verdict"]["freiman"] is True
    assert report["fiber"]["mu_series"] == [1, 4, 9]
    assert report["fiber"]["h_partial"] == [1, 1, 0]
    assert report["agreement"] is True
    assert "timing" not in report


def test_graph_classify_table_format(tmp_path, capsys):
    path = write(tmp_path, "c4.json", C4_JSON)
    code, out, _ = run_cli(
        ["graph", "classify", path, "--format", "table", "--no-timing"], capsys
    )
    assert code == 0
    assert "freiman: yes" in out


def test_ideal_analyze(tmp_path, capsys):
    path = write(tmp_path, "i.txt", "x1*x2, x2*x3, x3*x4, x4*x1")
    code, out, _ = run_cli(
        ["ideal", "analyze", path, "--max-power", "3", "--no-timing"], capsys
    )
    assert code == 0
    report = json.loads(out)
    assert report["fiber"]["freiman"] is True
    assert report["series"]["mu_series"] == [1, 4, 9, 16]
    assert report["series"]["h_vector"] == [1, 1, 0, 0]


def test_matroid_classify_bowtie(tmp_path, capsys):
    path = write(tmp_path, "bowtie.json", BOWTIE_JSON)
    code, out, _ = run_cli(
        ["matroid", "classify", path, "--hvector", "--no-timing"], capsys
    )
    assert code == 0
    report = json.loads(out)
    assert report["verdict"]["freiman"] is False
    assert report["verdict"]["spread_formula"] == 5
    assert report["verdict"]["spread_numeric"] == 5
    assert report["matroid"]["num_bases"] == 9
    assert len(report["matroid"]["bases"]) == 9
    assert report["matroid"]["bases"] == sorted(report["matroid"]["bases"])
    assert report["fiber"]["mu_series"] == [1, 9, 36]
    assert report["h_polynomial"] == [1, 4, 1]
    assert report["verdict"]["regularity"] == 3


def test_exit_code_parse_error(tmp_path, capsys):
    path = write(tmp_path, "bad.txt", "x1, x1*x2")  # not an antichain
    code, _, err = run_cli(["ideal", "analyze", path], capsys)
    assert code == 1
    assert "antichain" in err


def test_exit_code_missing_file(capsys):
    code, _, err = run_cli(["graph", "classify", "/nonexistent/g.json"], capsys)
    assert code == 1
    assert "error" in err


def test_exit_code_precondition(tmp_path, capsys):
    path = write(tmp_path, "nqe.txt", "x1^3, x1^2*x2^2, x2^3")
    code, _, err = run_cli(["ideal", "analyze", path], capsys)
    assert code == 2
    assert "quasi-equigenerated" in err


def test_exit_code_resource_cap(tmp_path, capsys):
    path = write(tmp_path, "k4.json", K4_JSON)
    code, _, err = run_cli(["graph", "classify", path, "--cap", "5"], capsys)
    assert code == 3
    assert "cap" in err


def test_graph_commands_cap_the_vertex_pairs(tmp_path, capsys):
    # C(100000, 2) vertex pairs: the graph facts would take gigabytes
    path = write(tmp_path, "huge.json", '{"n": 100000, "edges": [[1, 2]]}')
    for command in (["graph", "classify"], ["matroid", "classify", "--hvector"]):
        code, out, err = run_cli([*command, path], capsys)
        assert code == 3, command
        assert out == ""
        assert err == (
            "error: resource cap exceeded: 4999950000 vertex pairs on 100000 "
            "vertices (cap 1000000)\n"
        )
    # 8 * cap is the bound: C(5, 2) = 10 pairs pass at cap 2 and not at cap 1
    path = write(tmp_path, "p5.json", '{"n": 5, "edges": [[1, 2]]}')
    assert run_cli(["graph", "classify", path, "--cap", "2"], capsys)[0] == 0
    code, _, err = run_cli(["graph", "classify", path, "--cap", "1"], capsys)
    assert code == 3 and "10 vertex pairs on 5 vertices" in err


def test_ideal_analyze_caps_the_dense_exponent_entries(tmp_path, capsys):
    # 2 generators x 16 variables = 32 = 8 * 4 entries pass at cap 4
    path = write(tmp_path, "x16.txt", "x1, x16")
    args = ["ideal", "analyze", "--max-power", "2", "--no-timing", "--cap", "4"]
    assert run_cli([*args, path], capsys)[0] == 0
    path = write(tmp_path, "x17.txt", "x1, x17")
    code, out, err = run_cli([*args, path], capsys)
    assert code == 3 and out == ""
    assert err == "error: resource cap exceeded: 34 exponent entries in 17 variables (cap 4)\n"
    # a nine-digit index no longer builds gigabytes of vectors
    path = write(tmp_path, "huge.txt", "x1, x999999999")
    code, _, err = run_cli(["ideal", "analyze", path], capsys)
    assert code == 3 and "in 999999999 variables (cap 1000000)" in err


def test_ideal_analyze_caps_the_max_power(tmp_path, capsys):
    # K = 12 takes 78 <= 8 * 10 binomial terms, K = 13 takes 91
    path = write(tmp_path, "x1x2.txt", "x1*x2")
    args = ["ideal", "analyze", path, "--no-timing", "--cap", "10", "--max-power"]
    assert run_cli([*args, "12"], capsys)[0] == 0
    code, out, err = run_cli([*args, "13"], capsys)
    assert code == 3 and out == ""
    assert err == "error: resource cap exceeded: 91 binomial terms up to power 13 (cap 10)\n"
    # a million powers are refused at the default cap before any sumset
    code, _, err = run_cli(["ideal", "analyze", path, "--max-power", "1000000"], capsys)
    assert code == 3 and "500000500000 binomial terms" in err


def test_cap_env_variable(tmp_path, capsys, monkeypatch):
    path = write(tmp_path, "k4.json", K4_JSON)
    monkeypatch.setenv("FREIMAN_CAP", "5")
    code, _, _ = run_cli(["graph", "classify", path], capsys)
    assert code == 3
    # an explicit --cap wins over the environment
    monkeypatch.setenv("FREIMAN_CAP", "5")
    code, _, _ = run_cli(["graph", "classify", path, "--cap", "100000"], capsys)
    assert code == 0


def test_invalid_cap_is_a_parse_error(tmp_path, capsys, monkeypatch):
    path = write(tmp_path, "k4.json", K4_JSON)
    for value in ("abc", "0", "-5", "1.5"):
        monkeypatch.setenv("FREIMAN_CAP", value)
        code, out, err = run_cli(["graph", "classify", path], capsys)
        assert code == 1, value
        assert out == ""
        assert err.startswith("error: FREIMAN_CAP") and err.count("\n") == 1
    monkeypatch.delenv("FREIMAN_CAP")
    for value in ("0", "-5"):
        code, out, err = run_cli(["graph", "classify", path, "--cap", value], capsys)
        assert code == 1, value
        assert out == ""
        assert err.startswith("error: --cap") and err.count("\n") == 1


# an integer literal with more digits than int() converts (4300)
HUGE = "9" * 5000


@pytest.mark.parametrize(
    "argv, content, env, message",
    [
        pytest.param(["graph", "classify"], f'{{"n": {HUGE}, "edges": []}}', None,
                     "invalid JSON: number too long", id="json-graph"),
        pytest.param(["ideal", "analyze"], f"[[{HUGE}]]", None,
                     "invalid JSON: number too long", id="json-ideal"),
        pytest.param(["graph", "classify"], C4_JSON, HUGE,
                     "FREIMAN_CAP: number too long", id="cap-env"),
    ],
)
def test_oversized_integers_are_parse_errors(tmp_path, capsys, monkeypatch, argv,
                                             content, env, message):
    if env is not None:
        monkeypatch.setenv("FREIMAN_CAP", env)
    code, out, err = run_cli([*argv, write(tmp_path, "input.json", content)], capsys)
    assert (code, out, err) == (1, "", f"error: {message}\n")


def test_verify_random_needs_two_vertices(capsys):
    code, out, err = run_cli(
        ["verify", "--mode", "random", "--max-vertices", "1", "--count", "3",
         "--jobs", "1"],
        capsys,
    )
    assert code == 2
    assert out == ""
    assert "max-vertices" in err


def test_verify_runs_that_would_check_no_graph_exit_2(capsys):
    for args, flag in (
        (["--max-vertices", "1"], "--max-vertices"),
        (["--mode", "random", "--count", "0"], "--count"),
    ):
        code, out, err = run_cli(["verify", "--jobs", "1", *args], capsys)
        assert code == 2, args
        assert out == ""
        assert flag in err and err.count("\n") == 1


def test_no_partial_output_on_error(tmp_path, capsys):
    path = write(tmp_path, "k4.json", K4_JSON)
    code, out, _ = run_cli(["graph", "classify", path, "--cap", "5"], capsys)
    assert code == 3
    assert out == ""


def test_verify_small_run(capsys):
    code, out, _ = run_cli(
        ["verify", "--max-vertices", "4", "--no-timing", "--jobs", "1"], capsys
    )
    assert code == 0
    report = json.loads(out)
    assert report["all_passed"] is True
    assert report["counterexamples"] == []
    assert {row["name"] for row in report["rows"]} >= {
        "graph-classifier-vs-numeric",
        "matroid-classifier-vs-numeric",
    }


def test_verify_random_determinism(capsys):
    args = [
        "verify", "--mode", "random", "--count", "25", "--seed", "7",
        "--max-vertices", "7", "--no-timing", "--jobs", "1",
    ]
    code1, out1, _ = run_cli(args, capsys)
    code2, out2, _ = run_cli(args, capsys)
    assert code1 == code2 == 0
    assert out1 == out2


def test_verify_seed_changes_output(capsys):
    base = [
        "verify", "--mode", "random", "--count", "10", "--no-timing", "--jobs", "1",
    ]
    _, out1, _ = run_cli(base + ["--seed", "1"], capsys)
    _, out2, _ = run_cli(base + ["--seed", "2"], capsys)
    assert out1 != out2


def test_analysis_reports_are_byte_identical(tmp_path, capsys):
    gpath = write(tmp_path, "k4.json", K4_JSON)
    ipath = write(tmp_path, "i.txt", "x1*x2, x2*x3, x3*x4, x4*x1")
    for args in (
        ["graph", "classify", gpath, "--no-timing"],
        ["ideal", "analyze", ipath, "--no-timing"],
        ["matroid", "classify", gpath, "--hvector", "--no-timing"],
    ):
        _, out1, _ = run_cli(args, capsys)
        _, out2, _ = run_cli(args, capsys)
        assert out1 == out2, args


def test_missing_dump_dir_fails_before_the_sweep(tmp_path, capsys, monkeypatch):
    def no_sweep(**_):
        raise AssertionError("the sweep ran")

    monkeypatch.setattr("freiman.verify.run_verify", no_sweep)
    not_a_dir = write(tmp_path, "file.txt", "")
    for dump_dir in (str(tmp_path / "missing"), not_a_dir):
        code, out, err = run_cli(
            ["verify", "--max-vertices", "3", "--dump-dir", dump_dir], capsys
        )
        assert code == 1
        assert out == ""
        assert err.startswith("error: --dump-dir")


def test_jobs_below_one_is_a_parse_error(capsys, monkeypatch):
    def no_sweep(**_):
        raise AssertionError("the sweep ran")

    monkeypatch.setattr("freiman.verify.run_verify", no_sweep)
    for value in ("0", "-3"):
        code, out, err = run_cli(["verify", "--jobs", value], capsys)
        assert code == 1, value
        assert out == ""
        assert err.startswith("error: --jobs") and err.count("\n") == 1


def test_jobs_are_clamped_to_the_cpu_count(capsys, monkeypatch):
    # run_verify asks for at most one worker per CPU and per chunk; the
    # pool is stubbed and runs the chunks here, so no process starts
    sizes = []

    class Pool:
        def __init__(self, workers):
            sizes.append(workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, worker, chunks):
            return list(map(worker, chunks))

    context = SimpleNamespace(Pool=Pool)
    monkeypatch.setattr(multiprocessing, "get_context", lambda method: context)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    assert _resolve_jobs(None) is None
    assert _resolve_jobs(10**12) == 10**12  # clamped by run_verify alone
    # n = 2 and n = 3 are one chunk each
    code, _, _ = run_cli(["verify", "--max-vertices", "3", "--jobs", str(10**12)], capsys)
    assert code == 0 and sizes == [2]
    report = run_verify(mode="random", max_vertices=4, count=10, jobs=10**6)
    assert report["all_passed"] and sizes == [2, 3]
    monkeypatch.setattr(os, "cpu_count", lambda: 1)
    assert run_verify(max_vertices=3, jobs=10**6)["all_passed"] and sizes == [2, 3]


def test_verify_failure_exits_4(tmp_path, capsys, monkeypatch):
    failing = {
        "command": "verify",
        "rows": [{"name": "some-row", "instances": 1, "failures": 1,
                  "skipped": 0, "status": "FAIL"}],
        "counterexamples": [{"row": "some-row", "graph": {"n": 2, "edges": [[1, 2]]}}],
        "all_passed": False,
    }
    monkeypatch.setattr("freiman.verify.run_verify", lambda **_: failing)
    code, out, err = run_cli(
        ["verify", "--dump-dir", str(tmp_path), "--no-timing"], capsys
    )
    assert code == 4
    assert err == ""
    assert json.loads(out) == failing
    dumped = list(tmp_path.glob("counterexample-some-row-*.json"))
    assert len(dumped) == 1
    assert json.loads(dumped[0].read_text()) == {"n": 2, "edges": [[1, 2]]}


def test_internal_invariant_exits_5(tmp_path, capsys, monkeypatch):
    import freiman.matroids as matroids

    path = write(tmp_path, "k4.json", K4_JSON)
    count = matroids.matrix_tree_count
    monkeypatch.setattr(matroids, "matrix_tree_count", lambda g: count(g) + 1)
    code, out, err = run_cli(["matroid", "classify", path], capsys)
    assert code == 5
    assert out == ""
    assert err.startswith("error: internal invariant violated: forest enumeration")
    assert err.count("\n") == 1


def test_h_degree_bound_violation_exits_5(tmp_path, capsys, monkeypatch):
    import freiman.matroids as matroids

    path = write(tmp_path, "bowtie.json", BOWTIE_JSON)
    h_vector = matroids.h_vector
    monkeypatch.setattr(matroids, "h_vector", lambda mu, ell: h_vector(mu, ell)[:-1] + [1])
    code, out, err = run_cli(["matroid", "classify", path, "--hvector"], capsys)
    assert code == 5
    assert out == ""
    assert err == (
        "error: internal invariant violated: "
        "h-polynomial exceeds its degree bound e - 2\n"
    )


def test_installed_entry_point(tmp_path):
    path = write(tmp_path, "c4.json", C4_JSON)
    proc = subprocess.run(
        [sys.executable, "-m", "freiman.cli", "graph", "classify", path, "--no-timing"],
        capture_output=True,
        text=True,
        env=cli_env(),
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["verdict"]["freiman"] is True


def test_counterexample_dump(tmp_path):
    from freiman.cli import _write_counterexamples

    report = {
        "counterexamples": [
            {"row": "some-row", "graph": {"n": 2, "edges": [[1, 2]]}}
        ]
    }
    _write_counterexamples(report, str(tmp_path))
    dumped = list(tmp_path.glob("counterexample-*.json"))
    assert len(dumped) == 1
    assert json.loads(dumped[0].read_text()) == {"n": 2, "edges": [[1, 2]]}


def test_usage_errors_exit_1(tmp_path, capsys):
    path = write(tmp_path, "c4.json", C4_JSON)
    for args, message in (
        (["graph", "classify", path, "--cap", "1.5"], "argument --cap: invalid int"),
        (["ideal", "analyze", path, "--max-power", "x"], "argument --max-power"),
        (["frobnicate"], "argument topic: invalid choice: 'frobnicate'"),
        (["graph", "classify", path, "--bogus"], "unrecognized arguments: --bogus"),
    ):
        code, out, err = run_cli(args, capsys)
        assert code == 1, args
        assert out == ""
        assert err.startswith("usage: freiman")
        assert f"error: {message}" in err


def test_usage_error_process_exit_status(tmp_path):
    path = write(tmp_path, "c4.json", C4_JSON)
    proc = subprocess.run(
        [sys.executable, "-m", "freiman.cli", "graph", "classify", path, "--cap", "1.5"],
        capture_output=True, text=True, env=cli_env(),
    )
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert "usage:" in proc.stderr and "Traceback" not in proc.stderr


def test_help_still_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["graph", "classify", "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: freiman graph classify")


DOCUMENTED_EXITS = {0, 1, 2, 3, 4, 5}
# Variable indices may be huge: the dense exponent entries are capped
# before any vector is built.  Vertex counts stay small to keep runs fast.
GRAPH_TEXT = st.one_of(
    st.builds(
        lambda n, edges: json.dumps({"n": n, "edges": edges}),
        st.integers(-1, 7),
        st.lists(st.lists(st.integers(-1, 8), max_size=3), max_size=12),
    ),
    st.builds(
        lambda n, edges: "\n".join([f"p {n} {len(edges)}", *(f"{u} {v}" for u, v in edges)]),
        st.integers(0, 7),
        st.lists(st.tuples(st.integers(0, 8), st.integers(0, 8)), max_size=12),
    ),
)
IDEAL_TEXT = st.one_of(
    st.builds(
        ", ".join,
        st.lists(
            st.builds(
                "*".join,
                st.lists(st.sampled_from(["x1", "x2", "x3^2", "x4", "x0", "x2^0",
                                          "x3000", "x2000000", "x999999999"]),
                         min_size=1, max_size=3),
            ),
            max_size=6,
        ),
    ),
    st.builds(json.dumps, st.lists(st.lists(st.integers(-1, 3), max_size=4), max_size=6)),
)
OVERSIZED_TEXT = st.sampled_from([
    f'{{"n": {HUGE}, "edges": []}}', f"[[{HUGE}]]", f"x{HUGE}", f"p {HUGE} 0",
])
COMMANDS = st.sampled_from([
    ["graph", "classify", "{file}"],
    ["matroid", "classify", "{file}"],
    ["matroid", "classify", "--hvector", "{file}"],
    ["ideal", "analyze", "{file}"],
    ["verify", "--jobs", "1", "--max-vertices", "3"],
    ["verify", "--jobs", "1", "--max-vertices", "4", "--mode", "random"],
    ["verify", "--jobs", "1", "--max-vertices", "1"],
    [],
])
TOKENS = st.lists(
    st.sampled_from([
        "--no-timing", "--format", "json", "table", "xml", "--cap", "1", "40",
        "1.5", "-3", "0", "--hvector", "--max-power", "2", "3", "x", "--count",
        "--seed", "--mode", "exhaustive", "-h", "--bogus", "extra",
    ]) | st.text(max_size=6),
    max_size=6,
)


@settings(max_examples=150, deadline=None)
@given(
    command=COMMANDS,
    tokens=TOKENS,
    content=st.one_of(st.text(max_size=40), GRAPH_TEXT, IDEAL_TEXT, OVERSIZED_TEXT),
)
@example(command=["graph", "classify", "{file}"], tokens=[],
         content=f'{{"n": {HUGE}, "edges": []}}')
@example(command=["ideal", "analyze", "{file}"], tokens=[], content=f"[[{HUGE}]]")
def test_every_outcome_is_a_documented_exit_code(tmp_path_factory, command, tokens, content):
    workdir = tmp_path_factory.mktemp("totality")
    path = workdir / "input.txt"
    path.write_text(content)
    argv = [str(path) if arg == "{file}" else arg for arg in command]
    if argv[:1] == ["verify"]:
        argv += ["--dump-dir", str(workdir)]
    # the last --cap wins, so every run stays small
    argv += [*tokens, "--cap", "2000"]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # --help
            code = exc.code
            assert code == 0 and ("-h" in argv or "--help" in argv), argv
    assert code in DOCUMENTED_EXITS, argv
    assert "Traceback" not in err.getvalue()
    if code in (1, 2, 3, 5):
        assert out.getvalue() == "" and err.getvalue().count("error: ") == 1, argv
