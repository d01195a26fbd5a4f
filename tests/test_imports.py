"""The lazy package namespace, and the modules each command loads."""

import importlib
import subprocess
import sys

import pytest

import freiman
from helpers import bench_module, cli_env

C4_JSON = '{"n": 4, "edges": [[1, 2], [2, 3], [3, 4], [4, 1]]}'
EQUIGENERATED = "x1*x2, x2*x3, x3*x4, x4*x1"
# modules a command should load only if it runs them; dataclasses and
# inspect none should load
HEAVY = (
    "dataclasses", "inspect", "multiprocessing", "fractions",
    "freiman.graphs", "freiman.matroids", "freiman.verify",
)
GRAPH_AND_MATROID = ["freiman.graphs", "freiman.matroids"]


def fresh_python(code, cwd):
    """stdout of `code` run by a new interpreter on this freiman package."""
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        env=cli_env(), cwd=cwd,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_import_loads_no_submodule(tmp_path):
    out = fresh_python(
        "import sys, freiman\n"
        "print(sorted(m for m in sys.modules if m.startswith('freiman.')))",
        tmp_path,
    )
    assert out == "[]\n"


@pytest.mark.parametrize(
    "argv, loaded",
    [
        pytest.param(["graph", "classify", "c4.json"], ["freiman.graphs"], id="graph"),
        pytest.param(
            ["matroid", "classify", "--hvector", "c4.json"], GRAPH_AND_MATROID,
            id="matroid",
        ),
        pytest.param(["ideal", "analyze", "ideal.txt"], [], id="ideal"),
        pytest.param(
            ["verify", "--max-vertices", "3", "--jobs", "1"],
            [*GRAPH_AND_MATROID, "freiman.verify"],
            id="verify-jobs-1",
        ),
    ],
)
def test_commands_load_only_what_they_run(tmp_path, argv, loaded):
    (tmp_path / "c4.json").write_text(C4_JSON)
    (tmp_path / "ideal.txt").write_text(EQUIGENERATED)
    out = fresh_python(
        "import contextlib, io, sys\n"
        "from freiman.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    code = main({argv + ['--no-timing']!r})\n"
        f"print(code, [m for m in {HEAVY!r} if m in sys.modules])",
        tmp_path,
    )
    assert out == f"0 {loaded}\n"


def test_every_export_is_its_defining_modules_object():
    for name in freiman.__all__:
        if name == "__version__":
            continue
        module = importlib.import_module(f"freiman.{freiman._EXPORTS[name]}")
        obj = getattr(freiman, name)
        assert obj is getattr(module, name), name
        assert getattr(obj, "__module__", module.__name__) == module.__name__, name


def test_exports_are_listed_and_never_cached():
    assert len(set(freiman.__all__)) == len(freiman.__all__)
    assert set(freiman.__all__) <= set(dir(freiman))
    assert callable(freiman.run_verify)
    assert "run_verify" not in vars(freiman)


def test_unknown_names_raise_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        freiman.no_such_name
    assert not hasattr(freiman, "errors_")


def test_star_import():
    namespace = {}
    exec("from freiman import *", namespace)
    assert set(freiman.__all__) <= set(namespace)
    assert namespace["SimpleGraph"] is freiman.SimpleGraph


def test_a_patched_definition_is_seen_through_the_package(monkeypatch):
    import freiman.verify

    original = freiman.verify.run_verify

    def stub(**_):
        return {}

    monkeypatch.setattr("freiman.verify.run_verify", stub)
    assert freiman.run_verify is stub
    monkeypatch.undo()
    assert freiman.run_verify is original


def test_benchmark_span_targets_still_exist():
    # the benchmark's tracer looks these names up at call time, so a
    # refactor that renames one breaks a traced run
    spans = bench_module("spans")
    assert spans.TARGETS
    for module, attr, _ in spans.TARGETS:
        target = getattr(importlib.import_module(f"freiman.{module}"), attr, None)
        assert callable(target), f"freiman.{module}.{attr}"
