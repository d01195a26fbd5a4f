"""Byte-identity of `--no-timing` reports against recorded golden files.

Each case runs the CLI in-process on an input from golden/reports/inputs
and compares its stdout byte for byte with golden/reports/<case>.json.
Refactors must leave every report unchanged; re-record (by running this
file as a script) only when a report change is intended.
"""

import sys
from pathlib import Path

import pytest

from freiman.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden" / "reports"
INPUTS = GOLDEN / "inputs"

GRAPHS = [
    "k4.json",
    "c4.json",
    "c6.json",
    "bowtie.json",
    "k23.json",
    "star_k13.json",
    "k23_pendant_trees.txt",
    "two_nonpolynomial_components.json",
]
IDEALS = ["c4_edge_ideal.txt", "quadrics.json"]

CASES = {}
for name in GRAPHS:
    stem = Path(name).stem
    CASES[f"graph-{stem}"] = ["graph", "classify", name]
    CASES[f"matroid-{stem}"] = ["matroid", "classify", name, "--hvector"]
for name in IDEALS:
    CASES[f"ideal-{Path(name).stem}"] = ["ideal", "analyze", name, "--max-power", "4"]
# the 36-generator matroidal ideal up to power 9
CASES["matroid-c4_bowtie_isolated"] = [
    "matroid", "classify", "c4_bowtie_isolated.json", "--hvector",
]
# exponents up to 140, so the fourth power needs more than 8 bits a coordinate
CASES["ideal-wide_fields"] = [
    "ideal", "analyze", "wide_fields.json", "--max-power", "4",
]
CASES["verify-exhaustive-n5"] = ["verify", "--max-vertices", "5"]
CASES["verify-random-c40-s3-n7"] = [
    "verify", "--mode", "random", "--count", "40", "--seed", "3", "--max-vertices", "7",
]


def _argv(case, dump_dir):
    args = list(CASES[case])
    if args[0] == "verify":
        args += ["--jobs", "1", "--dump-dir", str(dump_dir)]
    else:
        args[2] = str(INPUTS / args[2])
    return args + ["--no-timing"]


@pytest.mark.parametrize("case", sorted(CASES))
def test_report_is_byte_identical(case, tmp_path, capsys):
    code = main(_argv(case, tmp_path))
    out, err = capsys.readouterr()
    assert code == 0, err
    assert out == (GOLDEN / f"{case}.json").read_text()


if __name__ == "__main__":
    import contextlib
    import io
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        for case in sorted(CASES):
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = main(_argv(case, tmp))
            if code != 0:
                sys.exit(f"{case}: exit {code}")
            (GOLDEN / f"{case}.json").write_text(buf.getvalue())
            print(f"recorded {case}")
