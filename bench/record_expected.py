"""Rewrite bench/expected.json from the current source.

    python3 bench/record_expected.py

expected.json holds the summary of every fixed-corpus operation (the
verify report's per-row counts, graphs checked and verdict).  run.py fails
any operation whose summary differs from it.  It
was recorded at commit 78ddc34; rewrite it only when an output change is
intended, and say so in the change.
"""

import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]
sys.dont_write_bytecode = True

import workloads  # noqa: E402

expected = {}
for name, ops in workloads.BATCH_OPS.items():
    inputs = workloads.SETUPS[name](None, None)
    expected[name] = {
        op: json.loads(json.dumps(summarize(thunk())))
        for op, _, thunk, summarize in ops(inputs)
    }
(BENCH / "expected.json").write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
