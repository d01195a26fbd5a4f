"""The two workloads: their inputs, their fixed operation sets, and the
summaries each operation's result is validated by.

`setup(seed, workdir)` imports freiman and builds a workload's inputs; it
is what setup_s times.  `ops(inputs)` lists one pass: (name, graphs handed
to the package, thunk, summarize).  Thunks look freiman functions up at
call time, so a traced pass sees the wrapped versions.

verify-exhaustive is a fixed corpus whose results were recorded at commit
78ddc34 in expected.json; the seed does not apply to it.  The
cli-latency inputs are generated from the seed, and each command's
stdout is checked against the same command run in-process.
"""

import json
import random
from itertools import combinations

VERIFY_MAX_VERTICES = 6


# -- summaries ------------------------------------------------------------


def verify_summary(report):
    return {
        "graphs_checked": report["graphs_checked"],
        "all_passed": report["all_passed"],
        "counterexamples": len(report["counterexamples"]),
        "rows": {
            r["name"]: [r["instances"], r["failures"], r["skipped"]]
            for r in report["rows"]
        },
    }


# -- verify-exhaustive ----------------------------------------------------


def _import():
    import freiman

    return freiman


def verify_setup(seed, workdir):
    return {"fz": _import()}


def verify_ops(inputs):
    fz = inputs["fz"]
    return [(
        "run_verify",
        None,  # the graphs checked are read from the report
        lambda: fz.run_verify(
            mode="exhaustive", max_vertices=VERIFY_MAX_VERTICES, jobs=1, no_timing=True
        ),
        verify_summary,
    )]


# -- cli-latency ----------------------------------------------------------

CLI_INPUTS_PER_KIND = 8


def _random_graph(rng, n, p):
    edges = [e for e in combinations(range(1, n + 1), 2) if rng.random() < p]
    return edges or [(1, 2)]


def _random_connected(rng, n, m):
    pairs = list(combinations(range(1, n + 1), 2))
    while True:
        edges = sorted(rng.sample(pairs, m))
        reach = {1}
        grew = True
        while grew:
            grew = False
            for u, v in edges:
                if (u in reach) != (v in reach):
                    reach |= {u, v}
                    grew = True
        if len(reach) == n:
            return edges


def _random_monomials(rng, nvars, degree, count):
    chosen = set()
    while len(chosen) < count:
        exps = [0] * nvars
        for _ in range(degree):
            exps[rng.randrange(nvars)] += 1
        chosen.add(tuple(exps))
    return sorted(chosen)


def _monomial_text(exps):
    return "*".join(
        f"x{i}" if e == 1 else f"x{i}^{e}" for i, e in enumerate(exps, 1) if e
    )


def cli_setup(seed, workdir):
    """Write the seed's inputs and return the command list: graph classify
    (7-vertex JSON graphs), matroid classify --hvector (connected 5-vertex,
    6-edge edge lists) and ideal analyze --max-power 4 (six cubics in four
    variables), interleaved."""
    _import()
    rng = random.Random(seed)
    commands = []
    for i in range(CLI_INPUTS_PER_KIND):
        graph = workdir / f"graph{i}.json"
        graph.write_text(json.dumps({"n": 7, "edges": _random_graph(rng, 7, 0.5)}))
        edges = _random_connected(rng, 5, 6)
        matroid = workdir / f"matroid{i}.txt"
        matroid.write_text(f"p 5 {len(edges)}\n" + "".join(f"{u} {v}\n" for u, v in edges))
        ideal = workdir / f"ideal{i}.txt"
        ideal.write_text(", ".join(_monomial_text(m) for m in _random_monomials(rng, 4, 3, 6)) + "\n")
        commands += [
            ["graph", "classify", str(graph), "--no-timing"],
            ["matroid", "classify", "--hvector", str(matroid), "--no-timing"],
            ["ideal", "analyze", "--max-power", "4", str(ideal), "--no-timing"],
        ]
    return {"commands": commands}


SETUPS = {
    "verify-exhaustive": verify_setup,
    "cli-latency": cli_setup,
}
BATCH_OPS = {
    "verify-exhaustive": verify_ops,
}
