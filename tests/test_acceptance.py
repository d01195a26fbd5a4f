"""Acceptance suite: every criterion runs standalone at its stated
tolerance (all values exact) and prints one pass/fail line.

Criterion 5 contains the exhaustive sweep over all connected graphs on
up to 7 vertices and dominates the runtime (a few minutes).
"""

import functools
import json
import random
import subprocess
import sys
import time
from itertools import combinations
from math import comb
from pathlib import Path

import pytest

from freiman import (
    SimpleGraph,
    base_ring_h_polynomial,
    base_ring_regularity,
    check_growth_identities,
    classify_freiman_graph,
    classify_freiman_matroid,
    cut_vertices,
    edge_ideal,
    is_freiman,
    matroid_spread_formula,
    matroidal_ideal,
    minimalize,
    mu_series,
    spanning_forests,
    with_witness,
)
from freiman.verify import random_graph, run_verify
from helpers import (
    bowtie,
    cli_env,
    complete_bipartite,
    complete_graph,
    cycle_graph,
)

GOLDEN = Path(__file__).parent / "golden" / "base_ring_regularity.json"


def criterion(number, title):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"criterion {number:2d} FAIL  {title}")
                raise
            print(f"criterion {number:2d} PASS  {title}")

        return wrapper

    return decorate


def connected_graphs_with_at_most(max_edges):
    """All connected labeled graphs with 1..max_edges edges (hence at most
    max_edges + 1 vertices), without isolated vertices."""
    for n in range(2, max_edges + 2):
        pairs = list(combinations(range(1, n + 1), 2))
        for k in range(n - 1, max_edges + 1):
            for chosen in combinations(range(len(pairs)), k):
                edges = [pairs[i] for i in chosen]
                adj = {v: set() for v in range(1, n + 1)}
                for u, v in edges:
                    adj[u].add(v)
                    adj[v].add(u)
                seen = {1}
                stack = [1]
                while stack:
                    u = stack.pop()
                    for w in adj[u]:
                        if w not in seen:
                            seen.add(w)
                            stack.append(w)
                if len(seen) == n:
                    yield SimpleGraph(n, frozenset(edges))


@pytest.fixture(scope="module")
def small_ideal_corpus():
    """Edge ideals of all connected graphs on <= 5 vertices, matroidal
    ideals of all connected graphs with <= 5 edges, and a few named
    ideals; used by the series-level criteria."""
    ideals = []
    for n in range(2, 6):
        pairs = list(combinations(range(1, n + 1), 2))
        for mask in range(1, 1 << len(pairs)):
            edges = [pairs[i] for i in range(len(pairs)) if mask >> i & 1]
            adj = {v: set() for v in range(1, n + 1)}
            for u, v in edges:
                adj[u].add(v)
                adj[v].add(u)
            seen = {1}
            stack = [1]
            while stack:
                u = stack.pop()
                for w in adj[u]:
                    if w not in seen:
                        seen.add(w)
                        stack.append(w)
            if len(seen) == n:
                ideals.append(edge_ideal(SimpleGraph(n, frozenset(edges))))
    for g in connected_graphs_with_at_most(5):
        ideals.append(matroidal_ideal(g))
    ideals.append(matroidal_ideal(complete_graph(4)))
    ideals.append(matroidal_ideal(bowtie()))
    ideals.append(minimalize([(2, 1)]))
    ideals.append(with_witness(minimalize([(3, 0), (0, 1)])))
    return ideals


@criterion(1, "4-cycle edge ideal is Freiman with series [1,4,9,16], h=[1,1,0,0]")
def test_criterion_1():
    started = time.perf_counter()
    ideal = edge_ideal(cycle_graph(4))
    profile = is_freiman(ideal)
    assert profile.mu_series == (1, 4, 9)
    assert profile.ell == 3
    assert profile.bound2 == 3 * 4 - 3
    assert profile.freiman
    report = check_growth_identities(ideal, 3)
    assert report.mu == (1, 4, 9, 16)
    assert report.rows[-1].equality  # mu(I^3) meets the bound exactly
    assert list(report.h) == [1, 1, 0, 0]
    assert time.perf_counter() - started < 1.0


@criterion(2, "K4 edge ideal is not Freiman: mu(I^2) = 19 > 18, h2 = 1")
def test_criterion_2():
    started = time.perf_counter()
    profile = is_freiman(edge_ideal(complete_graph(4)))
    assert profile.mu_series == (1, 6, 19)
    assert profile.ell == 4
    assert profile.bound2 == 18
    assert not profile.freiman
    assert profile.h2 == 1
    assert time.perf_counter() - started < 1.0


@criterion(3, "bowtie cycle matroid: 9 bases, spread 5 both ways, 36 > 35")
def test_criterion_3():
    started = time.perf_counter()
    g = bowtie()
    assert len(spanning_forests(g)) == 9
    verdict = classify_freiman_matroid(g)
    assert verdict.spread_formula == 5
    assert not verdict.freiman
    profile = is_freiman(matroidal_ideal(g))
    assert profile.ell == 5
    assert profile.mu_series == (1, 9, 36)
    assert profile.bound2 == 35
    assert not profile.freiman
    assert time.perf_counter() - started < 1.0


@criterion(4, "single cycles C_3..C_6: Freiman matroids with binomial growth")
def test_criterion_4():
    for r in range(3, 7):
        g = cycle_graph(r)
        verdict = classify_freiman_matroid(g)
        assert verdict.freiman, r
        mu = mu_series(matroidal_ideal(g), 3)
        assert mu == [comb(r + k - 1, k) for k in range(4)], r


@criterion(5, "graph classifier == numeric oracle: exhaustive <= 7 vertices "
             "and 1000 random graphs <= 10 vertices")
def test_criterion_5():
    started = time.perf_counter()
    report = run_verify(
        mode="exhaustive", max_vertices=7, max_edges=6, jobs=2, no_timing=True
    )
    by_name = {row["name"]: row for row in report["rows"]}
    row = by_name["graph-classifier-vs-numeric"]
    # connected labeled graphs on 2..7 vertices: 1+4+38+728+26704+1866256
    assert row["instances"] == 1893731
    assert row["failures"] == 0
    assert row["skipped"] == 0
    elapsed = time.perf_counter() - started
    assert elapsed < 600.0, f"exhaustive sweep took {elapsed:.0f}s"

    rng = random.Random(20240)
    for _ in range(1000):
        g = random_graph(rng, 10)
        assert (
            classify_freiman_graph(g).freiman == is_freiman(edge_ideal(g)).freiman
        ), g


@criterion(6, "matroid one-cycle rule == numeric oracle and spread formula "
             "== affine rank on all graphs <= 6 edges plus 200 random")
def test_criterion_6():
    corpus = list(connected_graphs_with_at_most(6))
    rng = random.Random(63)
    for _ in range(200):
        g = random_graph(rng, 7)
        if g.num_edges > 8:
            g = SimpleGraph(g.n, frozenset(g.sorted_edges()[:8]))
        corpus.append(g)
    for g in corpus:
        bound = g.num_edges - g.n + len(_component_sets(g))
        verdict = classify_freiman_matroid(g)
        assert verdict.total_cycles_bound == bound
        assert verdict.freiman == (bound <= 1)
        profile = is_freiman(matroidal_ideal(g))
        assert verdict.freiman == profile.freiman, g
        assert matroid_spread_formula(g) == verdict.spread_formula == profile.ell, g


def _component_sets(g):
    adj = {v: set() for v in range(1, g.n + 1)}
    for u, v in g.edges:
        adj[u].add(v)
        adj[v].add(u)
    seen = set()
    comps = []
    for start in range(1, g.n + 1):
        if start in seen:
            continue
        comp = {start}
        stack = [start]
        while stack:
            u = stack.pop()
            for w in adj[u]:
                if w not in comp:
                    comp.add(w)
                    stack.append(w)
        seen |= comp
        comps.append(comp)
    return comps


@criterion(7, "h2 >= 0 and all tail partial sums >= 0 for k <= 4 on every "
             "corpus ideal")
def test_criterion_7(small_ideal_corpus):
    for ideal in small_ideal_corpus:
        report = check_growth_identities(ideal, 4)
        assert report.h[2] >= 0, ideal
        for row in report.rows:
            assert row.partial_sum >= 0, (ideal, row)


@criterion(8, "base-ring regularity of K4 and K2,3 lies in [3, e-1] and "
             "matches the frozen golden values")
def test_criterion_8():
    golden = json.loads(GOLDEN.read_text())
    cases = {"K4": complete_graph(4), "K2_3": complete_bipartite(2, 3)}
    for name, g in cases.items():
        assert not cut_vertices(g)  # both are 2-connected
        e = g.num_edges
        reg = base_ring_regularity(g)
        assert 3 <= reg <= e - 1, name
        assert reg == golden[name]["regularity"], name
        assert base_ring_h_polynomial(g) == golden[name]["h_polynomial"], name
        assert e == golden[name]["edges"]


@criterion(9, "equality at k=2 implies equality at k=3 and k=4 on every "
             "corpus ideal")
def test_criterion_9(small_ideal_corpus):
    checked = 0
    for ideal in small_ideal_corpus:
        report = check_growth_identities(ideal, 4)
        if report.rows[0].equality:  # k = 2
            checked += 1
            assert all(row.equality for row in report.rows), ideal
    assert checked > 0


@criterion(10, "freiman verify --mode random --count 200 --seed 42 "
              "--no-timing is byte-identical across runs")
def test_criterion_10(tmp_path):
    args = [
        sys.executable, "-m", "freiman.cli",
        "verify", "--mode", "random", "--count", "200", "--seed", "42",
        "--no-timing",
    ]
    # cwd=tmp_path keeps any counterexample dump (--dump-dir defaults
    # to ".") out of the checkout.
    env = cli_env()
    first = subprocess.run(args, capture_output=True, cwd=tmp_path, env=env)
    second = subprocess.run(args, capture_output=True, cwd=tmp_path, env=env)
    for run in (first, second):
        assert run.returncode == 0, (
            f"exit code {run.returncode}; stderr:\n"
            + run.stderr.decode(errors="replace")
        )
    assert first.stdout == second.stdout
    assert json.loads(first.stdout.decode())["all_passed"] is True
