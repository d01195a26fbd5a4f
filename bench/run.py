"""Benchmark entry point for the freiman package.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout (the package is imported from
src/).  Every workload runs in this process with jobs=1; set-up probes and
CLI commands run as child processes, one at a time.

--trace 0 measures the end-to-end metrics with tracing off.  --trace 1
runs one untraced pass, then one traced pass, and reports the per-layer
metrics (see spans.py) and the tracing overhead.  Either way each
operation's output is validated, a run record is printed, and the last
line of stdout is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
See README.md for the workloads and the metric definitions.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import traceback
from math import comb
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
sys.path.insert(0, str(BENCH))
sys.dont_write_bytecode = True

import spans  # noqa: E402
import workloads  # noqa: E402

# name -> unit
E2E_METRICS = {
    "setup_s": "s",
    "wall_s": "s",
    "wall_p90_s": "s",
    "items_per_s": "1/s",
    "peak_rss_mb": "MB",
    "ok_ops_ratio": "ratio",
}
SETUP_PROBES = 5  # at the start of a run; then one per SETUP_PROBE_EVERY_S
SETUP_PROBE_EVERY_S = 3
IMPORT_PROBES = 5
CLI_MIN_COMMANDS = 100
CLI_TIME_LIMIT_S = 150  # stop adding commands here even if fewer than the minimum ran
CALIB_LOOPS = 3
CALIB_ITERATIONS = 1_000_000


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.SETUPS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, default=55)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def fail(message):
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def check_benchmark_json():
    """The metric and workload names here must match BENCHMARK.json."""
    path = ROOT / "BENCHMARK.json"
    if not path.exists():
        return
    spec = json.loads(path.read_text())
    declared = {
        "end_to_end": {m["name"]: m["unit"] for m in spec["end_to_end"]},
        "per_layer": {m["name"]: m["unit"] for m in spec["per_layer"]},
        "workloads": sorted(w["name"] for w in spec["workloads"]),
    }
    actual = {
        "end_to_end": E2E_METRICS,
        "per_layer": {k: unit for k, (unit, _) in spans.LAYER_METRICS.items()},
        "workloads": sorted(workloads.SETUPS),
    }
    for key in declared:
        if declared[key] != actual[key]:
            fail(f"BENCHMARK.json {key} does not match bench/")


# -- measurement helpers --------------------------------------------------


def p90(samples):
    if len(samples) < 2:
        return samples[0]
    return statistics.quantiles(samples, n=10, method="inclusive")[8]


def calibrate():
    """Seconds for a fixed pure-Python loop: host speed, not code speed."""
    times = []
    for _ in range(CALIB_LOOPS):
        start = perf_counter()
        total = 0
        for i in range(CALIB_ITERATIONS):
            total += i
        times.append(perf_counter() - start)
    return times


def child_env():
    """Children import freiman from src/ and write no bytecode, so each
    compiles the package from source unless src/ already holds bytecode
    (the run record says whether it does)."""
    path = os.environ.get("PYTHONPATH")
    return dict(
        os.environ,
        PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""),
        PYTHONDONTWRITEBYTECODE="1",
    )


def run_child(argv, env):
    """(seconds, exit code, combined output, peak RSS in MB) of one child."""
    start = perf_counter()
    proc = subprocess.Popen(
        [sys.executable, *argv], stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        env=env, cwd=ROOT,
    )
    with proc.stdout:
        out = proc.stdout.read()
    _, status, usage = os.wait4(proc.pid, 0)
    elapsed = perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return elapsed, proc.returncode, out, usage.ru_maxrss / 1024


def probe_once(argv, env):
    """The seconds that one fresh process prints."""
    _, code, out, _ = run_child(argv, env)
    if code != 0:
        fail(f"probe {argv} exited {code}: {out.decode(errors='replace')}")
    return float(out.decode().strip().splitlines()[-1])


class SetupProbes:
    """setup_s samples, each a fresh process that imports freiman and
    builds the workload's inputs.  They are spread over the whole run,
    between passes or commands, so that one fast or slow stretch of a
    shared host does not set their median."""

    def __init__(self, name, seed, env):
        self.argv = [str(BENCH / "run.py"), "--setup-probe", "--workload", name,
                     "--seed", str(seed)]
        self.env = env
        self.samples = []

    def keep_up(self, elapsed):
        """Take probes until there are SETUP_PROBES plus one per
        SETUP_PROBE_EVERY_S seconds of the run so far."""
        while len(self.samples) < SETUP_PROBES + elapsed / SETUP_PROBE_EVERY_S:
            self.samples.append(probe_once(self.argv, self.env))


def tree_digest(*dirs):
    h = hashlib.sha256()
    for path in sorted(p for d in dirs for p in d.rglob("*.py")):
        h.update(path.relative_to(ROOT).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def commit():
    """HEAD of the checkout, or None outside a git work tree."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = ROOT / ".git" / ref[5:]
    if ref_file.is_file():
        return ref_file.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


class Tally:
    """Operations attempted and failed; a wrong output, an exception or a
    non-zero exit is a failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def check(self, what, ok, detail=""):
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"bench: FAILED {what} {detail}".rstrip(), file=sys.stderr)


def normalized(obj):
    return json.loads(json.dumps(obj))


# -- batch workloads ------------------------------------------------------


def run_pass(ops, expected, tally):
    """One pass over the fixed operation set: (seconds, items, graphs
    handed to the package, the verify summary or None)."""
    seconds = 0.0
    items = graphs = 0
    verify = None
    for name, graphs_in, thunk, summarize in ops:
        start = perf_counter()
        try:
            result = thunk()
        except Exception:
            traceback.print_exc()
            tally.check(name, False, "raised")
            continue
        seconds += perf_counter() - start
        summary = normalized(summarize(result))
        tally.check(name, summary == expected[name], f"got {summary}")
        if graphs_in is None:  # run_verify: the report says how many
            verify = summary
            items += summary["graphs_checked"]
            graphs += summary["graphs_checked"]
        else:
            items += 1
            graphs += graphs_in
    return seconds, items, graphs, verify


def batch_untraced(name, inputs, seconds, tally, probes):
    ops = workloads.BATCH_OPS[name](inputs)
    expected = json.loads((BENCH / "expected.json").read_text())[name]
    passes = []
    began = perf_counter()
    while True:
        t, items, _, _ = run_pass(ops, expected, tally)
        passes.append(t)
        if len(passes) == 1:
            # later passes may re-use or fragment memory differently
            rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        probes.keep_up(perf_counter() - began)
        # start another pass only if it should end within the run time
        if perf_counter() - began + statistics.median(passes) > seconds:
            break
    return {
        "wall_s": statistics.median(passes),
        "wall_p90_s": p90(passes),
        "items_per_s": items / statistics.median(passes),
        "peak_rss_mb": rss,
    }, len(passes)


def batch_traced(name, inputs, tally):
    ops = workloads.BATCH_OPS[name](inputs)
    expected = json.loads((BENCH / "expected.json").read_text())[name]
    plain, _, _, _ = run_pass(ops, expected, tally)
    with spans.Tracer() as tracer:
        traced, _, graphs, verify = run_pass(ops, expected, tally)
    if verify is not None:
        masks = sum((1 << comb(n, 2)) - 1 for n in range(2, workloads.VERIFY_MAX_VERTICES + 1))
        skips = sum(row[2] for row in verify["rows"].values())
        checked = verify["graphs_checked"]
    else:
        masks = skips = checked = 0
    metrics = tracer.metrics(graphs, masks, skips, checked)
    metrics["cli.main_ms"] = 0.0
    metrics["trace.overhead_ratio"] = traced / plain - 1
    return metrics


# -- cli-latency ----------------------------------------------------------


def cli_in_process(commands, tally):
    """Run each command through freiman.cli.main in this process:
    (stdout per command, seconds per command)."""
    import freiman.cli

    outputs, times = [], []
    for argv in commands:
        buf = io.StringIO()
        start = perf_counter()
        with contextlib.redirect_stdout(buf):
            code = freiman.cli.main(argv)
        times.append(perf_counter() - start)
        out = buf.getvalue()
        # graph and matroid reports carry the classifier-vs-oracle agreement
        ok = code == 0 and json.loads(out).get("agreement", True) is True
        tally.check(" ".join(argv[:2]) + " (in-process)", ok, f"exit {code}")
        outputs.append(out)
    return outputs, times


def cli_untraced(inputs, seconds, env, tally, probes):
    commands = inputs["commands"]
    expected, _ = cli_in_process(commands, tally)  # the reference output
    latencies, rss = [], 0.0
    began = perf_counter()
    i = 0
    while len(latencies) < CLI_MIN_COMMANDS or perf_counter() - began < seconds:
        if perf_counter() - began > CLI_TIME_LIMIT_S:
            break
        argv = commands[i % len(commands)]
        t, code, out, child_rss = run_child(["-m", "freiman.cli", *argv], env)
        ok = code == 0 and out.decode() == expected[i % len(commands)]
        tally.check(" ".join(argv[:2]), ok, f"exit {code}: {out[-300:]!r}")
        latencies.append(t)
        rss = max(rss, child_rss)
        i += 1
        probes.keep_up(perf_counter() - began)
    return {
        "wall_s": statistics.median(latencies),
        "wall_p90_s": p90(latencies),
        "items_per_s": 1 / statistics.median(latencies),
        "peak_rss_mb": rss,
    }, len(latencies)


def cli_traced(inputs, tally):
    commands = inputs["commands"]
    expected, times = cli_in_process(commands, tally)
    with spans.Tracer() as tracer:
        outputs, traced = cli_in_process(commands, tally)
    for argv, out, want in zip(commands, outputs, expected):
        tally.check(" ".join(argv[:2]) + " (traced)", out == want)
    graphs = sum(1 for argv in commands if argv[0] in ("graph", "matroid"))
    metrics = tracer.metrics(graphs, 0, 0, 0)
    metrics["cli.main_ms"] = statistics.median(times) * 1000
    metrics["trace.overhead_ratio"] = sum(traced) / sum(times) - 1
    return metrics


# -- counters must repeat exactly -----------------------------------------


def check_counters(name, seed, metrics, tally):
    """Compare this run's exact counters with the first traced run of the
    same package and benchmark code and the same inputs in this checkout
    (recorded under bench/.state)."""
    exact = {k: metrics[k] for k, (_, is_exact) in spans.LAYER_METRICS.items() if is_exact}
    inputs = str(seed) if name == "cli-latency" else "fixed"
    code = tree_digest(SRC / "freiman", BENCH)
    state = BENCH / ".state" / f"{code[:16]}-{name}-{inputs}.json"
    if state.exists():
        before = json.loads(state.read_text())
        diff = sorted(k for k in exact if before.get(k) != exact[k])
        tally.check("exact counters repeat", not diff, f"differ: {diff}")
        return
    state.parent.mkdir(exist_ok=True)
    tmp = state.with_suffix(f".{os.getpid()}.tmp")
    tmp.write_text(json.dumps(exact, sort_keys=True))
    os.replace(tmp, state)


# -- main -----------------------------------------------------------------


def setup_probe(args):
    """Child side of setup_s: import freiman and build the inputs."""
    with tempfile.TemporaryDirectory(dir=BENCH / ".work") as workdir:
        start = perf_counter()
        workloads.SETUPS[args.workload](args.seed, Path(workdir))
        print(perf_counter() - start)


def main(argv=None):
    args = parse_args(argv)
    if args.seconds < 1:
        fail("--seconds must be at least 1")
    if not (SRC / "freiman" / "__init__.py").is_file():
        fail(f"no freiman package under {SRC}; run from a source checkout")
    check_benchmark_json()
    sys.path.insert(0, str(SRC))
    (BENCH / ".work").mkdir(exist_ok=True)
    if args.setup_probe:
        setup_probe(args)
        return 0

    calib = calibrate()
    tally = Tally()
    name = args.workload
    with tempfile.TemporaryDirectory(dir=BENCH / ".work") as tmp:
        workdir = Path(tmp)
        env = child_env()
        if args.trace:
            argv = ["-c", "import time; t = time.perf_counter(); import freiman.cli; "
                          "print(time.perf_counter() - t)"]
            import_ms = 1000 * statistics.median(
                probe_once(argv, env) for _ in range(IMPORT_PROBES)
            )
            inputs = workloads.SETUPS[name](args.seed, workdir)
            if name == "cli-latency":
                metrics = cli_traced(inputs, tally)
            else:
                metrics = batch_traced(name, inputs, tally)
            metrics["cli.import_ms"] = import_ms
            samples = {"traced_passes": 1, "import_probes": IMPORT_PROBES}
        else:
            probes = SetupProbes(name, args.seed, env)
            probes.keep_up(0)
            inputs = workloads.SETUPS[name](args.seed, workdir)
            if name == "cli-latency":
                metrics, n = cli_untraced(inputs, args.seconds, env, tally, probes)
            else:
                metrics, n = batch_untraced(name, inputs, args.seconds, tally, probes)
            metrics["setup_s"] = statistics.median(probes.samples)
            metrics["ok_ops_ratio"] = (tally.attempted - tally.failed) / max(tally.attempted, 1)
            samples = {"wall_s": n, "setup_s": len(probes.samples)}
    calib += calibrate()
    if args.trace:
        metrics["host.calib_s"] = statistics.median(calib)
        check_counters(name, args.seed, metrics, tally)
        units = {k: unit for k, (unit, _) in spans.LAYER_METRICS.items()}
    else:
        units = E2E_METRICS
    record = {
        "workload": name,
        "seed": args.seed,
        "seed_applies": name == "cli-latency",
        "trace": args.trace,
        "seconds": args.seconds,
        "samples": samples,
        "commit": commit(),
        "source_sha256": tree_digest(SRC / "freiman"),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "dont_write_bytecode": sys.flags.dont_write_bytecode,
        "freiman_bytecode_cached": (SRC / "freiman" / "__pycache__").exists(),
        "host_calib_s": calib,
    }
    print(json.dumps({"run": record}))
    for key in units:
        print(f"{key:48s} {metrics[key]:>16.6g} {units[key]}")
    print(json.dumps({
        "correct": tally.failed == 0 and tally.attempted > 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
