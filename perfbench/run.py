"""Layered benchmark for toricfans.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads (see ``workloads.py`` for why each was chosen):

* ``classify-serial``  ``classify_file`` on a 215-fan corpus, then ``batch_csv``;
* ``classify-pool``    the same corpus through ``batch_classify(workers=nproc)``;
* ``reduce-certify``   read, ``run_step1``, ``verify_output``, ``is_projective`` and
                       certificates for cut-outs 0, 1, 2 on 114 m=2 Fano fans;
* ``analyze-large``    ``toricfans analyze`` in-process on 9 fans of 12-21 rays.

The seed picks a signed permutation of the coordinates of every fan; every
checked output is the same for every seed.  The inputs are built and written
at least three times, and for at least two seconds, and ``setup_s`` is the
median.  Then whole passes over the inputs run until ``--seconds`` is
reached (at least one pass, and no pass is started that would end more than
half a pass late); caches of the package are emptied before each operation
that stands for one command invocation, and before each batch.  Throughput is
correct ops over the seconds spent in ops; the latency percentiles are taken
over the inputs, each counted once with its median time over the passes.  On
classify-pool the timed operation is the whole ``batch_classify`` call (the
latency a batch user waits for), so both percentiles are its time.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs one
untraced pass and two traced passes of the same inputs, prints the
per-module metrics of the first traced pass with what each should move, and
fails the check when a count differs between the two traced passes.  A
module the workload never calls reports 0.  classify-pool traces serial
passes, because spans cannot leave the worker processes; its one pool pass
only feeds ``fanio.batch_classify.efficiency``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The line before it
stamps the environment.  Exit status 2, without a result, when the library
cannot be imported from ``src/`` next to this directory or when
``TORICFANS_ACCEL`` is set (it selects another enumerator).
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from metrics import END_TO_END, EXACT, PER_LAYER, per_layer, percentile

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DEFAULT_SEED = 0
SETUP_MIN_REPEATS, SETUP_MIN_SECONDS, SETUP_MAX_REPEATS = 3, 2.0, 50
WORK_DIR = ROOT / ".perfbench-work"


def parse_args(argv):
    p = argparse.ArgumentParser(description="Layered toricfans benchmark")
    p.add_argument("--workload", required=True,
                   choices=["classify-serial", "classify-pool", "reduce-certify", "analyze-large"])
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=15.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def import_library():
    """Import toricfans from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import toricfans

    if Path(toricfans.__file__).resolve().parent.parent != src.resolve():
        raise ImportError(f"toricfans imported from {toricfans.__file__}, not from {src}")


def commit() -> str:
    if not (ROOT / ".git").exists():  # a checkout without history
        return "unknown"
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return done.stdout.strip()


def environment(nproc: int, workers: int) -> dict:
    import numpy

    src_lines = sum(len(p.read_text().splitlines()) for p in sorted((ROOT / "src").rglob("*.py")))
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "TORICFANS_ACCEL": os.environ.get("TORICFANS_ACCEL"),
        "nproc": nproc,
        "workers": workers,
        "src_lines": src_lines,
        "commit": commit(),
    }


def peak_rss_mb(workers: int, count_children: bool) -> float:
    """Peak resident set of this process; with ``count_children``, plus
    ``workers`` times the largest finished child (the pool workers)."""
    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if count_children:
        kib += workers * resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return kib / 1024


def run_untraced(w, args, workdir: Path, problems: list[str]):
    setup_times = []
    while len(setup_times) < SETUP_MIN_REPEATS or (
        sum(setup_times) < SETUP_MIN_SECONDS and len(setup_times) < SETUP_MAX_REPEATS
    ):
        inputs, seconds = w.setup(args.seed, workdir / f"setup{len(setup_times)}")
        setup_times.append(seconds)
    problems += w.check_inputs(inputs, args.seed, DEFAULT_SEED)

    passes = []
    start = time.perf_counter()
    while True:
        passes.append(w.run_pass(inputs))
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(passes) / 2 > args.seconds:
            break
    latencies = [t for p in passes for t in p.op_seconds]
    # one latency per input (its median over the passes), so that the
    # percentiles describe the corpus whatever the number of passes
    per_input = [statistics.median(ts) for ts in zip(*(p.op_seconds for p in passes))]
    attempted = sum(p.ops for p in passes)
    failed = sum(p.failed for p in passes)
    for p in passes:
        problems += p.problems
    metrics = {
        "setup_s": statistics.median(setup_times),
        "ops_per_s": (attempted - failed) / sum(latencies),
        "op_p50_ms": 1000 * statistics.median(per_input),
        "op_p90_ms": 1000 * percentile(per_input, 90),
        "peak_rss_mb": peak_rss_mb(w.workers, count_children=w.pooled),
        "ok_frac": (attempted - failed) / attempted,
    }
    notes = [
        f"{len(passes)} pass(es), {attempted} ops, {failed} failed "
        f"(failed_frac {failed / attempted:.6f}), {len(latencies)} latency samples, "
        f"{len(setup_times)} set-ups",
    ]
    return metrics, attempted, failed, notes


def run_traced(w, args, workdir: Path, problems: list[str]):
    from spans import Tracer, reset_caches

    inputs, _ = w.setup(args.seed, workdir / "setup")
    problems += w.check_inputs(inputs, args.seed, DEFAULT_SEED)
    reset_caches()
    with Tracer() as setup_tracer:
        w.setup(args.seed, workdir / "setup-traced")

    baseline = w.trace_pass(inputs)
    passes = [baseline]
    efficiency = 0.0
    if w.pooled:
        pool_pass = w.run_pass(inputs)
        passes.append(pool_pass)
        efficiency = sum(baseline.op_seconds) / (w.workers * pool_pass.op_seconds[0])

    traced, summaries = [], []
    for _ in range(2):
        with Tracer() as tracer:
            traced.append(w.trace_pass(inputs))
        summaries.append(tracer.summary())
    passes += traced
    overhead = sum(traced[0].op_seconds) / sum(baseline.op_seconds) - 1
    setup_summary = setup_tracer.summary()
    runs = [per_layer(s, setup_summary, baseline.ops, efficiency, overhead) for s in summaries]
    for name in EXACT:
        if runs[0][name] != runs[1][name]:
            problems.append(f"{name} differs between traced passes: {runs[0][name]} vs {runs[1][name]}")

    attempted = sum(p.ops for p in passes)
    failed = sum(p.failed for p in passes)
    for p in passes:
        problems += p.problems
    notes = [f"{name:40} {runs[0][name]:>14.6g}  moves: {moves}" for name, _, moves in PER_LAYER]
    return runs[0], attempted, failed, notes


def main(argv=None) -> int:
    args = parse_args(argv)
    if "TORICFANS_ACCEL" in os.environ:
        print("refusing to run: TORICFANS_ACCEL is set and selects another enumerator", file=sys.stderr)
        return 2
    try:
        import_library()
    except ImportError as e:
        print(f"cannot import toricfans from {ROOT / 'src'}: {e}", file=sys.stderr)
        return 2

    from workloads import WORKLOADS, nproc

    expected = json.loads((HERE / "expected.json").read_text())
    expected["classify_csv"] = (HERE / "expected_classify.csv").read_text()
    w = WORKLOADS[args.workload](expected, workers=nproc())

    WORK_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=WORK_DIR))
    problems: list[str] = []
    try:
        runner = run_traced if args.trace else run_untraced
        values, attempted, failed, notes = runner(w, args, workdir, problems)
    finally:
        shutil.rmtree(workdir)
        try:
            WORK_DIR.rmdir()
        except OSError:  # another run still uses it
            pass

    units = dict(END_TO_END) if not args.trace else {n: u for n, u, _ in PER_LAYER}
    for line in notes:
        print(line)
    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    if not args.trace:
        for name, unit in END_TO_END:
            print(f"{args.workload:16} {name:12} {values[name]:>14.6f} {unit}")
    print(json.dumps({"environment": environment(nproc(), w.workers), "workload": args.workload, "seed": args.seed}))
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
