"""Benchmark runner: one workload, one seed, one measured run.

    python3 benchmarks/run.py --workload ensemble --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; the library is imported from
``src/`` of that checkout and from nowhere else.  With ``--trace 0`` the
last stdout line carries the end-to-end metrics, with ``--trace 1`` the
per-layer metrics of a separate traced set-up and passes.  The line before
it is a detail record: run environment, sha256 of the first pass's
outputs, failed fraction, the tail percentile used, and the full span
summary of a traced run.  Span files are written under ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import platform
import resource
import shutil
import sys
import time
from pathlib import Path

from spans import SpanRecorder
from workloads import WORKLOADS, Context

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
PACKAGE = "platocone"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def _len_result(args, result):
    return len(result)


# Library functions the traced run wraps, with the item count of one call.
# jsonl text is ASCII, so its length in characters is its length in bytes.
TRACED = {
    "sampling.sample_gamma": None,
    "sampling.substream": None,
    "sampling._invert_e1": None,
    "stats.exp_integral_e1": None,
    "configuration.make_configuration": _len_result,
    "plato.to_plato": None,
    "plato.reflect": None,
    "plato.reflect_inverse": None,
    "cone.make_measure": None,
    "jsonl.serialize": _len_result,
    "jsonl.parse": lambda args, result: len(args[0]),
    "configuration.restrict": None,
    "cone.mass_in_window": None,
    "cone.double_pair": None,
    "configuration.pair_configuration": lambda args, result: len(args[1]),
    "topology.vague_discrepancy": None,
    "topology.cone_discrepancy": None,
    "topology.check_convergence": None,
    "topology.merging_sequence": None,
    "topology.hat_family": None,
    "stats.ks_statistic": None,
    "stats.gamma_cdf": None,
}

# The per-layer metrics, <span>.<statistic>; cli.* spans are recorded by
# the workloads around each in-process CLI call.
REPORTED = {
    "sampling.sample_gamma": ("self_ms",),
    "sampling.substream": ("ms",),
    "sampling._invert_e1": ("ms",),
    "stats.exp_integral_e1": ("ms",),
    "configuration.make_configuration": ("ms", "items"),
    "plato.to_plato": ("ms",),
    "plato.reflect": ("ms",),
    "plato.reflect_inverse": ("ms",),
    "cone.make_measure": ("ms",),
    "jsonl.serialize": ("ms", "items"),
    "jsonl.parse": ("ms", "items"),
    "configuration.restrict": ("ms",),
    "cone.mass_in_window": ("ms",),
    "cone.double_pair": ("ms",),
    "configuration.pair_configuration": ("ms", "items"),
    "topology.vague_discrepancy": ("self_ms",),
    "topology.cone_discrepancy": ("self_ms",),
    "topology.check_convergence": ("self_ms",),
    "topology.merging_sequence": ("ms",),
    "topology.hat_family": ("ms",),
    "stats.ks_statistic": ("calls", "ms"),
    "stats.gamma_cdf": ("calls", "ms"),
    "cli.sample": ("self_ms",),
    "cli.reflect": ("self_ms",),
    "cli.restrict": ("self_ms",),
    "cli.pair": ("self_ms",),
    "cli.stats": ("self_ms",),
    "cli.converge": ("self_ms",),
}

TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def per_layer_units() -> dict:
    """Every per-layer metric name with its unit."""
    units = {}
    for span, stats in REPORTED.items():
        for stat in stats:
            if stat == "items":
                units[f"{span}.{stat}"] = "bytes" if span.startswith("jsonl.") else "count"
            else:
                units[f"{span}.{stat}"] = "count" if stat == "calls" else "ms"
    units.update({
        "trace.untraced_items_per_s": "1/s",
        "trace.traced_items_per_s": "1/s",
        "trace.overhead_pct": "%",
    })
    return units


END_TO_END_UNITS = {
    "setup_s": "s",
    "items_per_s": "1/s",
    "op_p1_ms": "ms",
    "op_tail_ms": "ms",
    "peak_rss_mb": "MB",
}

# The CPU of a small shared machine runs fast or up to about 2x slower,
# and the share of slow time drifts over minutes.  A median or mean over a
# run follows that share; the 1st percentile of short operations stays in
# the fast state while a run has some of it, and the tail in the slow one.
# See README.md.
FAST_PERCENTILE = 1.0
SETUP_SHARE = 0.15


def percentile(values, p: float) -> float:
    """Linear interpolation between the closest ranks."""
    v = sorted(values)
    k = (len(v) - 1) * p / 100.0
    lo = int(k)
    hi = min(lo + 1, len(v) - 1)
    return v[lo] + (v[hi] - v[lo]) * (k - lo)


def tail_percentile(n: int) -> float:
    """The highest percentile with >= 10 of ``n`` samples beyond it.

    With fewer than 20 samples none qualifies, and the maximum
    (percentile 100) stands in.
    """
    for p in TAIL_PERCENTILES:
        if n * (100.0 - p) / 100.0 >= 10:
            return p
    return 100.0


def import_package():
    """Import the package afresh from ``src/``, dropping any earlier copy."""
    for name in [n for n in sys.modules if n == PACKAGE or n.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    pc = importlib.import_module(PACKAGE)
    importlib.import_module(f"{PACKAGE}.cli")
    return pc


def git_commit(root: Path):
    """The checked-out commit read from ``.git``, or None outside a repository."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": git_commit(ROOT),
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
    }


def _mean_rate(passes) -> float:
    """Items per timed second over whole passes, work at pass ends included."""
    return sum(p.items for p in passes) / sum(p.busy_s for p in passes)


def _traced_passes(workload, ctx: Context, seed: int, index: int):
    """One traced set-up and the workload's traced passes; returns
    (recorder, pass results, wall seconds)."""
    recorder = SpanRecorder()
    recorder.install(PACKAGE, TRACED)
    traced_ctx = Context(ctx.pc, ctx.work / "traced", recorder)
    traced_ctx.work.mkdir()
    t0 = time.perf_counter()
    try:
        with recorder.span("bench.setup"):
            state = workload.prepare(traced_ctx, seed)
        results = []
        for k in range(workload.traced_passes):
            with recorder.span("bench.pass"):
                results.append(workload.run_pass(state, index + k))
    finally:
        wall_s = time.perf_counter() - t0
        recorder.uninstall()
    return recorder, results, wall_s


def measure(workload, seed: int, seconds: float, trace: bool, work: Path):
    """Run one workload; returns (result line, detail record)."""
    setup_s = []

    def set_up():
        run_dir = work / f"setup{len(setup_s)}"
        run_dir.mkdir(parents=True)
        gc.collect()
        t0 = time.perf_counter()
        pc = import_package()
        ctx = Context(pc, run_dir)
        state = workload.prepare(ctx, seed)
        setup_s.append(time.perf_counter() - t0)
        if not Path(pc.__file__).resolve().is_relative_to(SRC.resolve()):
            raise RuntimeError(f"{PACKAGE} was imported from {pc.__file__}, not from {SRC}")
        return ctx, state

    # after each pass the run sets up again until set-ups have taken
    # SETUP_SHARE of it, so that they sample the machine through the whole
    # run; the passes go on with the latest set-up's state
    start = time.perf_counter()
    deadline = start + seconds
    ctx, state = set_up()
    passes = []
    while not passes or time.perf_counter() < deadline:
        # each pass starts from a collected heap, as a fresh CLI process would
        gc.collect()
        result = workload.run_pass(state, len(passes))
        if not passes:
            outputs_sha256 = hashlib.sha256(result.output).hexdigest()
        # outputs held past their pass would count in peak_rss_mb
        result.output = None
        passes.append(result)
        while sum(setup_s) < SETUP_SHARE * (time.perf_counter() - start):
            ctx, state = set_up()

    # an operation's time is the sum of its stages; op_p1_ms and op_tail_ms
    # add each stage's percentile, so that a short stage counts in the state
    # it ran in even when the rest of its operation ran in the other
    stages = [[] for _ in passes[0].stage_ms]
    for p in passes:
        for times, pass_times in zip(stages, p.stage_ms):
            times.extend(pass_times)
    op_ms = [sum(op) for op in zip(*stages)]
    tail_p = tail_percentile(len(op_ms))
    untraced_rate = _mean_rate(passes)
    detail = {
        "workload": workload.name,
        "seed": seed,
        "environment": environment(),
        "outputs_sha256": outputs_sha256,
        "passes": len(passes),
        "setup_runs_s": setup_s,
        "op_samples": len(op_ms),
        "op_tail_percentile": tail_p,
        "op_p50_ms": percentile(op_ms, 50.0),
        "stage_p1_ms": [percentile(t, FAST_PERCENTILE) for t in stages],
        "notes": [p.notes for p in passes if p.notes],
    }
    if trace:
        recorder, traced, wall_s = _traced_passes(workload, ctx, seed, len(passes))
        passes.extend(traced)
        summary = recorder.summary()
        OUT.mkdir(exist_ok=True)
        recorder.write(OUT / f"spans-{workload.name}.jsonl")
        traced_rate = _mean_rate(traced)
        values = {
            "trace.untraced_items_per_s": untraced_rate,
            "trace.traced_items_per_s": traced_rate,
            "trace.overhead_pct": (untraced_rate / traced_rate - 1.0) * 100.0,
        }
        for span, stats in REPORTED.items():
            row = summary.get(span, {})
            for stat in stats:
                values[f"{span}.{stat}"] = row.get(stat) or 0
        units = per_layer_units()
        detail.update(traced_wall_s=wall_s, absent=recorder.absent, spans=summary)
    else:
        values = {
            "setup_s": percentile(setup_s, FAST_PERCENTILE),
            "items_per_s": untraced_rate,
            "op_p1_ms": sum(percentile(t, FAST_PERCENTILE) for t in stages),
            "op_tail_ms": sum(percentile(t, tail_p) for t in stages),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END_UNITS
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    detail["failed_fraction"] = failed / attempted
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()},
    }
    return result, detail


def main(argv=None, workloads=WORKLOADS) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    # one process, one thread: pin the BLAS pools before numpy is imported
    for var in THREAD_VARS:
        os.environ[var] = "1"
    if not (SRC / PACKAGE / "__init__.py").is_file():
        print(f"run.py: no {PACKAGE} sources under {SRC}", file=sys.stderr)
        return 2
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))

    work = OUT / f"work-{os.getpid()}"
    try:
        result, detail = measure(workloads[args.workload], args.seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
