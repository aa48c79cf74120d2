"""One-off rerun of the ROADMAP Baseline table.

    python3 benchmarks/baseline.py

Each row runs once and is printed next to the value the table gives.
This is not a workload: it is not repeated, has no bounds, and takes
about half a minute.  Stage breakdowns come from the same span recorder
the traced benchmark run uses.
"""

from __future__ import annotations

import os
import resource
import sys
import tempfile
import time
from pathlib import Path

import run
from spans import SpanRecorder

ATOMS = 97_143
EPSILON = 1e-8


def _timed(fn, *args):
    t0 = time.perf_counter()
    result = fn(*args)
    return result, (time.perf_counter() - t0) * 1e3


def _traced(names, fn):
    """Call ``fn()`` with ``names`` traced; returns (result, per-name inclusive ms).

    ``fn`` must look the traced functions up when it runs, after they are wrapped.
    """
    recorder = SpanRecorder()
    recorder.install(run.PACKAGE, {n: None for n in names})
    try:
        result = fn()
    finally:
        recorder.uninstall()
    summary = recorder.summary()
    return result, {n: summary.get(n, {"ms": 0.0})["ms"] for n in names}


def rows(pc):
    unit = pc.Window((0.0,), (1.0,))
    calls = 300
    names = ["sampling.sample_gamma", "sampling._invert_e1",
             "configuration.make_configuration", "sampling.substream"]
    _, ms = _traced(names, lambda: [pc.sample_gamma(1.0, unit, EPSILON, s) for s in range(calls)])
    per = {n: v / calls for n, v in ms.items()}
    yield (
        "`sample_gamma`, unit window, ε=1e-8 (~18 atoms)",
        "3.5 ms/call; `_invert_e1` 2.6 ms (74%), `make_configuration` 75 µs, 3 substreams 45 µs",
        f"{per[names[0]]:.2f} ms/call; `_invert_e1` {per[names[1]]:.2f} ms "
        f"({100 * per[names[1]] / per[names[0]]:.0f}%), `make_configuration` "
        f"{1e3 * per[names[2]]:.0f} µs, 3 substreams {1e3 * per[names[3]]:.0f} µs",
    )

    length = ATOMS / pc.exp_integral_e1(EPSILON)
    window = pc.Window((0.0,), (length,))
    names = ["sampling.sample_gamma", "sampling._invert_e1", "configuration.make_configuration",
             "plato.reflect", "sampling._points_from_arrays"]
    (eta, report), ms = _traced(names, lambda: pc.sample_gamma(1.0, window, EPSILON, 1))
    yield (
        "`sample_gamma`, 97 143 atoms",
        "2.2 s: `_invert_e1` 1.18 s, `make_configuration` 0.69 s, `reflect` 0.30 s, "
        "`_points_from_arrays` 0.15 s",
        f"{report.atom_count} atoms, {ms[names[0]] / 1e3:.2f} s: `_invert_e1` {ms[names[1]] / 1e3:.2f} s, "
        f"`make_configuration` {ms[names[2]] / 1e3:.2f} s, `reflect` {ms[names[3]] / 1e3:.2f} s, "
        f"`_points_from_arrays` {ms[names[4]] / 1e3:.2f} s",
    )

    plato, t = _timed(pc.reflect_inverse, eta)
    yield "`reflect_inverse`, 97k atoms", "0.48 s", f"{t / 1e3:.2f} s"

    gamma = plato.configuration
    hat = pc.hat_function((0.5 * length,), 0.45 * length, mark_center=1.0, mark_half_width=1.0)
    _, t_mass = _timed(pc.mass_in_window, eta, window)
    _, t_pair = _timed(pc.pair_configuration, hat, gamma)
    yield (
        "`mass_in_window` / `pair_configuration` (hat), 97k",
        "0.20 s / 0.24 s",
        f"{t_mass / 1e3:.2f} s / {t_pair / 1e3:.2f} s",
    )

    other = pc.reflect_inverse(pc.sample_gamma(1.0, window, EPSILON, 2)[0]).configuration
    family = pc.hat_family(window, (8,), (0.0, 8.0), mark_cells=4)
    _, t = _timed(pc.vague_discrepancy, gamma, other, family)
    yield (
        f"`vague_discrepancy`, {len(family)}-hat family, two 97k-point configs",
        "11.4 s",
        f"{t / 1e3:.1f} s",
    )

    text, t_ser = _timed(pc.jsonl.serialize, eta)
    _, t_parse = _timed(pc.jsonl.parse, text)
    yield (
        f"`jsonl.serialize` / `parse`, 97k atoms ({len(text) / 1e6:.1f} MB)",
        "0.83 s / 0.97 s",
        f"{t_ser / 1e3:.2f} s / {t_parse / 1e3:.2f} s",
    )

    with tempfile.TemporaryDirectory(dir=run.OUT) as tmp:
        out = str(Path(tmp) / "converge.json")
        _, ms = _traced(["topology.check_convergence"], lambda: pc.cli.main(["converge", "--out", out]))
    yield (
        "CLI-default `check_convergence` (merging sequence, n ≤ 1000)",
        "64 ms",
        f"{ms['topology.check_convergence']:.0f} ms",
    )


def main() -> int:
    for var in run.THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(run.SRC))
    run.OUT.mkdir(exist_ok=True)
    pc = run.import_package()
    env = run.environment()
    print(f"python {env['python']}, numpy {env['numpy']}, {env['nproc']} CPUs, commit {env['commit']}")
    print("| case | ROADMAP Baseline | now |")
    print("| --- | --- | --- |")
    for case, then, now in rows(pc):
        print(f"| {case} | {then} | {now} |", flush=True)
    print("| tier-1 suite (139 tests) | 231 s | not rerun here |")
    # the bounded workloads are too small for per-point memory to show
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(f"| peak RSS of the rows above (97k atoms) | not in the table | {peak_mb:.0f} MB |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
