"""Command-line front end: sampling runs, transformations and statistics.

Subcommands: ``sample {poisson,gamma,gamma-ordered}``, ``reflect``,
``restrict``, ``pair``, ``stats``, ``converge``.  All commands are
deterministic given their full flag set; the environment variable
``PLATO_CONE_SEED`` overrides ``--seed`` when set.

Exit codes: 0 on success, 2 on usage or validation failure, 3 on I/O or
parse failure.  Diagnostics are single lines on stderr.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import jsonl
from .configuration import TestFunction, Window, count_in_window, indicator, pair_configuration, restrict
from .cone import DiscreteMeasure, double_pair, mass_in_window
from .errors import JsonlFormatError, PlatoconeError
from .plato import is_pinpointing, reflect, reflect_inverse, to_plato
from .sampling import FiniteProduct, sample_gamma, sample_gamma_ordered, sample_poisson
from .stats import EmpiricalSample, exp_integral_e1, gamma_cdf, ks_statistic
from .topology import (
    check_convergence,
    hat_family,
    hat_function,
    merging_family,
    merging_limit,
    merging_sequence,
)

SEED_ENV_VAR = "PLATO_CONE_SEED"
_STATS_MIN_SAMPLES = 100
_MASS_KS_FLOOR = 0.02
# asymptotic 1% critical value of the one-sample KS statistic
_KS_CRITICAL_1PC = 1.63
_DEFAULT_MARK_CUT = 40.0


class _CliError(Exception):
    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.code = code


def _fail(message: str, code: int = 2):
    raise _CliError(message, code)


def _parse_window(raw: str, dim: int | None, mark_interval: str | None) -> Window:
    try:
        values = [float(v) for v in raw.split(",")]
    except ValueError:
        _fail(f"--window expects comma-separated numbers, got {raw!r}")
    if len(values) % 2 != 0 or not values:
        _fail("--window expects pairs lo1,hi1[,lo2,hi2,...]")
    lower = tuple(values[0::2])
    upper = tuple(values[1::2])
    if dim is not None and dim != len(lower):
        _fail(f"--dim {dim} contradicts --window with {len(lower)} axes")
    interval = None
    if mark_interval is not None:
        parts = mark_interval.split(",")
        if len(parts) != 2:
            _fail("--mark-interval expects a,b")
        try:
            interval = (float(parts[0]), float(parts[1]))
        except ValueError:
            _fail(f"--mark-interval expects numbers, got {mark_interval!r}")
    try:
        return Window(lower, upper, mark_interval=interval)
    except PlatoconeError as exc:
        _fail(f"invalid --window/--mark-interval: {exc}")


def _resolve_seed(args) -> int:
    env = os.environ.get(SEED_ENV_VAR)
    if env is not None:
        try:
            return int(env)
        except ValueError:
            _fail(f"{SEED_ENV_VAR} must be an integer, got {env!r}")
    return args.seed


def _write_text(path: Path, text: str) -> None:
    try:
        path.write_text(text, encoding="utf-8")
    except OSError as exc:
        _fail(f"cannot write {path}: {exc}", code=3)


def _read_object(path: str):
    try:
        return jsonl.read(path)
    except (OSError, JsonlFormatError) as exc:
        _fail(f"cannot read {path}: {exc}", code=3)


def _emit_json(args, payload: dict) -> None:
    text = json.dumps(payload, separators=(",", ":"), allow_nan=False) + "\n"
    if getattr(args, "out", None):
        _write_text(Path(args.out), text)
    else:
        sys.stdout.write(text)


def _default_mark_density(cut: float) -> TestFunction:
    """Unit-rate exponential mark density truncated to [0, cut).

    At the default cut of 40 the missing tail mass is below the double
    rounding of 1.0, so the numeric total mass is 1 to machine precision.
    """
    support = Window((0.0,), (cut,))
    return TestFunction(lambda x: math.exp(-x[0]), support, None, "space")


def _cmd_sample(args) -> int:
    window = _parse_window(args.window, args.dim, None)
    if args.count < 1:
        _fail(f"--count must be >= 1, got {args.count}")
    base_seed = _resolve_seed(args)
    out_dir = Path(args.out)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        _fail(f"cannot create {out_dir}: {exc}", code=3)

    if args.process == "poisson":
        spec = FiniteProduct(_default_mark_density(args.mark_cut))
        runner = lambda seed: sample_poisson(spec, window, seed)
    else:
        sampler, flag, value = (
            (sample_gamma, "--epsilon", args.epsilon)
            if args.process == "gamma"
            else (sample_gamma_ordered, "--n-jumps", args.n_jumps)
        )
        if args.theta is None or value is None:
            _fail(f"sample {args.process} requires --theta and {flag}")
        if args.theta <= 0:
            _fail(f"--theta must be positive, got {args.theta}")
        runner = lambda seed: sampler(args.theta, window, value, seed)
    prefix = args.process.replace("-", "_")

    for seed in range(base_seed, base_seed + args.count):
        obj, report = runner(seed)
        _write_text(out_dir / f"{prefix}_seed{seed}.jsonl", jsonl.serialize(obj))
        _write_text(out_dir / f"{prefix}_seed{seed}.report.json", jsonl.serialize_report(report))
    return 0


def _cmd_reflect(args) -> int:
    obj = _read_object(getattr(args, "in"))
    if isinstance(obj, DiscreteMeasure):
        result = reflect_inverse(obj)
    else:
        result = reflect(to_plato(obj))
    _write_text(Path(args.out), jsonl.serialize(result))
    return 0


def _cmd_restrict(args) -> int:
    window = _parse_window(args.window, args.dim, args.mark_interval)
    obj = _read_object(getattr(args, "in"))
    _write_text(Path(args.out), jsonl.serialize(restrict(obj, window)))
    return 0


def _pair_function(args, window: Window) -> TestFunction:
    if args.fn == "indicator":
        return indicator(window)
    if args.fn == "mark":
        return TestFunction(lambda s, x: s, window, None, "phase")
    if window.mark_interval is None:
        _fail("--fn hat requires --mark-interval")
    center = tuple(0.5 * (a + b) for a, b in zip(window.lower, window.upper))
    widths = tuple(0.5 * (b - a) for a, b in zip(window.lower, window.upper))
    a, b = window.mark_interval
    return hat_function(center, widths, mark_center=0.5 * (a + b), mark_half_width=0.5 * (b - a))


def _cmd_pair(args) -> int:
    window = _parse_window(args.window, args.dim, args.mark_interval)
    fn = _pair_function(args, window)
    obj = _read_object(getattr(args, "in"))
    if isinstance(obj, DiscreteMeasure):
        value = double_pair(fn, obj)
    else:
        value = pair_configuration(fn, obj)
    _emit_json(args, {"value": value})
    return 0


def _cmd_stats(args) -> int:
    window = _parse_window(args.window, args.dim, None)
    if args.theta <= 0:
        _fail(f"--theta must be positive, got {args.theta}")
    if not 0 < args.epsilon < 1:
        _fail(f"--epsilon must lie in (0, 1), got {args.epsilon}")
    measures = []
    for path in getattr(args, "in"):
        obj = _read_object(path)
        if not isinstance(obj, DiscreteMeasure):
            _fail(f"{path}: stats expects a measure file, got a configuration")
        measures.append(obj)

    volume = window.volume()
    masses = [mass_in_window(eta, window) for eta in measures]
    counts = [count_in_window(eta, window) for eta in measures]
    n = len(measures)
    # the 0.02 floor is the large-sample contract; below ~6600 samples the
    # 1% KS critical value 1.63/sqrt(n) is the binding threshold
    ks_threshold = max(_MASS_KS_FLOOR, _KS_CRITICAL_1PC / math.sqrt(n)) if n else None
    report = {
        "n": n,
        "theta": args.theta,
        "epsilon": args.epsilon,
        "window_volume": volume,
        "insufficient_n": n < _STATS_MIN_SAMPLES,
        "mass_ks": None,
        "mass_ks_threshold": ks_threshold,
        "mass_ks_pass": None,
        "count_mean": None,
        "count_expected": None,
        "count_tolerance": None,
        "count_pass": None,
    }
    if n >= 1:
        shape = args.theta * volume
        report["mass_ks"] = ks_statistic(
            EmpiricalSample(tuple(masses)), lambda x: gamma_cdf(shape, 1.0, max(x, 0.0))
        )
        report["count_mean"] = sum(counts) / n
        mu = args.theta * volume * exp_integral_e1(args.epsilon)
        if not math.isfinite(mu):
            _fail(f"expected atom count theta * volume * E1(epsilon) overflows a double: {mu}")
        report["count_expected"] = mu
        report["count_tolerance"] = 3.0 * math.sqrt(mu / n)
    if not report["insufficient_n"]:
        report["mass_ks_pass"] = report["mass_ks"] < ks_threshold
        report["count_pass"] = abs(report["count_mean"] - report["count_expected"]) <= report["count_tolerance"]
    _emit_json(args, report)
    return 0


def _family_for(configs):
    """A hat family whose supports cover all points of the given configurations."""
    d = configs[0].dimension
    marks = np.concatenate([c.marks for c in configs])
    if not marks.size:
        return hat_family(Window((-1.0,) * d, (1.0,) * d), (2,) * d, (0.0, 2.0))
    positions = np.concatenate([c.positions for c in configs])
    lo = positions.min(axis=0) - 1.0
    hi = positions.max(axis=0) + 1.0
    return hat_family(Window(lo, hi), (2,) * d, (0.0, float(marks.max()) + 1.0))


def _read_configuration(path: str, dim: int | None):
    obj = _read_object(path)
    if isinstance(obj, DiscreteMeasure):
        _fail(f"{path}: converge expects configuration inputs")
    if dim is not None and obj.dimension != dim:
        _fail(f"{path} has dimension {obj.dimension}, expected {dim}")
    return obj


def _cmd_converge(args) -> int:
    if getattr(args, "in"):
        if not args.limit:
            _fail("converge with --in requires --limit")
        limit = _read_configuration(args.limit, args.dim)
        configs = [_read_configuration(path, limit.dimension) for path in getattr(args, "in")]
        family = _family_for(configs + [limit])
        result = check_convergence(
            lambda n: configs[n - 1], limit, family, args.tol, len(configs)
        )
    else:
        if args.s1 == args.s2:
            _fail(f"--s1 and --s2 must differ, got {args.s1}")
        try:
            x0 = tuple(float(v) for v in args.x0.split(","))
        except ValueError:
            _fail(f"--x0 expects comma-separated numbers, got {args.x0!r}")
        if args.dim is not None and args.dim != len(x0):
            _fail(f"--dim {args.dim} contradicts --x0 with {len(x0)} coordinates")
        family = merging_family(x0, args.s1, args.s2)
        limit = merging_limit(x0, args.s1, args.s2)
        result = check_convergence(
            lambda n: merging_sequence(x0, args.s1, args.s2, n),
            limit,
            family,
            args.tol,
            args.n_max,
        )
    payload = result.as_dict()
    payload["limit_pinpointing"] = is_pinpointing(limit)
    _emit_json(args, payload)
    return 0


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and then reused: each
    ``parse_args`` call fills a fresh ``Namespace`` and holds no state."""
    parser = argparse.ArgumentParser(
        prog="platocone",
        description="Sample, transform and verify marked configurations and discrete measures.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sample = sub.add_parser("sample", help="draw seeded samples to JSONL files")
    p_sample.add_argument("process", choices=["poisson", "gamma", "gamma-ordered"])
    p_sample.add_argument("--dim", type=int, default=None)
    p_sample.add_argument("--window", required=True)
    p_sample.add_argument("--theta", type=float, default=None)
    p_sample.add_argument("--epsilon", type=float, default=None)
    p_sample.add_argument("--n-jumps", type=int, default=None)
    p_sample.add_argument("--mark-cut", type=float, default=_DEFAULT_MARK_CUT)
    p_sample.add_argument("--seed", type=int, default=0)
    p_sample.add_argument("--count", type=int, default=1)
    p_sample.add_argument("--out", required=True)
    p_sample.set_defaults(handler=_cmd_sample)

    p_reflect = sub.add_parser("reflect", help="map configurations to measures and back")
    p_reflect.add_argument("--in", required=True)
    p_reflect.add_argument("--out", required=True)
    p_reflect.set_defaults(handler=_cmd_reflect)

    p_restrict = sub.add_parser("restrict", help="keep only the points or atoms in a window")
    p_restrict.add_argument("--in", required=True)
    p_restrict.add_argument("--out", required=True)
    p_restrict.add_argument("--dim", type=int, default=None)
    p_restrict.add_argument("--window", required=True)
    p_restrict.add_argument("--mark-interval", default=None)
    p_restrict.set_defaults(handler=_cmd_restrict)

    p_pair = sub.add_parser("pair", help="pair a built-in test function with a file")
    p_pair.add_argument("--in", required=True)
    p_pair.add_argument("--out", default=None)
    p_pair.add_argument("--dim", type=int, default=None)
    p_pair.add_argument("--window", required=True)
    p_pair.add_argument("--mark-interval", default=None)
    p_pair.add_argument("--fn", choices=["indicator", "mark", "hat"], default="indicator")
    p_pair.set_defaults(handler=_cmd_pair)

    p_stats = sub.add_parser("stats", help="window-mass and atom-count tests on measure samples")
    p_stats.add_argument("--in", nargs="+", required=True)
    p_stats.add_argument("--out", default=None)
    p_stats.add_argument("--dim", type=int, default=None)
    p_stats.add_argument("--window", required=True)
    p_stats.add_argument("--theta", type=float, required=True)
    p_stats.add_argument("--epsilon", type=float, required=True)
    p_stats.set_defaults(handler=_cmd_stats)

    p_conv = sub.add_parser("converge", help="discrepancy scan of a merging sequence")
    p_conv.add_argument("--in", nargs="*", default=None)
    p_conv.add_argument("--limit", default=None)
    p_conv.add_argument("--out", default=None)
    p_conv.add_argument("--dim", type=int, default=None)
    p_conv.add_argument("--x0", default="0.0")
    p_conv.add_argument("--s1", type=float, default=1.0)
    p_conv.add_argument("--s2", type=float, default=2.0)
    p_conv.add_argument("--tol", type=float, default=0.01)
    p_conv.add_argument("--n-max", type=int, default=1000)
    p_conv.set_defaults(handler=_cmd_converge)

    return parser


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        if getattr(args, "out", None) == "":
            _fail("--out must not be empty")
        return args.handler(args)
    except _CliError as exc:
        print(f"platocone: error: {exc}", file=sys.stderr)
        return exc.code
    except JsonlFormatError as exc:
        print(f"platocone: error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"platocone: error: {exc}", file=sys.stderr)
        return 3
    except PlatoconeError as exc:
        print(f"platocone: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
