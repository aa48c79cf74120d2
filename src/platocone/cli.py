"""Command-line front end: sampling runs, transformations and statistics.

Subcommands: ``sample {poisson,gamma,gamma-ordered}``, ``reflect``,
``restrict``, ``pair``, ``stats``, ``converge``.  All commands are
deterministic given their full flag set; the environment variable
``PLATO_CONE_SEED`` overrides ``--seed`` when set.

Exit codes follow the error class, in :func:`main` alone: 0 on success,
2 on a usage or validation failure, 3 on an I/O or parse failure
(``OSError``, :class:`JsonlFormatError`).  Diagnostics are single lines
on stderr.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import jsonl
from .configuration import TestFunction, Window, count_in_window, indicator, pair_configuration, restrict
from .cone import DiscreteMeasure, mass_in_window
from .errors import InvalidArgument, JsonlFormatError, PlatoconeError
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


def _fail(message: str):
    raise InvalidArgument(message)


@contextlib.contextmanager
def _io(verb: str, path):
    """Re-raise an I/O or parse failure of the block as ``cannot VERB PATH: ...``."""
    try:
        yield
    except (OSError, JsonlFormatError) as exc:
        raise type(exc)(f"cannot {verb} {path}: {exc}") from exc


def _numbers(flag: str, raw: str) -> tuple:
    try:
        return tuple(float(v) for v in raw.split(","))
    except ValueError:
        _fail(f"{flag} expects comma-separated numbers, got {raw!r}")


def _parse_window(raw: str, dim: int | None, mark_interval: str | None) -> Window:
    values = _numbers("--window", raw)
    if len(values) % 2:
        _fail("--window expects pairs lo1,hi1[,lo2,hi2,...]")
    lower, upper = values[0::2], values[1::2]
    if dim is not None and dim != len(lower):
        _fail(f"--dim {dim} contradicts --window with {len(lower)} axes")
    interval = None
    if mark_interval is not None:
        if mark_interval.count(",") != 1:
            _fail("--mark-interval expects a,b")
        interval = _numbers("--mark-interval", mark_interval)
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


def _write_text(path, text: str) -> None:
    with _io("write", path):
        Path(path).write_text(text, encoding="utf-8")


def _read_object(path: str):
    with _io("read", path):
        return jsonl.read(path)


def _emit_json(args, payload: dict) -> None:
    text = json.dumps(payload, separators=(",", ":"), allow_nan=False) + "\n"
    if args.out:
        _write_text(args.out, text)
    else:
        sys.stdout.write(text)


def _default_mark_density(cut: float) -> TestFunction:
    """Unit-rate exponential mark density truncated to [0, cut).

    At the default cut of 40 the missing tail mass is below the double
    rounding of 1.0, so the numeric total mass is 1 to machine precision.
    """
    support = Window((0.0,), (cut,))
    return TestFunction(lambda x: math.exp(-x[0]), support, None, "space")


def _cmd_sample(args):
    window = _parse_window(args.window, args.dim, None)
    if args.count < 1:
        _fail(f"--count must be >= 1, got {args.count}")
    base_seed = _resolve_seed(args)
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
    out_dir = Path(args.out)
    with _io("create", out_dir):
        out_dir.mkdir(parents=True, exist_ok=True)

    for seed in range(base_seed, base_seed + args.count):
        obj, report = runner(seed)
        _write_text(out_dir / f"{prefix}_seed{seed}.jsonl", jsonl.serialize(obj))
        _write_text(out_dir / f"{prefix}_seed{seed}.report.json", jsonl.serialize_report(report))


def _cmd_reflect(args):
    obj = _read_object(getattr(args, "in"))
    result = reflect_inverse(obj) if isinstance(obj, DiscreteMeasure) else reflect(to_plato(obj))
    _write_text(args.out, jsonl.serialize(result))


def _cmd_restrict(args):
    window = _parse_window(args.window, args.dim, args.mark_interval)
    obj = _read_object(getattr(args, "in"))
    _write_text(args.out, jsonl.serialize(restrict(obj, window)))


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


def _cmd_pair(args):
    window = _parse_window(args.window, args.dim, args.mark_interval)
    fn = _pair_function(args, window)
    # a measure's atoms pair as the phase points (weight, position), as in double_pair
    _emit_json(args, {"value": pair_configuration(fn, _read_object(getattr(args, "in")))})


def _cmd_stats(args):
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
    n = len(measures)  # at least 1: --in takes one or more files
    shape = args.theta * volume
    # before the count check, so an overflowing ln Gamma(shape) is named first
    mass_ks = ks_statistic(EmpiricalSample(tuple(masses)), lambda x: gamma_cdf(shape, 1.0, max(x, 0.0)))
    mu = shape * exp_integral_e1(args.epsilon)
    if not math.isfinite(mu):
        _fail(f"expected atom count theta * volume * E1(epsilon) overflows a double: {mu}")
    # the 0.02 floor is the large-sample contract; below ~6600 samples the
    # 1% KS critical value 1.63/sqrt(n) is the binding threshold
    ks_threshold = max(_MASS_KS_FLOOR, _KS_CRITICAL_1PC / math.sqrt(n))
    count_mean, tolerance = sum(counts) / n, 3.0 * math.sqrt(mu / n)
    judged = n >= _STATS_MIN_SAMPLES
    _emit_json(args, {
        "n": n,
        "theta": args.theta,
        "epsilon": args.epsilon,
        "window_volume": volume,
        "insufficient_n": not judged,
        "mass_ks": mass_ks,
        "mass_ks_threshold": ks_threshold,
        "mass_ks_pass": mass_ks < ks_threshold if judged else None,
        "count_mean": count_mean,
        "count_expected": mu,
        "count_tolerance": tolerance,
        "count_pass": abs(count_mean - mu) <= tolerance if judged else None,
    })


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


def _cmd_converge(args):
    files = getattr(args, "in")
    if files:
        if not args.limit:
            _fail("converge with --in requires --limit")
        limit = _read_configuration(args.limit, args.dim)
        configs = [_read_configuration(path, limit.dimension) for path in files]
        family = _family_for(configs + [limit])
        result = check_convergence(lambda n: configs[n - 1], limit, family, args.tol, len(configs))
    elif args.limit is not None:
        _fail("converge --limit requires --in")
    else:
        if args.s1 == args.s2:
            _fail(f"--s1 and --s2 must differ, got {args.s1}")
        x0 = _numbers("--x0", args.x0)
        if args.dim is not None and args.dim != len(x0):
            _fail(f"--dim {args.dim} contradicts --x0 with {len(x0)} coordinates")
        family = merging_family(x0, args.s1, args.s2)
        limit = merging_limit(x0, args.s1, args.s2)
        terms = lambda n: merging_sequence(x0, args.s1, args.s2, n)
        result = check_convergence(terms, limit, family, args.tol, args.n_max)
    _emit_json(args, {**result.as_dict(), "limit_pinpointing": is_pinpointing(limit)})


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and then reused: each
    ``parse_args`` call fills a fresh ``Namespace`` and holds no state."""
    parser = argparse.ArgumentParser(
        prog="platocone",
        description="Sample, transform and verify marked configurations and discrete measures.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # the flags several commands share, each declared once
    dim = argparse.ArgumentParser(add_help=False)
    dim.add_argument("--dim", type=int)
    window = argparse.ArgumentParser(add_help=False, parents=[dim])
    window.add_argument("--window", required=True)
    marks = argparse.ArgumentParser(add_help=False, parents=[window])
    marks.add_argument("--mark-interval")

    p_sample = sub.add_parser("sample", parents=[window], help="draw seeded samples to JSONL files")
    p_sample.add_argument("process", choices=["poisson", "gamma", "gamma-ordered"])
    p_sample.add_argument("--theta", type=float)
    p_sample.add_argument("--epsilon", type=float)
    p_sample.add_argument("--n-jumps", type=int)
    p_sample.add_argument("--mark-cut", type=float, default=_DEFAULT_MARK_CUT)
    p_sample.add_argument("--seed", type=int, default=0)
    p_sample.add_argument("--count", type=int, default=1)
    p_sample.add_argument("--out", required=True)
    p_sample.set_defaults(handler=_cmd_sample)

    p_reflect = sub.add_parser("reflect", help="map configurations to measures and back")
    p_reflect.add_argument("--in", required=True)
    p_reflect.add_argument("--out", required=True)
    p_reflect.set_defaults(handler=_cmd_reflect)

    p_restrict = sub.add_parser("restrict", parents=[marks], help="keep only the points or atoms in a window")
    p_restrict.add_argument("--in", required=True)
    p_restrict.add_argument("--out", required=True)
    p_restrict.set_defaults(handler=_cmd_restrict)

    p_pair = sub.add_parser("pair", parents=[marks], help="pair a built-in test function with a file")
    p_pair.add_argument("--in", required=True)
    p_pair.add_argument("--out")
    p_pair.add_argument("--fn", choices=["indicator", "mark", "hat"], default="indicator")
    p_pair.set_defaults(handler=_cmd_pair)

    p_stats = sub.add_parser("stats", parents=[window], help="window-mass and atom-count tests on measure samples")
    p_stats.add_argument("--in", nargs="+", required=True)
    p_stats.add_argument("--out")
    p_stats.add_argument("--theta", type=float, required=True)
    p_stats.add_argument("--epsilon", type=float, required=True)
    p_stats.set_defaults(handler=_cmd_stats)

    p_conv = sub.add_parser("converge", parents=[dim], help="discrepancy scan of a merging sequence")
    p_conv.add_argument("--in", nargs="+")
    p_conv.add_argument("--limit")
    p_conv.add_argument("--out")
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
        if args.out == "":
            _fail("--out must not be empty")
        args.handler(args)
    except (OSError, PlatoconeError) as exc:
        print(f"platocone: error: {exc}", file=sys.stderr)
        return 3 if isinstance(exc, (OSError, JsonlFormatError)) else 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
