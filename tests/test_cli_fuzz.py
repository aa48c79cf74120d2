"""CLI fuzzing: hostile flag values end as exit 0, 2 or 3, never as a traceback.

Argument vectors follow the subcommand grammar, but every value may be
nan, an infinity, a double at either end of the range, a non-number or
an empty string, and every flag may be left out, given bare or given two
values.  Input files come from a few tiny files of dimension 1 and 2
(and a garbled, a missing and a directory path), so mixed-dimension
inputs are reached too.  Counts, ``--n-max`` and ``--n-jumps`` stay
small, so one example takes milliseconds.
"""

import contextlib
import io
import os
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from platocone import jsonl, make_configuration, make_measure, to_plato
from platocone.cli import SEED_ENV_VAR, main

_HOSTILE = ["nan", "inf", "-inf", "1e308", "-1e308", "5e-324", "abc", "", "0", "-1"]
_NUMBER = st.sampled_from(_HOSTILE + ["0.5", "1", "2"])
_HOSTILE_LIST = st.one_of(st.sampled_from(_HOSTILE), st.lists(_NUMBER, max_size=5).map(",".join))
_SMALL_INT = st.sampled_from(["0", "1", "3", "-1", "1e308", "nan", "", "x"])


def _flag(name, *good, hostile=_NUMBER):
    """A flag, its well-formed values (None leaves it out) and its hostile ones."""
    return name, st.sampled_from(good), hostile


_SAMPLE = [
    _flag("--window", "0,1", "0,1,0,1", "0,2,0,0.5", hostile=_HOSTILE_LIST),
    _flag("--dim", None, hostile=_SMALL_INT),
    _flag("--theta", "0.5", "1", "2"),
    _flag("--epsilon", "1e-8", "0.01", "0.5"),
    _flag("--n-jumps", "1", "3", hostile=_SMALL_INT),
    _flag("--mark-cut", None, "1"),
    _flag("--seed", "0", "5", hostile=_SMALL_INT),
    _flag("--count", "1", "2", hostile=_SMALL_INT),
]
_IN = ("--in", "FILE", "FILE")
# "DIR" is a fresh output directory, "OUT" a fresh output file; the hostile
# form names an existing file or directory
_OUT_DIR = ("--out", "DIR", "DIR")
_OUT = ("--out", "OUT", "OUT")
_OPTIONAL_OUT = ("--out", "OUT?", "OUT")
_RESTRICT = [
    _flag("--window", "0,1", "0,1,0,1", "-1,2,0,1", hostile=_HOSTILE_LIST),
    _flag("--dim", None, hostile=_SMALL_INT),
    _flag("--mark-interval", None, "0,2", "0.5,1", hostile=_HOSTILE_LIST),
]
# each subcommand's flags; "FILE" and "FILES" name one or more input files,
# "CONFIG", "CONFIGS" and "MEASURES" only those of one kind (of d = 1 or 2)
_GRAMMAR = {
    "sample poisson": [*_SAMPLE, _OUT_DIR],
    "sample gamma": [*_SAMPLE, _OUT_DIR],
    "sample gamma-ordered": [*_SAMPLE, _OUT_DIR],
    "reflect": [_IN, _OUT],
    "restrict": [_IN, _OUT, *_RESTRICT],
    "pair": [_IN, _OPTIONAL_OUT, *_RESTRICT, _flag("--fn", "indicator", "mark", "hat", hostile=st.just("cubic"))],
    "stats": [("--in", "MEASURES", "FILES"), _OPTIONAL_OUT, *_SAMPLE[:4]],
    "converge": [
        _OPTIONAL_OUT,
        ("--in", "CONFIGS", "FILES"),
        ("--limit", "CONFIG", "FILE"),
        _flag("--dim", None, "1", "2", hostile=_SMALL_INT),
        _flag("--x0", "0", "0,1", hostile=_HOSTILE_LIST),
        _flag("--s1", "1", "0.5"),
        _flag("--s2", "2"),
        _flag("--tol", "0.01", "0.5"),
        _flag("--n-max", "1", "3", hostile=_SMALL_INT),
    ],
}


def _inputs(files, token):
    kind = {"CONFIG": "config", "CONFIGS": "config", "MEASURES": "measure"}.get(token, "")
    pool = st.sampled_from([f for f in files if kind in os.path.basename(f)])
    return pool if token in ("FILE", "CONFIG") else st.lists(pool, min_size=1, max_size=3)


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    objects = {
        "config1.jsonl": make_configuration([(1.0, [0.0]), (2.0, [0.5])], 1),
        "config2.jsonl": make_configuration([(1.0, [0.0, 0.0]), (2.0, [0.5, 1.0])], 2),
        "config1_two_marks.jsonl": make_configuration([(1.0, [0.25]), (2.0, [0.25])], 1),
        "config2_empty.jsonl": make_configuration([], 2),
        "config1_plato.jsonl": to_plato(make_configuration([(0.5, [0.75])], 1)),
        "measure1.jsonl": make_measure([(0.5, [0.25]), (1.5, [0.75])], 1),
        "measure2.jsonl": make_measure([(0.5, [0.25, 0.5])], 2),
    }
    for name, obj in objects.items():
        jsonl.write(root / name, obj)
    (root / "garbled.jsonl").write_text('{"d":1,"kind":"measure"}\n{"w":\n')
    (root / "adir").mkdir()
    files = [str(root / name) for name in [*objects, "garbled.jsonl", "missing.jsonl", "adir"]]
    return root, files


@settings(max_examples=250, deadline=None, database=None, derandomize=True)
@given(data=st.data())
def test_cli_exits_0_2_or_3_without_a_traceback(inputs, data):
    root, files = inputs
    command = data.draw(st.sampled_from(sorted(_GRAMMAR)), label="command")
    flags = _GRAMMAR[command]
    # up to three flags are hostile: a bad value, left out, bare or doubled
    hostile = data.draw(st.sets(st.sampled_from([f[0] for f in flags]), max_size=3), label="hostile")
    argv = command.split()
    for flag, good, bad in flags:
        form = data.draw(st.sampled_from(["value", "omit", "bare", "twice"]), label=flag) if flag in hostile else "good"
        if good in ("DIR", "OUT", "OUT?"):
            fresh = str(root / ("out" if good == "DIR" else "out.json"))
            good = st.sampled_from([None, fresh] if good == "OUT?" else [fresh])
            bad = st.sampled_from([files[0], str(root / "adir")])
        elif isinstance(good, str):
            good, bad = _inputs(files, good), _inputs(files, bad)
        value = data.draw(good if form == "good" else bad, label=flag)
        tokens = value if isinstance(value, list) else [value]
        if form in ("good", "value") and value is not None:
            argv += [flag, *tokens]
        elif form == "bare":
            argv += [flag]
        elif form == "twice":
            argv += [flag, *tokens, *tokens]
    env_seed = data.draw(st.sampled_from([None, None, None, "3", "-1", "abc", str(2**64)]), label=SEED_ENV_VAR)
    env = {} if env_seed is None else {SEED_ENV_VAR: env_seed}

    stderr = io.StringIO()
    with mock.patch.dict(os.environ, env), contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
        if env_seed is None:
            os.environ.pop(SEED_ENV_VAR, None)
        try:
            code = main(argv)
        except Exception as exc:
            pytest.fail(f"{argv} raised {exc!r}")
    err = stderr.getvalue()
    assert code in (0, 2, 3), argv
    assert "Traceback" not in err, argv
    # a failed command says why in one line; argparse's own errors start with the usage
    one_line = err.startswith("platocone: error: ") and err.count("\n") == 1
    assert (code == 0 and not err) or one_line or err.startswith("usage: "), (argv, err)
