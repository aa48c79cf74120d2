"""JSONL persistence for configurations, pinpointing configurations and measures.

One object per file.  The first line is a header ``{"d": <int>, "kind":
<kind>}`` with kind one of ``configuration``, ``plato`` or ``measure``;
every following line is one point ``{"s": <mark>, "x": [<coords>]}`` or
one atom ``{"w": <weight>, "x": [<coords>]}``.

Files written here are canonical: records appear in canonical storage
order and floats are rendered with the shortest decimal representation
that round-trips (Python's ``repr``).  Parsing a canonical file and
serializing the result reproduces the input byte for byte, and every
finite double survives the round trip bit for bit.

Parsing is strict: the records go straight into the validating
constructor, never through the merging ``make_*`` builders.  A record
that repeats its predecessor or sorts before it is rejected with a
:class:`JsonlFormatError` naming its line, so every file the parser
accepts is in canonical order.  Loading a ``plato`` file also re-validates the
pinpointing property and fails loudly if it does not hold.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .configuration import Configuration
from .cone import DiscreteMeasure
from .errors import JsonlFormatError, NotCanonical
from .plato import PlatoConfiguration, to_plato
from .sampling import SampleReport

KIND_CONFIGURATION = "configuration"
KIND_PLATO = "plato"
KIND_MEASURE = "measure"
_KINDS = (KIND_CONFIGURATION, KIND_PLATO, KIND_MEASURE)


def _dump_line(obj: dict) -> str:
    return json.dumps(obj, separators=(",", ":"), allow_nan=False)


def serialize(obj) -> str:
    """Render a configuration, plato configuration or measure as JSONL text."""
    kinds = {PlatoConfiguration: KIND_PLATO, Configuration: KIND_CONFIGURATION, DiscreteMeasure: KIND_MEASURE}
    kind = kinds.get(type(obj))
    if kind is None:
        raise JsonlFormatError(f"cannot serialize object of type {type(obj).__name__}")
    key = "w" if kind == KIND_MEASURE else "s"
    lines = [
        _dump_line({key: v, "x": x}) for v, x in zip(obj.marks.tolist(), obj.positions.tolist())
    ]
    header = _dump_line({"d": obj.dimension, "kind": kind})
    return "\n".join([header] + lines) + "\n"


def _parse_record(line: str, lineno: int, value_key: str, d: int):
    try:
        rec = json.loads(line)
    except json.JSONDecodeError as exc:
        raise JsonlFormatError(f"line {lineno}: invalid JSON ({exc.msg})") from exc
    if not isinstance(rec, dict) or set(rec) != {value_key, "x"}:
        raise JsonlFormatError(f"line {lineno}: expected keys {{{value_key!r}, 'x'}}")
    value, x = rec[value_key], rec["x"]
    if not isinstance(x, list) or len(x) != d:
        raise JsonlFormatError(f"line {lineno}: 'x' must be a list of {d} coordinates")
    # type(), not isinstance(): JSON true/false load as bool, an int subclass
    if not all(type(v) in (int, float) for v in [value, *x]):
        raise JsonlFormatError(f"line {lineno}: {value_key!r} and 'x' must hold JSON numbers")
    return value, x


def parse(text: str):
    """Parse JSONL text into the object its header declares.

    Returns a :class:`Configuration`, :class:`PlatoConfiguration` or
    :class:`DiscreteMeasure`.  Raises :class:`JsonlFormatError` on schema
    violations and on records out of canonical order or repeated (the
    message names the line), and :class:`NotPinpointing` when a ``plato``
    file carries a duplicated position.
    """
    lines = text.splitlines()
    if not lines:
        raise JsonlFormatError("empty input: missing header line")
    try:
        header = json.loads(lines[0])
    except json.JSONDecodeError as exc:
        raise JsonlFormatError(f"invalid JSON header ({exc.msg})") from exc
    if not isinstance(header, dict) or set(header) != {"d", "kind"}:
        raise JsonlFormatError("header must be exactly {\"d\": <int>, \"kind\": <kind>}")
    d = header["d"]
    kind = header["kind"]
    if isinstance(d, bool) or not isinstance(d, int) or d < 1:
        raise JsonlFormatError(f"header 'd' must be a positive integer, got {d!r}")
    if kind not in _KINDS:
        raise JsonlFormatError(f"header 'kind' must be one of {_KINDS}, got {kind!r}")

    value_key = "w" if kind == KIND_MEASURE else "s"
    linenos = [i + 2 for i, line in enumerate(lines[1:]) if line]
    records = [_parse_record(lines[n - 1], n, value_key, d) for n in linenos]
    marks = np.array([v for v, _ in records], dtype=float)
    positions = np.array([x for _, x in records], dtype=float).reshape(len(records), d)
    finite = np.isfinite(marks) & np.isfinite(positions).all(axis=1)
    if not finite.all():
        raise JsonlFormatError(f"line {linenos[np.argmin(finite)]}: numbers must be finite")
    try:
        obj = (DiscreteMeasure if kind == KIND_MEASURE else Configuration)(marks, positions)
    except NotCanonical as exc:
        raise JsonlFormatError(
            f"line {linenos[exc.index]}: record repeats or precedes the one before it; "
            "records must be in strictly increasing canonical order"
        ) from exc
    return to_plato(obj) if kind == KIND_PLATO else obj


def write(path, obj) -> None:
    """Serialize ``obj`` to ``path`` with exact canonical bytes."""
    Path(path).write_text(serialize(obj), encoding="utf-8")


def read(path):
    """Parse the JSONL file at ``path``; see :func:`parse`."""
    return parse(Path(path).read_text(encoding="utf-8"))


def serialize_report(report: SampleReport) -> str:
    """Render a sampler report as a single JSON object plus newline."""
    payload = {
        "seed": report.seed,
        "epsilon": report.epsilon,
        "expected_discarded_mass": report.expected_discarded_mass,
        "atom_count": report.atom_count,
    }
    return json.dumps(payload, separators=(",", ":"), allow_nan=False) + "\n"
