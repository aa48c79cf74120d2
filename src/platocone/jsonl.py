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

Both directions work on the whole file at once.  ``serialize`` renders
every record with one ``%`` format; ``%r`` of a float is
``float.__repr__``, which is also what ``json.dumps`` writes.  ``parse``
decodes every nonempty line in one comprehension, exactly as
``json.loads`` would, and then checks keys, lengths and number types
over the whole list.  Only when that pass rejects the file does the
per-line pass run, and only to name the failing line: it raises on
every file it sees, so there is one path that accepts a file.  (One
``json.loads`` of the lines joined into an array cannot replace the
per-line decode: a duplicate key can hide an object or list that spans
two lines, so a joined file can decode to well-formed records while its
lines do not.)

Parsing is strict: the records go straight into the validating
constructor, never through the merging ``make_*`` builders.  A record
that repeats its predecessor or sorts before it is rejected with a
:class:`JsonlFormatError` naming its line, so every file the parser
accepts is in canonical order.  Loading a ``plato`` file also re-validates the
pinpointing property and fails loudly if it does not hold.  A file that
is not UTF-8 text is a :class:`JsonlFormatError` too.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import numpy as np

from .configuration import Configuration
from .cone import DiscreteMeasure
from .errors import JsonlFormatError, NotCanonical, _integer
from .plato import PlatoConfiguration, to_plato
from .sampling import SampleReport

KIND_CONFIGURATION = "configuration"
KIND_PLATO = "plato"
KIND_MEASURE = "measure"
_KINDS = (KIND_CONFIGURATION, KIND_PLATO, KIND_MEASURE)
_JSON_WS = " \t\n\r"
_raw_decode = json.JSONDecoder().raw_decode
# the decoder recurses once per nesting level and raises RecursionError
# past the interpreter's limit
_TOO_DEEP = "values nested too deeply"


def _dump_line(obj: dict) -> str:
    return json.dumps(obj, separators=(",", ":"), allow_nan=False)


def serialize(obj) -> str:
    """Render a configuration, plato configuration or measure as JSONL text."""
    kinds = {PlatoConfiguration: KIND_PLATO, Configuration: KIND_CONFIGURATION, DiscreteMeasure: KIND_MEASURE}
    kind = kinds.get(type(obj))
    if kind is None:
        raise JsonlFormatError(f"cannot serialize object of type {type(obj).__name__}")
    key = "w" if kind == KIND_MEASURE else "s"
    d = obj.dimension
    record = '{"%s":%%r,"x":[%s]}\n' % (key, ",".join(["%r"] * d))
    values = np.column_stack((obj.marks, obj.positions)).ravel().tolist()
    header = _dump_line({"d": d, "kind": kind})
    return header + "\n" + record * len(obj.marks) % tuple(values)


def _loads(line: str, what: str):
    """``json.loads(line)``; a failure is a :class:`JsonlFormatError` ``WHAT (reason)``."""
    try:
        return json.loads(line)
    except ValueError as exc:  # JSONDecodeError, or an integer past int()'s digit limit
        raise JsonlFormatError(f"{what} ({getattr(exc, 'msg', exc)})") from exc
    except RecursionError:
        raise JsonlFormatError(f"{what} ({_TOO_DEEP})") from None


def _parse_record(line: str, lineno: int, value_key: str, d: int):
    rec = _loads(line, f"line {lineno}: invalid JSON")
    if not isinstance(rec, dict) or set(rec) != {value_key, "x"}:
        raise JsonlFormatError(f"line {lineno}: expected keys {{{value_key!r}, 'x'}}")
    value, x = rec[value_key], rec["x"]
    if not isinstance(x, list) or len(x) != d:
        raise JsonlFormatError(f"line {lineno}: 'x' must be a list of {d} coordinates")
    # type(), not isinstance(): JSON true/false load as bool, an int subclass
    if not all(type(v) in (int, float) for v in [value, *x]):
        raise JsonlFormatError(f"line {lineno}: {value_key!r} and 'x' must hold JSON numbers")
    return value, x


def _decode_records(lines: list, value_key: str, d: int):
    """The whole-file pass: ``(values, coordinate lists)`` of the record
    lines, or None when any line fails a check of :func:`_parse_record`.

    ``raw_decode`` of a line stripped of JSON whitespace that consumes the
    whole line gives what ``json.loads`` of the line gives, and fails where
    it fails.
    """
    stripped = [line.strip(_JSON_WS) for line in lines]
    try:
        decoded = [_raw_decode(s) for s in stripped]
    except (ValueError, RecursionError):  # also too many digits or too deep a nesting
        return None
    if not all(end == len(s) for (_, end), s in zip(decoded, stripped)):
        return None
    keys = {value_key, "x"}
    records = [rec for rec, _ in decoded]
    if not all(type(rec) is dict and rec.keys() == keys for rec in records):
        return None
    values = [rec[value_key] for rec in records]
    xs = [rec["x"] for rec in records]
    if not all(type(x) is list and len(x) == d for x in xs):
        return None
    # type(), not isinstance(): JSON true/false load as bool, an int subclass
    if not {type(v) for v in values}.union([type(v) for x in xs for v in x]) <= {int, float}:
        return None
    return values, xs


def _fits_double(numbers) -> bool:
    try:
        for v in numbers:
            float(v)
    except OverflowError:
        return False
    return True


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
    header = _loads(lines[0], "invalid JSON header")
    if not isinstance(header, dict) or set(header) != {"d", "kind"}:
        raise JsonlFormatError("header must be exactly {\"d\": <int>, \"kind\": <kind>}")
    d = _integer(header["d"], "header 'd'", error=JsonlFormatError)
    kind = header["kind"]
    if kind not in _KINDS:
        raise JsonlFormatError(f"header 'kind' must be one of {_KINDS}, got {kind!r}")

    value_key = "w" if kind == KIND_MEASURE else "s"
    linenos = [i + 2 for i, line in enumerate(lines[1:]) if line]
    records = _decode_records([lines[n - 1] for n in linenos], value_key, d)
    if records is None:
        for n in linenos:
            _parse_record(lines[n - 1], n, value_key, d)
        raise AssertionError("the per-line pass accepted records the whole-file pass rejected")
    values, xs = records
    try:
        marks = np.array(values, dtype=float)
        positions = np.array(xs, dtype=float).reshape(len(xs), d)
    except OverflowError:
        # a JSON integer beyond the double range; find its line
        lineno = next(n for n, v, x in zip(linenos, values, xs) if not _fits_double([v, *x]))
        raise JsonlFormatError(f"line {lineno}: number beyond the double range") from None
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
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise JsonlFormatError(f"byte {exc.start} ({exc.object[exc.start]:#04x}): not UTF-8 text") from exc
    return parse(text)


def serialize_report(report: SampleReport) -> str:
    """Render a sampler report as a single JSON object plus newline."""
    return _dump_line(dataclasses.asdict(report)) + "\n"
