"""JSONL persistence for configurations, pinpointing configurations and measures.

One object per file.  The first line is a header ``{"d": <int>, "kind":
<kind>}`` with kind one of ``configuration``, ``plato`` or ``measure``;
every following line is one point ``{"s": <mark>, "x": [<coords>]}`` or
one atom ``{"w": <weight>, "x": [<coords>]}``.

Files written here are canonical: records appear in canonical storage
order and floats are rendered with the shortest decimal representation
that round-trips (Python's ``repr``, rendered for every record by one
``%`` format).  Parsing a canonical file and serializing the result
reproduces the input byte for byte, and every finite double survives
the round trip bit for bit.

``parse`` reads a file spelled exactly as ``serialize`` writes it with
one pattern scan and one C number scan.  Every record line of such a
file is ``{"K":F,"x":[F,...]}`` where each number ``F`` has a fraction
or an exponent, so ``json.loads`` would give ``float(F)``, which is what
``np.fromstring`` gives.  Any other spelling (whitespace, key order,
duplicate keys, integers, other line ends) is decoded line by line with
``json.loads``, more slowly, to the same result.

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
import re
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
# a JSON number with a fraction or an exponent: json.loads gives float(token)
_NUMBER = r"-?(?:0|[1-9]\d*)(?:\.\d+(?:[eE][-+]?\d+)?|[eE][-+]?\d+)"
_TO_COMMA = bytes.maketrans(b"\n", b",")
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


def _parse_record(line: str, lineno: int, value_key: str, d: int) -> list:
    rec = _loads(line, f"line {lineno}: invalid JSON")
    if not isinstance(rec, dict) or set(rec) != {value_key, "x"}:
        raise JsonlFormatError(f"line {lineno}: expected keys {{{value_key!r}, 'x'}}")
    value, x = rec[value_key], rec["x"]
    if not isinstance(x, list) or len(x) != d:
        raise JsonlFormatError(f"line {lineno}: 'x' must be a list of {d} coordinates")
    # type(), not isinstance(): JSON true/false load as bool, an int subclass
    if not all(type(v) in (int, float) for v in [value, *x]):
        raise JsonlFormatError(f"line {lineno}: {value_key!r} and 'x' must hold JSON numbers")
    return [value, *x]


def _canonical_rows(text: str, d: int, kind: str):
    """The records of ``text`` as rows ``[value, *x]`` of a float array when
    ``text`` is spelled exactly as :func:`serialize` writes it, else None."""
    header = _dump_line({"d": d, "kind": kind}) + "\n"
    if not text.startswith(header):
        return None
    key = "w" if kind == KIND_MEASURE else "s"
    try:
        record = re.compile(r'\{"%s":%s,"x":\[%s(?:,%s){%d}\]\}\n' % (key, *[_NUMBER] * 3, d - 1), re.ASCII)
    except OverflowError:  # d - 1 past the repeat limit of re
        return None
    body = text[len(header):]
    # sub, not fullmatch("(?:record)*"), which holds state for every line
    if record.sub("", body):
        return None
    numbers = body.encode("ascii").translate(_TO_COMMA, b'{}[]"swx:')
    return np.fromstring(numbers, sep=",").reshape(-1, d + 1)


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
    if not text:
        raise JsonlFormatError("empty input: missing header line")
    head = text.partition("\n")[0]
    header = _loads((head.splitlines() or [""])[0], "invalid JSON header")
    if not isinstance(header, dict) or set(header) != {"d", "kind"}:
        raise JsonlFormatError("header must be exactly {\"d\": <int>, \"kind\": <kind>}")
    d = _integer(header["d"], "header 'd'", error=JsonlFormatError)
    kind = header["kind"]
    if kind not in _KINDS:
        raise JsonlFormatError(f"header 'kind' must be one of {_KINDS}, got {kind!r}")

    rows = _canonical_rows(text, d, kind)
    if rows is not None:
        linenos = range(2, 2 + len(rows))
    else:
        lines = text.splitlines()
        linenos = [i + 2 for i, line in enumerate(lines[1:]) if line]
        value_key = "w" if kind == KIND_MEASURE else "s"
        records = [_parse_record(lines[n - 1], n, value_key, d) for n in linenos]
        try:
            rows = np.array(records, dtype=float).reshape(-1, d + 1)
        except OverflowError:
            # a JSON integer beyond the double range; find its line
            lineno = next(n for n, r in zip(linenos, records) if not _fits_double(r))
            raise JsonlFormatError(f"line {lineno}: number beyond the double range") from None
    finite = np.isfinite(rows).all(axis=1)
    if not finite.all():
        raise JsonlFormatError(f"line {linenos[np.argmin(finite)]}: numbers must be finite")
    try:
        obj = (DiscreteMeasure if kind == KIND_MEASURE else Configuration)(rows[:, 0], rows[:, 1:])
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
