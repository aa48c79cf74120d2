"""JSONL round trips: bit-exact floats, byte-identical reserialization."""

import json

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import random_measure, random_plato

from platocone import (
    Configuration,
    DiscreteMeasure,
    JsonlFormatError,
    NonPositiveWeight,
    NotCanonical,
    NotPinpointing,
    PlatoConfiguration,
    SampleReport,
    make_configuration,
    make_measure,
    to_plato,
    zero_measure,
)
from platocone import jsonl


def test_configuration_round_trip_bitwise():
    gamma = make_configuration(
        [(2.0000000000000004, [0.1, -1e-310]), (1.0, [0.30000000000000004, 7.0])], 2
    )
    text = jsonl.serialize(gamma)
    assert jsonl.parse(text) == gamma
    assert jsonl.serialize(jsonl.parse(text)) == text


def test_measure_round_trip_bitwise():
    eta = make_measure([(5e-324, [1.7976931348623157e308]), (0.1, [-2.5])], 1)
    text = jsonl.serialize(eta)
    assert jsonl.parse(text) == eta
    assert jsonl.serialize(jsonl.parse(text)) == text


def test_plato_round_trip_and_header_kind():
    plato = to_plato(make_configuration([(1.0, [0.0]), (2.0, [0.5])], 1))
    text = jsonl.serialize(plato)
    assert text.splitlines()[0] == '{"d":1,"kind":"plato"}'
    assert jsonl.parse(text) == plato


def test_random_round_trips():
    rng = np.random.default_rng(600)
    for _ in range(50):
        d = int(rng.integers(1, 4))
        plato = random_plato(rng, d, int(rng.integers(0, 30)))
        eta = random_measure(rng, d, int(rng.integers(0, 30)))
        for obj in [plato.configuration, plato, eta]:
            text = jsonl.serialize(obj)
            assert jsonl.parse(text) == obj
            assert jsonl.serialize(jsonl.parse(text)) == text


def test_plato_file_with_duplicate_position_fails_loudly():
    text = (
        '{"d":1,"kind":"plato"}\n'
        '{"s":1.0,"x":[0.0]}\n'
        '{"s":2.0,"x":[0.0]}\n'
    )
    with pytest.raises(NotPinpointing):
        jsonl.parse(text)
    # the same points are a perfectly fine plain configuration
    as_config = jsonl.parse(text.replace("plato", "configuration"))
    assert len(as_config) == 2


def test_format_errors():
    with pytest.raises(JsonlFormatError):
        jsonl.parse("")
    with pytest.raises(JsonlFormatError):
        jsonl.parse("not json\n")
    with pytest.raises(JsonlFormatError):
        jsonl.parse('{"d":1,"kind":"nope"}\n')
    with pytest.raises(JsonlFormatError):
        jsonl.parse('{"d":0,"kind":"measure"}\n')
    with pytest.raises(JsonlFormatError):
        jsonl.parse('{"d":1,"kind":"measure"}\n{"s":1.0,"x":[0.0]}\n')
    with pytest.raises(JsonlFormatError):
        jsonl.parse('{"d":2,"kind":"measure"}\n{"w":1.0,"x":[0.0]}\n')
    with pytest.raises(JsonlFormatError):
        jsonl.parse('{"d":1,"kind":"measure"}\n{"w":"big","x":[0.0]}\n')


def test_file_io_round_trip(tmp_path):
    eta = make_measure([(0.25, [0.5]), (1.5, [-0.75])], 1)
    path = tmp_path / "eta.jsonl"
    jsonl.write(path, eta)
    assert jsonl.read(path) == eta
    again = tmp_path / "again.jsonl"
    jsonl.write(again, jsonl.read(path))
    assert again.read_bytes() == path.read_bytes()


def test_report_serialization():
    report = SampleReport(
        seed=7, epsilon=1e-8, expected_discarded_mass=9.999999950000001e-09, atom_count=24,
        algorithm=3, e1_iterations=0, e1_residual=0.0, rejection_rounds=2,
    )
    line = jsonl.serialize_report(report)
    assert line == (
        '{"seed":7,"epsilon":1e-08,"expected_discarded_mass":9.999999950000001e-09,"atom_count":24,'
        '"algorithm":3,"e1_iterations":0,"e1_residual":0.0,"rejection_rounds":2}\n'
    )
    no_eps = SampleReport(
        seed=1, epsilon=None, expected_discarded_mass=0.0, atom_count=3,
        algorithm=3, e1_iterations=5, e1_residual=1.25e-13, rejection_rounds=0,
    )
    assert '"epsilon":null' in jsonl.serialize_report(no_eps)


@pytest.mark.parametrize(
    "kind, records, line",
    [
        # two atoms at one position are not merged into one of weight 3
        ("measure", ['{"w":1.0,"x":[0.5]}', '{"w":2.0,"x":[0.5]}'], 3),
        # a repeated point is not dropped
        ("configuration", ['{"s":1.0,"x":[0.1]}', '{"s":2.0,"x":[0.5]}', '{"s":2.0,"x":[0.5]}'], 4),
        # out-of-order records are not re-sorted
        ("measure", ['{"w":1.0,"x":[0.5]}', '{"w":2.0,"x":[0.25]}'], 3),
        ("plato", ['{"s":1.0,"x":[0.5,1.0]}', '{"s":2.0,"x":[0.5,0.0]}'], 3),
    ],
    ids=["duplicate-atoms", "duplicate-points", "unsorted-measure", "unsorted-plato"],
)
def test_non_canonical_files_are_rejected_with_their_line(kind, records, line):
    d = 2 if kind == "plato" else 1
    text = "\n".join([f'{{"d":{d},"kind":"{kind}"}}'] + records) + "\n"
    with pytest.raises(JsonlFormatError, match=f"line {line}:"):
        jsonl.parse(text)


def test_non_canonical_file_exits_3(tmp_path):
    from platocone.cli import main

    src = tmp_path / "dup.jsonl"
    src.write_text('{"d":1,"kind":"measure"}\n{"w":1.0,"x":[0.5]}\n{"w":2.0,"x":[0.5]}\n')
    assert main(["reflect", "--in", str(src), "--out", str(tmp_path / "out.jsonl")]) == 3


@pytest.mark.parametrize("d", [2**32 + 1, 2**40, 10**20, 2**63 - 1])
def test_header_dimension_above_two_to_the_32_is_a_format_error(d):
    with pytest.raises(JsonlFormatError, match=r"header 'd' must be an integer in \[1, 4294967297\)"):
        jsonl.parse(f'{{"d":{d},"kind":"measure"}}\n')


def test_header_dimension_above_two_to_the_32_exits_3(tmp_path, capsys):
    from platocone.cli import main

    src = tmp_path / "wide.jsonl"
    src.write_text('{"d":1099511627776,"kind":"measure"}\n')
    assert main(["reflect", "--in", str(src), "--out", str(tmp_path / "out.jsonl")]) == 3
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and "header 'd'" in err, err
    assert not (tmp_path / "out.jsonl").exists()


def test_empty_object_of_the_largest_dimension_round_trips():
    # no record template is built, so no 2^32-entry list either
    empty = zero_measure(2**32)
    text = jsonl.serialize(empty)
    assert text == '{"d":4294967296,"kind":"measure"}\n'
    again = jsonl.parse(text)
    assert again == empty and again.dimension == 2**32
    assert jsonl.serialize(again) == text


def test_integer_beyond_double_range_is_rejected_with_its_line():
    huge = "1" + "0" * 400
    text = f'{{"d":1,"kind":"measure"}}\n{{"w":0.5,"x":[0.1]}}\n{{"w":{huge},"x":[0.5]}}\n'
    with pytest.raises(JsonlFormatError, match="line 3: number beyond the double range"):
        jsonl.parse(text)
    coord = f'{{"d":1,"kind":"measure"}}\n{{"w":0.5,"x":[-{huge}]}}\n'
    with pytest.raises(JsonlFormatError, match="line 2:"):
        jsonl.parse(coord)
    # past Python's integer digit limit json.loads itself raises ValueError
    digits = f'{{"d":1,"kind":"measure"}}\n{{"w":0.5,"x":[1{"0" * 5000}]}}\n'
    with pytest.raises(JsonlFormatError, match="line 2: invalid JSON"):
        jsonl.parse(digits)
    with pytest.raises(JsonlFormatError, match="invalid JSON header"):
        jsonl.parse(f'{{"d":1{"0" * 5000},"kind":"measure"}}\n')


def test_deeply_nested_value_is_a_format_error():
    deep = "[" * 100_000 + "]" * 100_000
    header = '{"d":1,"kind":"measure"}\n'
    with pytest.raises(JsonlFormatError, match=r"line 3: invalid JSON \(values nested too deeply\)"):
        jsonl.parse(header + '{"w":0.5,"x":[0.1]}\n{"w":' + deep + ',"x":[0.5]}\n')
    with pytest.raises(JsonlFormatError, match=r"invalid JSON header \(values nested too deeply\)"):
        jsonl.parse('{"d":' + deep + ',"kind":"measure"}\n')


def test_non_utf8_file_is_a_format_error(tmp_path):
    path = tmp_path / "latin.jsonl"
    path.write_bytes(b'\xff\xfe{"d":1}\n')
    with pytest.raises(JsonlFormatError, match="not UTF-8 text"):
        jsonl.read(path)


# ---------------------------------------------------------------------------
# Differential tests against the per-record codec that the whole-file codec
# replaced, kept here verbatim as the oracle.

_ORACLE_KINDS = ("configuration", "plato", "measure")


def _oracle_dump_line(obj: dict) -> str:
    return json.dumps(obj, separators=(",", ":"), allow_nan=False)


def oracle_serialize(obj) -> str:
    kinds = {PlatoConfiguration: "plato", Configuration: "configuration", DiscreteMeasure: "measure"}
    kind = kinds.get(type(obj))
    if kind is None:
        raise JsonlFormatError(f"cannot serialize object of type {type(obj).__name__}")
    key = "w" if kind == "measure" else "s"
    lines = [
        _oracle_dump_line({key: v, "x": x}) for v, x in zip(obj.marks.tolist(), obj.positions.tolist())
    ]
    header = _oracle_dump_line({"d": obj.dimension, "kind": kind})
    return "\n".join([header] + lines) + "\n"


def _oracle_parse_record(line: str, lineno: int, value_key: str, d: int):
    try:
        rec = json.loads(line)
    except ValueError as exc:
        raise JsonlFormatError(f"line {lineno}: invalid JSON ({getattr(exc, 'msg', exc)})") from exc
    if not isinstance(rec, dict) or set(rec) != {value_key, "x"}:
        raise JsonlFormatError(f"line {lineno}: expected keys {{{value_key!r}, 'x'}}")
    value, x = rec[value_key], rec["x"]
    if not isinstance(x, list) or len(x) != d:
        raise JsonlFormatError(f"line {lineno}: 'x' must be a list of {d} coordinates")
    if not all(type(v) in (int, float) for v in [value, *x]):
        raise JsonlFormatError(f"line {lineno}: {value_key!r} and 'x' must hold JSON numbers")
    return value, x


def _oracle_fits_double(numbers) -> bool:
    try:
        for v in numbers:
            float(v)
    except OverflowError:
        return False
    return True


def oracle_parse(text: str):
    lines = text.splitlines()
    if not lines:
        raise JsonlFormatError("empty input: missing header line")
    try:
        header = json.loads(lines[0])
    except ValueError as exc:
        raise JsonlFormatError(f"invalid JSON header ({getattr(exc, 'msg', exc)})") from exc
    if not isinstance(header, dict) or set(header) != {"d", "kind"}:
        raise JsonlFormatError("header must be exactly {\"d\": <int>, \"kind\": <kind>}")
    d = header["d"]
    kind = header["kind"]
    if isinstance(d, bool) or not isinstance(d, int) or d < 1:
        raise JsonlFormatError(f"header 'd' must be a positive integer, got {d!r}")
    if kind not in _ORACLE_KINDS:
        raise JsonlFormatError(f"header 'kind' must be one of {_ORACLE_KINDS}, got {kind!r}")

    value_key = "w" if kind == "measure" else "s"
    linenos = [i + 2 for i, line in enumerate(lines[1:]) if line]
    records = [_oracle_parse_record(lines[n - 1], n, value_key, d) for n in linenos]
    try:
        marks = np.array([v for v, _ in records], dtype=float)
        positions = np.array([x for _, x in records], dtype=float).reshape(len(records), d)
    except OverflowError:
        lineno = next(n for n, (v, x) in zip(linenos, records) if not _oracle_fits_double([v, *x]))
        raise JsonlFormatError(f"line {lineno}: number beyond the double range") from None
    finite = np.isfinite(marks) & np.isfinite(positions).all(axis=1)
    if not finite.all():
        raise JsonlFormatError(f"line {linenos[np.argmin(finite)]}: numbers must be finite")
    try:
        obj = (DiscreteMeasure if kind == "measure" else Configuration)(marks, positions)
    except NotCanonical as exc:
        raise JsonlFormatError(
            f"line {linenos[exc.index]}: record repeats or precedes the one before it; "
            "records must be in strictly increasing canonical order"
        ) from exc
    return to_plato(obj) if kind == "plato" else obj


def _outcome(parse_fn, text):
    """What a parser makes of ``text``: its exception (type and message) or
    the object's type, dimension and array bits."""
    try:
        obj = parse_fn(text)
    except Exception as exc:
        return ("raises", type(exc).__name__, str(exc))
    return ("accepts", type(obj).__name__, obj.dimension, obj.marks.tobytes(), obj.positions.tobytes())


def assert_parsers_agree(text):
    expected = _outcome(oracle_parse, text)
    assert _outcome(jsonl.parse, text) == expected
    return expected


_EDGE_FLOATS = [5e-324, 1e-310, 1.7976931348623157e308, 1e16, 1e-7, 0.30000000000000004, 1.0, 0.5]
_MARKS = st.one_of(
    st.sampled_from(_EDGE_FLOATS),
    st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
)
_COORDS = st.one_of(
    st.sampled_from(_EDGE_FLOATS + [-v for v in _EDGE_FLOATS] + [0.0, -0.0]),
    st.floats(allow_nan=False, allow_infinity=False),
)
_SETTINGS = settings(max_examples=150, deadline=None, database=None, derandomize=True)


@st.composite
def point_sets(draw):
    d = draw(st.integers(1, 3))
    kind = draw(st.sampled_from(_ORACLE_KINDS))
    n = draw(st.integers(0, 10))
    points = [(draw(_MARKS), [draw(_COORDS) for _ in range(d)]) for _ in range(n)]
    if kind == "measure":
        try:
            return make_measure(points, d)
        except NonPositiveWeight:  # merged weights overflowed
            assume(False)
    if kind == "plato":
        # one point per position (-0.0 and 0.0 are one position)
        points = list({tuple(x): (s, x) for s, x in points}.values())
        return to_plato(make_configuration(points, d))
    return make_configuration(points, d)


@_SETTINGS
@given(point_sets())
def test_serialize_matches_per_record_oracle(obj):
    text = jsonl.serialize(obj)
    assert text == oracle_serialize(obj)
    assert assert_parsers_agree(text)[0] == "accepts"


def test_serialize_edge_values_match_oracle():
    for d in (1, 2, 3):
        points = [
            (m, [_EDGE_FLOATS[(i + k) % 8] * (-1) ** k for k in range(d)])
            for i, m in enumerate(_EDGE_FLOATS)
        ]
        for obj in (make_configuration(points, d), make_measure(points, d)):
            assert jsonl.serialize(obj) == oracle_serialize(obj)
    plato = to_plato(make_configuration([(5e-324, [-1e-310]), (1.7976931348623157e308, [1e16])], 1))
    assert jsonl.serialize(plato) == oracle_serialize(plato)


def _spellings(v: float) -> list:
    """JSON spellings of the double ``v``, all parsing back to its bits."""
    out = [repr(v), "%.17e" % v, "%.17E" % v, ("%.17e" % v).replace("e+", "e")]
    if v.is_integer():
        out.append(str(int(v)))
    return out


_SHADOWED_VALUES = st.sampled_from(["0", "[]", "{}", "null", '""', '{"a":[1,{}]}'])


@st.composite
def respelled_files(draw):
    obj = draw(point_sets())
    key = "w" if isinstance(obj, DiscreteMeasure) else "s"
    ws = st.sampled_from(["", " ", "\t", "  ", " \t "])
    newline = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    lines = [jsonl.serialize(obj).splitlines()[0]]
    for v, x in zip(obj.marks.tolist(), obj.positions.tolist()):
        w = lambda: draw(ws)
        value = draw(st.sampled_from(_spellings(v)))
        coords = f"{w()},{w()}".join(draw(st.sampled_from(_spellings(c))) for c in x)
        fields = [f'"{key}"{w()}:{w()}{value}', f'"x"{w()}:{w()}[{w()}{coords}{w()}]']
        if draw(st.booleans()):
            fields.reverse()
        if draw(st.booleans()):  # a duplicate key; the last one wins
            shadowed = draw(st.sampled_from([key, "x"]))
            fields.insert(0, f'"{shadowed}":{draw(_SHADOWED_VALUES)}')
        lines.append(f"{w()}{{{w()}{f'{w()},{w()}'.join(fields)}{w()}}}{w()}")
        if draw(st.booleans()):
            lines.append("")
    return obj, newline.join(lines) + draw(st.sampled_from(["", newline]))


@_SETTINGS
@given(respelled_files())
def test_respelled_files_parse_like_the_oracle(case):
    obj, text = case
    outcome = assert_parsers_agree(text)
    assert outcome[0] == "accepts"
    assert jsonl.serialize(jsonl.parse(text)) == jsonl.serialize(obj)


_MUTATION_CHARS = st.sampled_from(
    list('{}[],:" \t\n0123456789.eE-+wxs') + ["NaN", "Infinity", "true", "\ufeff"]
)


@st.composite
def mutated_files(draw):
    obj = draw(point_sets())
    text = jsonl.serialize(obj)
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(text)))
        op = draw(st.sampled_from(["insert", "delete", "replace"]))
        piece = "" if op == "delete" else draw(_MUTATION_CHARS)
        text = text[:i] + piece + text[i + (op != "insert"):]
    return text


@_SETTINGS
@given(mutated_files())
def test_mutated_files_are_accepted_or_rejected_like_the_oracle(text):
    assert_parsers_agree(text)


@pytest.mark.parametrize(
    "body",
    [
        # a record split over two lines: each half is invalid on its own
        ['{"w":1.0,"x":[0.5', '0.6]},{"w":1.0,"x":[0.7]}'],
        # two records on one line
        ['{"w":1.0,"x":[0.5]},{"w":1.0,"x":[0.7]}'],
        ['{"w":1.0,"x":[0.5]}', "   ", '{"w":1.0,"x":[0.7]}'],
        ['{"w":NaN,"x":[0.5]}'],
        ['{"w":1.0,"x":[-Infinity]}'],
        ['{"w":1' + "0" * 400 + ',"x":[0.5]}'],
        # an object spanning two lines, hidden by a duplicate key, next to
        # a line holding two records: joined into one array the three lines
        # decode to three well-formed records
        ['{"w":[{}', '{}],"w":1.0,"x":[0.5]}', '{"w":2.0,"x":[0.6]},{"w":3.0,"x":[0.7]}'],
        ['{"w":"}', '{","w":1.0,"x":[0.5]}', '{"w":2.0,"x":[0.6]},{"w":3.0,"x":[0.7]}'],
        ['\ufeff{"w":1.0,"x":[0.5]}'],
        ['{"w":true,"x":[0.5]}'],
        ['{"w":1.0,"x":[0.5],"x":[0.5,0.5]}'],
    ],
    ids=[
        "split-record", "two-records-one-line", "whitespace-line", "nan", "infinity",
        "integer-beyond-double", "spanning-list", "spanning-string", "bom", "bool", "duplicate-x",
    ],
)
def test_malformed_records_rejected_like_the_oracle(body):
    text = "\n".join(['{"d":1,"kind":"measure"}'] + body) + "\n"
    outcome = assert_parsers_agree(text)
    assert outcome[0] == "raises" and outcome[2].startswith("line ")


def test_nested_values_under_duplicate_keys_accepted_like_the_oracle():
    text = '{"d":1,"kind":"measure"}\n{"w":{"a":[{}]},"w":1.0,"x":"}{","x":[0.5]}\n'
    assert assert_parsers_agree(text)[0] == "accepts"


# ---------------------------------------------------------------------------
# The canonical path: files spelled exactly as ``serialize`` writes them are
# read by one pattern scan and one number scan.


def _edge_objects():
    objects = []
    for d in (1, 2, 3):
        points = [
            (m, [_EDGE_FLOATS[(i + k) % 8] * (-1) ** k for k in range(d)])
            for i, m in enumerate(_EDGE_FLOATS)
        ]
        config = make_configuration(points, d)
        objects += [config, make_measure(points, d), to_plato(config)]
    return objects


@_SETTINGS
@given(st.one_of(point_sets(), st.sampled_from(_edge_objects())))
def test_serialize_output_takes_the_canonical_path(obj):
    text = jsonl.serialize(obj)
    kind = json.loads(text.partition("\n")[0])["kind"]
    rows = jsonl._canonical_rows(text, obj.dimension, kind)
    assert rows is not None, "serialize wrote a file the canonical pattern does not match"
    assert rows.tobytes() == np.column_stack((obj.marks, obj.positions)).tobytes()


_CANONICAL = '{"d":1,"kind":"measure"}\n{"w":0.5,"x":[0.25]}\n{"w":2.0,"x":[0.5]}\n'


def _respell(old, new):
    assert old in _CANONICAL
    return _CANONICAL.replace(old, new, 1)


@pytest.mark.parametrize(
    "text",
    [
        _CANONICAL,
        _respell('"w":2.0', '"w":2'),
        _respell("[0.25]", "[-0]"),
        _respell("[0.25]", "[-0.0]"),
        _respell('"w":2.0', '"w":2.'),
        _respell("[0.25]", "[.5]"),
        _respell('"w":2.0', '"w":+2'),
        _respell('"w":2.0', '"w":02.0'),
        _respell('"w":2.0', '"w":1E5'),
        _respell('"w":2.0', '"w":2.0E-0'),
        _respell('"w":2.0', '"w":1e400'),
        _respell("[0.5]", "[1e-400]"),
        _CANONICAL.replace("\n", "\r\n"),
        _CANONICAL.replace("\n", "\r"),
        _CANONICAL[:-1],
        _CANONICAL + "\n",
        _respell("\n{", "\n\n{"),
        "\ufeff" + _CANONICAL,
        _respell('\n{"w":2.0', '\n\ufeff{"w":2.0'),
        _respell('"w":2.0,', '"w":2.0, '),
        _respell('{"d":1', '{"d": 1'),
        _respell('{"d":1,"kind":"measure"}', '{"kind":"measure","d":1}'),
        # past the repeat count a compiled pattern can hold
        _respell('{"d":1', '{"d":4294967296'),
    ],
    ids=[
        "canonical", "integer", "minus-zero-integer", "minus-zero", "trailing-point", "leading-point",
        "plus-sign", "leading-zero", "capital-exponent", "zero-exponent", "overflow", "underflow",
        "crlf", "cr", "no-final-newline", "final-blank-line", "blank-line", "bom-header", "bom-record",
        "space-in-record", "space-in-header", "header-keys-reordered", "huge-dimension",
    ],
)
def test_spellings_next_to_the_canonical_form_parse_like_the_oracle(text):
    assert_parsers_agree(text)


def test_number_scan_equals_float_bit_for_bit():
    """``np.fromstring(..., sep=",")``, the canonical path's number scan,
    reads every token as ``float(token)`` does."""
    rng = np.random.default_rng(24)
    doubles = rng.integers(0, 2**64, 40_000, dtype=np.uint64).view(np.float64)
    subnormals = rng.integers(1, 2**52, 5_000, dtype=np.uint64).view(np.float64)
    values = [v for v in np.concatenate((doubles, subnormals, -subnormals)).tolist() if np.isfinite(v)]
    tokens = [repr(v) for v in values] + ["%.17e" % v for v in values] + ["%.25E" % v for v in values[:5_000]]
    tokens += [str(int(v)) for v in rng.integers(-(2**62), 2**62, 10_000).tolist()]
    tokens += [str(int(v)) for v in values[:2_000] if abs(v) < 1e300]
    tokens += ["5e-324", "2.4703282292062328e-324", "2.2250738585072011e-308", "1.7976931348623157e308"]
    assert len(tokens) >= 100_000
    scanned = np.fromstring(",".join(tokens).encode("ascii"), sep=",")
    expected = np.array([float(t) for t in tokens])
    assert scanned.view(np.uint64).tolist() == expected.view(np.uint64).tolist()
