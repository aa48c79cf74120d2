"""JSONL round trips: bit-exact floats, byte-identical reserialization."""

import numpy as np
import pytest

from conftest import random_measure, random_plato

from platocone import (
    JsonlFormatError,
    NotPinpointing,
    SampleReport,
    make_configuration,
    make_measure,
    to_plato,
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
    report = SampleReport(seed=7, epsilon=1e-8, expected_discarded_mass=9.999999950000001e-09, atom_count=24)
    line = jsonl.serialize_report(report)
    assert line == (
        '{"seed":7,"epsilon":1e-08,"expected_discarded_mass":9.999999950000001e-09,"atom_count":24}\n'
    )
    no_eps = SampleReport(seed=1, epsilon=None, expected_discarded_mass=0.0, atom_count=3)
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
