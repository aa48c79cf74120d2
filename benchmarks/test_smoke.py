"""Smoke test of the benchmark at tiny sizes.

    python3 -m pytest benchmarks/test_smoke.py -q

Checks that every metric named in BENCHMARK.json is printed with its
unit, that traced self times fit in the traced wall time, and that each
workload's correctness gates fire on a deliberately wrong output.
"""

import json
import math
import sys
from pathlib import Path

import pytest

import run
from workloads import Bulk, Context, Discrepancy, Ensemble, Merging

sys.path.insert(0, str(run.SRC))

TINY = {
    w.name: w
    for w in (
        Ensemble(calls_per_pass=200),
        Bulk(length=3.0),
        Discrepancy(upper=(5.0, 4.0)),
        Merging(scans_per_pass=2),
    )
}
BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _run(capsys, workload, trace):
    argv = ["--workload", workload, "--seed", "3", "--seconds", "0.01", "--trace", str(trace)]
    assert run.main(argv, workloads=TINY) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    return json.loads(lines[-2])["detail"], json.loads(lines[-1])


def test_workloads_match_benchmark_json():
    assert sorted(TINY) == sorted(w["name"] for w in BENCHMARK["workloads"])
    assert run.per_layer_units() == {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert run.END_TO_END_UNITS == {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}


@pytest.mark.parametrize("workload", sorted(TINY))
def test_end_to_end_metrics_printed_with_units(capsys, workload):
    detail, result = _run(capsys, workload, 0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert detail["failed_fraction"] == 0.0
    expected = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 and math.isfinite(v["value"]) for v in result["metrics"].values())


@pytest.mark.parametrize("workload", sorted(TINY))
def test_traced_run_prints_per_layer_metrics(capsys, workload):
    detail, result = _run(capsys, workload, 1)
    assert result["correct"]
    expected = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert detail["absent"] == []
    # self times partition the time the root spans cover
    self_s = sum(s["self_ms"] for s in detail["spans"].values()) / 1e3
    assert 0 < self_s <= detail["traced_wall_s"]


def _flip_round_trip_byte(pc):
    real_main = pc.cli.main

    def main_then_flip(argv):
        code = real_main(argv)
        out = Path(argv[-1])
        if argv[0] == "reflect" and out.name == "back.jsonl" and out.parent.name.startswith("pass"):
            # the last digit of the last coordinate: the file still parses,
            # so only the byte-for-byte round-trip gate can see the change
            data = bytearray(out.read_bytes())
            data[-4] ^= 1
            out.write_bytes(bytes(data))
        return code

    pc.cli.main = main_then_flip
    return pc


def test_flipped_byte_in_round_trip_file_raises_failed_fraction(capsys, monkeypatch):
    real_import = run.import_package
    monkeypatch.setattr(run, "import_package", lambda: _flip_round_trip_byte(real_import()))
    detail, result = _run(capsys, "bulk", 0)
    assert not result["correct"]
    assert result["failed"] == 1
    assert detail["failed_fraction"] == 1 / result["attempted"]


def _prepared(workload, tmp_path):
    pc = run.import_package()
    return pc, workload.prepare(Context(pc, tmp_path), 3)


def test_ensemble_gate_rejects_wrong_mass_law(tmp_path, monkeypatch):
    pc, state = _prepared(TINY["ensemble"], tmp_path)
    real = pc.mass_in_window
    monkeypatch.setattr(pc, "mass_in_window", lambda eta, lam: 2.0 * real(eta, lam))
    result = TINY["ensemble"].run_pass(state, 0)
    assert result.failed == 1 and "confirm_ks" in result.notes


def test_discrepancy_gate_rejects_unequal_pullback(tmp_path, monkeypatch):
    pc, state = _prepared(TINY["discrepancy"], tmp_path)
    real = pc.cone_discrepancy
    monkeypatch.setattr(pc, "cone_discrepancy", lambda *a: math.nextafter(real(*a), math.inf))
    assert TINY["discrepancy"].run_pass(state, 0).failed == 1


def test_merging_gate_rejects_slow_convergence(tmp_path, monkeypatch):
    pc, state = _prepared(TINY["merging"], tmp_path)
    real = pc.cli.merging_sequence
    monkeypatch.setattr(pc.cli, "merging_sequence", lambda x0, s1, s2, n: real(x0, s1, s2, max(1, n // 3)))
    assert TINY["merging"].run_pass(state, 0).failed == 2
