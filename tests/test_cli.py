"""CLI: exit codes, determinism, file round trips, reports."""

import json
import math

from platocone import Window, make_configuration, sample_gamma
from platocone import jsonl
from platocone.cli import main


def run(argv):
    return main(argv)


def read_json(path):
    return json.loads(path.read_text())


def test_sample_gamma_writes_expected_files(tmp_path):
    out = tmp_path / "runs"
    code = run(
        [
            "sample", "gamma",
            "--theta", "1", "--window", "0,1", "--epsilon", "1e-8",
            "--seed", "7", "--count", "3", "--out", str(out),
        ]
    )
    assert code == 0
    names = sorted(p.name for p in out.iterdir())
    assert names == [
        "gamma_seed7.jsonl",
        "gamma_seed7.report.json",
        "gamma_seed8.jsonl",
        "gamma_seed8.report.json",
        "gamma_seed9.jsonl",
        "gamma_seed9.report.json",
    ]
    report = read_json(out / "gamma_seed7.report.json")
    assert set(report) == {"seed", "epsilon", "expected_discarded_mass", "atom_count"}
    assert report["seed"] == 7


def test_sample_outputs_match_library_and_are_deterministic(tmp_path):
    args = [
        "sample", "gamma",
        "--theta", "1", "--window", "0,1", "--epsilon", "1e-8",
        "--seed", "7", "--count", "2",
    ]
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert run(args + ["--out", str(out_a)]) == 0
    assert run(args + ["--out", str(out_b)]) == 0
    for name in ["gamma_seed7.jsonl", "gamma_seed7.report.json", "gamma_seed8.jsonl"]:
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()
    eta, _ = sample_gamma(1.0, Window((0.0,), (1.0,)), 1e-8, 7)
    assert jsonl.read(out_a / "gamma_seed7.jsonl") == eta


def test_sample_rejects_bad_theta(tmp_path, capsys):
    code = run(
        ["sample", "gamma", "--theta", "-1", "--window", "0,1",
         "--epsilon", "1e-8", "--out", str(tmp_path / "x")]
    )
    assert code == 2
    assert "--theta" in capsys.readouterr().err


def test_sample_poisson_and_gamma_ordered(tmp_path):
    out = tmp_path / "p"
    assert run(["sample", "poisson", "--window", "0,1", "--seed", "3", "--out", str(out)]) == 0
    cfg = jsonl.read(out / "poisson_seed3.jsonl")
    assert cfg.dimension == 1
    out2 = tmp_path / "o"
    assert run(
        ["sample", "gamma-ordered", "--theta", "1", "--n-jumps", "25",
         "--window", "0,1", "--seed", "3", "--out", str(out2)]
    ) == 0
    eta = jsonl.read(out2 / "gamma_ordered_seed3.jsonl")
    assert len(eta) == 25


def test_env_variable_overrides_seed(tmp_path, monkeypatch):
    out_env = tmp_path / "env"
    monkeypatch.setenv("PLATO_CONE_SEED", "99")
    assert run(
        ["sample", "gamma", "--theta", "1", "--window", "0,1",
         "--epsilon", "1e-6", "--seed", "5", "--out", str(out_env)]
    ) == 0
    monkeypatch.delenv("PLATO_CONE_SEED")
    assert (out_env / "gamma_seed99.jsonl").exists()


def test_reflect_round_trip_bytes(tmp_path):
    out = tmp_path / "m"
    run(["sample", "gamma", "--theta", "1", "--window", "0,1",
         "--epsilon", "1e-6", "--seed", "11", "--out", str(out)])
    measure_file = out / "gamma_seed11.jsonl"
    plato_file = tmp_path / "plato.jsonl"
    back_file = tmp_path / "back.jsonl"
    assert run(["reflect", "--in", str(measure_file), "--out", str(plato_file)]) == 0
    assert run(["reflect", "--in", str(plato_file), "--out", str(back_file)]) == 0
    assert back_file.read_bytes() == measure_file.read_bytes()


def test_reflect_empty_configuration_gives_zero_measure(tmp_path):
    empty = tmp_path / "empty.jsonl"
    jsonl.write(empty, make_configuration([], 2))
    out = tmp_path / "zero.jsonl"
    assert run(["reflect", "--in", str(empty), "--out", str(out)]) == 0
    eta = jsonl.read(out)
    assert eta.is_zero() and eta.dimension == 2


def test_reflect_rejects_non_pinpointing_input(tmp_path, capsys):
    bad = tmp_path / "bad.jsonl"
    jsonl.write(bad, make_configuration([(1.0, [0.25]), (2.0, [0.25])], 1))
    code = run(["reflect", "--in", str(bad), "--out", str(tmp_path / "out.jsonl")])
    assert code == 2
    assert "0.25" in capsys.readouterr().err


def test_missing_input_is_io_failure(tmp_path):
    code = run(["reflect", "--in", str(tmp_path / "nope.jsonl"), "--out", str(tmp_path / "o")])
    assert code == 3


def test_corrupt_input_is_parse_failure(tmp_path):
    bad = tmp_path / "garbled.jsonl"
    bad.write_text("definitely not jsonl\n")
    code = run(["reflect", "--in", str(bad), "--out", str(tmp_path / "o")])
    assert code == 3


def test_restrict_command(tmp_path):
    gamma = make_configuration([(1.5, [0.2]), (0.25, [0.8]), (3.0, [5.0])], 1)
    src = tmp_path / "gamma.jsonl"
    jsonl.write(src, gamma)
    out = tmp_path / "inner.jsonl"
    assert run(["restrict", "--in", str(src), "--out", str(out), "--window", "0,1"]) == 0
    assert len(jsonl.read(out)) == 2
    assert run(
        ["restrict", "--in", str(src), "--out", str(out), "--window", "0,10",
         "--mark-interval", "1,inf"]
    ) == 0
    assert len(jsonl.read(out)) == 2


def test_pair_command(tmp_path, capsys):
    gamma = make_configuration([(2.0, [1.0]), (0.5, [-1.0])], 1)
    src = tmp_path / "gamma.jsonl"
    jsonl.write(src, gamma)
    assert run(["pair", "--in", str(src), "--window=-2,2", "--fn", "mark"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["value"] == 2.5
    assert run(["pair", "--in", str(src), "--window=-2,2"]) == 0
    assert json.loads(capsys.readouterr().out)["value"] == 2.0


def test_stats_command_small_sample_is_flagged(tmp_path, capsys):
    out = tmp_path / "s"
    run(["sample", "gamma", "--theta", "1", "--window", "0,1",
         "--epsilon", "1e-6", "--seed", "0", "--count", "10", "--out", str(out)])
    files = sorted(str(p) for p in out.glob("*_seed*.jsonl") if "report" not in p.name)
    assert run(
        ["stats", "--in", *files, "--window", "0,1", "--theta", "1", "--epsilon", "1e-6"]
    ) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["n"] == 10
    assert report["insufficient_n"] is True
    assert report["mass_ks_pass"] is None
    assert report["count_pass"] is None


def test_stats_command_passes_on_enough_samples(tmp_path, capsys):
    out = tmp_path / "s"
    run(["sample", "gamma", "--theta", "1", "--window", "0,1",
         "--epsilon", "1e-6", "--seed", "0", "--count", "150", "--out", str(out)])
    files = sorted(str(p) for p in out.glob("*.jsonl"))
    assert run(
        ["stats", "--in", *files, "--window", "0,1", "--theta", "1", "--epsilon", "1e-6"]
    ) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["insufficient_n"] is False
    assert report["count_pass"] is True
    assert report["mass_ks_pass"] is True
    assert math.isclose(report["mass_ks_threshold"], 1.63 / math.sqrt(150))
    assert math.isclose(report["count_expected"], 13.238295893062486, rel_tol=1e-9)


def test_stats_rejects_mixed_kind_inputs(tmp_path):
    out = tmp_path / "mix"
    run(["sample", "gamma", "--theta", "1", "--window", "0,1",
         "--epsilon", "1e-6", "--seed", "0", "--count", "1", "--out", str(out)])
    config_file = tmp_path / "cfg.jsonl"
    jsonl.write(config_file, make_configuration([(1.0, [0.5])], 1))
    code = run(
        ["stats", "--in", str(out / "gamma_seed0.jsonl"), str(config_file),
         "--window", "0,1", "--theta", "1", "--epsilon", "1e-6"]
    )
    assert code == 2


def test_converge_defaults(tmp_path, capsys):
    assert run(["converge"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["converged"] is True
    assert report["limit_pinpointing"] is False
    assert len(report["discrepancies"]) == 1000


def test_converge_small_n_tiny_tol_fails(capsys):
    assert run(["converge", "--tol", "1e-9", "--n-max", "10"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["converged"] is False


def test_converge_rejects_equal_marks(capsys):
    assert run(["converge", "--s1", "1", "--s2", "1"]) == 2
    assert "--s1" in capsys.readouterr().err


def test_converge_from_files(tmp_path, capsys):
    from platocone import merging_limit, merging_sequence

    files = []
    for n in range(1, 21):
        path = tmp_path / f"seq{n:03d}.jsonl"
        jsonl.write(path, merging_sequence((0.0,), 1.0, 2.0, n))
        files.append(str(path))
    limit_path = tmp_path / "limit.jsonl"
    jsonl.write(limit_path, merging_limit((0.0,), 1.0, 2.0))
    assert run(
        ["converge", "--in", *files, "--limit", str(limit_path), "--tol", "0.5"]
    ) == 0
    report = json.loads(capsys.readouterr().out)
    assert len(report["discrepancies"]) == 20
    assert report["limit_pinpointing"] is False


def test_usage_error_exit_code():
    assert run(["sample"]) == 2
    assert run(["no-such-command"]) == 2


def test_huge_window_is_a_validation_error(tmp_path, capsys):
    # the volume 1e400 overflows to inf
    code = run(
        ["sample", "gamma", "--theta", "1", "--epsilon", "0.5",
         "--window", "0,1e200,0,1e200", "--out", str(tmp_path / "x")]
    )
    assert code == 2
    assert "overflows" in capsys.readouterr().err
