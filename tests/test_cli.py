"""CLI: exit codes, determinism, file round trips, reports."""

import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import platocone
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
    assert set(report) == {
        "seed", "epsilon", "expected_discarded_mass", "atom_count",
        "algorithm", "e1_iterations", "e1_residual", "rejection_rounds",
    }
    assert report["seed"] == 7
    assert report["algorithm"] == 3
    assert report["e1_iterations"] == 0 and report["e1_residual"] == 0.0
    assert 1 <= report["rejection_rounds"] <= 10


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


@pytest.mark.parametrize(
    "kind, args", [("gamma", ["--epsilon", "1e-8"]), ("gamma-ordered", ["--n-jumps", "5"])]
)
def test_sample_with_colliding_positions_is_a_usage_error(tmp_path, capsys, kind, args):
    out = tmp_path / "runs"
    argv = ["sample", kind, "--window", "1,1.0000000000000002", "--theta", "1e16", *args, "--out", str(out)]
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "duplicate position [1.0]" in err
    assert list(out.iterdir()) == []


@pytest.mark.parametrize(
    "argv",
    [
        ["sample", "poisson", "--window", "0,1"],
        ["sample", "gamma", "--window", "0,1", "--theta", "1", "--epsilon", "0.5"],
        ["reflect", "--in", "IN"],
        ["restrict", "--in", "IN", "--window", "0,1"],
        ["pair", "--in", "IN", "--window", "0,1"],
        ["stats", "--in", "IN", "--window", "0,1", "--theta", "1", "--epsilon", "0.5"],
        ["converge"],
    ],
    ids=lambda argv: argv[0] if argv[0] != "sample" else f"sample-{argv[1]}",
)
def test_empty_out_is_a_usage_error_that_writes_nothing(tmp_path, monkeypatch, capsys, argv):
    measure = tmp_path / "in" / "measure.jsonl"
    measure.parent.mkdir()
    jsonl.write(measure, sample_gamma(1.0, Window((0.0,), (1.0,)), 0.5, 0)[0])
    work = tmp_path / "work"
    work.mkdir()
    monkeypatch.chdir(work)
    argv = [str(measure) if a == "IN" else a for a in argv]
    assert run([*argv, "--out", ""]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == "platocone: error: --out must not be empty\n"
    assert list(work.iterdir()) == []


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


def test_stats_rejects_mixed_kind_inputs(tmp_path, capsys):
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
    assert capsys.readouterr().err == f"platocone: error: {config_file}: stats expects a measure file, got a configuration\n"


def test_converge_checks_input_dimensions_against_the_limit_and_dim(tmp_path, capsys):
    one = str(tmp_path / "one.jsonl")
    two = str(tmp_path / "two.jsonl")
    jsonl.write(one, make_configuration([(1.0, [0.0]), (2.0, [1.0])], 1))
    jsonl.write(two, make_configuration([(1.0, [0.0, 0.0]), (2.0, [1.0, 0.0])], 2))
    for argv, path, d, expected in [
        (["--in", one, "--limit", two], one, 1, 2),
        (["--in", two, one, "--limit", one], two, 2, 1),
        (["--in", one, "--limit", one, "--dim", "3"], one, 1, 3),
    ]:
        assert run(["converge", *argv]) == 2
        assert capsys.readouterr().err == f"platocone: error: {path} has dimension {d}, expected {expected}\n"
    assert run(["converge", "--in", one, "--limit", one, "--dim", "1"]) == 0


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


def test_converge_limit_goes_with_in(tmp_path, capsys):
    out, missing = tmp_path / "scan.json", str(tmp_path / "nonexistent.jsonl")
    assert run(["converge", "--limit", missing, "--out", str(out)]) == 2
    assert capsys.readouterr().err == "platocone: error: converge --limit requires --in\n"
    assert run(["converge", "--in", "--limit", missing, "--out", str(out)]) == 2
    assert capsys.readouterr().err.endswith("\nplatocone converge: error: argument --in: expected at least one argument\n")
    assert not out.exists()


_GAMMA = ["sample", "gamma", "--theta", "1", "--epsilon", "0.5"]
_POISSON = ["sample", "poisson", "--window", "0,1", "--out"]
_STATS = ["--theta", "1", "--epsilon", "0.5"]
# Every failure route of the command line's own checks: argv, exit code and
# the one stderr line after "platocone: error: ".  In argv and message, TMP
# is the test's directory and M, C, C2, G, P, F, D, X and O are the paths
# made by ``_route_files``; O is never written.  A leading
# "PLATO_CONE_SEED=V" sets that variable for the run.
FAILURE_ROUTES = {
    "window-not-numbers": (_GAMMA + ["--window", "a,b", "--out", "O"], 2,
                           "--window expects comma-separated numbers, got 'a,b'"),
    "window-empty": (_GAMMA + ["--window", "", "--out", "O"], 2, "--window expects comma-separated numbers, got ''"),
    "window-odd": (["restrict", "--in", "M", "--window", "0,1,2", "--out", "O"], 2,
                   "--window expects pairs lo1,hi1[,lo2,hi2,...]"),
    "window-reversed": (["stats", "--in", "M", "--window", "1,0", *_STATS], 2,
                        "invalid --window/--mark-interval: window requires lower < upper per axis, got [1.0, 0.0)"),
    "window-nan": (["pair", "--in", "M", "--window", "0,nan"], 2,
                   "invalid --window/--mark-interval: window requires lower < upper per axis, got [0.0, nan)"),
    "mark-interval-one": (["restrict", "--in", "M", "--window", "0,1", "--mark-interval", "1", "--out", "O"], 2,
                          "--mark-interval expects a,b"),
    "mark-interval-three": (["restrict", "--in", "M", "--window", "0,1", "--mark-interval", "1,2,3", "--out", "O"],
                            2, "--mark-interval expects a,b"),
    "mark-interval-not-numbers": (["pair", "--in", "M", "--window", "0,1", "--mark-interval", "a,b"], 2,
                                  "--mark-interval expects comma-separated numbers, got 'a,b'"),
    "mark-interval-reversed": (["restrict", "--in", "M", "--window", "0,1", "--mark-interval", "2,1", "--out", "O"],
                               2, "invalid --window/--mark-interval: mark interval must satisfy 0 <= a < b, got (2.0, 1.0]"),
    "hat-without-mark-interval": (["pair", "--in", "M", "--window", "0,1", "--fn", "hat"], 2,
                                  "--fn hat requires --mark-interval"),
    "x0-not-numbers": (["converge", "--x0", "abc"], 2, "--x0 expects comma-separated numbers, got 'abc'"),
    "x0-empty": (["converge", "--x0", ""], 2, "--x0 expects comma-separated numbers, got ''"),
    "x0-nan": (["converge", "--x0", "0.5,nan"], 2, "coordinate must be finite, got nan"),
    "dim-window-sample": (_GAMMA + ["--dim", "2", "--window", "0,1", "--out", "O"], 2,
                          "--dim 2 contradicts --window with 1 axes"),
    "dim-window-restrict": (["restrict", "--in", "M", "--dim", "2", "--window", "0,1", "--out", "O"], 2,
                            "--dim 2 contradicts --window with 1 axes"),
    "dim-x0": (["converge", "--dim", "2"], 2, "--dim 2 contradicts --x0 with 1 coordinates"),
    "dim-limit": (["converge", "--in", "C", "--limit", "C", "--dim", "2"], 2, "TMP/c.jsonl has dimension 1, expected 2"),
    "dim-input-vs-limit": (["converge", "--in", "C2", "--limit", "C"], 2, "TMP/c2.jsonl has dimension 2, expected 1"),
    "seed-env-word": (["PLATO_CONE_SEED=abc", *_POISSON, "O"], 2, "PLATO_CONE_SEED must be an integer, got 'abc'"),
    "seed-env-float": (["PLATO_CONE_SEED=1.5", *_POISSON, "O"], 2, "PLATO_CONE_SEED must be an integer, got '1.5'"),
    "input-missing": (["reflect", "--in", "X", "--out", "O"], 3,
                      "cannot read TMP/missing.jsonl: [Errno 2] No such file or directory: 'TMP/missing.jsonl'"),
    "input-garbled": (["reflect", "--in", "G", "--out", "O"], 3,
                      "cannot read TMP/g.jsonl: invalid JSON header (Expecting value)"),
    "input-directory": (["restrict", "--in", "D", "--window", "0,1", "--out", "O"], 3,
                        "cannot read TMP/adir: [Errno 21] Is a directory: 'TMP/adir'"),
    "input-plato-duplicate": (["reflect", "--in", "P", "--out", "O"], 2, "duplicate position [0.5] in configuration"),
    "stats-garbled-second": (["stats", "--in", "M", "G", "--window", "0,1", *_STATS], 3,
                             "cannot read TMP/g.jsonl: invalid JSON header (Expecting value)"),
    "stats-configuration": (["stats", "--in", "C", "--window", "0,1", *_STATS], 2,
                            "TMP/c.jsonl: stats expects a measure file, got a configuration"),
    "converge-measure-input": (["converge", "--in", "M", "--limit", "C"], 2,
                               "TMP/m.jsonl: converge expects configuration inputs"),
    "converge-measure-limit": (["converge", "--in", "C", "--limit", "M"], 2,
                               "TMP/m.jsonl: converge expects configuration inputs"),
    "converge-in-without-limit": (["converge", "--in", "C"], 2, "converge with --in requires --limit"),
    "out-unwritable-reflect": (["reflect", "--in", "M", "--out", "O"], 3,
                               "cannot write TMP/nodir/o: [Errno 2] No such file or directory: 'TMP/nodir/o'"),
    "out-unwritable-pair": (["pair", "--in", "M", "--window", "0,1", "--out", "O"], 3,
                            "cannot write TMP/nodir/o: [Errno 2] No such file or directory: 'TMP/nodir/o'"),
    "out-under-a-file": ([*_POISSON, "TMP/afile/sub"], 3,
                         "cannot create TMP/afile/sub: [Errno 20] Not a directory: 'TMP/afile/sub'"),
    "out-is-a-file": ([*_POISSON, "F"], 3, "cannot create TMP/afile: [Errno 17] File exists: 'TMP/afile'"),
    "out-empty": (["reflect", "--in", "M", "--out", ""], 2, "--out must not be empty"),
    "sample-without-theta": (["sample", "gamma", "--window", "0,1", "--epsilon", "0.5", "--out", "O"], 2,
                             "sample gamma requires --theta and --epsilon"),
    "sample-ordered-without-jumps": (["sample", "gamma-ordered", "--window", "0,1", "--theta", "1", "--out", "O"], 2,
                                     "sample gamma-ordered requires --theta and --n-jumps"),
    "sample-count-zero": (["sample", "poisson", "--window", "0,1", "--count", "0", "--out", "O"], 2,
                          "--count must be >= 1, got 0"),
    "sample-theta-negative": (["sample", "gamma", "--window", "0,1", "--theta", "-1", "--epsilon", "0.5", "--out", "O"],
                              2, "--theta must be positive, got -1.0"),
    "stats-theta-zero": (["stats", "--in", "M", "--window", "0,1", "--theta", "0", "--epsilon", "0.5"], 2,
                         "--theta must be positive, got 0.0"),
    "stats-epsilon-one": (["stats", "--in", "M", "--window", "0,1", "--theta", "1", "--epsilon", "1"], 2,
                          "--epsilon must lie in (0, 1), got 1.0"),
    "stats-gamma-shape-too-large": (["stats", "--in", "M", "--window", "0,1", "--theta", "1e308", "--epsilon", "0.1"],
                                    2, "gamma_cdf shape 1e+308 is too large: ln Gamma(shape) overflows"),
    "stats-expected-count-overflows": (
        ["stats", "--in", "M", "--window", "0,1", "--theta", "2.5e305", "--epsilon", "5e-324"], 2,
        "expected atom count theta * volume * E1(epsilon) overflows a double: inf",
    ),
    "converge-equal-marks": (["converge", "--s1", "1", "--s2", "1"], 2, "--s1 and --s2 must differ, got 1.0"),
    "converge-negative-mark": (["converge", "--s1", "-1"], 2, "-1.0 is not a positive finite real"),
}


def _route_files(tmp: Path) -> dict:
    files = {name: tmp / base for name, base in [
        ("M", "m.jsonl"), ("C", "c.jsonl"), ("C2", "c2.jsonl"), ("G", "g.jsonl"), ("P", "p.jsonl"),
        ("F", "afile"), ("D", "adir"), ("X", "missing.jsonl"), ("O", "nodir/o"),
    ]}
    jsonl.write(files["M"], sample_gamma(1.0, Window((0.0,), (1.0,)), 0.5, 0)[0])
    jsonl.write(files["C"], make_configuration([(1.0, [0.0]), (2.0, [0.0])], 1))
    jsonl.write(files["C2"], make_configuration([(1.0, [0.0, 0.0])], 2))
    files["G"].write_text("definitely not jsonl\n")
    files["P"].write_text('{"d":1,"kind":"plato"}\n{"s":1.0,"x":[0.5]}\n{"s":2.0,"x":[0.5]}\n')
    files["F"].write_text("x")
    files["D"].mkdir()
    return files


@pytest.mark.parametrize("route", list(FAILURE_ROUTES))
def test_failure_route_exit_code_and_stderr(tmp_path, monkeypatch, capsys, route):
    argv, code, message = FAILURE_ROUTES[route]
    files = _route_files(tmp_path)
    monkeypatch.delenv("PLATO_CONE_SEED", raising=False)
    if argv[0].startswith("PLATO_CONE_SEED="):
        monkeypatch.setenv("PLATO_CONE_SEED", argv[0].partition("=")[2])
        argv = argv[1:]
    argv = [str(files[a]) if a in files else a.replace("TMP", str(tmp_path)) for a in argv]
    assert run(argv) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"platocone: error: {message.replace('TMP', str(tmp_path))}\n"
    assert not (tmp_path / "nodir").exists()


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


def test_huge_mean_count_exits_2_promptly(tmp_path, capsys):
    # mean count about 5.6e11: refused before the count draw starts
    start = time.perf_counter()
    code = run(
        ["sample", "gamma", "--theta", "1", "--epsilon", "0.5",
         "--window", "0,1e12", "--out", str(tmp_path / "x")]
    )
    assert code == 2
    assert time.perf_counter() - start < 2.0
    err = capsys.readouterr().err
    assert "mean atom count" in err and "5.5977359e+11" in err


def test_integer_beyond_double_range_exits_3(tmp_path, capsys):
    src = tmp_path / "huge.jsonl"
    src.write_text('{"d":1,"kind":"measure"}\n{"w":1' + "0" * 400 + ',"x":[0.5]}\n')
    assert run(["reflect", "--in", str(src), "--out", str(tmp_path / "out.jsonl")]) == 3
    assert "line 2" in capsys.readouterr().err


def test_non_utf8_input_exits_3(tmp_path, capsys):
    src = tmp_path / "latin.jsonl"
    src.write_bytes(b'\xff\xfe{"d":1}\n')
    assert run(["reflect", "--in", str(src), "--out", str(tmp_path / "o")]) == 3
    assert "not UTF-8 text" in capsys.readouterr().err


def test_deeply_nested_input_exits_3(tmp_path, capsys):
    deep = "[" * 100_000 + "]" * 100_000
    for i, text in enumerate([
        '{"d":1,"kind":"measure"}\n{"w":' + deep + ',"x":[0.5]}\n',
        '{"d":' + deep + ',"kind":"measure"}\n',
    ]):
        src = tmp_path / f"deep{i}.jsonl"
        src.write_text(text)
        assert run(["reflect", "--in", str(src), "--out", str(tmp_path / "o")]) == 3
        assert "nested too deeply" in capsys.readouterr().err


def test_converge_rejects_non_numeric_x0(capsys):
    assert run(["converge", "--x0", "abc"]) == 2
    assert "--x0" in capsys.readouterr().err
    assert run(["converge", "--x0", "0.5,nan"]) == 2


def test_stats_overflowing_gamma_shape_exits_2(tmp_path, capsys):
    assert run(["sample", "gamma", "--theta", "1", "--epsilon", "0.1", "--window", "0,1",
                "--seed", "3", "--out", str(tmp_path)]) == 0
    sample = str(tmp_path / "gamma_seed3.jsonl")
    stats = ["stats", "--in", sample, "--window", "0,1", "--epsilon"]
    # ln Gamma(1e308) overflows
    assert run([*stats, "0.1", "--theta", "1e308"]) == 2
    assert "too large" in capsys.readouterr().err
    # ln Gamma(2.5e305) is finite, the expected count 2.5e305 * E1(5e-324) is not
    assert run([*stats, "5e-324", "--theta", "2.5e305"]) == 2
    assert "overflows" in capsys.readouterr().err


def test_error_messages_show_plain_floats(capsys):
    assert run(["converge", "--s1", "-1"]) == 2
    err = capsys.readouterr().err
    assert "-1.0 is not a positive finite real" in err and "np." not in err


def test_converge_names_the_member_at_each_maximum(capsys):
    assert run(["converge", "--n-max", "50"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert list(report) == ["converged", "discrepancies", "argmax", "limit_pinpointing"]
    assert len(report["argmax"]) == 50
    assert all(type(j) is int and 0 <= j < 3 for j in report["argmax"])


def test_default_converge_builds_each_term_through_merging_sequence(tmp_path, monkeypatch):
    """The default scan calls ``platocone.cli.merging_sequence`` once per
    term, n = 1 .. n_max, so a wrapper there sees every term."""
    from platocone import cli

    assert run(["converge", "--out", str(tmp_path / "plain.json")]) == 0
    real, calls = cli.merging_sequence, []

    def counted(x0, s1, s2, n):
        calls.append(n)
        return real(x0, s1, s2, n)

    monkeypatch.setattr(cli, "merging_sequence", counted)
    assert run(["converge", "--out", str(tmp_path / "counted.json")]) == 0
    assert calls == list(range(1, 1001))
    assert (tmp_path / "counted.json").read_bytes() == (tmp_path / "plain.json").read_bytes()
    calls.clear()
    assert run(["converge", "--n-max", "7", "--out", str(tmp_path / "seven.json")]) == 0
    assert calls == list(range(1, 8))


def _run_in_own_process(argv, env_seed=None):
    """Run the CLI in a fresh interpreter; returns its exit code and stdout."""
    env = dict(os.environ)
    env.pop("PLATO_CONE_SEED", None)
    if env_seed is not None:
        env["PLATO_CONE_SEED"] = env_seed
    src = str(Path(platocone.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "platocone.cli", *argv], env=env, capture_output=True, timeout=120
    )
    return proc.returncode, proc.stdout


def _outputs(path):
    return {p.name: p.read_bytes() for p in sorted(path.iterdir())} if path.is_dir() else path.read_bytes()


def test_reused_parser_gives_first_run_bytes(tmp_path, monkeypatch):
    """The second command of each pair, run after the first in this process,
    writes what it writes as the first command of a fresh process."""
    monkeypatch.delenv("PLATO_CONE_SEED", raising=False)
    configs = []
    for n in (1, 2):
        path = tmp_path / f"c{n}.jsonl"
        jsonl.write(path, make_configuration([(1.0, [0.0]), (1.0 + 1.0 / n, [0.0])], 1))
        configs.append(str(path))
    limit = tmp_path / "limit.jsonl"
    jsonl.write(limit, make_configuration([(1.0, [0.0]), (1.0, [1.0])], 1))
    assert run(["sample", "gamma", "--theta", "1", "--window", "0,1", "--epsilon", "1e-4",
                "--seed", "5", "--out", str(tmp_path)]) == 0
    measure = str(tmp_path / "gamma_seed5.jsonl")
    converge_default = ["converge", "--n-max", "20"]
    pairs = [
        # (first command, PLATO_CONE_SEED during it, second command)
        (["converge", "--in", *configs, "--limit", str(limit), "--n-max", "5"], None, converge_default),
        (["pair", "--in", measure, "--window", "0,1", "--fn", "mark"], None,
         ["pair", "--in", measure, "--window", "0,1"]),
        (["--help"], None, converge_default),
        (["sample", "poisson", "--window", "0,1", "--out", str(tmp_path / "env")], "7",
         ["sample", "poisson", "--window", "0,1", "--seed", "2"]),
    ]
    for i, (first, seed, then) in enumerate(pairs):
        if seed is not None:
            monkeypatch.setenv("PLATO_CONE_SEED", seed)
        assert run(first) == 0
        monkeypatch.delenv("PLATO_CONE_SEED", raising=False)
        here, fresh = tmp_path / f"here{i}", tmp_path / f"fresh{i}"
        assert run([*then, "--out", str(here)]) == 0
        assert _run_in_own_process([*then, "--out", str(fresh)])[0] == 0
        assert _outputs(here) == _outputs(fresh), then
    assert sorted(_outputs(tmp_path / "env")) == ["poisson_seed7.jsonl", "poisson_seed7.report.json"]
    assert sorted(_outputs(tmp_path / "here3")) == ["poisson_seed2.jsonl", "poisson_seed2.report.json"]
