"""
JSONL persistence and the command-line interface
================================================

Configurations and measures serialize to a one-object-per-file JSONL
format whose floats round-trip bit for bit; parsing a canonical file and
serializing the result reproduces it byte for byte.  The same operations
are scriptable through the ``platocone`` command, which is deterministic
given its flags (plus the PLATO_CONE_SEED environment variable).
"""

import json
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))  # run from a checkout

from platocone import Window, jsonl, make_configuration, sample_gamma, to_plato
from platocone.cli import main as cli

# removed at the end of the script, and at interpreter exit if it fails
tmp = tempfile.TemporaryDirectory(prefix="platocone_demo_")
workdir = Path(tmp.name)
print("working in", workdir)

########################################################################
# Bit-exact round trips, including awkward doubles
# ------------------------------------------------

gamma = make_configuration([(2.0000000000000004, [0.1]), (5e-324, [0.30000000000000004])], 1)
text = jsonl.serialize(gamma)
print("\nserialized configuration:")
print(text, end="")
print("parse -> serialize reproduces bytes:", jsonl.serialize(jsonl.parse(text)) == text)

########################################################################
# Sampling through the CLI: one file pair per seed
# ------------------------------------------------

out = workdir / "runs"
code = cli(["sample", "gamma", "--theta", "1", "--window", "0,1",
            "--epsilon", "1e-8", "--seed", "7", "--count", "2", "--out", str(out)])
print("\nsample exit code:", code)
for path in sorted(out.iterdir()):
    print(" ", path.name)
report = json.loads((out / "gamma_seed7.report.json").read_text())
print("report for seed 7:", report)

# the file equals what the library call produces
eta, _ = sample_gamma(1.0, Window((0.0,), (1.0,)), 1e-8, 7)
print("file matches library output:", jsonl.read(out / "gamma_seed7.jsonl") == eta)

########################################################################
# Reflecting files there and back
# -------------------------------

measure_file = out / "gamma_seed7.jsonl"
plato_file = workdir / "plato.jsonl"
back_file = workdir / "back.jsonl"
cli(["reflect", "--in", str(measure_file), "--out", str(plato_file)])
cli(["reflect", "--in", str(plato_file), "--out", str(back_file)])
print("\nreflect twice returns the original bytes:",
      back_file.read_bytes() == measure_file.read_bytes())

# a non-pinpointing configuration is refused with exit code 2
bad = workdir / "bad.jsonl"
jsonl.write(bad, make_configuration([(1.0, [0.25]), (2.0, [0.25])], 1))
print("reflecting a mark collision exits with:",
      cli(["reflect", "--in", str(bad), "--out", str(workdir / "nope.jsonl")]))

########################################################################
# Batch statistics over sample files
# ----------------------------------

big = workdir / "big"
cli(["sample", "gamma", "--theta", "1", "--window", "0,1",
     "--epsilon", "1e-6", "--seed", "0", "--count", "150", "--out", str(big)])
files = sorted(str(p) for p in big.glob("*.jsonl"))
stats_out = workdir / "stats.json"
cli(["stats", "--in", *files, "--window", "0,1", "--theta", "1",
     "--epsilon", "1e-6", "--out", str(stats_out)])
print("\nstats report:", json.loads(stats_out.read_text()))

########################################################################
# The merging-sequence scan as a subcommand
# -----------------------------------------

conv_out = workdir / "converge.json"
cli(["converge", "--tol", "0.01", "--n-max", "200", "--out", str(conv_out)])
payload = json.loads(conv_out.read_text())
print("\nconverge:", {"converged": payload["converged"],
                      "limit_pinpointing": payload["limit_pinpointing"],
                      "last": payload["discrepancies"][-1]})

tmp.cleanup()
