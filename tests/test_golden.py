"""Golden outputs: fixed-seed CLI files pinned by their sha256.

Determinism tests elsewhere compare one run with another run of the same
code, so they cannot see an output that changes for everybody.  These
digests were recorded once; regenerate them only for an intended output
change, and record that change in CHANGES.md.

To print the current digests, run this module as a script:

    PYTHONPATH=src python tests/test_golden.py
"""

import hashlib
import sys
import tempfile
from pathlib import Path

from platocone.cli import main

# file name -> sha256 of its bytes
GOLDEN = {
    "converge.json": "127f14e024ce5139fcb93b42235f075b3c6eb2c3437bcb2665835401cf481c4f",
    "converge_2d.json": "cf53aa0f1f968a012983ce052e647ef35cb66f38d72ae7915559bcacb0925872",
    "gamma_back.jsonl": "031b4b6211c7a161f4d1d11a3abdd46bec604fa2956f71e1ffd7d0fda9b6e04e",
    "gamma_kept.jsonl": "0d9612f65a1ab3ab365c2ec640593174dc9fc340ba6ebaa09f1fa5422ec10f59",
    "gamma_plato.jsonl": "a62ed08ed66eadba81f9779266e59d90c7661310042193215499c116d9145eef",
    "ordered_kept.jsonl": "b4dc7beb59599a3c9c95d6150c604534598a825271ec245beb5b56ee07ef492b",
    "ordered_plato.jsonl": "743d66d588e785289ebf979ec82730a431ad86a5734cd90bda6428d16f83740c",
    "pair_gamma.json": "9c00e896d5cae9cdfc90f20d2b600c5df19363aecdd07f8b1dd18d19f9aef68b",
    "pair_gamma_kept.json": "9c00e896d5cae9cdfc90f20d2b600c5df19363aecdd07f8b1dd18d19f9aef68b",
    "pair_ordered.json": "4e3ae733d07195456dd7658b459d76bdf952c5f858c07c955ebd81b21196e7bc",
    "pair_ordered_plato.json": "4e3ae733d07195456dd7658b459d76bdf952c5f858c07c955ebd81b21196e7bc",
    "pair_plato_mark.json": "eb5d49e37710ae6d486b57aeb552eed95e3fc09b1b4445cd62e5adae48a846fc",
    "pair_poisson.json": "92409fcf340f3ad0a5b20f1cb2ae28751bd7939a7860763933407449e3ada77d",
    "pair_poisson_indicator.json": "8bad86be879bc14b28d423fd031d58ef17c9535543b1897a22fb07df70afa30f",
    "plato_kept.jsonl": "cd6de8afed900928e1fac03e814b6d1be04580ccce1a3f5211c9363cb28cef38",
    "poisson_kept.jsonl": "fd53d00484c0ce94500ac7646ebd400d1ecbfc1f4dd20f44e606d1ec5c5db630",
    "poisson_measure.jsonl": "9e695d748b8a0eaf1c86c6e6a7c83e25a02c49b3aebf4d81e3a16c22e4a29ed2",
    "samples/gamma_ordered_seed5.jsonl": "e356edfe2b8220d5f08c8e0ae6cdf0f60697542508711a6f2a795633a9517c2f",
    "samples/gamma_ordered_seed5.report.json": "a6aeb7fbda5500b1e98a4e0eaee8e51af079b667a48dd7f49b873612d34f2dd3",
    "samples/gamma_seed11.jsonl": "031b4b6211c7a161f4d1d11a3abdd46bec604fa2956f71e1ffd7d0fda9b6e04e",
    "samples/gamma_seed11.report.json": "0e884d01894a6466a4a49805833c3a6ad66ca5e2715dff93a9eb0d18e1f126a4",
    "samples/gamma_seed12.jsonl": "45b9e51640e04a23938e74137a98bc19b474b77822710bb0f7f00761fcfaa7c1",
    "samples/gamma_seed12.report.json": "1bdffe2a13c21fbd54a1d5a5bc8701134e23ae82aef31e9c75098e6a562651d7",
    "samples/poisson_seed3.jsonl": "d0d95bb717c873dcc69c1e46be4cf86120eb02eb7724b697a85e867b34b7125e",
    "samples/poisson_seed3.report.json": "34ba16af29770689a3b3f8c3ce68831aa670e8b8089bad926f64177f84e28861",
    "stats.json": "87b60e4649f1b426add06b8c039567da557527d9da6a599b8706e55271e07323",
    "stats_inner.json": "913173822de170ee66c3657d06db4040ff2ece97007c41f18dbc3961f5d38c8f",
}


def _build(work: Path) -> dict:
    """Run the pinned CLI pipeline in ``work`` and hash every file it wrote."""
    samples = work / "samples"

    def run(*argv):
        assert main([str(a) for a in argv]) == 0, argv

    run("sample", "gamma", "--theta", "1", "--epsilon", "1e-8", "--window", "0,34",
        "--seed", "11", "--count", "2", "--out", samples)
    run("sample", "gamma-ordered", "--theta", "1.5", "--n-jumps", "40",
        "--window", "0,2,0,3", "--seed", "5", "--out", samples)
    run("sample", "poisson", "--window", "0,4,0,2", "--seed", "3", "--out", samples)

    gamma = samples / "gamma_seed11.jsonl"
    ordered = samples / "gamma_ordered_seed5.jsonl"
    poisson = samples / "poisson_seed3.jsonl"
    run("reflect", "--in", gamma, "--out", work / "gamma_plato.jsonl")
    run("reflect", "--in", ordered, "--out", work / "ordered_plato.jsonl")
    run("reflect", "--in", poisson, "--out", work / "poisson_measure.jsonl")
    run("reflect", "--in", work / "gamma_plato.jsonl", "--out", work / "gamma_back.jsonl")

    hat_1d = ["--window", "1.7,32.3", "--mark-interval", "0,2"]
    hat_2d = ["--window", "0.25,1.75,0.5,2.5", "--mark-interval", "0,3"]
    run("restrict", "--in", gamma, "--out", work / "gamma_kept.jsonl", *hat_1d)
    run("restrict", "--in", work / "gamma_plato.jsonl", "--out", work / "plato_kept.jsonl", *hat_1d)
    run("restrict", "--in", work / "ordered_plato.jsonl", "--out", work / "ordered_kept.jsonl", *hat_2d)
    run("restrict", "--in", poisson, "--out", work / "poisson_kept.jsonl",
        "--window", "1,3,0,2", "--mark-interval", "0.5,inf")

    run("pair", "--in", gamma, "--out", work / "pair_gamma.json", "--fn", "hat", *hat_1d)
    run("pair", "--in", work / "gamma_kept.jsonl", "--out", work / "pair_gamma_kept.json",
        "--fn", "hat", *hat_1d)
    run("pair", "--in", work / "gamma_plato.jsonl", "--out", work / "pair_plato_mark.json",
        "--fn", "mark", *hat_1d)
    run("pair", "--in", ordered, "--out", work / "pair_ordered.json", "--fn", "hat", *hat_2d)
    run("pair", "--in", work / "ordered_plato.jsonl", "--out", work / "pair_ordered_plato.json",
        "--fn", "hat", *hat_2d)
    run("pair", "--in", poisson, "--out", work / "pair_poisson.json", "--fn", "hat",
        "--window", "0,4,0,2", "--mark-interval", "0,4")
    run("pair", "--in", poisson, "--out", work / "pair_poisson_indicator.json",
        "--window", "1,3,0,2")

    run("stats", "--in", gamma, samples / "gamma_seed12.jsonl", "--window", "0,34",
        "--theta", "1", "--epsilon", "1e-8", "--out", work / "stats.json")
    run("stats", "--in", gamma, "--window", "3,20", "--theta", "1", "--epsilon", "1e-8",
        "--out", work / "stats_inner.json")
    run("converge", "--out", work / "converge.json")
    run("converge", "--x0", "0.5,-1", "--s1", "0.75", "--s2", "3", "--n-max", "200",
        "--out", work / "converge_2d.json")

    return {
        str(p.relative_to(work)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(work.rglob("*"))
        if p.is_file()
    }


def test_golden_outputs(tmp_path):
    assert _build(tmp_path) == GOLDEN


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        for name, digest in _build(Path(tmp)).items():
            print(f'    "{name}": "{digest}",')
    sys.exit(0)
