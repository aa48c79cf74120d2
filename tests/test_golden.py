"""Golden outputs: fixed-seed CLI files pinned by their sha256.

Determinism tests elsewhere compare one run with another run of the same
code, so they cannot see an output that changes for everybody.  These
digests were recorded once; regenerate them only for an intended output
change, and record that change in CHANGES.md.

To regenerate, run this module as a script from the checkout root and
paste the block it prints over ``GOLDEN`` below:

    python tests/test_golden.py
"""

import hashlib
import sys
import tempfile
from pathlib import Path

if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))  # run from a checkout

from platocone.cli import main

# file name -> sha256 of its bytes
GOLDEN = {
    "converge.json": "edd762815919d2686e27b31e678d10b2a14a6322b4170d9a3fbd9ddd39fabf30",
    "converge_2d.json": "951ff914d88ea1ea5c233c8fe44d7aadf9efe5926411e9afc2aa6516906da18c",
    "gamma_back.jsonl": "8506222d20885c98689fd6afc1d589f990eccd1b4cbfdfb7cf9984930b2c24b7",
    "gamma_kept.jsonl": "361bf650c70b7a499e38bea019cdef75745c950b5cfbc571d4187d602f3eecce",
    "gamma_plato.jsonl": "5d190a295e4f740bfdd5bb97a487d966cd7d057251abbdb0d0c0b1d814ee5dc1",
    "ordered_kept.jsonl": "5bd9037cc9e144b7ac0230da279688b030a524e14c45fe592fe1b109afd30f6d",
    "ordered_plato.jsonl": "d904f40a9af30fa7a14f24d97e885d290768896a49ac44501b2bc7a95250def2",
    "pair_gamma.json": "2b78c22ea8c4dc2112bd8f0c2bb82ffa76293fec90b83327d859a44b658969ad",
    "pair_gamma_kept.json": "2b78c22ea8c4dc2112bd8f0c2bb82ffa76293fec90b83327d859a44b658969ad",
    "pair_ordered.json": "883f7a26543a12a1b4b01626514246b3be0be4e134d62e425608d9941977130c",
    "pair_ordered_plato.json": "883f7a26543a12a1b4b01626514246b3be0be4e134d62e425608d9941977130c",
    "pair_plato_mark.json": "26e99f2b9b26139cadfb054cdee805815b35cd98c8ae64df956d30c339a9777a",
    "pair_poisson.json": "92409fcf340f3ad0a5b20f1cb2ae28751bd7939a7860763933407449e3ada77d",
    "pair_poisson_indicator.json": "8bad86be879bc14b28d423fd031d58ef17c9535543b1897a22fb07df70afa30f",
    "plato_kept.jsonl": "989d5814126137a71effad7df02b15a0f4c3c0c6e8084bec3fa86aaf9ee7b647",
    "poisson_kept.jsonl": "fd53d00484c0ce94500ac7646ebd400d1ecbfc1f4dd20f44e606d1ec5c5db630",
    "poisson_measure.jsonl": "9e695d748b8a0eaf1c86c6e6a7c83e25a02c49b3aebf4d81e3a16c22e4a29ed2",
    "samples/gamma_ordered_seed5.jsonl": "e9e84743823ea1f80a9432004ed0f2ed4d15da1f0b5adc4640a93a674eadeea4",
    "samples/gamma_ordered_seed5.report.json": "76c40715ed1c08f07002eb03877aacf60319b284d3d0af096ee9d5f5562b0d1a",
    "samples/gamma_seed11.jsonl": "8506222d20885c98689fd6afc1d589f990eccd1b4cbfdfb7cf9984930b2c24b7",
    "samples/gamma_seed11.report.json": "479e5b251fe9fe7957a83e349e36cb81ccd3c8cbbc2b54f2085c058a85c9543a",
    "samples/gamma_seed12.jsonl": "b67c0c85d818cab4f86d2f2e69c97afa2c5079145bb1573669112fc48591f55c",
    "samples/gamma_seed12.report.json": "9f518173bfc60a56b14fef1e8421dc9677cad27f727c0d69930c21f9509022f6",
    "samples/poisson_seed3.jsonl": "d0d95bb717c873dcc69c1e46be4cf86120eb02eb7724b697a85e867b34b7125e",
    "samples/poisson_seed3.report.json": "944310146a733cc2134fbed8fd1331e1f187aef3d933aa6f458d3ebc43d7b6bd",
    "stats.json": "6451f1475e8a79688d353ce94bc81904400191e50610df3c65ada454fa754d06",
    "stats_inner.json": "8bfb0360b0f7aebd8e187ed9cb75f74f3bd44c31ec7ccd896e2849434e019637",
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
        digests = _build(Path(tmp))
    print("GOLDEN = {")
    for name, digest in digests.items():
        print(f'    "{name}": "{digest}",')
    print("}")
