"""Golden outputs: fixed-seed CLI files pinned by their sha256.

Determinism tests elsewhere compare one run with another run of the same
code, so they cannot see an output that changes for everybody.  These
digests were recorded once; regenerate them only for an intended output
change, and record that change in CHANGES.md.

To regenerate, run this module as a script from the checkout root and
paste the block it prints over ``GOLDEN`` below:

    python tests/test_golden.py

The digests must not depend on the CPU: the pipeline is also built in
subprocesses with numpy's AVX-512 and AVX2 kernels switched off
(``NPY_DISABLE_CPU_FEATURES``), at each of those levels the CPU has.
"""

import hashlib
import json
import os
import subprocess
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
    "gamma_back.jsonl": "a0314ce02dd04d1f4d4c7dfb61c155dc2fbe4254909464b88ae3ea3f9b36c5af",
    "gamma_kept.jsonl": "d6db78236d4ea87596951de4684350f22abf34db9e26227d602cb2d807cfbd61",
    "gamma_plato.jsonl": "6960a3b0382927901c8fb58b07318881d09c9b2a45192ec811082cd35b106709",
    "ordered_kept.jsonl": "093a279a580e9d07b239098a19298fb121a8f1281bef4a83eebfbcf102c3f551",
    "ordered_plato.jsonl": "e9ca5394462804a7c15d082d8c2f605f81a910d744d7882d29d2f6379ea195e0",
    "pair_gamma.json": "d122f7bbfba38a7d8fb768dda6f39c8728ccd92fb28952a28e1b864bcb77030c",
    "pair_gamma_kept.json": "d122f7bbfba38a7d8fb768dda6f39c8728ccd92fb28952a28e1b864bcb77030c",
    "pair_ordered.json": "883f7a26543a12a1b4b01626514246b3be0be4e134d62e425608d9941977130c",
    "pair_ordered_plato.json": "883f7a26543a12a1b4b01626514246b3be0be4e134d62e425608d9941977130c",
    "pair_plato_mark.json": "510e29dbb5fce76a92154f4b9bc1e77e4bf7144545643cb1208f561168584edb",
    "pair_poisson.json": "92409fcf340f3ad0a5b20f1cb2ae28751bd7939a7860763933407449e3ada77d",
    "pair_poisson_indicator.json": "8bad86be879bc14b28d423fd031d58ef17c9535543b1897a22fb07df70afa30f",
    "plato_kept.jsonl": "006d33e638ff9313b4425fc6975534ea36dd1d59414dc7cdcddcf43c2404cca7",
    "poisson_kept.jsonl": "fd53d00484c0ce94500ac7646ebd400d1ecbfc1f4dd20f44e606d1ec5c5db630",
    "poisson_measure.jsonl": "9e695d748b8a0eaf1c86c6e6a7c83e25a02c49b3aebf4d81e3a16c22e4a29ed2",
    "samples/gamma_ordered_seed5.jsonl": "3b2baa1cde8d7ad0ab2915d4d28cab488898fcd9cd4e0d6546401fff033c8b67",
    "samples/gamma_ordered_seed5.report.json": "17566b56412b79e588564a18b00dc9749ca2b1e3cad544192467ec31afa5c3c7",
    "samples/gamma_seed11.jsonl": "a0314ce02dd04d1f4d4c7dfb61c155dc2fbe4254909464b88ae3ea3f9b36c5af",
    "samples/gamma_seed11.report.json": "36f6ec8975f220c7201d505c5d860ff2f0a5f044adadb786f158c1ba968db957",
    "samples/gamma_seed12.jsonl": "461052550b12150d6fe6940ed6361bfb99d45843c20d68d360f7ba74fcea0b62",
    "samples/gamma_seed12.report.json": "2645d34e322e8bd555e201c9b3d61044d1d95dd0a2f540841d8eaa0d909f2ff6",
    "samples/poisson_seed3.jsonl": "d0d95bb717c873dcc69c1e46be4cf86120eb02eb7724b697a85e867b34b7125e",
    "samples/poisson_seed3.report.json": "ccb0851158505c1121966ab49e845f2bbbb6ebffbd9d2115bff111b5bdb7f8db",
    "stats.json": "c9658b363be45edb52259a9a8d38aa093c81de17dff6727350de97e2425b495d",
    "stats_inner.json": "e69d3af663462b589d13e51040bd583610aa0fc385160fc27aad8b4b8162212b",
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


def _cpu_features() -> tuple:
    """numpy's dispatchable CPU features and which of them this CPU has."""
    try:
        from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    except ImportError:  # numpy 1.x
        from numpy.core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    return __cpu_dispatch__, __cpu_features__


def _dispatch_levels() -> dict:
    """The features to disable for each dispatch level this CPU has."""
    dispatch, present = _cpu_features()
    have = [f for f in dispatch if present.get(f)]
    avx512 = [f for f in have if f == "X86_V4" or f.startswith("AVX512")]
    avx2 = avx512 + [f for f in have if f in ("X86_V3", "AVX", "F16C", "FMA3", "AVX2")]
    levels = {"nothing disabled": []}
    if avx512:
        levels["AVX-512 off"] = avx512
    if len(avx2) > len(avx512):
        levels["AVX2 off"] = avx2
    return levels


# argv: the features the level disables, which must read as absent
_BUILD_AT_LEVEL = """
import json, sys, tempfile
from pathlib import Path
from test_golden import _build, _cpu_features
still_on = [f for f in sys.argv[1:] if _cpu_features()[1][f]]
assert not still_on, f"NPY_DISABLE_CPU_FEATURES left {still_on} on"
with tempfile.TemporaryDirectory() as tmp:
    print(json.dumps(_build(Path(tmp))))
"""


def test_golden_outputs_do_not_depend_on_cpu_dispatch():
    here = Path(__file__).resolve().parent
    path = [str(here.parent / "src"), str(here), os.environ.get("PYTHONPATH", "")]
    for level, off in _dispatch_levels().items():
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(path), NPY_DISABLE_CPU_FEATURES=" ".join(off))
        run = subprocess.run([sys.executable, "-c", _BUILD_AT_LEVEL, *off], env=env, capture_output=True, text=True)
        assert run.returncode == 0, (level, run.stderr)
        assert json.loads(run.stdout) == GOLDEN, level


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        digests = _build(Path(tmp))
    print("GOLDEN = {")
    for name, digest in digests.items():
        print(f'    "{name}": "{digest}",')
    print("}")
