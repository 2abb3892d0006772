"""Round-trip guarantees of the spec frontend.

Two properties carry the whole serve/cache interop story:

1. **Spec == hand-written IR.**  A spec lowered at the same sizes as a
   hand-written benchmark Func produces the *same content fingerprint*
   — so spec submissions coalesce, cache-hit, and shard exactly like ir
   submissions.
2. **The corpus and the suite are pinned.**  Every corpus kernel lowers,
   classifies, and fingerprints exactly as the committed golden manifest
   says, and every benchmark-suite kernel fingerprints as pinned below;
   any drift is an API break for deployed caches and shard rings.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.bench import benchmark_names, make_benchmark, size_for
from repro.cache.fingerprint import func_fingerprint
from repro.frontend import lower_spec
from repro.frontend.corpus import CORPUS, corpus_manifest
from repro.ir import Buffer, Func, Var

from tests.helpers import make_matmul

GOLDEN = os.path.join(
    os.path.dirname(__file__), "..", "benchmarks", "corpus_manifest.json"
)

#: Per-stage fingerprints of the Table 4 kernels at the paper's sizes.
PAPER_FINGERPRINTS = {
    "convlayer": (
        "42c3f8048ff7d4475c4d59a48e00f8f0ea259a5288e68bb4d21484a45d476b4d",
    ),
    "doitgen": (
        "ea68768e4782b87b4c8d16481a01d51ebddfc3505d95f64bbb2c59b0216be2cb",
        "aee1028d2d0c61898946006c7b741bb0354e7aee74b9bfd112296fdc08b7e08b",
    ),
    "matmul": (
        "3eb55ae0584512f6c1c6903f5f964bfc48661ac5440e9b5f4c1c02821335402f",
    ),
    "3mm": (
        "4e86fde68df847bd316ed22c718bc6ddf6f32f440107fce993bd2f9c6637f916",
        "d3307ebac1b2c5b9101c31947bbb3bed5da19f875f251eb8023002fdb9caaed4",
        "7c7dea993ef00973f9c82257ecb099547727212ab09463be31e6f9ec8929f6b1",
    ),
    "gemm": (
        "236d5cd0f14298311d3d782a543f645447e9c366f47248663a9ce419ebd1217a",
    ),
    "trmm": (
        "cf5f9e207f87077e0257802f7c5247504bbd99c07ace54aacbc246dc27e2b000",
    ),
    "syrk": (
        "44c005164c3a0726e487507d0f052ff59f70d0821e271fa39dd3223ea21c727b",
    ),
    "syr2k": (
        "aa334d1ef1126564a799f1ff5f40f64628979cc7530609c879e6de5d2f344b8f",
    ),
    "tpm": (
        "0792cc6b920cdf192791013c2b89f96e3a9df7fa7eec0a8f071d04af58ec03ab",
    ),
    "tp": (
        "dc699b1ba22cdd0ee24a10954fed1e5402a3928f10662f1966f2a1bdd38fcbee",
    ),
    "copy": (
        "75806113758c048931be021e965fa35c8c0f7daadfca49ea50e600763ac4fa54",
    ),
    "mask": (
        "c84e5deacd6ca500bebe05e769c1f2f0f51e1ea4358b62a2d7d41f3c92e9f731",
    ),
}

#: The same at the small (``--fast``) sizes.
SMALL_FINGERPRINTS = {
    "convlayer": (
        "bce627c0ad366c580f588e858e64d9bce3c7b15c8787d94f845fe8b3b8a24936",
    ),
    "doitgen": (
        "f26a5767c60a8730304201befb2419c31d05fb1f2ed189b2be165c2f8b5564de",
        "9b82ce10d37a69bd07c99a3ec7fe971fd48174c37c0b14ef03b4eb51c18d6225",
    ),
    "matmul": (
        "9105bd13efaafff5045a3c0676cc3738b4861531a7ca69ef7fa71e44429298c9",
    ),
    "3mm": (
        "d306f1e41125fd9f1047804df01315b7e7d8a1c281fe3dba6879716897e910e3",
        "30d9f89f08281400b69d4048f98e7cc913a30a7bdbc3ed5a9d19eb1daba6396d",
        "4506f31788e7970b75571adff9fa38d5549fea741d03413f34f14f11308a13d4",
    ),
    "gemm": (
        "e8f1672d49fd25440b0c4b890c06ef4a1f0d0fac879115071df3c79eaa567ce7",
    ),
    "trmm": (
        "2145ed797ef7e8cf12da5bc6e18942138b3fc1469e59040f8429bf00408d64d6",
    ),
    "syrk": (
        "0b9224bd2d6278a306b2eeb474e3b94de78490694da99d9f8a1c1aa374291a2a",
    ),
    "syr2k": (
        "964f371f852a81a7e5b5d71871c3073ff6188209fc044f825c0c58d191b5d01e",
    ),
    "tpm": (
        "4ad0e094d09ab829eb5f569a83ad53640fda8bbb42713acf35b99d6a73730d6f",
    ),
    "tp": (
        "4459800e371b1d9e3e05409faf8b80430cd3ab692b3e0603c3b79a161a96bd9e",
    ),
    "copy": (
        "16f63a54a0950bc2241bf6be38bd00e723caca9011366c1a63a3f7c675b2465e",
    ),
    "mask": (
        "511969388e15fe09f7756443d74f2f5d24c03e2eb563320c3bd54c6cb8e0d050",
    ),
}

#: The extras at their default sizes.  seidel's offsets are canonical
#: (``Ain[y, x]``, not ``Ain[y + 0, x + 0]``), so its hash is new.
EXTRA_FINGERPRINTS = {
    "2mm": (
        "7afdec69709f977d0754a8b753bcfdf2e8f2851c5be5e638f6c14fae529f41ca",
        "70b188ac0a66d247e3ff5e47335fb9775d0583bdd5128cc67b4ee9d904e805c6",
    ),
    "atax": (
        "333dbaf395b12aced9fed4c9a5a6f9549ee454d0cf7e1874bd11b1a37f85171e",
        "41379bb735d6cd8f71640f460178ac0ec9a6ea504ec04913ea8dfcf4db56b3b0",
    ),
    "bicg": (
        "2d215154b4e380e94bed5ccfba23c58e2a2c7165a8a2ecf79b9e661b6d730009",
        "17234f11c1d8a10fdda6bbff8067cdf745c31f593d62fc17492fe5752a2e618e",
    ),
    "mvt": (
        "98df543eb4f56bad27f493ffe1801bd8d3700cc9bf3e0a23ca3d224b7f1dacc5",
        "fd80503f473737c56ccbd6c51101eb0b573763f52d7bdefd20799508c51a2ff2",
    ),
    "jacobi2d": (
        "484cb6abd08fe077a7d1b3aa1c05e8a1bb7edf8ddc2155269cb0de9f15ddce63",
    ),
    "seidel": (
        "294d1263480b40b2d4400c621f1528c7eb1fe458608871711e14475f6e1b285b",
    ),
}


def _stage_fingerprints(case):
    return tuple(func_fingerprint(stage) for stage in case.pipeline)


class TestSpecMatchesHandWrittenIR:
    def test_matmul_fingerprint_equality(self):
        n = 64
        lowered = lower_spec(
            "C[i,j] += A[i,k] * B[k,j]", {"i": n, "j": n, "k": n}
        )
        hand, _, _ = make_matmul(n)
        assert lowered.fingerprints[0] == func_fingerprint(hand)

    def test_jacobi2d_fingerprint_equality(self):
        n = 96
        lowered = lower_spec(
            "Jac[y,x] = 0.2 * (Ain[y,x] + Ain[y,x-1] + Ain[y,x+1] "
            "+ Ain[y-1,x] + Ain[y+1,x])",
            {"y": n, "x": n},
        )
        a = Buffer("Ain", (n + 2, n + 2))
        x, y = Var("x"), Var("y")
        hand = Func("Jac")
        hand[y, x] = 0.2 * (
            a[y + 1, x + 1]
            + a[y + 1, x]
            + a[y + 1, x + 2]
            + a[y, x + 1]
            + a[y + 2, x + 1]
        )
        hand.set_bounds({x: n, y: n})
        assert lowered.fingerprints[0] == func_fingerprint(hand)


class TestSuitePins:
    def test_pins_cover_the_suite(self):
        assert list(PAPER_FINGERPRINTS) == benchmark_names()
        assert list(SMALL_FINGERPRINTS) == benchmark_names()

    @pytest.mark.parametrize("name", list(PAPER_FINGERPRINTS))
    def test_table4_at_paper_size(self, name):
        case = make_benchmark(name, **size_for(name))
        assert _stage_fingerprints(case) == PAPER_FINGERPRINTS[name]

    @pytest.mark.parametrize("name", list(SMALL_FINGERPRINTS))
    def test_table4_at_small_size(self, name):
        case = make_benchmark(name, **size_for(name, small=True))
        assert _stage_fingerprints(case) == SMALL_FINGERPRINTS[name]

    @pytest.mark.parametrize("name", list(EXTRA_FINGERPRINTS))
    def test_extras_at_default_size(self, name):
        case = make_benchmark(name)
        assert _stage_fingerprints(case) == EXTRA_FINGERPRINTS[name]


class TestCorpus:
    def test_every_kernel_lowers(self):
        for kernel in CORPUS:
            lowered = kernel.lower()
            assert lowered.funcs, kernel.name
            fast = kernel.lower(fast=True)
            assert len(fast.funcs) == len(lowered.funcs), kernel.name

    def test_lowering_twice_is_identical(self):
        for kernel in CORPUS:
            assert (
                kernel.lower().fingerprints == kernel.lower().fingerprints
            ), kernel.name

    def test_corpus_is_large_and_diverse(self):
        assert len(CORPUS) >= 30
        families = {kernel.family for kernel in CORPUS}
        assert {"polybench", "dl", "micro"} <= families

    def test_manifest_matches_committed_golden(self):
        with open(GOLDEN) as handle:
            golden = json.load(handle)
        regenerated = corpus_manifest()
        assert regenerated == golden, (
            "corpus manifest drift — lowering, fingerprints, or "
            "classification changed; regenerate with `python -m "
            "repro.frontend manifest > benchmarks/corpus_manifest.json` "
            "if intentional"
        )

    @pytest.mark.parametrize(
        "kernel", CORPUS, ids=[kernel.name for kernel in CORPUS]
    )
    def test_case_metadata(self, kernel):
        case = kernel.case(fast=True)
        assert case.name == kernel.name
        assert case.pipeline.output is not None
