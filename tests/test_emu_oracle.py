"""Algorithm 1's block-vectorized ``emu`` against the line-by-line oracle.

``repro.core.emu`` evaluates the placement-order conditions in numpy
blocks; ``tests.helpers.reference_emu`` walks the pseudocode one line at
a time.  They must agree on every input:

* ``data/emu_cases.json`` — every distinct ``emu`` input seen while
  optimizing the 61 ``BENCHMARKS`` + ``CORPUS`` rows at fast size and the
  18 ``BENCHMARKS`` rows at paper size on the three platforms, with the
  row count the line-by-line routine returned for it;
* property tests over the three platforms (both levels, element sizes of
  1 to 8 bytes, non-zero base addresses, strides near powers of two) and
  over tiny cache geometries where a row wraps the emulated sets and the
  stride probes reach past them.

Regenerate the fixture deliberately, from a tree whose search you trust
(the row counts come from the oracle, never from the fast routine)::

    REPRO_REGEN_GOLDEN=1 PYTHONPATH=src python -m pytest \\
        tests/test_emu_oracle.py -q
"""

import importlib
import json
import os
import pathlib
import tracemalloc
from unittest import mock

from hypothesis import assume, example, given, settings, strategies as st

from repro.arch import CacheSpec, PLATFORMS, intel_i7_5930k
from repro.bench import BENCHMARKS
from repro.core import optimize
from repro.frontend.corpus import CORPUS

from tests.helpers import reference_emu

# `repro.core` re-exports the `emu` *function* under the same name.
emu_mod = importlib.import_module("repro.core.emu")
EmuParams = emu_mod.EmuParams

FIXTURE = pathlib.Path(__file__).parent / "data" / "emu_cases.json"
_REGEN = bool(os.environ.get("REPRO_REGEN_GOLDEN"))
_FIELDS = (
    "level", "row_width_elems", "row_stride_elems", "max_rows", "dts", "addr",
)
_NAME_TO_PLATFORM = {make().name: key for key, make in PLATFORMS.items()}


def _searched_inputs():
    """Every distinct ``(platform, EmuParams)`` the registry searches ask
    for, collected through the module global ``emu`` (the fault seam)."""
    seen = set()
    real_emu = emu_mod.emu

    def recording_emu(arch, params):
        seen.add((_NAME_TO_PLATFORM[arch.name], params))
        return real_emu(arch, params)

    with mock.patch.object(emu_mod, "emu", recording_emu):
        for make_arch in PLATFORMS.values():
            arch = make_arch()
            runs = [(kernel, True) for kernel in BENCHMARKS + CORPUS]
            runs += [(kernel, False) for kernel in BENCHMARKS]
            for kernel, fast in runs:
                for func in kernel.case(fast=fast).funcs:
                    optimize(func, arch)
    return sorted(
        seen, key=lambda item: (item[0],) + tuple(
            getattr(item[1], name) for name in _FIELDS)
    )


def _render(rows) -> str:
    """The fixture text: one ``[platform, *inputs, max_ti]`` per line."""
    body = ",\n".join(json.dumps(row) for row in rows)
    return (
        '{"fields": ' + json.dumps(["platform", *_FIELDS, "max_ti"])
        + ',\n "cases": [\n' + body + "\n]}\n"
    )


def _fixture_inputs():
    data = json.loads(FIXTURE.read_text())
    for platform, *values, max_ti in data["cases"]:
        params = EmuParams(**dict(zip(_FIELDS, values)))
        yield platform, params, max_ti


class TestRecordedInputs:
    def test_fixture_matches_byte_for_byte(self):
        if _REGEN:
            FIXTURE.write_text(_render(
                [platform, *(getattr(params, f) for f in _FIELDS),
                 reference_emu(PLATFORMS[platform](), params)]
                for platform, params in _searched_inputs()
            ))
        archs = {key: make() for key, make in PLATFORMS.items()}
        rows = []
        for platform, params, _ in _fixture_inputs():
            max_ti = emu_mod._emu_uncached(archs[platform], params)
            assert type(max_ti) is int
            rows.append(
                [platform, *(getattr(params, f) for f in _FIELDS), max_ti])
        assert len(rows) > 800
        assert _render(rows) == FIXTURE.read_text()

    def test_fixture_holds_every_searched_input(self):
        recorded = {(p, params) for p, params, _ in _fixture_inputs()}
        assert set(_searched_inputs()) == recorded


#: Strides within a cache line or two of a power of two: where row starts
#: alias onto few emulated sets and the bound is most sensitive.
_STRIDES = st.builds(
    lambda k, delta: max(1, 2 ** k + delta),
    st.integers(0, 14), st.integers(-17, 17),
)


class TestAgainstOracle:
    @given(
        platform=st.sampled_from(sorted(PLATFORMS)),
        level=st.sampled_from([1, 2]),
        dts=st.sampled_from([1, 2, 4, 8]),
        stride=_STRIDES,
        width=st.one_of(st.integers(1, 4096), _STRIDES),
        max_rows=st.one_of(st.integers(1, 2048), st.just(10**5)),
        addr=st.integers(1, 10**7),
    )
    @settings(max_examples=150, deadline=None)
    def test_platforms(
        self, platform, level, dts, stride, width, max_rows, addr
    ):
        arch = PLATFORMS[platform]()
        params = EmuParams(
            level=level, row_width_elems=width, row_stride_elems=stride,
            max_rows=max_rows, dts=dts, addr=addr,
        )
        assert emu_mod.emu(arch, params) == reference_emu(arch, params)

    @given(
        l1_sets=st.sampled_from([1, 2, 4]),
        l1_ways=st.sampled_from([1, 2, 4]),
        l2_ways=st.sampled_from([1, 2, 4, 8]),
        threads=st.sampled_from([1, 2]),
        degree=st.integers(0, 24),
        distance=st.integers(0, 24),
        level=st.sampled_from([1, 2]),
        dts=st.sampled_from([1, 4, 8, 32, 64, 128]),
        stride=st.integers(1, 200),
        width=st.integers(1, 600),
        max_rows=st.integers(1, 300),
        addr=st.integers(0, 5000),
    )
    # One emulated L2 set: the probe lands on the set just placed, which
    # interferes as soon as that set holds ``ways`` lines.
    @example(
        l1_sets=1, l1_ways=1, l2_ways=2, threads=1, degree=1, distance=1,
        level=2, dts=128, stride=1, width=1, max_rows=8, addr=0,
    )
    @settings(max_examples=150, deadline=None)
    def test_tiny_geometries(
        self, l1_sets, l1_ways, l2_ways, threads, degree, distance, level,
        dts, stride, width, max_rows, addr,
    ):
        # A handful of emulated sets (a single one at 128-byte elements):
        # rows wrap around them, and probes reach past them back onto the
        # placed line's own set.
        line = 64
        arch = intel_i7_5930k().with_overrides(
            l1=CacheSpec(
                size=l1_sets * l1_ways * line, line_size=line,
                ways=l1_ways, latency=4),
            l2=CacheSpec(
                size=4 * l1_sets * l2_ways * line, line_size=line,
                ways=l2_ways, latency=12),
            threads_per_core=threads,
            l2_prefetches_per_access=degree,
            l2_max_prefetch_distance=distance,
        )
        spec = arch.cache_level(level)
        assume(spec.size // (spec.ways * dts) > 0)  # an element per set
        params = EmuParams(
            level=level, row_width_elems=width, row_stride_elems=stride,
            max_rows=max_rows, dts=dts, addr=addr,
        )
        assert emu_mod.emu(arch, params) == reference_emu(arch, params)


class TestBlocking:
    def test_long_scan_stays_within_the_block_cap(self):
        # An odd row stride spreads the rows over all 16,384 emulated L2
        # sets, so the first interference lies about eight blocks in.
        arch = intel_i7_5930k().with_overrides(threads_per_core=1)
        params = EmuParams(
            level=2, row_width_elems=16 * 64,
            row_stride_elems=8875 * 64, max_rows=10**6, dts=1,
        )
        nsets = arch.l2.size // (arch.l2.ways * params.dts) // 2
        tracemalloc.start()
        try:
            max_ti = emu_mod._emu_uncached(arch, params)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert max_ti == reference_emu(arch, params)
        assert max_ti * 16 > 7 * emu_mod.BLOCK_ELEMENTS
        # A dozen or so live int64 arrays of one block or one set each;
        # scanning every row at once would take about 130 MB.
        assert peak < 24 * 8 * max(emu_mod.BLOCK_ELEMENTS, nsets)
