"""One switch set, one parser: every entry point that reads optimizer
options accepts the same keys and rejects the same bad values.

The byte-for-byte texts below are the serve 400 messages clients see;
they are pinned so the consolidation behind
:meth:`repro.options.OptimizeOptions.from_dict` cannot change them.
"""

from __future__ import annotations

import types

import pytest

from repro.api import OptimizeRequest, optimize as api_optimize
from repro.arch import intel_i7_5930k
from repro.options import OPTION_KEYS, OptimizeOptions
from repro.robust import FallbackPolicy, safe_optimize
from repro.serve import build_request, parse_request
from repro.sweep import KIND_TUNE, Journal, JournalRecord, SweepCell
from repro.tune import validate_tune_request
from repro.util import ServeError

from tests.helpers import make_copy

KNOWN = (
    "known: ['use_nti', 'parallelize', 'vectorize', 'exhaustive', "
    "'use_emu', 'order_step', 'multistride']"
)

#: (bad options, parse_request's 400 text)
PARSE_TEXTS = [
    ({"turbo": True}, f"unknown option(s) ['turbo']; {KNOWN}"),
    ({"use_nti": "yes"}, "option 'use_nti' must be a boolean, got 'yes'"),
    ({"use_nti": 1}, "option 'use_nti' must be a boolean, got 1"),
    (
        {"multistride": True},
        "option 'multistride' must be 'off', 'auto' or an integer >= 2, "
        "got True",
    ),
    (
        {"multistride": 1},
        "option 'multistride' must be 'off', 'auto' or an integer >= 2, "
        "got 1",
    ),
    (
        {"multistride": "on"},
        "option 'multistride' must be 'off', 'auto' or an integer >= 2, "
        "got 'on'",
    ),
    # Two bad values: the multistride text wins, as it always has.
    (
        {"use_nti": "yes", "multistride": 1},
        "option 'multistride' must be 'off', 'auto' or an integer >= 2, "
        "got 1",
    ),
]

#: (bad options, build_request's client-side text: the server's 400 text)
BUILD_TEXTS = [
    ({"turbo": True}, f"unknown option(s) ['turbo']; {KNOWN}"),
    (
        {"multistride": True},
        "option 'multistride' must be 'off', 'auto' or an integer >= 2, "
        "got True",
    ),
    (
        {"multistride": 1},
        "option 'multistride' must be 'off', 'auto' or an integer >= 2, "
        "got 1",
    ),
    (
        {"multistride": "on"},
        "option 'multistride' must be 'off', 'auto' or an integer >= 2, "
        "got 'on'",
    ),
]


def _wire(options):
    return dict(build_request("matmul", "i7-5930k"), options=options)


@pytest.mark.parametrize("options,text", PARSE_TEXTS)
def test_parse_request_400_text_is_pinned(options, text):
    with pytest.raises(ServeError) as info:
        parse_request(_wire(options))
    assert str(info.value) == text


@pytest.mark.parametrize("options,text", BUILD_TEXTS)
def test_build_request_text_is_pinned(options, text):
    with pytest.raises(ServeError) as info:
        build_request("matmul", "i7-5930k", **options)
    assert str(info.value) == text


# ---------------------------------------------------------------------------
# One key set, one set of rejections, at every entry point.
# ---------------------------------------------------------------------------

#: One accepted value per wire key (each key is covered).
GOOD = [
    {"use_nti": False},
    {"parallelize": False},
    {"vectorize": False},
    {"exhaustive": True},
    {"use_emu": False},
    {"order_step": False},
    {"multistride": "off"},
    {"multistride": "auto"},
    {"multistride": 4},
]

BAD = [
    {"turbo": True},
    {"jobs": 1},
    {"use_nti": "yes"},
    {"use_nti": 1},
    {"exhaustive": None},
    {"multistride": True},
    {"multistride": 1},
    {"multistride": "on"},
    {"multistride": 2.5},
]


def _serve(raw):
    return OptimizeOptions.from_dict(parse_request(_wire(raw)).options)


def _build(raw):
    return OptimizeOptions.from_dict(
        parse_request(build_request("matmul", "i7-5930k", **raw)).options
    )


def _tune_grid(raw):
    problems = validate_tune_request(
        {
            "format": "repro-tune-v1",
            "kernels": ["matmul"],
            "platforms": ["i7-5930k"],
            "grid": [raw],
        }
    )
    if problems:
        raise ValueError("; ".join(problems))
    return OptimizeOptions.from_dict(raw)


def _sweep_cell(raw):
    cell = SweepCell(
        benchmark="matmul",
        technique="proposed",
        platform="i7-5930k",
        line_budget=0,
        kind=KIND_TUNE,
        options=OptimizeOptions(),
    ).to_dict()
    cell["options"] = raw
    return SweepCell.from_dict(cell).options


def _safe(raw):
    options = OptimizeOptions(**raw)
    func = make_copy(16)[0]
    assert safe_optimize(func, intel_i7_5930k(), options=options).schedule
    return options


def _api(raw):
    options = OptimizeOptions(**raw)
    request = OptimizeRequest(
        func=make_copy(16)[0], arch=intel_i7_5930k(), options=options
    )
    assert api_optimize(request).schedule is not None
    return request.options


def _vary(raw):
    from repro.__main__ import _vary_grid

    (name,) = raw
    grid = _vary_grid([name])
    assert len(grid) == 2 and all(set(o) == {name} for o in grid)
    return OptimizeOptions.from_dict(raw)


ENTRY_POINTS = {
    "serve": _serve,
    "serve-client": _build,
    "tune-grid": _tune_grid,
    "sweep-cell": _sweep_cell,
    "safe_optimize": _safe,
    "api.optimize": _api,
    "tune --vary": _vary,
}

REJECTED = (ServeError, ValueError, TypeError, SystemExit)


def test_the_good_table_covers_every_wire_key():
    assert {key for raw in GOOD for key in raw} == set(OPTION_KEYS)


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
@pytest.mark.parametrize("raw", GOOD, ids=repr)
def test_every_entry_point_accepts_the_same_keys(entry, raw):
    assert ENTRY_POINTS[entry](raw) == OptimizeOptions(**raw)


#: ``--vary`` takes switch names and picks their values itself, so only
#: an unknown name can reach it.
REJECTIONS = [
    (entry, raw)
    for entry in sorted(ENTRY_POINTS)
    for raw in BAD
    if entry != "tune --vary" or not set(raw) <= set(OPTION_KEYS)
]


@pytest.mark.parametrize("entry,raw", REJECTIONS, ids=repr)
def test_every_entry_point_rejects_the_same_values(entry, raw):
    with pytest.raises(REJECTED):
        ENTRY_POINTS[entry](raw)


# ---------------------------------------------------------------------------
# Regressions: the copies of the switch set that drifted.
# ---------------------------------------------------------------------------


def test_journal_resumes_multistride_tune_cells(tmp_path):
    journal = Journal(str(tmp_path / "tune.jsonl"))
    cells = [
        SweepCell(
            benchmark="mxv",
            technique="proposed",
            platform="i7-5930k",
            line_budget=0,
            fast=True,
            kind=KIND_TUNE,
            options=OptimizeOptions(multistride=value),
        )
        for value in ("off", "auto", 4)
    ]
    for cell in cells:
        journal.append(JournalRecord(cell=cell, status="ok", ms=1.5))
    records = journal.load()
    assert journal.load_diagnostics == []
    assert sorted(records) == sorted(cell.key() for cell in cells)
    for cell in cells:
        assert records[cell.key()].cell == cell


def test_schedules_for_honours_multistride_and_keys_the_cache(tmp_path):
    from repro.cache import ScheduleCache
    from repro.core import optimize
    from repro.experiments.harness import schedules_for
    from repro.frontend.corpus import corpus_kernel
    from repro.ir.serialize import schedule_to_dict

    arch = intel_i7_5930k()
    lowered = corpus_kernel("mef-mxv").lower()
    (func,) = lowered.funcs
    options = OptimizeOptions(multistride="auto")
    expected = optimize(func, arch, multistride="auto").schedule
    assert "multistride" in expected.describe()  # a contested case

    cache = ScheduleCache(str(tmp_path / "c.jsonl"))
    case = types.SimpleNamespace(pipeline=lowered.pipeline)
    got = schedules_for(case, "proposed", arch, cache=cache, options=options)
    assert schedule_to_dict(got[func]) == schedule_to_dict(expected)

    replayed = ScheduleCache(cache.path).get(func, arch, options.cache_dict())
    assert schedule_to_dict(replayed) == schedule_to_dict(expected)


@pytest.mark.parametrize("name", ["tp", "tpm"])
def test_safe_mode_honours_options_beside_a_policy(name):
    from repro.bench import make_benchmark, size_for

    arch = intel_i7_5930k()
    options = OptimizeOptions(use_nti=False)
    for policy in (None, FallbackPolicy.lenient()):
        case = make_benchmark(name, **size_for(name, small=True))
        result = api_optimize(
            OptimizeRequest(
                pipeline=case.pipeline,
                arch=arch,
                mode="safe",
                options=options,
                policy=policy,
            )
        )
        assert result.schedules
        for schedule in result.schedules.values():
            assert schedule.nontemporal is False


def test_safe_mode_runs_and_reports_multistride():
    from repro.core import optimize
    from repro.frontend.corpus import corpus_kernel
    from repro.ir.serialize import schedule_to_dict

    arch = intel_i7_5930k()
    (func,) = corpus_kernel("mef-mxv").lower().funcs
    expected = optimize(func, arch, multistride="auto")
    result = api_optimize(
        OptimizeRequest(
            func=func,
            arch=arch,
            mode="safe",
            options=OptimizeOptions(multistride="auto"),
            policy=FallbackPolicy.lenient(),
        )
    )
    assert result.rung == "proposed"
    assert schedule_to_dict(result.schedule) == schedule_to_dict(
        expected.schedule
    )
    assert result.multistride is not None
    assert result.multistride.describe() == expected.multistride.describe()
