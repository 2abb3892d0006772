"""Tests of the benchmark itself (not of the program it measures).

Run from the root of a checkout::

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import copy
import json
import os
import re
import sys

import pytest

BENCH_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)
sys.path.insert(0, os.path.join(ROOT, "src"))

import plan as plans  # noqa: E402
from ops import Program, check_op, run_op, schedule_digest  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _load(name):
    with open(os.path.join(ROOT, name), encoding="utf-8") as handle:
        return json.load(handle)


@pytest.fixture(scope="module")
def corpus():
    from repro.frontend.corpus import corpus_kernel

    return corpus_kernel


@pytest.fixture(scope="module")
def expected():
    return _load("perfbench/expected.json")["ops"]


@pytest.mark.parametrize("workload", plans.PLANS)
def test_same_seed_same_plan(corpus, workload):
    first = plans.build_plan(corpus, workload, 7, 10)
    again = plans.build_plan(corpus, workload, 7, 10)
    other = plans.build_plan(corpus, workload, 8, 10)
    assert first == again
    assert first != other


def test_every_planned_input_has_an_expected_output(corpus, expected):
    for workload in plans.PLANS:
        for seed in range(12):
            for kernel in plans.build_plan(corpus, workload, seed, 10).kernels():
                assert f"{workload}/{kernel.key}" in expected


def test_serve_stream_offers_the_same_mix_for_every_seed(corpus):
    for seed in range(5):
        plan = plans.build_plan(corpus, "serve", seed, 10)
        cold = [r.kernel.key for r in plan.requests if not r.hot]
        hot = {r.kernel.key for r in plan.requests if r.hot}
        assert len(cold) == len(set(cold)) == (
            len(plans.SERVE_COLD_KERNELS) * len(plans.SERVE_OVERLAYS)
        )
        assert len(hot) == 1
        assert len(plan.requests) == round(
            len(cold) / (1 - plans.SERVE_HOT_FRACTION)
        )
        dues = [r.due_s for r in plan.requests]
        assert dues == sorted(dues) and 0.0 <= dues[0] and dues[-1] <= 10


def test_expected_check_catches_a_perturbed_schedule(corpus, expected):
    program = Program()
    kernel = plans.all_kernels(corpus, "serve")[-1]  # a smoke-size matmul
    entry = expected[f"serve/{kernel.key}"]
    record = run_op(program, "search", kernel)
    assert check_op(record, entry) == []

    # Change one directive of the real schedule: the digest must differ.
    lowered = program.lower(kernel)
    stage = lowered.funcs[0]
    payload = program.schedule_to_dict(
        program.optimize(stage, program.arch).schedule
    )
    perturbed = copy.deepcopy(payload)
    perturbed["directives"] = perturbed["directives"][:-1]
    bad = copy.deepcopy(record)
    bad.schedules[stage.name] = schedule_digest(perturbed)
    assert check_op(bad, entry)


def test_expected_check_catches_perturbed_counters(expected):
    from ops import OpRecord

    key, entry = next(
        (k, v) for k, v in expected.items() if k.startswith("price/")
    )
    record = OpRecord(key=key, schedules=dict(entry["schedules"]),
                      sim_ms=entry["sim_ms"],
                      nests=copy.deepcopy(entry["nests"]))
    assert check_op(record, entry) == []
    record.nests[0][0] += 1
    assert check_op(record, entry)
    record.nests = copy.deepcopy(entry["nests"])
    record.sim_ms = entry["sim_ms"] * (1 + 1e-12)
    assert check_op(record, entry)


def test_serve_reply_check_catches_a_perturbed_schedule(corpus, expected):
    import run
    from serveload import Reply

    program = Program()
    kernel = plans.all_kernels(corpus, "serve")[-1]
    lowered = program.lower(kernel)
    schedules = [
        {"stage": stage.name, "schedule": program.schedule_to_dict(
            program.optimize(stage, program.arch).schedule)}
        for stage in lowered.pipeline
    ]
    request = plans.Request(due_s=0.0, kernel=kernel, hot=True)
    good = Reply(request=request, body={"schedules": schedules})
    assert run.reply_problem(good, expected) is None
    schedules = copy.deepcopy(schedules)
    schedules[0]["schedule"]["directives"] = []
    bad = Reply(request=request, body={"schedules": schedules})
    assert run.reply_problem(bad, expected) is not None


def test_metric_names_and_limits():
    import run

    bench = _load("BENCHMARK.json")
    layers = _load("perfbench/layers.json")["per_layer"]
    assert set(bench) == {"command", "paths", "run_seconds", "workloads",
                          "end_to_end", "per_layer"}
    e2e, per_layer = bench["end_to_end"], bench["per_layer"]
    assert 1 <= len(e2e) <= 16 and 1 <= len(per_layer) <= 128
    assert 2 <= len(bench["workloads"]) <= 8
    names = [m["name"] for m in e2e + per_layer]
    names += [w["name"] for w in bench["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.match(name), name
    for metric in e2e + per_layer:
        assert UNIT.match(metric["unit"]), metric
        assert metric["better"] in ("lower", "higher")
    for metric in e2e:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    setup = next(m for m in e2e if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in e2e)
    for workload in bench["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    assert [w["name"] for w in bench["workloads"]] == list(plans.WORKLOADS)

    # The program prints exactly these metrics with these units.
    assert {m["name"]: m["unit"] for m in e2e} == run.E2E_UNITS
    assert [m["name"] for m in per_layer] == list(layers)
    for metric in per_layer:
        spec = layers[metric["name"]]
        assert (metric["unit"], metric["better"]) == (
            spec["unit"], spec["better"]
        )
        for moved, workload in spec["moves"]:
            assert moved in run.E2E_UNITS and workload in plans.WORKLOADS
