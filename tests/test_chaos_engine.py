"""The chaos harness's deterministic core: plans, invariants, reports.

Everything here runs without booting a fleet — the point is that the
*decisions* (request mix, fault targets, invariant verdicts, report
bytes) are pure functions of ``(scenario, seed)`` plus the run's
outcomes, so they can be tested exhaustively and fast.  The end-to-end
scenario runs live in ``test_chaos_scenarios.py``.
"""

import json

import pytest

from repro.chaos import (
    CHAOS_REPORT_FORMAT,
    ChaosAction,
    ChaosScenario,
    SCENARIOS,
    build_plan,
    build_report,
    evaluate_invariants,
    get_scenario,
    scenario_names,
)
from repro.chaos.plan import ACTION_KILL, _resolve_shard
from repro.robust import FaultSpec, kill_worker, slow_job
from repro.__main__ import main


def _scenario(**overrides):
    base = dict(
        name="test",
        description="a test scenario",
        workers=2,
        requests=4,
        distinct_identities=2,
        client_retries=2,
        use_cache=False,
    )
    base.update(overrides)
    return ChaosScenario(**base)


def _outcomes(plan, overrides=None):
    """All-ok outcomes matching a reference; overrides patch by index."""
    outcomes = [
        {
            "index": r.index,
            "identity": r.identity,
            "status": "ok",
            "schedules": f"<{r.identity}>",
            "served_by": "search",
        }
        for r in plan.requests
    ]
    for index, patch in (overrides or {}).items():
        outcomes[index].update(patch)
    return outcomes


def _reference(plan):
    return {r.identity: f"<{r.identity}>" for r in plan.identities}


def _counters(plan, **overrides):
    n = len(plan.requests)
    counters = {"requests_total": n, "responses_ok": n, "responses_error": 0}
    counters.update(overrides)
    return counters


class TestPlanDeterminism:
    def test_same_seed_same_plan(self):
        for name in scenario_names():
            a = build_plan(get_scenario(name), 7)
            b = build_plan(get_scenario(name), 7)
            assert a == b, name

    def test_distinct_seeds_vary_the_mix(self):
        a = build_plan(get_scenario("kill-during-roll"), 1)
        b = build_plan(get_scenario("kill-during-roll"), 2)
        assert [r.identity for r in a.requests] != [
            r.identity for r in b.requests
        ]

    def test_request_count_override(self):
        plan = build_plan(get_scenario("slow-shard"), 0, requests=3)
        assert len(plan.requests) == 3
        with pytest.raises(ValueError, match="requests"):
            build_plan(get_scenario("slow-shard"), 0, requests=0)

    def test_actions_resolve_to_concrete_shards(self):
        plan = build_plan(get_scenario("kill-mid-request"), 7)
        (kill,) = plan.actions
        assert isinstance(kill.shard, int)
        assert 0 <= kill.shard < plan.scenario.workers
        # The worker fault is armed on the SAME shard the kill targets —
        # both resolved from the home of identity 0.
        assert set(plan.worker_env) == {kill.shard}

    def test_worker_faults_are_specs_armed_on_their_shard(self):
        armed = [s for s in SCENARIOS.values() if s.worker_fault is not None]
        assert armed
        for scenario in armed:
            shard_spec, fault = scenario.worker_fault
            assert isinstance(fault, FaultSpec)
            plan = build_plan(scenario, 7)
            shard = _resolve_shard(
                shard_spec, plan.identities, scenario.workers, None
            )
            assert plan.worker_env == {
                shard: {"REPRO_SERVE_FAULT": fault.env()}
            }

    @pytest.mark.parametrize(
        "fault", [slow_job(n=2), slow_job(count=None), kill_worker()]
    )
    def test_unarmable_worker_fault_fails_at_build_plan(self, fault):
        scenario = _scenario(worker_fault=("home:0", fault))
        with pytest.raises(ValueError, match="worker fault"):
            build_plan(scenario, 0)

    def test_home_spec_matches_the_ring(self):
        scenario = _scenario(
            actions=(ChaosAction(kind=ACTION_KILL, shard="home:0"),)
        )
        plan = build_plan(scenario, 3)
        from repro.fleet import HashRing
        from repro.serve.identify import identify_request
        from repro.serve.schema import build_request, parse_request

        first = plan.identities[0]
        request = parse_request(
            build_request(first.benchmark, first.platform, fast=True)
        )
        _case, _arch, key = identify_request(request)
        assert plan.actions[0].shard == HashRing([0, 1]).route(key)

    def test_unknown_scenario_is_loud(self):
        with pytest.raises(ValueError, match="unknown chaos scenario"):
            get_scenario("nope")

    def test_unknown_action_kind_is_loud(self):
        with pytest.raises(ValueError, match="unknown chaos action"):
            ChaosAction(kind="meteor-strike")

    def test_bad_shard_specs_are_loud(self):
        plan = build_plan(_scenario(), 0)
        with pytest.raises(ValueError, match="out of range"):
            _resolve_shard(9, plan.identities, 2, None)
        with pytest.raises(ValueError, match="unresolvable"):
            _resolve_shard(object(), plan.identities, 2, None)

    def test_catalog_covers_the_documented_faults(self):
        kinds = {
            action.kind
            for scenario in SCENARIOS.values()
            for action in scenario.actions
        }
        assert kinds == {
            "kill_worker",
            "suspend_worker",
            "rolling_restart",
            "corrupt_cache",
        }


class TestInvariants:
    def test_all_green_run(self):
        plan = build_plan(_scenario(), 0)
        invariants = evaluate_invariants(
            plan,
            _outcomes(plan),
            reference=_reference(plan),
            counters=_counters(plan),
        )
        assert all(inv.ok for inv in invariants)
        names = [inv.name for inv in invariants]
        assert names == [
            "no_lost_requests",
            "bit_identical_results",
            "retry_budget_bounded",
            "metrics_conserved",
            "shed_requests_well_formed",
        ]

    def _failed(self, plan, outcomes, counters):
        invariants = evaluate_invariants(
            plan, outcomes, reference=_reference(plan), counters=counters
        )
        return {inv.name for inv in invariants if not inv.ok}

    def test_missing_outcome_is_a_lost_request(self):
        plan = build_plan(_scenario(), 0)
        outcomes = _outcomes(plan)[:-1]
        failed = self._failed(plan, outcomes, _counters(plan))
        assert "no_lost_requests" in failed

    def test_divergent_result_fails_bit_identity(self):
        plan = build_plan(_scenario(), 0)
        outcomes = _outcomes(plan, {0: {"schedules": "<tampered>"}})
        failed = self._failed(plan, outcomes, _counters(plan))
        assert failed == {"bit_identical_results"}

    def test_retry_storm_is_flagged(self):
        plan = build_plan(_scenario(client_retries=1), 0)
        counters = _counters(plan, requests_total=100, responses_ok=100)
        failed = self._failed(plan, _outcomes(plan), counters)
        assert "retry_budget_bounded" in failed

    def test_unaccounted_response_breaks_conservation(self):
        plan = build_plan(_scenario(), 0)
        counters = _counters(plan, responses_ok=len(plan.requests) - 1)
        failed = self._failed(plan, _outcomes(plan), counters)
        assert "metrics_conserved" in failed

    def test_silent_shed_is_flagged(self):
        plan = build_plan(_scenario(require_all_ok=False), 0)
        outcomes = _outcomes(
            plan,
            {0: {"status": "shed", "retry_after_s": 0.0, "reason": ""}},
        )
        counters = _counters(
            plan,
            responses_ok=len(plan.requests) - 1,
            responses_error=1,
        )
        failed = self._failed(plan, outcomes, counters)
        assert "shed_requests_well_formed" in failed

    def test_failed_request_breaks_even_lenient_scenarios(self):
        plan = build_plan(_scenario(require_all_ok=False), 0)
        outcomes = _outcomes(plan, {0: {"status": "failed",
                                        "error": "boom"}})
        counters = _counters(
            plan, responses_ok=len(plan.requests) - 1, responses_error=1
        )
        failed = self._failed(plan, outcomes, counters)
        assert "no_lost_requests" in failed

    def test_cache_consistency_reads_the_status_document(self):
        plan = build_plan(_scenario(use_cache=True), 0)
        bad_status = {
            "cache": {"consistent": False, "mismatched_keys": ["k"]}
        }
        invariants = evaluate_invariants(
            plan,
            _outcomes(plan),
            reference=_reference(plan),
            counters=_counters(plan),
            status=bad_status,
        )
        by_name = {inv.name: inv for inv in invariants}
        assert not by_name["cache_consistent"].ok


class TestReport:
    def test_report_is_deterministic_bytes(self):
        plan = build_plan(_scenario(), 5)
        make = lambda: build_report(
            plan,
            evaluate_invariants(
                plan,
                _outcomes(plan),
                reference=_reference(plan),
                counters=_counters(plan),
            ),
        )
        assert json.dumps(make(), sort_keys=True) == json.dumps(
            make(), sort_keys=True
        )

    def test_report_shape(self):
        plan = build_plan(_scenario(), 5)
        report = build_report(
            plan,
            evaluate_invariants(
                plan,
                _outcomes(plan),
                reference=_reference(plan),
                counters=_counters(plan),
            ),
        )
        assert report["format"] == CHAOS_REPORT_FORMAT
        assert report["scenario"] == "test"
        assert report["seed"] == 5
        assert report["ok"] is True
        assert {"name", "ok", "detail"} == set(report["invariants"][0])


class TestChaosCli:
    def test_list_names_every_scenario(self, capsys):
        assert main(["chaos", "list"]) == 0
        out = capsys.readouterr().out
        for name in scenario_names():
            assert name in out

    def test_run_requires_a_scenario(self, capsys):
        assert main(["chaos", "run"]) == 2
        assert "--scenario" in capsys.readouterr().err

    def test_unknown_scenario_is_a_usage_error(self, capsys):
        assert main(["chaos", "run", "--scenario", "nope"]) == 2
        assert "unknown chaos scenario" in capsys.readouterr().err
