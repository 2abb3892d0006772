"""Tests for the fault-injection framework itself (repro.robust.faults)."""

import importlib
import math

import pytest

# ``repro.core``'s __init__ rebinds ``classify``/``emu`` to the functions,
# so attribute-style module imports would resolve to those instead.
classify_mod = importlib.import_module("repro.core.classify")
costs_mod = importlib.import_module("repro.core.costs")
emu_mod = importlib.import_module("repro.core.emu")
from repro.robust.faults import (
    FaultInjector,
    FaultPlan,
    FaultSpec,
    corrupt_worker,
    crash_job,
    exhaust_deadline,
    hang_worker,
    inject,
    kill_worker,
    poison,
    raise_on,
    slow_job,
)
from repro.util import (
    ClassificationError,
    Deadline,
    DeadlineExceeded,
    ReproError,
    active_deadline,
)
from tests.helpers import make_matmul


class TestFaultSpec:
    def test_rejects_unknown_site(self):
        with pytest.raises(ValueError, match="unknown fault site"):
            FaultSpec(site="nonsense")

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultSpec(site="classify", kind="explode")

    def test_rejects_zero_on_call(self):
        with pytest.raises(ValueError, match="1-based"):
            FaultSpec(site="classify", n=0)

    def test_fires_window(self):
        spec = FaultSpec(site="classify", n=2, count=2)
        assert [spec.fires(n) for n in (1, 2, 3, 4)] == [
            False, True, True, False,
        ]

    def test_fires_forever_without_count(self):
        spec = FaultSpec(site="classify", n=3)
        assert not spec.fires(2)
        assert spec.fires(3) and spec.fires(100)


    @pytest.mark.parametrize(
        "kind, site",
        [(kind, "classify") for kind in ("raise", "deadline", "poison")]
        + [(kind, None) for kind in ("kill", "hang", "corrupt", "slow")]
        + [("crash", None)],
    )
    def test_rejects_negative_seconds_for_every_kind(self, kind, site):
        with pytest.raises(ValueError, match="seconds"):
            FaultSpec(kind, site=site, seconds=-1)

    def test_process_kinds_fill_in_their_site(self):
        assert kill_worker().site == "spawn"
        assert crash_job().site == "job"
        with pytest.raises(ValueError, match="unknown fault site"):
            FaultSpec("slow", site="spawn")


PROCESS_FAULTS = [
    kill_worker(),
    hang_worker(seconds=2.5),
    corrupt_worker(),
    slow_job(seconds=0.25),
    crash_job(),
]


class TestEnvGrammar:
    @pytest.mark.parametrize(
        "spec", PROCESS_FAULTS, ids=[s.kind for s in PROCESS_FAULTS]
    )
    def test_parse_rebuilds_env(self, spec):
        parsed = FaultSpec.parse(spec.env())
        assert (parsed.kind, parsed.seconds) == (spec.kind, spec.seconds)
        assert parsed.site == spec.site

    @pytest.mark.parametrize(
        "text", ["slow:0.5:2:", "slow:abc", "crash:1:0", "explode", ""]
    )
    def test_malformed_spellings_raise(self, text):
        with pytest.raises(ValueError):
            FaultSpec.parse(text)

    def test_existing_spellings(self):
        assert FaultSpec.parse("hang:2.5") == hang_worker(seconds=2.5)
        assert FaultSpec.parse("slow:0.5:2") == slow_job(n=2, seconds=0.5)
        assert FaultSpec.parse("crash") == crash_job()
        assert FaultSpec.parse("hang").seconds == 3600.0

    def test_from_env_names_the_variable(self, monkeypatch):
        monkeypatch.setenv("REPRO_SERVE_FAULT", "slow:what")
        with pytest.raises(ValueError, match="REPRO_SERVE_FAULT='slow:what'"):
            FaultSpec.from_env("REPRO_SERVE_FAULT")

    def test_from_env_rejects_the_other_family(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKER_FAULT", "crash")
        with pytest.raises(ValueError, match="REPRO_WORKER_FAULT"):
            FaultSpec.from_env("REPRO_WORKER_FAULT")
        monkeypatch.delenv("REPRO_WORKER_FAULT")
        assert FaultSpec.from_env("REPRO_WORKER_FAULT") is None


class TestFaultPlan:
    def test_counts_each_site_separately(self):
        plan = FaultPlan(kill_worker(2), crash_job(1))
        assert plan.next("job").kind == "crash"
        assert plan.next("spawn") is None
        assert plan.next("spawn").kind == "kill"
        assert (plan.calls("spawn"), plan.calls("job")) == (2, 1)

    def test_injector_rejects_process_faults(self):
        with pytest.raises(ValueError, match="process fault"):
            FaultInjector(kill_worker())


class TestInjection:
    def test_raise_on_first_call(self):
        func, *_ = make_matmul()
        with inject(raise_on("classify")):
            with pytest.raises(ClassificationError, match="injected fault"):
                classify_mod.classify(func)

    def test_raise_on_nth_call_only(self):
        func, *_ = make_matmul()
        with inject(raise_on("classify", n=2, count=1)) as inj:
            classify_mod.classify(func)          # 1st: passes through
            with pytest.raises(ClassificationError):
                classify_mod.classify(func)      # 2nd: fires
            classify_mod.classify(func)          # 3rd: passes again
        assert inj.calls("classify") == 3

    def test_custom_exception_instance(self):
        func, *_ = make_matmul()
        boom = ReproError("custom boom")
        with inject(raise_on("classify", exc=boom)):
            with pytest.raises(ReproError, match="custom boom"):
                classify_mod.classify(func)

    def test_poison_returns_nan(self):
        with inject(poison("cost")):
            value = costs_mod.total_cost(
                None, [], {}, {}, [], [], 4
            )
        assert math.isnan(value)

    def test_poison_returns_inf(self):
        with inject(poison("cost", value=float("inf"))):
            assert costs_mod.total_cost(None, [], {}, {}, [], [], 4) == float(
                "inf"
            )

    def test_emu_raise(self, arch):
        with inject(raise_on("emu")):
            with pytest.raises(ReproError, match="cache emulation"):
                emu_mod.emu_l1(
                    arch,
                    row_width_elems=16,
                    row_stride_elems=2048,
                    max_rows=2048,
                    dts=4,
                )

    def test_deadline_fault_expires_active_deadline(self):
        func, *_ = make_matmul()
        deadline = Deadline(60.0, label="test")
        with inject(exhaust_deadline("classify")):
            with active_deadline(deadline):
                # The fault expires the budget; classify's own cooperative
                # checkpoint then fires, exactly like a too-slow search.
                with pytest.raises(DeadlineExceeded, match="'test'"):
                    classify_mod.classify(func)
                assert deadline.expired()

    def test_deadline_fault_without_deadline_raises_directly(self):
        func, *_ = make_matmul()
        with inject(exhaust_deadline("classify")):
            with pytest.raises(DeadlineExceeded, match="no deadline"):
                classify_mod.classify(func)


class TestInstallation:
    def test_restores_originals_on_exit(self):
        before = classify_mod.classify
        with inject(raise_on("classify")):
            assert classify_mod.classify is not before
        assert classify_mod.classify is before

    def test_restores_on_body_exception(self):
        before = costs_mod.total_cost
        with pytest.raises(RuntimeError):
            with inject(poison("cost")):
                raise RuntimeError("body error")
        assert costs_mod.total_cost is before

    def test_not_reentrant(self):
        injector = FaultInjector(raise_on("classify"))
        with injector:
            with pytest.raises(RuntimeError, match="not re-entrant"):
                injector.__enter__()

    def test_reusable_after_exit_with_fresh_counters(self):
        func, *_ = make_matmul()
        injector = FaultInjector(raise_on("classify", n=1, count=1))
        for _ in range(2):
            with injector:
                with pytest.raises(ClassificationError):
                    classify_mod.classify(func)
            assert injector.calls("classify") == 1

    def test_decorator_form(self):
        func, *_ = make_matmul()

        @inject(raise_on("classify"))
        def run():
            classify_mod.classify(func)

        with pytest.raises(ClassificationError):
            run()
        # And the patch does not leak out of the call.
        classify_mod.classify(make_matmul()[0])

    def test_needs_at_least_one_spec(self):
        with pytest.raises(ValueError, match="at least one"):
            FaultInjector()
