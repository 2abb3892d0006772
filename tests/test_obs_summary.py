"""Tests for the trace summary renderer (repro.obs.summary)."""

from repro.arch import intel_i7_5930k
from repro.core import optimize
from repro.obs import CollectingTracer, render_summary, summarize

from tests.helpers import make_matmul


def _synthetic_events():
    """A hand-built trace exercising every summary section."""
    with CollectingTracer() as tracer:
        tracer.event("classify", func="C", locality="medium", use_nti=True)
        with tracer.span("optimize", func="C"):
            tracer.count("temporal.candidates", 10)
            tracer.event(
                "candidate.pruned", phase="temporal", reason="capacity",
                count=1,
            )
            # two searches' reports of one reason add up
            tracer.event(
                "candidate.pruned", phase="temporal", reason="parallelism",
                count=1,
            )
            tracer.event(
                "candidate.pruned", phase="temporal", reason="parallelism",
                count=1,
            )
            tracer.event("search.bound", var="k", bound=16)
        tracer.event(
            "sim.nest", nest="C", l1_hits=90, l2_hits=5, l3_hits=3,
            mem_lines=2, coverage=0.5,
        )
        tracer.event("rung", rung="proposed", ok=False, error_type="Boom")
        tracer.event("rung", rung="baseline", ok=True)
        tracer.event("sweep.cell.ok", cell="a")
        tracer.event("sweep.cell.resumed", cell="b")
        tracer.event("sweep.cell.retry", cell="c", attempt=1)
        tracer.event("sweep.cell.quarantined", cell="c", attempts=3)
    return tracer.events


class TestSummarize:
    def test_aggregates_every_section(self):
        summary = summarize(_synthetic_events())
        assert summary["pruned"] == {
            "temporal": {"capacity": 1, "parallelism": 2}
        }
        assert summary["counters"]["temporal.candidates"] == 10
        assert summary["spans"]["optimize"]["count"] == 1
        assert len(summary["bounds"]) == 1
        assert len(summary["nests"]) == 1
        assert len(summary["classifications"]) == 1
        assert len(summary["rungs"]) == 2
        assert summary["cells"] == {
            "ok": 1, "resumed": 1, "quarantined": 1, "retries": 1,
        }

    def test_counter_totals_fall_back_to_span_deltas(self):
        # a crash-truncated trace has no terminal totals record
        tracer = CollectingTracer()
        with tracer.span("s"):
            tracer.count("c", 4)
        summary = summarize(tracer.events)  # close() never called
        assert summary["counters"] == {"c": 4}

    def test_ignores_non_dict_records(self):
        assert summarize(["garbage", 3, None])["events"] == 0


class TestRenderSummary:
    def test_sections_and_content(self):
        text = render_summary(_synthetic_events())
        assert text.startswith("trace:")
        assert "C: medium (+NTI)" in text
        assert "temporal: 10 candidates considered" in text
        assert "capacity 1" in text and "parallelism 2" in text
        assert "emu bounds applied: 1" in text
        assert "fallback rungs: 2 attempted, 1 failed" in text
        assert "proposed: Boom" in text
        assert "L1 90.0%" in text and "coverage 50%" in text
        assert "1 measured, 1 resumed, 1 quarantined (1 retries)" in text

    def test_empty_trace(self):
        assert render_summary([]) == "trace: 0 records"

    def test_real_optimize_trace_renders(self, arch):
        func, _, _ = make_matmul(32)
        with CollectingTracer() as tracer:
            optimize(func, intel_i7_5930k(), tracer=tracer)
        text = render_summary(tracer.events)
        assert "temporal:" in text and "candidates considered" in text
        assert "spans:" in text and "optimize" in text
