"""The ``repro-serve-v1.1`` wire schema: specs on the wire.

Three promises under test:

1. **v1 is bit-identical.**  Every pre-v1.1 request body and every
   response to one is byte-for-byte what it was — pinned against golden
   dicts, not regenerated expectations.
2. **Spec and ir submissions are the same request.**  A v1.1 spec body
   lowers to the same fingerprints as the equivalent benchmark body, so
   they coalesce, share cache entries, and return bit-identical
   schedules.
3. **Malformed specs are a 400 with ``reason="invalid_spec"``** — at
   the worker and at the fleet router, never a 500.
"""

import json
import threading
import time

import pytest

from repro.robust import slow_job
from repro.serve import ServeClient, ServerThread
from repro.serve.identify import identify_request
from repro.serve.schema import (
    REASON_INVALID_SPEC,
    SCHEMA_VERSION_V11,
    SERVE_FORMAT,
    SERVE_FORMAT_V11,
    SERVE_FORMATS,
    build_request,
    parse_request,
    render_for,
    result_payload,
)
from repro.util import ServeError, ValidationError

MATMUL_SPEC = "C[i,j] += A[i,k] * B[k,j]"
MATMUL_DIMS = {"i": 256, "j": 256, "k": 256}  # == fast-size matmul


def serialized(result):
    return json.dumps(result["schedules"], sort_keys=True)


def make_server(tmp_path, **kwargs):
    kwargs.setdefault("cache_path", str(tmp_path / "cache.jsonl"))
    kwargs.setdefault("queue_limit", 8)
    return ServerThread(**kwargs)


#: The exact v1 body a pre-v1.1 client sends — golden, not regenerated.
GOLDEN_V1_BODY = {
    "format": "repro-serve-v1",
    "benchmark": "matmul",
    "platform": "i7-5930k",
    "fast": True,
    "options": {
        "use_nti": True,
        "parallelize": True,
        "vectorize": True,
        "exhaustive": False,
        "use_emu": True,
        "order_step": True,
    },
    "jobs": 1,
}


class TestSchemaVersioning:
    def test_format_constants(self):
        assert SERVE_FORMAT == "repro-serve-v1"
        assert SERVE_FORMAT_V11 == "repro-serve-v1.1"
        assert SERVE_FORMATS == (SERVE_FORMAT, SERVE_FORMAT_V11)
        assert SCHEMA_VERSION_V11 == "1.1"

    def test_v1_body_is_bit_identical(self):
        body = build_request("matmul", "i7-5930k", fast=True)
        assert json.dumps(body, sort_keys=True) == json.dumps(
            GOLDEN_V1_BODY, sort_keys=True
        )

    def test_v11_body_is_bit_identical(self):
        # Byte order included: the body the 1.x client sent.
        body = build_request(
            spec=MATMUL_SPEC, dims=MATMUL_DIMS, platform="i7-5930k", fast=True
        )
        assert json.dumps(body) == (
            '{"format": "repro-serve-v1.1", "spec": "C[i,j] += A[i,k] * '
            'B[k,j]", "dims": {"i": 256, "j": 256, "k": 256}, "platform": '
            '"i7-5930k", "fast": true, "options": {"use_nti": true, '
            '"parallelize": true, "vectorize": true, "exhaustive": false, '
            '"use_emu": true, "order_step": true}, "jobs": 1}'
        )

    def test_v11_body_shape(self):
        body = build_request(
            spec=MATMUL_SPEC, dims=MATMUL_DIMS, platform="i7-5930k"
        )
        assert body["format"] == SERVE_FORMAT_V11
        assert body["spec"] == MATMUL_SPEC
        assert body["dims"] == MATMUL_DIMS
        assert "benchmark" not in body

    def test_build_request_exactly_one_target(self):
        with pytest.raises(ServeError, match="exactly one"):
            build_request()
        with pytest.raises(ServeError, match="exactly one"):
            build_request("matmul", spec=MATMUL_SPEC, dims=MATMUL_DIMS)
        with pytest.raises(ServeError, match="only meaningful"):
            build_request("matmul", dims=MATMUL_DIMS)
        with pytest.raises(ServeError, match="needs dims"):
            build_request(spec=MATMUL_SPEC)

    def test_parse_round_trips_both_formats(self):
        v1 = parse_request(GOLDEN_V1_BODY)
        assert v1.benchmark == "matmul" and v1.spec is None
        assert v1.label == "matmul"
        body = build_request(
            spec=MATMUL_SPEC,
            dims=MATMUL_DIMS,
            platform="i7-5930k",
            params=None,
        )
        v11 = parse_request(body)
        assert v11.spec == MATMUL_SPEC and v11.benchmark is None
        assert v11.dims == MATMUL_DIMS
        assert v11.label == "spec:C"
        assert parse_request(v11.to_dict()).to_dict() == v11.to_dict()

    def test_parse_rejects_v11_shape_mistakes(self):
        base = build_request(
            spec=MATMUL_SPEC, dims=MATMUL_DIMS, platform="i7-5930k"
        )
        both = dict(base, benchmark="matmul")
        with pytest.raises(ServeError, match="exactly one"):
            parse_request(both)
        neither = {k: v for k, v in base.items() if k not in ("spec", "dims")}
        with pytest.raises(ServeError, match="exactly one"):
            parse_request(neither)
        with pytest.raises(ServeError, match="dims"):
            parse_request(dict(base, dims={"i": "many"}))
        with pytest.raises(ServeError, match="dims"):
            parse_request(dict(base, dims={"i": 0}))
        with pytest.raises(ServeError, match="spec"):
            parse_request(dict(base, spec=42))
        v1_with_spec = dict(GOLDEN_V1_BODY, spec=MATMUL_SPEC)
        with pytest.raises(ServeError, match="unknown"):
            parse_request(v1_with_spec)

    def test_unknown_format_message_is_unchanged(self):
        with pytest.raises(
            ServeError, match=r"this server speaks 'repro-serve-v1'"
        ):
            parse_request(dict(GOLDEN_V1_BODY, format="repro-serve-v9"))

    def test_render_for_is_identity_on_v1(self):
        request = parse_request(GOLDEN_V1_BODY)
        payload = {"kind": "result", "benchmark": "matmul"}
        assert render_for(request, payload) == payload
        assert render_for(None, payload) == payload

    def test_render_for_stamps_v11(self):
        request = parse_request(
            build_request(
                spec=MATMUL_SPEC, dims=MATMUL_DIMS, platform="i7-5930k"
            )
        )
        payload = render_for(request, {"kind": "result"})
        assert payload["format"] == SERVE_FORMAT_V11
        assert payload["schema_version"] == SCHEMA_VERSION_V11
        assert payload["spec"] == MATMUL_SPEC
        assert payload["dims"] == MATMUL_DIMS


class TestIdentity:
    def test_spec_and_ir_share_the_coalesce_key(self):
        r_spec = parse_request(
            build_request(
                spec=MATMUL_SPEC,
                dims=MATMUL_DIMS,
                platform="i7-5930k",
                fast=True,
            )
        )
        r_ir = parse_request(GOLDEN_V1_BODY)
        _, _, key_spec = identify_request(r_spec)
        _, _, key_ir = identify_request(r_ir)
        assert key_spec == key_ir

    @pytest.mark.parametrize("jobs", [4, "auto", 0])
    def test_jobs_is_a_no_op(self, jobs):
        v11 = build_request(
            spec=MATMUL_SPEC, dims=MATMUL_DIMS, platform="i7-5930k", fast=True
        )
        for body in (GOLDEN_V1_BODY, v11):
            plain = parse_request(body)
            other = parse_request(dict(body, jobs=jobs))
            assert other == plain
            assert identify_request(other)[2] == identify_request(plain)[2]

    def test_bad_spec_raises_validation_error(self):
        request = parse_request(
            build_request(
                spec="C[i,j] += A[i*i,j]",
                dims={"i": 8, "j": 8},
                platform="i7-5930k",
            )
        )
        with pytest.raises(ValidationError, match="affine"):
            identify_request(request)

    def test_result_payload_uses_the_label(self):
        request = parse_request(
            build_request(
                spec=MATMUL_SPEC, dims=MATMUL_DIMS, platform="i7-5930k"
            )
        )
        payload = result_payload(
            request, "k", [], served_by="search", elapsed_ms=1.0
        )
        assert payload["benchmark"] == "spec:C"


class TestLiveServer:
    def test_spec_submission_round_trip(self, tmp_path):
        with make_server(tmp_path) as srv:
            client = ServeClient(port=srv.port)
            assert client.wait_ready(10.0)
            result = client.optimize(
                spec=MATMUL_SPEC,
                dims=MATMUL_DIMS,
                platform="i7-5930k",
                fast=True,
            )
        assert result["schema_version"] == SCHEMA_VERSION_V11
        assert result["format"] == SERVE_FORMAT_V11
        assert result["spec"] == MATMUL_SPEC
        assert result["dims"] == MATMUL_DIMS
        assert result["benchmark"] == "spec:C"
        assert result["served_by"] == "search"

    def test_spec_hits_the_ir_warmed_cache_bit_identically(self, tmp_path):
        with make_server(tmp_path) as srv:
            client = ServeClient(port=srv.port)
            by_ir = client.optimize("matmul", "i7-5930k", fast=True)
            by_spec = client.optimize(
                spec=MATMUL_SPEC,
                dims=MATMUL_DIMS,
                platform="i7-5930k",
                fast=True,
            )
        assert by_ir["served_by"] == "search"
        assert by_spec["served_by"] == "cache"
        assert by_spec["key"] == by_ir["key"]
        assert serialized(by_spec) == serialized(by_ir)
        # ...and the v1 response carries no v1.1 fields
        assert "schema_version" not in by_ir
        assert "spec" not in by_ir

    def test_jobs_bodies_share_schedule_and_cache_key(self, tmp_path):
        with make_server(tmp_path) as srv:
            client = ServeClient(port=srv.port)
            results = []
            for jobs in (1, 4, "auto"):
                status, body = client.post(
                    "/v1/optimize", dict(GOLDEN_V1_BODY, jobs=jobs)
                )
                assert status == 200
                results.append(body)
        assert [r["served_by"] for r in results] == [
            "search", "cache", "cache"
        ]
        assert len({r["key"] for r in results}) == 1
        assert len({serialized(r) for r in results}) == 1

    def test_spec_and_ir_coalesce_in_flight(self, tmp_path):
        # The ir submission is slowed so the spec submission provably
        # arrives while it is in flight; identical fingerprints must
        # share one search across the two wire formats.
        with make_server(
            tmp_path, fault_plan=slow_job(1, seconds=0.8)
        ) as srv:
            client = ServeClient(port=srv.port)
            assert client.wait_ready(10.0)
            results = {}

            def by_ir():
                results["ir"] = ServeClient(port=srv.port).optimize(
                    "matmul", "i7-5930k", fast=True
                )

            def by_spec():
                time.sleep(0.25)
                results["spec"] = ServeClient(port=srv.port).optimize(
                    spec=MATMUL_SPEC,
                    dims=MATMUL_DIMS,
                    platform="i7-5930k",
                    fast=True,
                )

            threads = [
                threading.Thread(target=by_ir),
                threading.Thread(target=by_spec),
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            counters = client.metrics()["counters"]
        assert counters["searches"] == 1
        assert counters["coalesced"] == 1
        assert results["ir"]["served_by"] == "search"
        assert results["spec"]["served_by"] == "coalesced"
        assert serialized(results["ir"]) == serialized(results["spec"])
        # Each rider still gets its own format: the coalesced spec
        # response is stamped v1.1, the ir response stays v1.
        assert results["spec"]["schema_version"] == SCHEMA_VERSION_V11
        assert "schema_version" not in results["ir"]

    def test_malformed_spec_is_a_400_invalid_spec(self, tmp_path):
        with make_server(tmp_path) as srv:
            client = ServeClient(port=srv.port, retries=0)
            client.wait_ready(10.0)
            with pytest.raises(ServeError, match="affine") as err:
                client.optimize(
                    spec="C[i,j] += A[i*i,j]",
                    dims={"i": 8, "j": 8},
                    platform="i7-5930k",
                )
            assert "HTTP 400" in str(err.value)
