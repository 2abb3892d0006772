"""Command-line interface.

Examples::

    python -m repro optimize matmul --platform i7-5930k
    python -m repro optimize tpm --platform i7-6700 --show-nest
    python -m repro optimize matmul --lenient --deadline-ms 200
    python -m repro compare gemm --platform arm-a15 --budget 30000
    python -m repro codegen matmul -o matmul_kernel.c
    python -m repro list

``optimize`` runs the paper's flow on a benchmark and prints the decision
trail; ``compare`` measures all techniques on the simulator (one Fig. 4
row); ``codegen`` emits the optimized schedule as a C translation unit;
``sweep`` regenerates every table and figure through the crash-safe,
resumable sweep runner (``python -m repro sweep --fast --jobs 4``; it is
``python -m repro.experiments``: the same flags and the same run, exit
code 5 when cells were quarantined).

Observability: ``--trace PATH`` on ``optimize`` / ``compare`` /
``codegen`` / ``sweep`` streams a schema-versioned JSONL event log
(``repro-trace-v2``, see :mod:`repro.obs`) of the whole run — candidate
pruned/considered telemetry, emu bounds, simulator counters, sweep cell
lifecycle.  ``python -m repro trace PATH`` renders the per-phase summary,
and ``trace PATH --validate`` schema-checks the log (exit 4 on any
violation).

Robustness posture (see ``docs/API.md``, *Failure modes*):

* default / ``--strict`` — any optimizer failure aborts with a clean
  one-line error and exit code 4 (no traceback);
* ``--lenient`` — failures degrade down the fallback chain of
  :func:`repro.robust.safe_optimize`; the run still succeeds, prints the
  diagnostics, and exits with code 3 so scripts can tell a degraded run
  from a clean one;
* ``--deadline-ms`` — per-stage optimizer budget in either mode.

Serving: ``python -m repro serve --port 8377 --schedule-cache cache.jsonl``
starts the long-running optimization service (:mod:`repro.serve` —
request coalescing, admission control, ``/metrics``), and
``python -m repro submit matmul --port 8377`` submits one request to it
and prints the result.

Fleet: ``python -m repro fleet --workers 4`` boots a consistent-hash
router in front of N serve worker processes (health-gated failover,
crash restarts, flap quarantine — :mod:`repro.fleet`); ``repro fleet
status`` and ``repro fleet restart`` talk to a running router
(``restart`` performs the zero-loss rolling drain/restart).  ``python -m
repro loadgen`` drives a seeded open-loop workload against a server or
fleet and writes/gates the ``BENCH_serve.json`` baseline.

Exit codes: 0 = ok, 1 = invalid input found after parsing (unknown
benchmark/platform, ``invalid options:``, ``cannot write``), 2 = argparse
usage error, 3 = completed but fell back to a degraded schedule (or a
degraded fleet in ``fleet status``), 4 = hard failure, 5 = service
unavailable or overloaded (``submit`` could not get a result; ``sweep``
quarantined cells), 6 = cannot bind the requested address/port
(``serve`` / ``fleet``: it is already in use).
"""

from __future__ import annotations

import argparse
import contextlib
import errno
import sys

from repro.arch import PLATFORMS, platform_by_name
from repro.experiments.__main__ import add_arguments as add_sweep_arguments
from repro.experiments.__main__ import run as run_sweep
from repro.frontend.__main__ import add_spec_args
from repro.obs import JsonlTracer, activate_tracer
from repro.core.exitcodes import (
    EXIT_BIND,
    EXIT_FALLBACK,
    EXIT_HARD,
    EXIT_OK,
    EXIT_UNAVAILABLE,
    EXIT_USAGE,
)
from repro.options import OptimizeOptions
from repro.util import (
    ReproError,
    canonical_json,
    jobs_arg,
    write_json,
)


def _report_bind_error(host: str, port: int, exc: OSError, *, what: str) -> int:
    """Friendly bind-failure report; exit 6 for ports that are taken."""
    print(
        f"error: cannot listen on {host}:{port}: {exc.strerror or exc}",
        file=sys.stderr,
    )
    if exc.errno == errno.EADDRINUSE:
        print(
            f"hint: port {port} is already in use — pick another --port, "
            f"or stop the other {what} first",
            file=sys.stderr,
        )
        return EXIT_BIND
    print(
        "hint: pick another --port or --host (is the address local?)",
        file=sys.stderr,
    )
    return EXIT_HARD


def _make_case(name: str, fast: bool):
    from repro.bench import make_benchmark, size_for

    try:
        return make_benchmark(name, **size_for(name, small=fast))
    except KeyError:
        raise SystemExit(
            f"unknown benchmark {name!r}; see `python -m repro list`"
        ) from None


def _resolve_case(args):
    """The target of a CLI run: a named benchmark XOR a ``--spec``."""
    if (args.benchmark is None) == (args.spec is None):
        raise SystemExit(
            "pass exactly one of a benchmark name or --spec "
            "(see `python -m repro list` for names)"
        )
    if args.spec is None:
        if args.dims or args.dtypes or args.params:
            raise SystemExit(
                "--dims/--dtypes/--param are only meaningful with --spec"
            )
        return _make_case(args.benchmark, args.fast)
    if args.dims is None:
        raise SystemExit(
            "--spec needs --dims (loop extents, e.g. "
            "--dims i=512,j=512,k=512)"
        )
    from repro.frontend.corpus import spec_case
    from repro.util import ValidationError

    try:
        return spec_case(
            args.spec,
            args.dims,
            dtypes=args.dtypes,
            params=dict(args.params) if args.params else None,
        )
    except ValidationError as exc:
        raise SystemExit(f"invalid --spec: {exc}") from None


def _resolve_platform(name: str):
    """Friendly lookup: a typo'd platform must not print a traceback."""
    try:
        return platform_by_name(name)
    except KeyError:
        raise SystemExit(
            f"unknown platform {name!r}; see `python -m repro list`"
        ) from None


def _policy(args):
    from repro.robust import FallbackPolicy

    try:
        if args.lenient:
            return FallbackPolicy.lenient(deadline_ms=args.deadline_ms)
        return FallbackPolicy.strict_policy(deadline_ms=args.deadline_ms)
    except ValueError as exc:
        # e.g. --deadline-ms -5: a flag typo must not print a traceback.
        raise SystemExit(f"invalid options: {exc}") from None


def cmd_list(_args) -> int:
    from repro.bench import benchmark_names

    print("Table 4 benchmarks:", ", ".join(sorted(benchmark_names())))
    print("extra kernels:     ", ", ".join(sorted(benchmark_names("extra"))))
    print("platforms:         ", ", ".join(sorted(PLATFORMS)))
    return EXIT_OK


def cmd_optimize(args) -> int:
    from repro.robust import safe_optimize

    arch = _resolve_platform(args.platform)
    case = _resolve_case(args)
    policy = _policy(args)
    options = OptimizeOptions(use_nti=not args.no_nti)
    cache = None
    if args.schedule_cache:
        from repro.cache import ScheduleCache

        cache = ScheduleCache(args.schedule_cache)
    fell_back = False
    for stage in case.pipeline:
        safe = safe_optimize(stage, arch, policy, options=options, cache=cache)
        fell_back = fell_back or safe.fell_back
        if safe.result is not None:
            print(safe.result.describe())
        else:
            print(safe.describe())
        if args.lenient and safe.result is not None and safe.diagnostics:
            print(safe.diagnostics.summary())
        if args.show_nest:
            from repro.ir import lower, print_nest

            nests = lower(stage, safe.schedule)
            print(print_nest(nests[-1]))
        if args.halide:
            from repro.ir.halide_out import emit_halide

            print(emit_halide(safe.schedule))
        print()
    return EXIT_FALLBACK if fell_back else EXIT_OK


def cmd_compare(args) -> int:
    from repro.baselines import Autotuner, autoschedule, baseline_schedule
    from repro.robust import safe_optimize
    from repro.sim import Machine

    arch = _resolve_platform(args.platform)
    machine = Machine(arch, line_budget=args.budget)
    times = {}
    fell_back = False

    def fresh():
        return _resolve_case(args)

    def proposed_schedules(funcs, use_nti):
        nonlocal fell_back
        policy = _policy(args)
        options = OptimizeOptions(use_nti=use_nti)
        out = {}
        for f in funcs:
            safe = safe_optimize(f, arch, policy, options=options)
            fell_back = fell_back or safe.fell_back
            out[f] = safe.schedule
        return out

    case = fresh()
    times["proposed"] = machine.time_pipeline(
        case.pipeline, proposed_schedules(case.funcs, use_nti=False)
    )
    case = fresh()
    times["proposed+NTI"] = machine.time_pipeline(
        case.pipeline, proposed_schedules(case.funcs, use_nti=True)
    )
    case = fresh()
    times["auto-scheduler"] = machine.time_pipeline(
        case.pipeline, {f: autoschedule(f, arch).schedule for f in case.funcs}
    )
    case = fresh()
    times["baseline"] = machine.time_pipeline(
        case.pipeline, {f: baseline_schedule(f, arch) for f in case.funcs}
    )
    if args.autotune:
        case = fresh()
        tuner = Autotuner(machine, evaluations=args.autotune, seed=0)
        times[f"autotuner({args.autotune})"] = machine.time_pipeline(
            case.pipeline, {f: tuner.tune(f).schedule for f in case.funcs}
        )
    fastest = min(times.values())
    print(f"{case.name} on {arch.name}:")
    for name, ms in sorted(times.items(), key=lambda kv: kv[1]):
        print(f"  {name:22s} {ms:10.2f} ms   rel {fastest / ms:4.2f}")
    return EXIT_FALLBACK if fell_back else EXIT_OK


def cmd_trace(args) -> int:
    """Summarize (or schema-validate) a recorded JSONL event log."""
    from repro.obs import read_trace, render_summary, validate_trace

    events, problems = read_trace(args.path)
    if args.validate:
        issues = problems + validate_trace(events)
        if issues:
            for issue in issues:
                print(f"invalid: {issue}", file=sys.stderr)
            print(
                f"{args.path}: {len(issues)} schema violation(s) in "
                f"{len(events)} records",
                file=sys.stderr,
            )
            return EXIT_HARD
        print(f"{args.path}: {len(events)} records, schema OK")
        return EXIT_OK
    if not events and problems:
        for problem in problems:
            print(f"warning: {problem}", file=sys.stderr)
        print(f"error: {args.path}: no readable trace records", file=sys.stderr)
        return EXIT_HARD
    for problem in problems:
        print(f"warning: {problem}", file=sys.stderr)
    print(render_summary(events))
    return EXIT_OK


def cmd_serve(args) -> int:
    """Run the long-lived optimization service until SIGTERM/SIGINT."""
    from repro.obs import current_tracer
    from repro.serve import OptimizeServer

    try:
        server = OptimizeServer(
            host=args.host,
            port=args.port,
            workers=args.workers,
            queue_limit=args.queue_limit,
            cache_path=args.schedule_cache,
            tracer=current_tracer(),
            retry_after_s=args.retry_after_s,
        )
    except ValueError as exc:
        # e.g. --queue-limit 0, REPRO_SERVE_FAULT typos: friendly, no
        # traceback, hard-failure exit.
        raise SystemExit(f"invalid options: {exc}") from None
    try:
        return server.run()
    except OSError as exc:
        return _report_bind_error(args.host, args.port, exc, what="server")


def cmd_submit(args) -> int:
    """Submit one optimization request to a running server."""
    from repro.serve.client import ServeClient
    from repro.util import ServeOverloaded

    client = ServeClient(
        args.host,
        args.port,
        timeout_s=args.timeout_s,
        retries=args.retries,
    )
    try:
        result = client.optimize(
            args.benchmark,
            args.platform,
            fast=args.fast,
            deadline_ms=args.deadline_ms,
            spec=args.spec,
            dims=args.dims,
            dtypes=args.dtypes,
            params=dict(args.params) if args.params else None,
            use_nti=not args.no_nti,
        )
    except ServeOverloaded as exc:
        print(f"error: {exc}", file=sys.stderr)
        print(
            f"hint: the server shed this request; retry after "
            f"{exc.retry_after_s:g}s or raise its --queue-limit",
            file=sys.stderr,
        )
        return EXIT_UNAVAILABLE
    except ConnectionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        print(
            f"hint: start a server with `python -m repro serve "
            f"--port {args.port}`",
            file=sys.stderr,
        )
        return EXIT_UNAVAILABLE
    if args.json:
        sys.stdout.write(canonical_json(result))
        return EXIT_OK
    print(
        f"{result['benchmark']} on {result['platform']}: "
        f"served_by={result['served_by']} "
        f"({result['elapsed_ms']:.1f} ms server-side)"
    )
    for entry, source in zip(result["schedules"], result["stage_sources"]):
        directives = entry["schedule"].get("directives", [])
        print(
            f"  stage {entry['stage']}: {len(directives)} directive(s) "
            f"[{source}]"
        )
    return EXIT_OK


def cmd_fleet(args) -> int:
    """Run a sharded serve fleet, or talk to a running one."""
    from repro.serve.client import ServeClient

    if args.action == "status":
        client = ServeClient(args.host, args.port, timeout_s=10.0, retries=0)
        try:
            _status, body = client.get("/fleet/status")
        except ConnectionError as exc:
            print(f"error: {exc}", file=sys.stderr)
            print(
                f"hint: start a fleet with `python -m repro fleet "
                f"--port {args.port}`",
                file=sys.stderr,
            )
            return EXIT_UNAVAILABLE
        workers = body.get("workers", [])
        print(f"fleet at http://{args.host}:{args.port}:")
        for worker in workers:
            print(
                f"  shard {worker['shard']}: {worker['state']:11s} "
                f"port={worker['port']} restarts={worker['restarts']} "
                f"pid={worker['pid']} breaker={worker.get('breaker', 'closed')}"
            )
        # Quarantined shards are a different incident class from down
        # ones: the supervisor restarts down shards on its own, but a
        # flap-quarantined shard stays out until an operator rolls the
        # fleet — list them separately so the distinction is loud.
        quarantined = [w for w in workers if w.get("state") == "quarantined"]
        down = [
            w for w in workers if w.get("state") not in ("up", "quarantined")
        ]
        if quarantined:
            print(
                "quarantined shards (flapping; excluded from restarts — "
                "run `repro fleet restart` once the cause is fixed):"
            )
            for worker in quarantined:
                print(
                    f"  shard {worker['shard']}: "
                    f"restarts={worker['restarts']}"
                )
        if down:
            print("down shards (the supervisor is restarting them):")
            for worker in down:
                print(f"  shard {worker['shard']}: {worker['state']}")
        cache = body.get("cache")
        cache_bad = False
        if cache is not None:
            corrupt = sum(
                shard.get("corrupt_lines", 0)
                for shard in cache.get("shards", {}).values()
            )
            if cache.get("consistent") and not corrupt:
                print(
                    f"cache: consistent across shards "
                    f"({cache.get('shared_keys', 0)} shared key(s))"
                )
            else:
                cache_bad = True
                print(
                    f"cache: INCONSISTENT — mismatched keys: "
                    f"{cache.get('mismatched_keys', [])}, corrupt lines "
                    f"on disk: {corrupt}"
                )
        degraded = any(w.get("state") != "up" for w in workers) or cache_bad
        return EXIT_FALLBACK if degraded else EXIT_OK

    if args.action == "restart":
        # Rolling drain/restart: one shard out at a time, zero admitted
        # jobs lost; the call returns once every shard is back up.
        client = ServeClient(args.host, args.port, timeout_s=600.0, retries=0)
        try:
            status, body = client.post("/fleet/restart")
        except ConnectionError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_UNAVAILABLE
        if status != 200:
            print(
                f"error: rolling restart failed (HTTP {status}): "
                f"{body.get('error', body)}",
                file=sys.stderr,
            )
            return EXIT_HARD
        print(f"rolled {body.get('rolled', 0)} worker(s), all back up")
        return EXIT_OK

    # action == "run": boot the workers, then route until SIGTERM/SIGINT.
    from repro.fleet import FleetRouter, FleetSupervisor
    from repro.obs import current_tracer

    try:
        supervisor = FleetSupervisor(
            workers=args.workers,
            host=args.host,
            cache_path=args.schedule_cache,
            queue_limit=args.queue_limit,
            probe_interval_s=args.probe_interval_s,
            tracer=current_tracer(),
        )
        router = FleetRouter(
            supervisor,
            host=args.host,
            port=args.port,
            tracer=current_tracer(),
            retry_after_s=args.retry_after_s,
        )
    except ValueError as exc:
        raise SystemExit(f"invalid options: {exc}") from None
    try:
        supervisor.start()
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_HARD
    try:
        return router.run()
    except OSError as exc:
        supervisor.stop()
        return _report_bind_error(args.host, args.port, exc, what="fleet")


def cmd_chaos(args) -> int:
    """Run a seeded chaos scenario against a live in-process fleet."""
    from repro.chaos import SCENARIOS, run_scenario, scenario_names
    from repro.obs import current_tracer

    if args.action == "list":
        for name in scenario_names():
            print(f"{name:26s} {SCENARIOS[name].description}")
        return EXIT_OK

    if not args.scenario:
        print(
            "error: chaos run needs --scenario (see `repro chaos list`)",
            file=sys.stderr,
        )
        return EXIT_USAGE

    def one_run():
        return run_scenario(
            args.scenario,
            seed=args.seed,
            requests=args.requests,
            tracer=current_tracer(),
        )

    try:
        result = one_run()
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    mismatch = False
    if args.check:
        # The harness's own reproducibility is part of the contract:
        # the same (scenario, seed) must produce a bit-identical
        # invariant report.
        repeat = one_run()
        mismatch = canonical_json(result.report) != canonical_json(
            repeat.report
        )

    if args.json:
        document = {"report": result.report,
                    "observations": result.observations}
        if args.check:
            document["check"] = "mismatch" if mismatch else "identical"
        sys.stdout.write(canonical_json(document))
    else:
        report = result.report
        print(
            f"chaos {report['scenario']} seed={report['seed']} "
            f"({report['requests']} requests, {report['workers']} workers)"
        )
        for invariant in report["invariants"]:
            mark = "ok " if invariant["ok"] else "FAIL"
            print(f"  [{mark}] {invariant['name']}: {invariant['detail']}")
        tally = result.observations.get("outcomes", {})
        print(
            f"  outcomes: {tally.get('ok', 0)} ok, "
            f"{tally.get('shed', 0)} shed, {tally.get('failed', 0)} failed; "
            f"{result.observations.get('failover_served', 0)} served by "
            f"failover"
        )
        if args.check:
            print(
                "  determinism: reports "
                + ("DIVERGED across repeat runs" if mismatch
                   else "bit-identical across repeat runs")
            )
    if mismatch:
        print(
            "error: same seed produced different invariant reports",
            file=sys.stderr,
        )
        return EXIT_HARD
    return EXIT_OK if result.ok else EXIT_HARD


def cmd_loadgen(args) -> int:
    """Drive a seeded open-loop load; write/gate BENCH_serve.json."""
    from repro.loadgen import check_serve_regression, run_loadgen
    from repro.util.gate import check_baseline

    loadgen_kwargs = dict(
        requests=args.requests,
        rate_rps=args.rate_rps,
        hot_fraction=args.hot_fraction,
        seed=args.seed,
        platform=args.platform,
        timeout_s=args.timeout_s,
        corpus_family=args.corpus_family,
    )
    try:
        if args.fleet:
            # Self-hosted mode: boot a whole fleet, measure it, tear it
            # down — what the CI bench-serve job runs as one command.
            from repro.fleet.testing import self_hosted_fleet

            with self_hosted_fleet(args.fleet) as fleet:
                payload = run_loadgen(port=fleet.port, **loadgen_kwargs)
                payload["target"] = {"mode": "fleet", "workers": args.fleet}
                payload["fleet_counters"] = fleet.router.metrics_snapshot()[
                    "counters"
                ]
        else:
            payload = run_loadgen(
                host=args.host, port=args.port, **loadgen_kwargs
            )
            payload["target"] = {
                "mode": "external",
                "host": args.host,
                "port": args.port,
            }
    except ValueError as exc:
        raise SystemExit(f"invalid options: {exc}") from None
    except ConnectionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_UNAVAILABLE

    latency = payload["latency_ms"]
    dup = payload["duplicates"]
    print(
        f"loadgen seed={payload['seed']}: {payload['requests']} requests "
        f"@ {payload['rate_rps']:g} rps (hot {payload['hot_fraction']:.0%}) "
        f"in {payload['wall_ms']:.0f} ms"
    )
    print(
        f"  latency p50 {latency['p50_ms']:g} ms | p90 {latency['p90_ms']:g}"
        f" ms | p99 {latency['p99_ms']:g} ms | max {latency['max_ms']:g} ms"
    )
    print(
        f"  served_by {payload['served_by']} | errors {payload['errors']} | "
        f"identical {payload['responses_identical']} | warm duplicates "
        f"{dup['warm']}/{dup['total']}"
    )
    if args.out:
        write_json(payload, args.out)
        print(f"  wrote {args.out}")
    if args.check:
        return check_baseline(
            "loadgen",
            payload,
            args.baseline,
            check_serve_regression,
            args.tolerance,
        )
    return EXIT_OK


def _vary_grid(names) -> list:
    """The tune grid of ``repro tune --vary NAME...``: every combination
    of each named switch's two values over the defaults."""
    grid = [{}]
    for name in names:
        if any(name in overlay for overlay in grid):
            continue  # --vary use_nti --vary use_nti
        # Boolean switches sweep {off, on}; multistride sweeps the
        # disabled default against the three-way classifier.
        values = ("off", "auto") if name == "multistride" else (False, True)
        try:
            OptimizeOptions.from_dict({name: values[0]})
        except ValueError as exc:
            raise SystemExit(f"--vary {name!r}: {exc}") from None
        grid = [
            dict(overlay, **{name: value})
            for overlay in grid
            for value in values
        ]
    return grid


def cmd_tune(args) -> int:
    """Fleet-scale autotuning: plan a grid, fan it out, stream results."""
    from repro.tune import (
        TUNE_REPORT_FORMAT,
        build_tune_request,
        validate_tune_report,
    )

    kernels = None
    if args.kernels:
        kernels = [k.strip() for k in args.kernels.split(",") if k.strip()]
    families = args.families or None
    try:
        request = build_tune_request(
            kernels=kernels,
            families=families,
            platforms=args.platforms or ["i7-5930k"],
            grid=_vary_grid(args.vary or []),
            fast=args.fast,
            deadline_ms=args.deadline_ms,
        )
    except ValueError as exc:
        raise SystemExit(f"invalid tune request: {exc}") from None

    def show(record) -> None:
        if args.json:
            return
        ms = record.get("ms")
        if ms:
            print(
                f"  {record['key']}: {record['status']} "
                f"{ms:.3f} ms (x{record['speedup']:.2f})"
            )
        else:
            print(
                f"  {record['key']}: {record['status']}"
                + (f" — {record['error']}" if record.get("error") else "")
            )

    def stream_once(host, port):
        """POST /v1/tune and consume the NDJSON stream."""
        from repro.serve.client import ServeClient

        client = ServeClient(host, port, timeout_s=args.timeout_s, retries=0)
        report_doc = None
        for record in client.tune(request):
            if record.get("format") == TUNE_REPORT_FORMAT:
                report_doc = record
            elif record.get("kind") == "error":
                raise ReproError(f"tune job failed: {record.get('error')}")
            else:
                show(record)
        if report_doc is None:
            raise ConnectionError("tune stream ended without a report")
        return report_doc

    def run_local(host, port):
        """Client-side runner mode: journal here, submit cells there."""
        from repro.sweep import Journal
        from repro.tune import TuneRunner, plan_tune_cells, tune_id

        cells = plan_tune_cells(request)
        runner = TuneRunner(
            Journal(args.journal),
            host=host,
            port=port,
            jobs=args.jobs,
            timeout_s=args.timeout_s,
            deadline_ms=args.deadline_ms,
        )
        report = runner.run(
            cells, tune_id=tune_id(request), on_record=show
        )
        if args.schedule_cache:
            from repro.cache import ScheduleCache

            stores = report.install_winners(
                ScheduleCache(args.schedule_cache)
            )
            if not args.json:
                print(
                    f"  installed {stores} winning schedule(s) into "
                    f"{args.schedule_cache}"
                )
        return report.document()

    def run_once(host, port):
        return run_local(host, port) if args.journal else stream_once(
            host, port
        )

    repeat = None
    try:
        if args.fleet:
            # Self-hosted mode: boot a whole fleet, tune it, tear it
            # down — what the CI tune-smoke job runs as one command.
            # --check's second POST resumes from the fleet's journal.
            from repro.fleet.testing import self_hosted_fleet

            with self_hosted_fleet(args.fleet) as fleet:
                document = run_once("127.0.0.1", fleet.port)
                if args.check:
                    repeat = run_once("127.0.0.1", fleet.port)
        else:
            document = run_once(args.host, args.port)
            if args.check:
                repeat = run_once(args.host, args.port)
    except ValueError as exc:
        raise SystemExit(f"invalid options: {exc}") from None
    except ConnectionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        print(
            f"hint: start a fleet with `python -m repro fleet --port "
            f"{args.port}`, or pass --fleet N to self-host one",
            file=sys.stderr,
        )
        return EXIT_UNAVAILABLE

    problems = validate_tune_report(document)
    if problems:
        for problem in problems:
            print(f"invalid report: {problem}", file=sys.stderr)
        return EXIT_HARD
    mismatch = args.check and canonical_json(document) != canonical_json(
        repeat
    )
    if args.out:
        write_json(document, args.out)
    if args.json:
        sys.stdout.write(canonical_json(document))
    else:
        print(
            f"tune {document['tune_id']}: {document['cells']} cells: "
            f"{document['ok']} ok, {document['quarantined']} quarantined"
        )
        for slot in sorted(document["winners"]):
            entry = document["winners"][slot]
            enabled = ", ".join(
                sorted(k for k, v in entry["options"].items() if v)
            )
            print(
                f"  {slot}: {entry['ms']:.3f} ms (x{entry['speedup']:.2f})"
                f" [{enabled or 'all switches off'}]"
            )
        if args.out:
            print(f"  wrote {args.out}")
        if args.check:
            print(
                "  resume check: reports "
                + ("DIVERGED across runs" if mismatch
                   else "bit-identical across runs")
            )
    if mismatch:
        print(
            "error: the resumed tune produced a different report",
            file=sys.stderr,
        )
        return EXIT_HARD
    return EXIT_UNAVAILABLE if document["quarantined"] else EXIT_OK


def cmd_codegen(args) -> int:
    from repro.ir import lower
    from repro.ir.codegen_c import codegen
    from repro.robust import safe_optimize

    arch = _resolve_platform(args.platform)
    case = _resolve_case(args)
    policy = _policy(args)
    options = OptimizeOptions(use_nti=not args.no_nti)
    fell_back = False
    nests = []
    for stage in case.pipeline:
        safe = safe_optimize(stage, arch, policy, options=options)
        fell_back = fell_back or safe.fell_back
        nests.extend(lower(stage, safe.schedule))
    source = codegen(nests, function_name=case.name.replace("-", "_"))
    if args.output:
        try:
            with open(args.output, "w") as handle:
                handle.write(source)
        except OSError as exc:
            raise SystemExit(
                f"cannot write {args.output!r}: {exc.strerror or exc}"
            ) from None
        print(f"wrote {args.output}")
    else:
        print(source)
    return EXIT_FALLBACK if fell_back else EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Prefetcher-aware loop optimization (CGO'18 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list benchmarks and platforms")

    def target(p):
        """What to optimize and how: shared by the commands that search
        locally and by ``submit``, which asks a server to."""
        p.add_argument("benchmark", nargs="?", default=None)
        p.add_argument("--spec", default=None, metavar="SPEC",
                       help="kernel spec string instead of a benchmark "
                            "name, e.g. 'C[i,j] += A[i,k] * B[k,j]' "
                            "(see docs/API.md, \"Kernel spec language\")")
        add_spec_args(p)
        p.add_argument("--platform", default="i7-5930k",
                       help="i7-5930k | i7-6700 | arm-a15")
        p.add_argument("--fast", action="store_true",
                       help="scaled-down problem size")
        p.add_argument("--no-nti", action="store_true",
                       help="disable non-temporal stores")
        p.add_argument("--deadline-ms", type=float, default=None,
                       metavar="MS",
                       help="per-stage optimizer time budget")

    def common(p):
        target(p)
        p.add_argument("--trace", default=None, metavar="PATH",
                       help="write a repro-trace-v2 JSONL event log")
        mode = p.add_mutually_exclusive_group()
        mode.add_argument("--strict", action="store_true",
                          help="fail hard on any optimizer error (default)")
        mode.add_argument("--lenient", action="store_true",
                          help="degrade through the fallback chain instead "
                               "of failing; exit code 3 when degraded")

    p_opt = sub.add_parser("optimize", help="run the optimization flow")
    common(p_opt)
    p_opt.add_argument("--schedule-cache", default=None, metavar="PATH",
                       dest="schedule_cache",
                       help="persistent schedule cache (JSONL) consulted "
                            "before searching; hits skip the search")
    p_opt.add_argument("--show-nest", action="store_true",
                       help="print the lowered pseudo-C nest")
    p_opt.add_argument("--halide", action="store_true",
                       help="print the schedule as Halide C++ code")

    p_cmp = sub.add_parser("compare", help="simulate all techniques")
    common(p_cmp)
    p_cmp.add_argument("--budget", type=int, default=40_000,
                       help="trace line budget per nest")
    p_cmp.add_argument("--autotune", type=int, default=0, metavar="EVALS",
                       help="also run the autotuner with this many evals")

    p_gen = sub.add_parser("codegen", help="emit C for the best schedule")
    common(p_gen)
    p_gen.add_argument("-o", "--output", help="write to a file")

    add_sweep_arguments(sub.add_parser(
        "sweep",
        help="regenerate all tables/figures (crash-safe, resumable)",
    ))

    p_trace = sub.add_parser(
        "trace",
        help="summarize or validate a recorded JSONL event log",
    )
    p_trace.add_argument("path", help="trace file written by --trace")
    p_trace.add_argument("--validate", action="store_true",
                         help="schema-check only; exit 4 on any violation")

    p_serve = sub.add_parser(
        "serve",
        help="run the optimization service (repro-serve-v1 over HTTP)",
    )
    p_serve.add_argument("--host", default="127.0.0.1",
                         help="bind address (default: 127.0.0.1)")
    p_serve.add_argument("--port", type=int, default=8377,
                         help="bind port (default: 8377; 0 = pick free)")
    p_serve.add_argument("--workers", type=jobs_arg, default=1,
                         metavar="N",
                         help="worker-pool threads executing requests "
                              "('auto' or 0 = one per core, capped)")
    p_serve.add_argument("--queue-limit", type=int, default=16,
                         dest="queue_limit", metavar="N",
                         help="admitted-job bound; beyond it requests are "
                              "shed with 429 + Retry-After")
    p_serve.add_argument("--retry-after-s", type=float, default=1.0,
                         dest="retry_after_s", metavar="S",
                         help="backoff hint on shed responses")
    p_serve.add_argument("--schedule-cache", default=None, metavar="PATH",
                         dest="schedule_cache",
                         help="persistent schedule cache (JSONL) consulted "
                              "before every search")
    p_serve.add_argument("--trace", default=None, metavar="PATH",
                         help="write a repro-trace-v2 JSONL event log "
                              "(serve.* lifecycle events)")

    p_fleet = sub.add_parser(
        "fleet",
        help="run a sharded serve fleet (consistent-hash router + N "
             "worker processes), or query/roll a running one",
    )
    p_fleet.add_argument("action", nargs="?", default="run",
                         choices=("run", "status", "restart"),
                         help="run (default): boot router+workers; "
                              "status: show shard states; restart: "
                              "rolling drain/restart of every shard")
    p_fleet.add_argument("--host", default="127.0.0.1",
                         help="router bind/target address")
    p_fleet.add_argument("--port", type=int, default=8378,
                         help="router port (default: 8378; 0 = pick free)")
    p_fleet.add_argument("--workers", type=int, default=2, metavar="N",
                         help="worker shard processes (default: 2)")
    p_fleet.add_argument("--queue-limit", type=int, default=16,
                         dest="queue_limit", metavar="N",
                         help="per-worker admitted-job bound")
    p_fleet.add_argument("--schedule-cache", default=None, metavar="PATH",
                         dest="schedule_cache",
                         help="base schedule-cache path; each shard gets "
                              "its own -shardN spelling")
    p_fleet.add_argument("--probe-interval-s", type=float, default=0.25,
                         dest="probe_interval_s", metavar="S",
                         help="health-probe cadence")
    p_fleet.add_argument("--retry-after-s", type=float, default=1.0,
                         dest="retry_after_s", metavar="S",
                         help="backoff hint when no shard can serve")
    p_fleet.add_argument("--trace", default=None, metavar="PATH",
                         help="write a repro-trace-v2 JSONL event log "
                              "(fleet.* lifecycle events)")

    p_chaos = sub.add_parser(
        "chaos",
        help="seeded chaos harness: drive a live fleet through scripted "
             "faults and assert global invariants",
    )
    p_chaos.add_argument("action", nargs="?", default="run",
                         choices=("run", "list"),
                         help="run: execute one scenario; list: show the "
                              "scenario catalog")
    p_chaos.add_argument("--scenario", default=None, metavar="NAME",
                         help="scenario to run (see `repro chaos list`)")
    p_chaos.add_argument("--seed", type=int, default=0,
                         help="fault/mix/backoff seed; same seed, same "
                              "invariant report (default: 0)")
    p_chaos.add_argument("--requests", type=int, default=None, metavar="N",
                         help="override the scenario's request count")
    p_chaos.add_argument("--json", action="store_true",
                         help="print the report + observations as JSON")
    p_chaos.add_argument("--check", action="store_true",
                         help="run the scenario twice and require "
                              "bit-identical invariant reports; exit 4 "
                              "on divergence or any failed invariant")

    p_load = sub.add_parser(
        "loadgen",
        help="drive a seeded open-loop load against a server or fleet; "
             "write/gate the BENCH_serve.json baseline",
    )
    p_load.add_argument("--host", default="127.0.0.1",
                        help="target address (external mode)")
    p_load.add_argument("--port", type=int, default=8377,
                        help="target port (external mode)")
    p_load.add_argument("--fleet", type=int, default=0, metavar="N",
                        help="self-host: boot an N-worker fleet, measure "
                             "it, tear it down (ignores --host/--port)")
    p_load.add_argument("--requests", type=int, default=20, metavar="N",
                        help="how many requests to fire (default: 20)")
    p_load.add_argument("--rate-rps", type=float, default=2.0,
                        dest="rate_rps", metavar="R",
                        help="open-loop arrival rate (default: 2/s)")
    p_load.add_argument("--hot-fraction", type=float, default=0.5,
                        dest="hot_fraction", metavar="F",
                        help="fraction of requests re-asking the hot "
                             "identity (default: 0.5)")
    p_load.add_argument("--seed", type=int, default=0,
                        help="arrival/mix/backoff seed (default: 0)")
    p_load.add_argument("--platform", default="i7-5930k",
                        help="platform every request targets")
    p_load.add_argument("--corpus-family", default=None, metavar="NAME",
                        dest="corpus_family",
                        help="draw the hot/cold identity mix from this "
                             "spec-corpus family (polybench | dl | micro) "
                             "instead of the built-in benchmark pool")
    p_load.add_argument("--timeout-s", type=float, default=120.0,
                        dest="timeout_s", metavar="S",
                        help="per-request socket timeout")
    p_load.add_argument("--out", default=None, metavar="PATH",
                        help="write the JSON payload to PATH")
    p_load.add_argument("--check", action="store_true",
                        help="compare against --baseline and exit 4 on "
                             "regression")
    p_load.add_argument("--baseline", default="BENCH_serve.json",
                        metavar="PATH",
                        help="baseline payload for --check")
    p_load.add_argument("--tolerance", type=float, default=0.2,
                        metavar="FRAC",
                        help="allowed one-sided regression for --check")

    p_tune = sub.add_parser(
        "tune",
        help="fleet-scale autotuning: corpus kernels x platforms x an "
             "options grid, journaled and resumable (POST /v1/tune)",
    )
    p_tune.add_argument("--kernels", default=None, metavar="A,B",
                        help="comma-separated corpus kernel names, e.g. "
                             "matmul,mxv (see docs/API.md, \"Corpus\")")
    p_tune.add_argument("--family", action="append", default=None,
                        dest="families", metavar="NAME",
                        help="select a whole corpus family instead "
                             "(repeatable): polybench | dl | micro")
    p_tune.add_argument("--platform", action="append", default=None,
                        dest="platforms", metavar="NAME",
                        help="target platform (repeatable; default: "
                             "i7-5930k)")
    p_tune.add_argument("--vary", action="append", default=None,
                        metavar="OPT",
                        help="cross both values of an option switch into "
                             "the grid (repeatable), e.g. --vary use_nti; "
                             "--vary multistride sweeps off vs auto")
    p_tune.add_argument("--fast", action="store_true",
                        help="scaled-down problem sizes")
    p_tune.add_argument("--deadline-ms", type=float, default=None,
                        metavar="MS", dest="deadline_ms",
                        help="per-cell server-side budget")
    p_tune.add_argument("--fleet", type=int, default=0, metavar="N",
                        help="self-host: boot an N-worker fleet, tune it, "
                             "tear it down (ignores --host/--port)")
    p_tune.add_argument("--host", default="127.0.0.1",
                        help="fleet router address (external mode)")
    p_tune.add_argument("--port", type=int, default=8378,
                        help="fleet router port (default: 8378)")
    p_tune.add_argument("--journal", default=None, metavar="PATH",
                        help="run the job client-side against --host/"
                             "--port, journaling to PATH (instead of "
                             "POSTing /v1/tune)")
    p_tune.add_argument("--jobs", type=int, default=2, metavar="N",
                        help="concurrent in-flight cells (client-side "
                             "mode; default: 2)")
    p_tune.add_argument("--schedule-cache", default=None, metavar="PATH",
                        dest="schedule_cache",
                        help="also install the winning schedules into "
                             "this cache (client-side mode)")
    p_tune.add_argument("--timeout-s", type=float, default=120.0,
                        dest="timeout_s", metavar="S",
                        help="socket timeout between stream records")
    p_tune.add_argument("--check", action="store_true",
                        help="run the tune twice (the second run resumes "
                             "from the journal) and require bit-identical "
                             "reports; exit 4 on divergence")
    p_tune.add_argument("--out", default=None, metavar="PATH",
                        help="write the final report JSON to PATH")
    p_tune.add_argument("--json", action="store_true",
                        help="print the final report as JSON")

    p_sub = sub.add_parser(
        "submit",
        help="submit one optimization request to a running server",
    )
    target(p_sub)
    p_sub.add_argument("--host", default="127.0.0.1",
                       help="server address (default: 127.0.0.1)")
    p_sub.add_argument("--port", type=int, default=8377,
                       help="server port (default: 8377)")
    p_sub.add_argument("--retries", type=int, default=3,
                       help="re-submissions after a shed (429/503) "
                            "response")
    p_sub.add_argument("--timeout-s", type=float, default=120.0,
                       dest="timeout_s", metavar="S",
                       help="socket timeout for one round-trip")
    p_sub.add_argument("--json", action="store_true",
                       help="print the full result payload as JSON")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handler = {
        "list": cmd_list,
        "optimize": cmd_optimize,
        "compare": cmd_compare,
        "codegen": cmd_codegen,
        "sweep": run_sweep,
        "trace": cmd_trace,
        "serve": cmd_serve,
        "submit": cmd_submit,
        "fleet": cmd_fleet,
        "chaos": cmd_chaos,
        "loadgen": cmd_loadgen,
        "tune": cmd_tune,
    }[args.command]
    try:
        with contextlib.ExitStack() as stack:
            # `sweep` is the experiments CLI, which owns its own tracer;
            # everything else traces in-process here.
            trace_path = getattr(args, "trace", None)
            if args.command != "sweep" and trace_path:
                try:
                    tracer = JsonlTracer(trace_path)
                except OSError as exc:
                    raise SystemExit(
                        f"cannot write {trace_path!r}: {exc.strerror or exc}"
                    ) from None
                stack.enter_context(tracer)
                stack.enter_context(activate_tracer(tracer))
            return handler(args)
    except ReproError as exc:
        # Hard failure: a clean one-line report, never a traceback.
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_HARD


if __name__ == "__main__":
    raise SystemExit(main())
