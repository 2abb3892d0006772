"""Layer-ledger benchmark: optimize-and-price throughput, simulator host
cost and serve latency.

Run from the root of a checkout::

    python3 perfbench/run.py --workload price --seed 3 --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics on untraced passes;
``--trace 1`` runs one untraced and one traced pass and prints the
per-layer metrics and the layer table.  The last line of standard output
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  Every operation's output is checked against
``expected.json`` (recorded with ``record_expected.py``); a mismatch or
an exception is a failed op.

End-to-end host times are CPU seconds scaled to a nominal machine speed
(hostspeed.py); per-layer times are raw host milliseconds, and serve
latencies are wall-clock times from each request's due instant.
Simulated times are named ``sim_*`` and never mixed with host times.

Workloads (see plan.py): ``search``, ``price`` and ``multistride``; the
traced ``search`` run also sends the ``serve`` stream to a one-worker
fleet to time the serving path.  The program is imported from the
checkout's ``src`` directory; without it the benchmark exits non-zero
without a result.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

import plan as plans  # noqa: E402
from hostspeed import HostSpeed  # noqa: E402
from ledger import render_table  # noqa: E402
from ops import (  # noqa: E402
    EXPECTED_FORMAT,
    check_op,
    geomean,
    run_op,
    schedule_digest,
)

#: End-to-end metrics and their units (BENCHMARK.json holds the bounds).
E2E_UNITS = {
    "setup_s": "s",
    "kernels_per_s": "1/s",
    "optimize_s": "s",
    "sim_ms_geomean": "ms",
    "ops_ok_frac": "frac",
    "peak_rss_mb": "MB",
    "latency_ms.p50": "ms",
    "latency_ms.p90": "ms",
    "slo_met_frac": "frac",
}

#: Set-up is repeated this many times per run; setup_s is the median.
SETUP_REPEATS = 5
#: Offline runs measure at least this many passes, so every kernel's
#: latency is a median of several samples even when a pass outlasts
#: ``--seconds``.
MIN_PASSES = 2

#: Where runs keep their scratch files (fleet caches, logs).
SCRATCH = os.path.join(ROOT, ".perfbench")


def layer_units() -> Dict[str, str]:
    with open(os.path.join(HERE, "layers.json"), encoding="utf-8") as handle:
        spec = json.load(handle)["per_layer"]
    return {name: entry["unit"] for name, entry in spec.items()}


def load_expected() -> Dict[str, Dict]:
    with open(os.path.join(HERE, "expected.json"), encoding="utf-8") as handle:
        payload = json.load(handle)
    if payload.get("format") != EXPECTED_FORMAT:
        raise SystemExit(f"expected.json: unknown format {payload.get('format')!r}")
    return payload["ops"]


def percentile(values: List[float], q: float) -> float:
    """Linear-interpolated percentile (``q`` in [0, 100])."""
    if not values:
        return 0.0
    ordered = sorted(values)
    position = (len(ordered) - 1) * q / 100.0
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def program_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    return env


# ---------------------------------------------------------------------
# Set-up
# ---------------------------------------------------------------------


def setup_probe(workload: str, seed: int, seconds: float) -> int:
    """What a fresh process pays before its first offline op: import the
    program, build the plan, lower every kernel, build the machines."""
    from ops import Program

    program = Program()
    plan = plans.build_plan(program.corpus, workload, seed, seconds)
    for kernel in plan.kernels():
        program.lower(kernel)
    return 0


def children_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def offline_setups(args, speed: HostSpeed) -> List[float]:
    """CPU seconds of each of SETUP_REPEATS fresh set-up processes, each
    scaled by the host speed measured around it."""
    argv = [
        sys.executable, os.path.abspath(__file__), "--setup-probe",
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds),
    ]
    times = []
    for _ in range(SETUP_REPEATS):
        before = speed.sample()
        started = children_cpu_s()
        subprocess.run(argv, check=True, env=program_env(), cwd=ROOT,
                       stdout=subprocess.DEVNULL, timeout=120)
        spent = children_cpu_s() - started
        times.append(spent * speed.scale(before, speed.sample()))
    return times


# ---------------------------------------------------------------------
# Offline workloads
# ---------------------------------------------------------------------


def _expected_for(expected, workload, key) -> Optional[Dict]:
    return expected.get(f"{workload}/{key}")


def offline_sim_ms(program, plan, records, expected) -> List[float]:
    """One simulated time per distinct kernel of the run.

    ``price`` and ``multistride`` simulate in the op itself.  ``search``
    does not simulate; a schedule whose digest matches the expected one
    has exactly the simulated time recorded with it (pricing is
    deterministic), and any other schedule is priced here, untimed.
    """
    kernels = {kernel.key: kernel for kernel in plan.kernels()}
    values: Dict[str, float] = {}
    for record in records:
        if record.key in values:
            continue
        if record.sim_ms is not None:
            values[record.key] = record.sim_ms
            continue
        entry = _expected_for(expected, plan.workload, record.key)
        if entry is not None and entry["schedules"] == record.schedules:
            values[record.key] = entry["sim_ms"]
        else:
            priced = run_op(program, "price", kernels[record.key])
            values[record.key] = priced.sim_ms or 0.0
    return list(values.values())


def run_offline(args, expected) -> Dict:
    from ops import Program
    from repro.core.emu import clear_emu_cache

    speed = HostSpeed()
    setups = offline_setups(args, speed)
    program = Program()
    plan = plans.build_plan(program.corpus, args.workload, args.seed,
                            args.seconds)
    records = []
    pass_s: List[float] = []
    optimize_s: List[float] = []
    started = time.perf_counter()
    while True:
        batch = plan.passes[len(pass_s) % len(plan.passes)]
        clear_emu_cache()
        done = []
        before = speed.sample()
        for kernel in batch:
            # Start every op from an empty cycle collector, so a full
            # collection that earlier ops' garbage triggers does not land
            # on whichever op comes next in this seed's order.
            gc.collect()
            record = run_op(program, args.workload, kernel)
            after = speed.sample()
            # Scale each op by the host speed measured just around it.
            scale = speed.scale(before, after)
            record.latency_s *= scale
            record.optimize_s *= scale
            done.append(record)
            before = after
        pass_s.append(sum(r.latency_s for r in done))
        optimize_s.append(sum(r.optimize_s for r in done))
        records.extend(done)
        elapsed = time.perf_counter() - started
        if len(pass_s) >= MIN_PASSES and (
            elapsed >= args.seconds - 0.5 * elapsed / len(pass_s)
        ):
            break

    problems = []
    failed = 0
    for record in records:
        found = check_op(
            record, _expected_for(expected, args.workload, record.key)
        )
        problems.extend(found)
        failed += bool(found)
    # Every pass runs the same kernels, so a kernel's latency is the
    # median over passes and throughput uses the median pass: one burst
    # of host noise moves neither.
    by_kernel: Dict[str, List[float]] = {}
    for record in records:
        by_kernel.setdefault(record.key, []).append(record.latency_s * 1000.0)
    latencies = [statistics.median(v) for v in by_kernel.values()]
    slo = plans.SLO_MS[args.workload]
    ok = len(records) - failed
    metrics = {
        "setup_s": statistics.median(setups),
        "kernels_per_s": len(batch) / statistics.median(pass_s),
        "optimize_s": statistics.median(optimize_s),
        "sim_ms_geomean": geomean(
            offline_sim_ms(program, plan, records, expected)
        ),
        "ops_ok_frac": ok / len(records),
        "peak_rss_mb": peak_rss_mb(),
        "latency_ms.p50": percentile(latencies, 50),
        "latency_ms.p90": percentile(latencies, 90),
        "slo_met_frac": sum(
            1 for r in records
            if r.latency_s * 1000.0 <= slo and r.error is None
        ) / len(records),
    }
    print(
        f"{args.workload}: {len(pass_s)} pass(es) of {len(batch)} kernels, "
        f"{sum(pass_s):.2f} nominal CPU s; host-speed scale {speed.factor:.3f}"
    )
    return _result(problems, len(records), failed, metrics, E2E_UNITS)


def traced_offline(args, expected, run_dir) -> Dict:
    from ledger import analyze_offline
    from ops import Program
    from repro.core.emu import clear_emu_cache
    from repro.obs import CollectingTracer, activate_tracer

    program = Program()
    plan = plans.build_plan(program.corpus, args.workload, args.seed,
                            args.seconds)
    batch = plan.passes[0]

    clear_emu_cache()
    plain = []
    untraced_ms = 0.0
    for kernel in batch:
        gc.collect()
        started = time.perf_counter()
        plain.append(run_op(program, args.workload, kernel))
        untraced_ms += (time.perf_counter() - started) * 1000.0

    tracer = CollectingTracer()
    priced = []
    traced = []
    with activate_tracer(tracer):
        clear_emu_cache()
        for kernel in batch:
            gc.collect()
            with tracer.span("bench.op", kernel=kernel.key):
                traced.append(run_op(program, args.workload, kernel,
                                     tracer=tracer, priced=priced))
    stages = [stage for record in traced for stage in record.stages]
    ledger = analyze_offline(program, tracer.events, tracer.counters(),
                             stages, priced)

    problems = list(ledger.problems)
    failed = 0
    for record in plain + traced:
        found = check_op(
            record, _expected_for(expected, args.workload, record.key)
        )
        problems.extend(found)
        failed += bool(found)
    print(render_table(
        f"layer ledger, {args.workload} (seed {args.seed}), traced pass of "
        f"{len(batch)} kernels", ledger.total_ms, ledger.rows, ledger.counts,
    ))
    metrics = {name: 0.0 for name in layer_units()}
    metrics.update(ledger.metrics)
    metrics["tracing.overhead_frac"] = ledger.total_ms / untraced_ms - 1.0
    attempted = len(plain) + len(traced)
    if args.workload == "search":
        # The serving path searches the same way, so its layers are
        # timed here: behind a fleet, on smoke-size kernels.
        served, table, served_problems, requests = serve_layers(
            args, expected, run_dir
        )
        print(table)
        metrics.update(served)
        problems.extend(served_problems)
        failed += len(served_problems)
        attempted += requests
    return _result(problems, attempted, failed, metrics, layer_units())


# ---------------------------------------------------------------------
# The serving path (timed in the search workload's traced run)
# ---------------------------------------------------------------------


def reply_problem(reply, expected) -> Optional[str]:
    """Why one serve reply is wrong, or None: it must carry the offline
    schedule of its key, stage by stage."""
    key = reply.request.kernel.key
    if reply.error is not None:
        return f"serve {key}: {reply.error}"
    entry = _expected_for(expected, "serve", key)
    if entry is None:
        return f"serve {key}: no expected output recorded"
    got = {
        item["stage"]: schedule_digest(item["schedule"])
        for item in reply.body.get("schedules", [])
    }
    if got != entry["schedules"]:
        return f"serve {key}: served schedule differs from the offline one"
    return None


def check_replies(replies, expected) -> List[str]:
    """One problem per failed request of a stream."""
    problems = [reply_problem(reply, expected) for reply in replies]
    return [problem for problem in problems if problem is not None]


def _served_by(reply) -> str:
    return reply.body.get("served_by", "?") if reply.body else "error"


def serve_layers(args, expected, run_dir):
    """The serving-path layers: one request stream into a fresh traced
    one-worker fleet.  Returns (metrics, layer table, problems, requests).
    """
    from ops import Program
    from serveload import (
        replay_cache_gets,
        run_stream,
        start_fleets,
        worker_metrics,
    )

    program = Program()
    plan = plans.build_plan(program.corpus, "serve", args.seed, args.seconds)
    _setups, fleet = start_fleets(SRC, run_dir, 1, trace=True)
    try:
        replies = run_stream(plan, fleet.port)
        counters = worker_metrics(fleet)["counters"]
    finally:
        fleet.stop()
    gets = replay_cache_gets(program, fleet, plan)

    ok = [r for r in replies if r.error is None]
    worker = [r.body["elapsed_ms"] for r in ok]
    overhead = [r.client_ms - r.body["elapsed_ms"] for r in ok]
    served = {}
    for reply in ok:
        served[_served_by(reply)] = served.get(_served_by(reply), 0) + 1
    hits = counters.get("cache_hits", 0)
    misses = counters.get("cache_misses", 0)
    metrics = {
        "schedule_cache.hit_frac": hits / (hits + misses) if hits + misses else 0.0,
        "schedule_cache.get_ms.p50": percentile(gets, 50),
        "serve.worker_ms.p50": percentile(worker, 50),
        "serve.worker_ms.p90": percentile(worker, 90),
        "serve.overhead_ms.p50": percentile(overhead, 50),
        "serve.overhead_ms.p90": percentile(overhead, 90),
        "serve.served_by.search_frac": served.get("search", 0) / len(replies),
        "serve.served_by.cache_frac": served.get("cache", 0) / len(replies),
        "serve.served_by.coalesced_frac": (
            served.get("coalesced", 0) / len(replies)
        ),
        "serve.shed": counters.get("shed", 0),
        "serve.retries": sum(r.retries for r in replies),
        "loadgen.late_ms.p90": percentile([r.late_ms for r in replies], 90),
    }

    rows = {"loadgen.late": sum(r.late_ms for r in replies)}
    counts = {"loadgen.late": f"{len(replies)} requests"}
    for kind in ("search", "cache", "coalesced"):
        picked = [r for r in ok if _served_by(r) == kind]
        rows[f"serve.worker.{kind}"] = sum(r.body["elapsed_ms"] for r in picked)
        counts[f"serve.worker.{kind}"] = f"{len(picked)} requests"
    counts["unattributed"] = "router, admission, queue, coalesce, HTTP"
    table = render_table(
        f"serving path (seed {args.seed}), latency summed over "
        f"{len(replies)} requests", sum(r.latency_ms for r in replies),
        rows, counts,
    )
    return metrics, table, check_replies(replies, expected), len(replies)


# ---------------------------------------------------------------------


def _result(problems, attempted, failed, metrics, units) -> Dict:
    for problem in problems[:20]:
        print(f"check: {problem}")
    if len(problems) > 20:
        print(f"check: ... {len(problems) - 20} more")
    missing = sorted(set(units) - set(metrics))
    if missing:
        raise RuntimeError(f"metrics not measured: {missing}")
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": float(metrics[name]), "unit": units[name]}
            for name in units
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=plans.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"error: no program sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import repro

    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        print(f"error: imported repro from {repro.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    if args.setup_probe:
        return setup_probe(args.workload, args.seed, args.seconds)

    expected = load_expected()
    os.makedirs(SCRATCH, exist_ok=True)
    run_dir = tempfile.mkdtemp(prefix="run-", dir=SCRATCH)
    try:
        if args.trace:
            result = traced_offline(args, expected, run_dir)
        else:
            result = run_offline(args, expected)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            os.rmdir(SCRATCH)
        except OSError:
            pass
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
