"""``python -m repro.bench`` — the search-performance harness CLI.

Measure::

    python -m repro.bench                  # full Table 4 suite
    python -m repro.bench --fast           # CI subset, small sizes
    python -m repro.bench --out BENCH_search.json

Gate (CI)::

    python -m repro.bench --fast --check --baseline BENCH_search.json

``--check`` exits 1 when a gated ratio (cold / warm speedup)
falls more than ``--tolerance`` (default 20%) below the committed
baseline, or when the scenarios stop producing identical schedules.
Absolute milliseconds are recorded but never gated — they are machine
properties, the ratios are code properties.
"""

from __future__ import annotations

import argparse

from repro.arch import platform_by_name
from repro.bench.perf import check_regression, run_bench
from repro.util import write_json
from repro.util.gate import check_baseline


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Time the optimizer's search machinery (Table 4 suite)",
    )
    parser.add_argument(
        "--fast",
        action="store_true",
        help="CI subset with small problem sizes (seconds, not minutes)",
    )
    parser.add_argument(
        "--platform",
        default="i7-5930k",
        help="platform name (default i7-5930k)",
    )
    parser.add_argument(
        "--out",
        default=None,
        metavar="PATH",
        help="write the JSON payload to PATH (default: stdout only)",
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="compare against --baseline and exit 1 on regression",
    )
    parser.add_argument(
        "--baseline",
        default="BENCH_search.json",
        metavar="PATH",
        help="baseline payload for --check (default BENCH_search.json)",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.2,
        metavar="FRAC",
        help="allowed one-sided ratio regression for --check (default 0.2)",
    )
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    arch = platform_by_name(args.platform)
    payload = run_bench(fast=args.fast, arch=arch)

    e2e = payload["end_to_end"]
    print(
        f"bench[{payload['mode']}] {len(payload['benchmarks'])} benchmarks, "
        f"{e2e['stages']} stages on {payload['arch']}:"
    )
    print(
        f"  serial uncached {e2e['serial_uncached_ms']:.0f} ms | "
        f"cold {e2e['cold_ms']:.0f} ms ({e2e['speedup_cold']:.2f}x) | "
        f"warm {e2e['warm_ms']:.0f} ms ({e2e['speedup_warm']:.2f}x)"
    )
    print(
        f"  emu cache: {payload['emu_cache']['hits']} hits / "
        f"{payload['emu_cache']['misses']} misses "
        f"(rate {payload['emu_cache']['hit_rate']:.1%}); "
        f"schedules identical: {e2e['schedules_identical']}"
    )

    if args.out:
        write_json(payload, args.out)
        print(f"  wrote {args.out}")

    if args.check:
        return check_baseline(
            "bench", payload, args.baseline, check_regression, args.tolerance
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
