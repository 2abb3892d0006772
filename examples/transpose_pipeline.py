#!/usr/bin/env python3
"""Spatial locality and non-temporal stores on a transposition kernel.

The image-processing motivation of the paper: a transpose-and-mask stage
(`out[y][x] = A[x][y] & B[y][x]`) has *no* temporal reuse — only the
cache-line (self-spatial) reuse of the transposed array's strided walk.
The classifier routes it to the spatial optimizer, which picks a tile one
cache line wide and as tall as Algorithm 1 allows, and — because the
output is never re-read — turns on non-temporal stores.

The example prints the classification, the chosen tile, and the simulated
effect of each ingredient (tiling, then +NTI) against the untiled loop.

Run:  python examples/transpose_pipeline.py
"""

from repro import Buffer, Func, Machine, Var, int32, optimize
from repro.arch import intel_i7_5930k
from repro.baselines import baseline_schedule
from repro.core import classify


def make_kernel(n: int) -> Func:
    a = Buffer("A", (n, n), int32)
    b = Buffer("B", (n, n), int32)
    x, y = Var("x"), Var("y")
    out = Func("TransposeMask", int32)
    out[y, x] = a[x, y] & b[y, x]
    out.set_bounds({x: n, y: n})
    return out


def main() -> None:
    n = 2048
    arch = intel_i7_5930k()
    machine = Machine(arch, line_budget=60_000)

    kernel = make_kernel(n)
    decision = classify(kernel)
    print("classifier says:", decision)
    print()

    k1 = make_kernel(n)
    baseline_ms = machine.time_funcs([(k1, baseline_schedule(k1, arch))])

    k2 = make_kernel(n)
    tiled = optimize(k2, arch, use_nti=False)
    assert tiled.spatial is not None
    print("spatial optimizer chose:", tiled.spatial.describe())
    tiled_ms = machine.time_funcs([(k2, tiled.schedule)])

    k3 = make_kernel(n)
    nti = optimize(k3, arch, use_nti=True)
    nti_ms = machine.time_funcs([(k3, nti.schedule)])

    print()
    print(f"baseline (no tiling):      {baseline_ms:7.3f} ms")
    print(f"spatial tiling:            {tiled_ms:7.3f} ms "
          f"({baseline_ms / tiled_ms:.2f}x)")
    print(f"spatial tiling + NTI:      {nti_ms:7.3f} ms "
          f"({baseline_ms / nti_ms:.2f}x)")


if __name__ == "__main__":
    main()
