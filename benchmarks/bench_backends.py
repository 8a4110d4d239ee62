#!/usr/bin/env python3
"""Benchmark the compiled kernels against the pure-Python fallback.

Times the three hot loops on representative workloads:

* rk4: the tumour-effector system, 100 days at dt = 0.001 (100k steps);
* ssa: scenario-4 channels with the tumour floored at one, which keeps the
  population at carrying capacity and the event loop busy (~150k events per
  replicate);
* tau: linear birth-death leaping, 1000 steps per replicate.

Usage: python benchmarks/bench_backends.py [--reps N]
"""

import argparse
import time

from dualsim.kernels import _pykernels
from dualsim.models import scenario_preset
from dualsim.ssa import kuznetsov_channels

try:
    from dualsim.kernels import _ckernels
except ImportError:
    _ckernels = None

SCENARIO4 = scenario_preset(4)
S4_TABLE = kuznetsov_channels(SCENARIO4).tables()


def bench_rk4(mod, reps):
    p = SCENARIO4
    t0 = time.perf_counter()
    for _ in range(reps):
        _, _, _, status = mod.rk4_kuznetsov(
            p.a, p.b, p.g, p.m, p.n, p.p, p.d, p.s,
            100.0, 10.0, 0.001, 100.0, 1.0, 1e300,
        )
        assert status == 0
    return (time.perf_counter() - t0) / reps


def bench_ssa(mod, reps):
    t0 = time.perf_counter()
    events = 0
    for i in range(reps):
        times, _, _, status = mod.ssa(*S4_TABLE, 100, 10, 100.0, 1000 + i, 1, 0, 1e12, 10**8)
        assert status in (0, 2)
        events += len(times)
    elapsed = time.perf_counter() - t0
    return elapsed / reps, events / elapsed


def bench_tau(mod, reps):
    t0 = time.perf_counter()
    for i in range(reps):
        _, _, _, status = mod.tau_leap(
            [1, 1], [2.0, 1.0], [1.0, 1.0], [0.0, 0.0], [1, -1], [0, 0],
            100, 0, 1.0, 0.001, 500 + i, 0, 0, 1e12,
        )
        assert status == 0
    return (time.perf_counter() - t0) / reps


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--reps", type=int, default=10, help="replicates per measurement")
    args = parser.parse_args()

    backends = [("pure-python", _pykernels)]
    if _ckernels is not None:
        backends.append(("c", _ckernels))
    else:
        print("compiled backend not built; timing the pure backend only\n")

    results = {}
    for name, mod in backends:
        rk4 = bench_rk4(mod, max(1, args.reps // 2))
        ssa_t, ssa_rate = bench_ssa(mod, args.reps)
        tau = bench_tau(mod, args.reps)
        results[name] = (rk4, ssa_t, ssa_rate, tau)

    print(f"{'backend':<14} {'rk4 100k steps':>16} {'ssa replicate':>15} {'ssa events/s':>14} {'tau 1k steps':>14}")
    for name, (rk4, ssa_t, ssa_rate, tau) in results.items():
        print(f"{name:<14} {rk4 * 1e3:>13.1f} ms {ssa_t * 1e3:>12.1f} ms {ssa_rate / 1e6:>11.2f} M {tau * 1e3:>11.2f} ms")

    if len(results) == 2:
        p = results["pure-python"]
        c = results["c"]
        print(
            f"{'speedup':<14} {p[0] / c[0]:>14.1f}x {p[1] / c[1]:>13.1f}x "
            f"{c[2] / p[2]:>12.1f}x {p[3] / c[3]:>12.1f}x"
        )


if __name__ == "__main__":
    main()
