#!/usr/bin/env python3
"""Sweep the compile_service arrival rate, to find where the service
saturates and to set the workload's nominal and peak rates:

    python3 perfbench/sweep_service.py [--seconds 25] [--seed 1]
                                       [rate ...]

Each rate runs the compile_service traffic (same pool, popularity,
tenants and report shares) as one phase at that rate, in a process of
its own. The table gives the answered requests per second, the p99
latency from the due time, how late the generator ran, and the
backlog (requests due but not yet answered) sampled every 100 ms: its
mean over the first and the last quarter of the run and its maximum.
A rate past saturation shows a backlog that keeps growing and a p99
that grows with the run's length.
"""

import argparse
import json
import sys
from statistics import mean

import run as bench

DEFAULT_RATES = [300, 600, 900, 1200, 1500, 1800, 2400, 3000, 3600,
                 4500]


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("rates", nargs="*", type=int, default=DEFAULT_RATES)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--seed", type=int, default=bench.DEFAULT_SEED)
    args = parser.parse_args()
    bench.build()
    print(f"{'rate/s':>7} {'answered/s':>10} {'p99 ms':>9} {'late p99':>9} "
          f"{'hits':>5} {'compile':>8} {'backlog first/last quarter, max':>32}")
    for rate in args.rates:
        rc, out, _ = bench.run_child(
            [str(bench.BINARY), "service", "--rate", str(rate),
             "--seconds", str(args.seconds), "--seed", str(args.seed)],
            bench.child_env(), args.seconds + 60)
        result = json.loads(out.strip().splitlines()[-1])
        m = result["metrics"]
        backlog = result["outputs"]["backlog"] or [0]
        quarter = max(1, len(backlog) // 4)
        print(f"{rate:>7} {m['sweep.answered_per_s']:>10.1f} "
              f"{m['sweep.p99_ms']:>9.2f} {m['sweep.late_ms.p99']:>9.2f} "
              f"{m['sweep.hit_share']:>5.2f} "
              f"{m['sweep.compile_ms.mean']:>6.2f}ms "
              f"{mean(backlog[:quarter]):>12.1f} "
              f"{mean(backlog[-quarter:]):>9.1f} {max(backlog):>9}"
              + ("" if rc == 0 and not result["failed"]
                 else f"  ({result['failed']} failed, exit {rc})"),
              flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
