"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/sweep.py --seeds 1-10 --seconds 20
    python3 perfbench/sweep.py --workloads authz_serve --seeds 1,2,3

Runs ``perfbench/run.py`` untraced once per (workload, seed), one after
another, each in a fresh interpreter, and prints per metric the median, the
quartile spread ``(Q3 - Q1) / median`` (quartiles as
``statistics.quantiles(values, n=4)`` gives them) and the extremes, plus
the share of failed operations.  ``raw_op_p50_ms`` and ``raw_ops_per_s``
are the same figures before drift correction, read from the run's table.
Exits 1 if any run failed.
"""

from __future__ import annotations

import argparse
import re
import statistics
import sys

from run import launch

WORKLOADS = ("fig2_rounds", "sendlog_links", "authz_serve", "shard_tc_stream")
RAW = re.compile(r"raw op p50 ([\d.]+) ms, raw ops/s ([\d.]+)")


def seed_list(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def spread(values: list) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", default="20")
    args = parser.parse_args(argv)
    status = 0
    for workload in args.workloads.split(","):
        values: dict[str, list] = {}
        units: dict[str, str] = {}
        failed_shares = []
        for seed in seed_list(args.seeds):
            table, result = launch(workload, seed, args.seconds)
            if result is None:
                status = 1
                continue
            failed_shares.append(result["failed"] / result["attempted"])
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
                units[name] = metric["unit"]
            raw = RAW.search("\n".join(table))
            for name, unit, text in (("raw_op_p50_ms", "ms", raw.group(1)),
                                     ("raw_ops_per_s", "1/s", raw.group(2))):
                values.setdefault(name, []).append(float(text))
                units[name] = unit
            print(f"{workload} seed {seed}: " + "  ".join(
                f"{name}={v[-1]:.5g}" for name, v in values.items()),
                flush=True)
        if not failed_shares:
            continue
        print(f"== {workload}: {len(failed_shares)} runs, failed share "
              f"{sorted(set(failed_shares))}")
        for name, series in values.items():
            median = statistics.median(series)
            rel = spread(series) if len(series) >= 2 and median else 0.0
            print(f"  {name:<26} median {median:>12.5g} {units[name]:<6} "
                  f"spread {rel:7.2%}  min {min(series):.5g}  "
                  f"max {max(series):.5g}", flush=True)
    return status


if __name__ == "__main__":
    sys.exit(main())
