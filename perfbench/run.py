"""End-to-end benchmark of the LBTrust reproduction, one workload per run.

Run from the root of a source checkout::

    python3 perfbench/run.py --workload fig2_rounds --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seconds 20     # every workload

With ``--trace 0`` it prints the end-to-end metrics; with ``--trace 1``
it wraps each layer's public functions in spans and prints the per-layer
table instead (spans are saved under ``.perfbench/``).  The last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  Exit status 0 means every output matched the
benchmark's reference models; 1 means a check failed; 2 a usage error or
a checkout without the program's sources.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

#: String hashing decides set iteration order, and so evaluation order;
#: every run uses the same.
HASH_SEED = "0"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TRACE_DIR = ROOT / ".perfbench"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        help="a workload name, or 'all'")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def peak_rss_mb() -> float:
    """The process's peak resident set (VmHWM, reported in kB), in MB."""
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM line in /proc/self/status")


def pin_to_one_cpu() -> None:
    """Keep this process, and the threads it starts, on one CPU.

    The calibration kernel then measures the CPU every thread of the
    workload runs on; ``authz_serve``'s server thread otherwise lands on
    another CPU than the client thread that takes the readings.
    """
    try:
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    except (AttributeError, OSError):  # not Linux, or not permitted
        pass


def launch(workload: str, seed, seconds, trace=0):
    """Run one workload in a fresh interpreter.

    Returns ``(table, result)``: the lines printed before the result, and
    the parsed result line, or None when the run failed (its exit status
    is then printed to standard error).
    """
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        stdout=subprocess.PIPE, text=True, check=False)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        print(f"{workload} seed {seed}: exit status {proc.returncode}",
              file=sys.stderr)
        return lines, None
    return lines[:-1], json.loads(lines[-1])


def run_all(args) -> int:
    """Each workload in its own interpreter, one after another."""
    from lbbench.workloads import WORKLOADS
    results = {}
    for name in WORKLOADS:
        table, result = launch(name, args.seed, args.seconds, args.trace)
        print("\n".join(table), flush=True)
        if result is None:
            return 1
        results[name] = result
    print(json.dumps(results))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program sources under {ROOT / 'src'}; run from a "
              "source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.workload == "all":
        return run_all(args)

    from lbbench.harness import by_kind, end_to_end, per_layer, run_workload
    from lbbench.trace import Tracer
    from lbbench.workloads import WORKLOADS

    workload_cls = WORKLOADS.get(args.workload)
    if workload_cls is None:
        print(f"unknown workload {args.workload!r}; pick one of "
              f"{', '.join(WORKLOADS)} or all", file=sys.stderr)
        return 2
    pin_to_one_cpu()
    tracer = Tracer() if args.trace else None
    try:
        if tracer is not None:
            tracer.install()
        record = run_workload(workload_cls, args.seed, args.seconds, tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()
    if record.error is not None:
        print(f"{args.workload}: check failed: {record.error}",
              file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": record.attempted,
                          "failed": record.failed, "metrics": {}}))
        return 1

    metrics = end_to_end(record, peak_rss_mb())
    if tracer is not None:
        metrics = per_layer(record, tracer, metrics["ops_per_s"][0])
        TRACE_DIR.mkdir(exist_ok=True)
        path = TRACE_DIR / f"spans-{args.workload}-seed{args.seed}.tsv.gz"
        spans = tracer.write(path)
        print(f"# {spans} spans written to {path.relative_to(ROOT)}")
    print_table(args, record, metrics, by_kind(record))
    print(json.dumps({
        "correct": True,
        "attempted": record.attempted,
        "failed": record.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


def print_table(args, record, metrics, kinds) -> None:
    raw = sorted(record.raw_ops)
    print(f"# {record.workload} seed={args.seed} trace={args.trace}: "
          f"{record.passes} passes, {record.attempted} operations, "
          f"{record.failed} failed")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<26} {value:>14.4f} {unit}")
    for kind, (count, p50, p99) in kinds.items():
        tail = f"  p99 {p99:.3f} ms" if p99 is not None else ""
        print(f"  kind {kind:<21} n={count:<6} p50 {p50:.3f} ms{tail}")
    print(f"  raw op p50 {raw[len(raw) // 2] * 1e3:.3f} ms, raw ops/s "
          f"{len(raw) / sum(raw):.2f}, calibration readings "
          f"min {min(record.readings):.4f} / max "
          f"{max(record.readings):.4f} ms")


if __name__ == "__main__":
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        os.environ["PYTHONHASHSEED"] = HASH_SEED
        os.execv(sys.executable,
                 [sys.executable, str(Path(__file__).resolve())]
                 + sys.argv[1:])
    sys.exit(main())
