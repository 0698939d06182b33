"""Drive one workload for a number of seconds and compute its metrics.

A run repeats whole *passes* until ``seconds`` have elapsed (at least
one): each pass builds a fresh workload from ``Random(seed, pass)``,
times its set-up, then times each of its fixed count of operations.
Because every pass starts from the same kind of state and runs the same
count of operations, per-operation costs that grow with accumulated
state are sampled identically however fast the host is.  Garbage is
collected before each timed region; correctness checks run after set-up
and between operations, outside the timed regions.
"""

from __future__ import annotations

import gc
import random
import statistics
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Optional

from repro.datalog.errors import ReproError

from .timing import REFERENCE_MS, DriftClock, percentile
from .trace import ROOT, Tracer
from .workloads import CheckFailed, Workload

#: Operation id that tags spans opened during set-up.
SETUP_OP = -2


@dataclass
class RunRecord:
    """Everything one run measured, before it is turned into metrics."""

    workload: str
    passes: int = 0
    attempted: int = 0
    failed: int = 0
    setups: list = field(default_factory=list)     # corrected seconds
    ops: list = field(default_factory=list)        # (kind, corrected s)
    raw_ops: list = field(default_factory=list)    # raw seconds
    wire_messages: int = 0
    wire_bytes: int = 0
    derivations: int = 0
    rounds: int = 0
    readings: list = field(default_factory=list)   # kernel ms
    #: the first failed correctness check, which ends the run
    error: Optional[str] = None


def _derivations(workload: Workload) -> int:
    return sum(stats.derivations for stats in workload.eval_stats())


def run_workload(workload_cls, seed: int, seconds: float,
                 tracer: Optional[Tracer] = None) -> RunRecord:
    record = RunRecord(workload=workload_cls.name)
    clock = DriftClock()
    setup_handles: list = []
    op_handles: list = []
    started = time.perf_counter()
    op_id = 0
    while record.passes == 0 or time.perf_counter() - started < seconds:
        workload = workload_cls(random.Random(seed * 1_000_003
                                              + record.passes))
        try:
            gc.collect()
            clock.calibrate()
            with tracer.phase(SETUP_OP) if tracer else nullcontext():
                begin = time.perf_counter()
                workload.setup()
                elapsed = time.perf_counter() - begin
            setup_handles.append(clock.record(elapsed))
            workload.check()
            gc.collect()
            clock.calibrate()
            messages, payload = workload.wire()
            derivations = _derivations(workload)
            rounds = workload.rounds
            for kind, operation in workload.operations():
                clock.maybe_calibrate()
                record.attempted += 1
                begin = time.perf_counter()
                try:
                    with tracer.operation(op_id) if tracer else nullcontext():
                        operation()
                except ReproError:
                    record.failed += 1
                elapsed = time.perf_counter() - begin
                op_handles.append((kind, clock.record(elapsed)))
                record.raw_ops.append(elapsed)
                op_id += 1
                workload.check()
            clock.calibrate()
            messages_after, payload_after = workload.wire()
            record.wire_messages += messages_after - messages
            record.wire_bytes += payload_after - payload
            record.derivations += _derivations(workload) - derivations
            record.rounds += workload.rounds - rounds
            workload.finish()
        except CheckFailed as exc:
            record.error = str(exc)
            break
        finally:
            workload.close()
        record.passes += 1
    record.setups = [clock.corrected(h) for h in setup_handles]
    record.ops = [(kind, clock.corrected(h)) for kind, h in op_handles]
    record.readings = list(clock.readings)
    return record


def end_to_end(record: RunRecord, peak_rss_mb: float) -> dict:
    """The end-to-end metrics: ``{name: (value, unit)}``."""
    times = [t for _, t in record.ops]
    count = len(times)
    return {
        "setup_s": (statistics.median(record.setups), "s"),
        "op_p50_ms": (statistics.median(times) * 1e3, "ms"),
        "ops_per_s": (count / sum(times), "1/s"),
        "wire_bytes_per_op": (record.wire_bytes / count, "bytes"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


def latencies(record: RunRecord) -> dict:
    """``{operation kind: [corrected ms, ...]}``."""
    kinds: dict = {}
    for kind, seconds in record.ops:
        kinds.setdefault(kind, []).append(seconds * 1e3)
    return kinds


def by_kind(record: RunRecord) -> dict:
    """``{kind: (count, p50 ms, p99 ms or None)}`` — p99 only with at
    least 1,000 samples, so ten lie beyond it."""
    return {kind: (len(ms), statistics.median(ms),
                   percentile(ms, 99) if len(ms) >= 1000 else None)
            for kind, ms in latencies(record).items()}


#: per-layer metric -> (span name, "ms" self time or "calls")
SPAN_METRICS = {
    "datalog.parse_ms": ("datalog.parse", "ms"),
    "datalog.parse_calls": ("datalog.parse", "calls"),
    "datalog.stratify_ms": ("datalog.stratify", "ms"),
    "datalog.stratify_calls": ("datalog.stratify", "calls"),
    "datalog.plan_ms": ("datalog.plan", "ms"),
    "datalog.plans_built": ("datalog.plan", "calls"),
    "datalog.eval_ms": ("datalog.eval", "ms"),
    "datalog.dred_ms": ("datalog.dred", "ms"),
    "datalog.magic_ms": ("datalog.magic", "ms"),
    "datalog.constraints_ms": ("datalog.constraints", "ms"),
    "workspace.point_query_ms": ("workspace.point_query", "ms"),
    "workspace.update_ms": ("workspace.update", "ms"),
    "crypto.sign_calls": ("crypto.sign", "calls"),
    "crypto.verify_calls": ("crypto.verify", "calls"),
    "meta.template_ms": ("meta.template", "ms"),
    "meta.template_calls": ("meta.template", "calls"),
    "core.import_ms": ("core.import", "ms"),
    "core.export_ms": ("core.export", "ms"),
    "net.encode_ms": ("net.encode", "ms"),
    "net.decode_ms": ("net.decode", "ms"),
    "net.frame_ms": ("net.frame", "ms"),
    "cluster.bootstrap_ms": ("cluster.bootstrap", "ms"),
    "cluster.integrate_ms": ("cluster.integrate", "ms"),
    "cluster.scheduler_ms": ("cluster.scheduler", "ms"),
    "serve.handle_ms": ("serve.handle", "ms"),
}


def per_layer(record: RunRecord, tracer: Tracer, traced_ops_per_s: float
              ) -> dict:
    """The per-layer metrics of a traced run: ``{name: (value, unit)}``.

    Times are self times per operation (``cluster.bootstrap_total_ms``
    also counts the bootstrap's children, the local fixpoint), corrected
    like the end-to-end timings by the run's median calibration reading
    (``host.calib_ms``); counts are per operation too.  ``serve.*_p50/p99``
    are the traced run's request latencies by kind, ``analysis.check_ms``
    is per set-up, not per operation.
    """
    count = len(record.ops)
    calib = statistics.median(record.readings)
    scale = REFERENCE_MS / calib * 1e3 / count
    op_ids = range(count)
    spans = tracer.summary(op_ids)
    out: dict = {}
    for metric, (span, what) in SPAN_METRICS.items():
        seconds, calls = spans.get(span, (0.0, 0))
        out[metric] = (seconds * scale, "ms") if what == "ms" \
            else (calls / count, "count")
    sign = spans.get("crypto.sign", (0.0, 0))[0]
    verify = spans.get("crypto.verify", (0.0, 0))[0]
    out["crypto.mac_ms"] = ((sign + verify) * scale, "ms")
    out["datalog.derivations"] = (record.derivations / count, "count")
    out["net.messages"] = (record.wire_messages / count, "count")
    out["net.bytes"] = (record.wire_bytes / count, "bytes")
    out["cluster.rounds"] = (record.rounds / count, "count")

    kinds = latencies(record)
    for metric, kind, q in (("serve.query_p50_ms", "query", 50),
                            ("serve.query_p99_ms", "query", 99),
                            ("serve.assert_p50_ms", "assert", 50),
                            ("serve.retract_p50_ms", "retract", 50)):
        ms = kinds.get(kind)
        out[metric] = (percentile(ms, q) if ms else 0.0, "ms")

    roots = tracer.root_durations()
    handled = _covered(tracer, "serve.handle", op_ids)
    served = sum(roots[i] - handled[i] for i in handled)
    out["serve.wait_ms"] = (served * scale, "ms")
    bootstrap = _covered(tracer, "cluster.bootstrap", op_ids)
    out["cluster.bootstrap_total_ms"] = (sum(bootstrap.values()) * scale,
                                         "ms")

    unattributed = spans.get(ROOT, (0.0, 0))[0]
    total = sum(roots.values())
    setup_check = tracer.summary([SETUP_OP]).get("analysis.check", (0.0, 0))
    out["analysis.check_ms"] = (
        setup_check[0] * REFERENCE_MS / calib * 1e3 / len(record.setups),
        "ms")
    out["trace.unattributed_ms"] = (unattributed * scale, "ms")
    out["trace.coverage_pct"] = (100.0 * (1 - unattributed / total), "%")
    out["trace.ops_per_s"] = (traced_ops_per_s, "1/s")
    out["host.calib_ms"] = (calib, "ms")
    return out


def _covered(tracer: Tracer, span: str, op_ids) -> dict:
    """``{operation id: seconds}`` of the named spans' time inside their
    operation's root span."""
    root, name_id = tracer.name_id(ROOT), tracer.name_id(span)
    wanted = set(op_ids)
    bounds: dict = {}
    out: dict = {}
    for i in range(len(tracer.name)):
        op = tracer.op[i]
        if op not in wanted:
            continue
        if tracer.name[i] == root:
            bounds[op] = (tracer.start[i], tracer.end[i])
        elif tracer.name[i] == name_id:
            out.setdefault(op, []).append((tracer.start[i], tracer.end[i]))
    return {op: sum(max(0.0, min(end, bounds[op][1])
                        - max(start, bounds[op][0]))
                    for start, end in spans)
            for op, spans in out.items()}
