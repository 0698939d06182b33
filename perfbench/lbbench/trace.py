"""Spans around calls into each layer's public functions.

:class:`Tracer` wraps the functions named in :data:`TARGETS` from the
benchmark's side: a module-level function is replaced in its defining
module *and* in every ``repro`` module that imported it by name (callers
look it up there), a method is replaced on its class.  :meth:`uninstall`
puts every original back.

Each call records one span — name, start, end, parent span, operation id
— in flat arrays kept in memory; :meth:`write` saves them at the end.
A span's self time is its duration minus the durations of its child
spans.  The benchmark opens one root span per operation
(:meth:`operation`); spans a call makes on another thread while that
operation is open (the serve thread) become children of that root, so
the root's self time is whatever no traced layer accounts for.
"""

from __future__ import annotations

import gzip
import importlib
import inspect
import pkgutil
import sys
import threading
import time
from array import array
from contextlib import contextmanager
from dataclasses import dataclass

#: (span name, "module:qualname") — what the traced run wraps.
TARGETS = (
    ("datalog.parse", "repro.datalog.parser:parse_program"),
    ("datalog.parse", "repro.datalog.parser:parse_statements"),
    ("datalog.stratify", "repro.datalog.stratify:stratify"),
    ("datalog.plan", "repro.datalog.runtime:build_plan"),
    ("datalog.eval", "repro.datalog.engine:eval_stratum"),
    ("datalog.dred", "repro.datalog.incremental:propagate_deletions"),
    ("datalog.magic", "repro.datalog.magic:query_magic"),
    ("datalog.constraints", "repro.datalog.constraints:check_constraints"),
    ("workspace.point_query", "repro.workspace.workspace:Workspace.point_query"),
    ("workspace.update", "repro.workspace.workspace:Workspace.assert_facts"),
    ("workspace.update", "repro.workspace.workspace:Workspace.retract_facts"),
    ("crypto.sign", "repro.crypto.hmac_sha1:hmac_sha1_hex"),
    ("crypto.verify", "repro.crypto.hmac_sha1:verify_hmac_sha1"),
    ("meta.template", "repro.meta.registry:RuleRegistry.intern"),
    ("meta.template", "repro.meta.registry:RuleRegistry.instantiate_template"),
    ("core.import", "repro.core.system:WorkspaceNode.integrate"),
    ("core.export", "repro.core.system:WorkspaceNode.drain_outbox"),
    ("net.encode", "repro.net.batch:MessageBatcher.add"),
    ("net.encode", "repro.net.batch:MessageBatcher.flush"),
    ("net.decode", "repro.net.transport:decode_batch_message"),
    ("net.frame", "repro.net.transport:encode_request_frame"),
    ("net.frame", "repro.net.transport:decode_request_frame"),
    ("net.frame", "repro.net.transport:encode_reply_frame"),
    ("net.frame", "repro.net.transport:decode_reply_frame"),
    ("cluster.bootstrap", "repro.cluster.node:ClusterNode.bootstrap"),
    ("cluster.integrate", "repro.cluster.node:ClusterNode.integrate"),
    ("cluster.scheduler", "repro.cluster.scheduler:ExecutionRuntime.run"),
    ("serve.handle", "repro.serve.server:TrustServer.handle"),
    ("analysis.check", "repro.analysis.pipeline:analyze_statements"),
)

#: The name of the benchmark's own per-operation root span.
ROOT = "op"
#: Operation id of spans opened outside any operation.
NO_OP = -1


@dataclass
class Patch:
    owner: object
    attr: str
    original: object


def _resolve(spec: str):
    module_name, qualname = spec.split(":")
    owner = importlib.import_module(module_name)
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, attr


class Tracer:
    """Collects spans; see the module docstring."""

    def __init__(self, targets=TARGETS) -> None:
        self.targets = targets
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self._lock = threading.Lock()
        self._local = threading.local()
        self._root = -1
        self._op_id = NO_OP
        self.patches: list[Patch] = []

    # -- recording ---------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def enter(self, name_id: int) -> int:
        stack = self._stack()
        parent = stack[-1] if stack else self._root
        with self._lock:
            index = len(self.name)
            self.name.append(name_id)
            self.parent.append(parent)
            self.op.append(self._op_id)
            self.end.append(0.0)
            self.start.append(time.perf_counter())
        stack.append(index)
        return index

    def exit(self, index: int) -> None:
        self.end[index] = time.perf_counter()
        self._stack().pop()

    @contextmanager
    def operation(self, op_id: int):
        """The root span of one benchmark operation."""
        self._op_id = op_id
        index = self.enter(self.name_id(ROOT))
        self._root = index
        try:
            yield
        finally:
            self.exit(index)
            self._root = -1
            self._op_id = NO_OP

    @contextmanager
    def phase(self, op_id: int):
        """Tag spans opened outside operations (set-up) with ``op_id``."""
        self._op_id = op_id
        try:
            yield
        finally:
            self._op_id = NO_OP

    def wrap(self, name: str, fn):
        if inspect.isgeneratorfunction(fn) or inspect.iscoroutinefunction(fn):
            raise TypeError(f"cannot time lazy function {fn!r} as a span")
        name_id = self.name_id(name)
        enter, exit_ = self.enter, self.exit

        def traced(*args, **kwargs):
            index = enter(name_id)
            try:
                return fn(*args, **kwargs)
            finally:
                exit_(index)

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__qualname__ = getattr(fn, "__qualname__", name)
        return traced

    # -- patching ----------------------------------------------------------

    def install(self) -> None:
        if self.patches:
            raise RuntimeError("tracer already installed")
        # Import every module first, so no module imported later binds a
        # wrapper by name and keeps it after uninstall().
        package = importlib.import_module("repro")
        for info in pkgutil.walk_packages(package.__path__, "repro."):
            if not info.name.endswith("__main__"):
                importlib.import_module(info.name)
        try:
            for name, spec in self.targets:
                owner, attr = _resolve(spec)
                original = getattr(owner, attr)
                traced = self.wrap(name, original)
                if inspect.isclass(owner):
                    self._patch(owner, attr, traced)
                    continue
                for module in list(sys.modules.values()):
                    if not getattr(module, "__name__", "").startswith("repro"):
                        continue
                    for key, value in list(vars(module).items()):
                        if value is original:
                            self._patch(module, key, traced)
        except Exception:
            self.uninstall()
            raise

    def _patch(self, owner, attr: str, traced) -> None:
        self.patches.append(Patch(owner, attr, vars(owner)[attr]))
        setattr(owner, attr, traced)

    def uninstall(self) -> None:
        while self.patches:
            patch = self.patches.pop()
            setattr(patch.owner, patch.attr, patch.original)

    # -- analysis ----------------------------------------------------------

    def self_times(self) -> list[float]:
        """Per span: its duration minus the part of its interval that
        child spans cover (seconds).  Children on one thread nest and never
        overlap; a root's children from two threads may, so their union
        is taken, clipped to the root."""
        start, end = self.start, self.end
        children: dict[int, list] = {}
        for index, parent in enumerate(self.parent):
            if parent >= 0:
                children.setdefault(parent, []).append(index)
        self_time = [e - s for s, e in zip(start, end)]
        for parent, kids in children.items():
            low, high = start[parent], end[parent]
            covered = 0.0
            reach = low
            for kid in sorted(kids, key=start.__getitem__):
                begin, finish = max(start[kid], reach), min(end[kid], high)
                if finish > begin:
                    covered += finish - begin
                    reach = finish
            self_time[parent] -= covered
        return self_time

    def summary(self, op_ids) -> dict:
        """``{span name: (self seconds, calls)}`` over spans whose
        operation id is in ``op_ids``."""
        wanted = set(op_ids)
        totals: dict[str, list] = {}
        for index, self_time in enumerate(self.self_times()):
            if self.op[index] not in wanted:
                continue
            entry = totals.setdefault(self.names[self.name[index]], [0.0, 0])
            entry[0] += self_time
            entry[1] += 1
        return {name: (t, calls) for name, (t, calls) in totals.items()}

    def root_durations(self) -> dict:
        """``{operation id: seconds}`` of the root spans."""
        root = self._name_ids.get(ROOT)
        return {self.op[i]: self.end[i] - self.start[i]
                for i in range(len(self.name)) if self.name[i] == root}

    def write(self, path) -> int:
        """Save every span as gzip'd tab-separated text; returns the count."""
        base = self.start[0] if len(self.start) else 0.0
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("index\tname\tstart_us\tend_us\tparent\top\n")
            for i in range(len(self.name)):
                out.write(f"{i}\t{self.names[self.name[i]]}\t"
                          f"{(self.start[i] - base) * 1e6:.1f}\t"
                          f"{(self.end[i] - base) * 1e6:.1f}\t"
                          f"{self.parent[i]}\t{self.op[i]}\n")
        return len(self.name)
