"""The tracer: patching, restoring, and self time."""

import importlib
import threading
import time

import pytest

from lbbench.trace import ROOT, TARGETS, Tracer, _resolve


def _every_binding():
    """``{(owner, attr): object}`` for every name the targets resolve to,
    including modules that imported a target function by name."""
    import sys
    bindings = {}
    for _, spec in TARGETS:
        owner, attr = _resolve(spec)
        original = getattr(owner, attr)
        bindings[(owner, attr)] = vars(owner)[attr]
        for module in list(sys.modules.values()):
            if getattr(module, "__name__", "").startswith("repro"):
                for key, value in vars(module).items():
                    if value is original:
                        bindings[(module, key)] = value
    return bindings


def test_uninstall_restores_every_patched_name():
    tracer = Tracer()
    before = _every_binding()
    tracer.install()
    try:
        patched = {(p.owner, p.attr) for p in tracer.patches}
        assert len(patched) >= len(TARGETS)
        # a by-name import is patched where its caller looks it up
        workspace = importlib.import_module("repro.workspace.workspace")
        assert (workspace, "stratify") in patched
        assert workspace.stratify.__wrapped__ is \
            importlib.import_module("repro.datalog.stratify").stratify.__wrapped__
    finally:
        tracer.uninstall()
    assert not tracer.patches
    for (owner, attr), value in before.items():
        assert vars(owner)[attr] is value
        assert not hasattr(value, "__wrapped__"), (owner, attr)


def test_install_twice_is_refused_and_failure_rolls_back():
    tracer = Tracer()
    tracer.install()
    try:
        with pytest.raises(RuntimeError):
            tracer.install()
    finally:
        tracer.uninstall()
    broken = Tracer(targets=TARGETS[:2] + (("x", "repro.datalog.parser:nope"),))
    with pytest.raises(AttributeError):
        broken.install()
    assert not broken.patches
    parser = importlib.import_module("repro.datalog.parser")
    assert not hasattr(parser.parse_program, "__wrapped__")


def test_self_time_subtracts_nested_children():
    tracer = Tracer(targets=())

    def leaf():
        time.sleep(0.02)

    traced_leaf = tracer.wrap("leaf", leaf)

    def middle():
        time.sleep(0.01)
        traced_leaf()

    traced_middle = tracer.wrap("middle", middle)
    with tracer.operation(0):
        traced_middle()
    summary = tracer.summary([0])
    assert summary["leaf"][0] == pytest.approx(0.02, abs=0.008)
    assert summary["middle"][0] == pytest.approx(0.01, abs=0.008)
    assert summary[ROOT][0] == pytest.approx(0.0, abs=0.005)
    assert summary["leaf"][1] == summary["middle"][1] == 1


def test_other_thread_spans_join_the_open_operation_without_double_count():
    tracer = Tracer(targets=())
    work = tracer.wrap("server", lambda: time.sleep(0.03))
    local = tracer.wrap("client", lambda: time.sleep(0.03))
    with tracer.operation(5):
        thread = threading.Thread(target=work)
        thread.start()
        local()              # overlaps the server span in time
        thread.join(timeout=10)
        assert not thread.is_alive()
    summary = tracer.summary([5])
    assert summary["server"][1] == 1
    # the root's self time is what neither span covers: near zero, and
    # never negative although the two children overlap
    assert 0.0 <= summary[ROOT][0] < 0.01
    root = tracer.root_durations()[5]
    assert root >= 0.03
