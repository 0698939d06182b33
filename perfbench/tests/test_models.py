"""The reference models on small cases worked out by hand."""

import pytest

from lbbench.models import GroupModel, MessageLog, link_reachability, \
    transitive_closure
from lbbench.timing import DriftClock, REFERENCE_MS, percentile


def test_closure_of_a_cycle_and_a_tail():
    edges = {(1, 2), (2, 3), (3, 1), (3, 4)}
    # 1, 2, 3 reach each other and themselves (around the cycle), and 4.
    cycle = {(a, b) for a in (1, 2, 3) for b in (1, 2, 3, 4)}
    assert transitive_closure(edges) == cycle


def test_closure_of_a_chain_has_no_self_loops():
    assert transitive_closure({("a", "b"), ("b", "c")}) == \
        {("a", "b"), ("b", "c"), ("a", "c")}
    assert transitive_closure(set()) == set()


def test_link_reachability_counts_walks_of_one_or_more_links():
    model = link_reachability([("a", "b"), ("b", "c")], ["a", "b", "c", "d"])
    # a walks a-b-a back to itself; d has no link, so reaches nothing.
    assert model["a"] == {("a", "a"), ("a", "b"), ("a", "c")}
    assert model["c"] == {("c", "a"), ("c", "b"), ("c", "c")}
    assert model["d"] == set()


def test_link_reachability_keeps_components_apart():
    model = link_reachability([("a", "b"), ("c", "d")], ["a", "b", "c", "d"])
    assert model["b"] == {("b", "a"), ("b", "b")}
    assert model["d"] == {("d", "c"), ("d", "d")}


def test_group_model_follows_nesting_upwards_only():
    model = GroupModel()
    model.add_subgroup("staff", "all")       # staff is inside all
    model.add_subgroup("admins", "staff")
    model.add_grant("all", "wiki", "read")
    model.add_grant("staff", "payroll", "read")
    model.add_grant("admins", "payroll", "write")
    model.add_member("ann", "admins")
    model.add_member("bob", "staff")
    assert model.access("ann", "read") == \
        {("ann", "wiki", "read"), ("ann", "payroll", "read")}
    assert model.access("bob", "write") == set()
    assert model.all_access() == {
        ("ann", "wiki", "read"), ("ann", "payroll", "read"),
        ("ann", "payroll", "write"),
        ("bob", "wiki", "read"), ("bob", "payroll", "read")}
    model.remove_member("ann", "admins")
    assert model.access("ann", "read") == set()
    assert not model.is_member("ann", "admins")


def test_message_log_tracks_each_direction():
    log = MessageLog()
    log.send("alice", "m1")
    log.send("alice", "m2")
    log.send("bob", "m1")
    assert log.received_by_peer_of("alice") == {("m1",), ("m2",)}
    assert log.received_by_peer_of("bob") == {("m1",)}
    assert log.received_by_peer_of("carol") == set()
    with pytest.raises(ValueError):
        log.send("alice", "m1")


def test_nearest_rank_percentile():
    values = list(range(1, 101))
    assert percentile(values, 50) == 50
    assert percentile(values, 99) == 99
    assert percentile(values, 100) == 100
    assert percentile([7], 99) == 7


def test_drift_clock_scales_by_the_bracketing_readings():
    clock = DriftClock()
    clock.readings = [2 * REFERENCE_MS]
    handle = clock.record(1.0)
    clock.readings.append(4 * REFERENCE_MS)
    # mean reading 3x the reference: the host ran 3x slow
    assert clock.corrected(handle) == pytest.approx(1.0 / 3)
    # the last duration has no later reading: its own reading closes it
    assert clock.corrected(clock.record(1.0)) == pytest.approx(0.25)
