"""Each workload, shrunk, runs one pass and passes its own checks; a
wrong output fails them."""

import pytest

from lbbench.harness import run_workload
from lbbench.workloads import AuthzServe, Fig2Rounds, SendlogLinks, \
    ShardTcStream


class TinyFig2(Fig2Rounds):
    HISTORY, HISTORY_BATCH, ROUNDS, PER_ROUND = 4, 2, 2, 2


class TinySendlog(SendlogLinks):
    PRINCIPALS, CUTS, LINK_UPS = 5, 2, 3


class TinyAuthz(AuthzServe):
    USERS, GROUPS, GRANTS, OBJECTS, CYCLES, QUERIES = 6, 7, 2, 5, 2, 2


class TinyTc(ShardTcStream):
    LAYERS, WIDTH, BATCHES = 4, 3, 2


@pytest.mark.parametrize("workload, operations", [
    (TinyFig2, 2), (TinySendlog, 3), (TinyAuthz, 2 * (2 + 2 * 2)),
    (TinyTc, 2)])
def test_one_pass_checks_out(workload, operations):
    record = run_workload(workload, seed=3, seconds=0)
    assert record.passes == 1
    assert record.attempted == operations
    assert record.failed == 0
    assert len(record.setups) == 1 and record.wire_bytes > 0


class LyingTc(TinyTc):
    def setup(self):
        super().setup()
        self.edges.add(("not", "there"))    # the model now disagrees


def test_a_failed_check_ends_the_run_and_is_reported():
    record = run_workload(LyingTc, seed=3, seconds=60)
    assert record.error is not None and "reach" in record.error
    # the check after set-up catches it, before any operation
    assert record.passes == 0 and record.attempted == 0
    assert len(record.setups) == 1


class LyingAuthz(TinyAuthz):
    def _assert(self, user, group):
        super()._assert(user, group)
        # a grant the server never hears of: only the model changes
        self.model.add_grant(group, "o-unknown", "read")


def test_an_update_is_checked_right_after_it():
    record = run_workload(LyingAuthz, seed=3, seconds=60)
    assert record.error is not None and "after an update" in record.error
    # the first operation of a pass is an assert
    assert record.attempted == 1
