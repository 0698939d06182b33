"""The four workloads, each driven through the program's public API.

A workload instance is one *pass*: :meth:`setup` builds the initial
state to fixpoint, :meth:`operations` yields a fixed count of
``(kind, callable)`` operations, :meth:`check` compares the program's
outputs with the benchmark's own model after set-up and after each
operation (outside the timed regions), :meth:`finish` runs the
end-of-pass checks and :meth:`close` releases threads and sockets.
Every input is drawn from the ``rng`` the pass is built with, so a seed
fixes the inputs.

A failed check raises :class:`CheckFailed`.
"""

from __future__ import annotations

import threading
from typing import Callable, Iterator

from repro import LBTrustSystem
from repro.cluster import Cluster, Partitioner
from repro.datalog.errors import ConstraintViolation
from repro.languages.sendlog import install_sendlog
from repro.net import SocketNetwork
from repro.serve import ServeClient, TrustServer

from .models import GroupModel, MessageLog, link_reachability, \
    transitive_closure


class CheckFailed(AssertionError):
    """The program's output disagrees with the reference model."""


def expect(actual, expected, what: str) -> None:
    if actual != expected:
        missing = len(expected - actual) if isinstance(expected, set) else "?"
        extra = len(actual - expected) if isinstance(actual, set) else "?"
        raise CheckFailed(f"{what}: {missing} missing, {extra} unexpected")


Operation = tuple[str, Callable[[], None]]


class Workload:
    """The interface the harness drives; see the module docstring."""

    name = ""

    def __init__(self, rng) -> None:
        self.rng = rng
        #: scheduler rounds run by the operations so far
        self.rounds = 0

    def setup(self) -> None:
        raise NotImplementedError

    def operations(self) -> Iterator[Operation]:
        raise NotImplementedError

    def check(self) -> None:
        raise NotImplementedError

    def finish(self) -> None:
        self.check()

    def close(self) -> None:
        pass

    def wire(self) -> tuple[int, int]:
        """Cumulative (messages, payload bytes) the network counted."""
        raise NotImplementedError

    def eval_stats(self) -> list:
        """The live :class:`EvalStats` objects of every evaluator."""
        raise NotImplementedError


# ----------------------------------------------------------------------
# fig2_rounds — the paper's Fig. 2 says exchange
# ----------------------------------------------------------------------


class Fig2Rounds(Workload):
    """Alice and bob exchange HMAC-signed ``says`` messages in rounds.

    Set-up loads a history of ``HISTORY`` messages per direction in
    batches of ``HISTORY_BATCH``; each operation is one round of
    ``PER_ROUND`` fresh messages per direction, exchanged to quiescence.
    """

    name = "fig2_rounds"
    HISTORY = 300
    HISTORY_BATCH = 50
    ROUNDS = 15
    PER_ROUND = 20

    def setup(self) -> None:
        self.log = MessageLog()
        self.system = LBTrustSystem(auth="hmac",
                                    seed=self.rng.randrange(2 ** 31))
        self.alice = self.system.create_principal("alice")
        self.bob = self.system.create_principal("bob")
        self.alice.load("gotB(X) <- pong(X).")
        self.bob.load("gotA(X) <- ping(X).")
        for _ in range(self.HISTORY // self.HISTORY_BATCH):
            self._exchange(self.HISTORY_BATCH)

    def _fresh_id(self, sender: str) -> str:
        while True:
            message_id = f"m{self.rng.getrandbits(40):010x}"
            if message_id not in self.log.sent.get(sender, ()):
                self.log.send(sender, message_id)
                return message_id

    def _say(self, speaker, listener: str, pred: str, count: int) -> None:
        workspace = speaker.workspace
        with workspace.transaction():
            for _ in range(count):
                message_id = self._fresh_id(speaker.name)
                ref = speaker.intern(f'{pred}("{message_id}").')
                workspace.assert_fact("says", (speaker.name, listener, ref))

    def _exchange(self, count: int) -> None:
        self._say(self.alice, "bob", "ping", count)
        self._say(self.bob, "alice", "pong", count)
        self.rounds += self.system.run().rounds

    def operations(self) -> Iterator[Operation]:
        for _ in range(self.ROUNDS):
            yield "round", lambda: self._exchange(self.PER_ROUND)

    def check(self) -> None:
        expect(self.bob.tuples("gotA"), self.log.received_by_peer_of("alice"),
               "bob's gotA vs the ids alice sent")
        expect(self.alice.tuples("gotB"), self.log.received_by_peer_of("bob"),
               "alice's gotB vs the ids bob sent")

    def finish(self) -> None:
        self.check()
        # An export whose signature was not made with the shared secret
        # must be refused by the scheme's verification constraint.
        ref = self.alice.intern('ping("forged").')
        forged = ("bob", "alice", ref, "0" * 40)
        try:
            self.bob.workspace.assert_fact("export", forged)
        except ConstraintViolation:
            pass
        else:
            raise CheckFailed("bob accepted an export with a forged signature")
        self.check()

    def wire(self) -> tuple[int, int]:
        total = self.system.network.total
        return total.messages, total.bytes

    def eval_stats(self) -> list:
        return [p.workspace.stats for p in self.system.principals.values()]


# ----------------------------------------------------------------------
# sendlog_links — SeNDlog section 5.2 reachability, one link at a time
# ----------------------------------------------------------------------

REACHABILITY = """
At S:
s1: reachable(S,D) :- neighbor(S,D).
s1b: reachable(S,D)@S :- neighbor(S,D).
s2: reachable(Z,D)@Z :- neighbor(S,Z), W says reachable(S,D).
"""


class SendlogLinks(Workload):
    """The SeNDlog reachability protocol on a ring of principals (HMAC).

    Set-up links ``PRINCIPALS`` principals in a ring with ``CUTS`` evenly
    spaced ring links missing and converges; each operation adds one link
    — the missing ring links and random chords, in seeded order — and
    converges.
    """

    name = "sendlog_links"
    PRINCIPALS = 12
    CUTS = 4
    LINK_UPS = 20

    def setup(self) -> None:
        names = [f"n{i}" for i in range(self.PRINCIPALS)]
        self.names = names
        self.system = LBTrustSystem(auth="hmac",
                                    seed=self.rng.randrange(2 ** 31))
        self.principals = {n: self.system.create_principal(n) for n in names}
        install_sendlog(self.system, REACHABILITY)
        size = len(names)
        ring = [(names[i], names[(i + 1) % size]) for i in range(size)]
        # evenly spaced cuts leave arcs of equal length, so set-up does
        # the same work whatever the seed
        offset = self.rng.randrange(size)
        cut = {(offset + k * size // self.CUTS) % size
               for k in range(self.CUTS)}
        chords = [(names[i], names[j]) for i in range(size)
                  for j in range(i + 2, size) if (i, j) != (0, size - 1)]
        later = [ring[i] for i in sorted(cut)] + \
            self.rng.sample(chords, self.LINK_UPS - self.CUTS)
        self.rng.shuffle(later)
        self.pending = later
        self.links: list = []
        for i, (a, b) in enumerate(ring):
            if i not in cut:
                self._link(a, b)
        self.rounds += self.system.run(max_rounds=200).rounds

    def _link(self, a: str, b: str) -> None:
        self.principals[a].assert_fact("neighbor", (a, b))
        self.principals[b].assert_fact("neighbor", (b, a))
        self.links.append((a, b))

    def _link_up(self, a: str, b: str) -> None:
        self._link(a, b)
        self.rounds += self.system.run(max_rounds=200).rounds

    def operations(self) -> Iterator[Operation]:
        for a, b in self.pending:
            yield "link_up", (lambda a=a, b=b: self._link_up(a, b))

    def check(self) -> None:
        model = link_reachability(self.links, self.names)
        for name, principal in self.principals.items():
            expect(principal.tuples("reachable"), model[name],
                   f"{name}'s reachable vs a BFS over the links")

    def wire(self) -> tuple[int, int]:
        total = self.system.network.total
        return total.messages, total.bytes

    def eval_stats(self) -> list:
        return [p.workspace.stats for p in self.principals.values()]


# ----------------------------------------------------------------------
# authz_serve — `repro serve` over loopback sockets
# ----------------------------------------------------------------------

GROUP_POLICY = """
inGroup(U,G) <- member(U,G).
inGroup(U,G) <- inGroup(U,H), subgroup(H,G).
access(U,O,M) <- inGroup(U,G), grant(G,O,M).
"""

SERVE_PRINCIPAL = "srv"


class AuthzServe(Workload):
    """A served group/subgroup/grant policy under a read-beside-write mix.

    ``GROUPS`` groups form a complete binary ``subgroup`` tree; each of
    ``USERS`` users is a member of two random leaf groups; every group
    grants ``GRANTS`` random (object, mode) pairs.  The server runs on
    its own thread behind a loopback :class:`SocketNetwork`; one
    closed-loop client sends, per cycle, an assert of a new ``member``
    fact, ``QUERIES`` point queries, the matching retract and
    ``QUERIES`` more queries.  After each query its answer, and after
    each assert or retract the served ``access`` facts of that user, are
    compared with the model.
    """

    name = "authz_serve"
    USERS = 1200
    GROUPS = 31
    GRANTS = 5
    OBJECTS = 200
    MODES = ("read", "write")
    CYCLES = 20
    QUERIES = 8

    def __init__(self, rng) -> None:
        super().__init__(rng)
        self.thread = self.server_net = self.client_net = None

    def setup(self) -> None:
        self.model = GroupModel()
        self.system = LBTrustSystem(auth="plaintext",
                                    seed=self.rng.randrange(2 ** 31))
        principal = self.system.create_principal(SERVE_PRINCIPAL)
        principal.load(GROUP_POLICY)
        self.workspace = principal.workspace
        self.groups = [f"g{i}" for i in range(self.GROUPS)]
        leaves = self.groups[self.GROUPS // 2:]
        self.users = [f"u{i}" for i in range(self.USERS)]
        rng = self.rng
        with self.workspace.transaction():
            for i in range(1, self.GROUPS):
                child, parent = self.groups[i], self.groups[(i - 1) // 2]
                self.workspace.assert_fact("subgroup", (child, parent))
                self.model.add_subgroup(child, parent)
            for group in self.groups:
                for _ in range(self.GRANTS):
                    grant = (group, f"o{rng.randrange(self.OBJECTS)}",
                             rng.choice(self.MODES))
                    self.workspace.assert_fact("grant", grant)
                    self.model.add_grant(*grant)
            for user in self.users:
                for group in rng.sample(leaves, 2):
                    self.workspace.assert_fact("member", (user, group))
                    self.model.add_member(user, group)
        self.server_net = SocketNetwork()
        self.client_net = SocketNetwork()
        self.server = TrustServer(self.system, self.server_net,
                                  poll_interval=0.005)
        self.thread = threading.Thread(target=self.server.serve_forever,
                                       name="trust-server")
        self.thread.start()
        self.client = ServeClient(self.client_net, "client0", timeout=60.0)
        self.client.connect(server_host="127.0.0.1",
                            server_port=self.server_net.port_of(
                                self.server.node))
        self.answer = self.touched = None

    def _query(self, user: str) -> None:
        answer = self.client.query(f'access("{user}",O,M)')
        self.answer = (user, answer)

    def _assert(self, user: str, group: str) -> None:
        self.client.assert_fact("member", (user, group))
        self.model.add_member(user, group)
        self.touched = user

    def _retract(self, user: str, group: str) -> None:
        self.client.retract_fact("member", (user, group))
        self.model.remove_member(user, group)
        self.touched = user

    def _queries(self) -> Iterator[Operation]:
        for _ in range(self.QUERIES):
            user = self.rng.choice(self.users)
            yield "query", (lambda user=user: self._query(user))

    def operations(self) -> Iterator[Operation]:
        for _ in range(self.CYCLES):
            while True:
                user = self.rng.choice(self.users)
                group = self.rng.choice(self.groups)
                if not self.model.is_member(user, group):
                    break
            yield "assert", (lambda u=user, g=group: self._assert(u, g))
            yield from self._queries()
            yield "retract", (lambda u=user, g=group: self._retract(u, g))
            yield from self._queries()

    def check(self) -> None:
        if self.answer is not None:
            user, answer = self.answer
            self.answer = None
            expect(set(answer), self.model.access(user),
                   f"served access({user},O,M) vs the group model")
        if self.touched is not None:
            user, self.touched = self.touched, None
            # The server thread is idle between requests: read its state.
            served = {fact for fact in self.workspace.tuples("access")
                      if fact[0] == user}
            expect(served, self.model.access(user),
                   f"access facts of {user} after an update vs the model")

    def finish(self) -> None:
        self.check()
        # The server thread is idle between requests: read its state.
        expect(self.workspace.tuples("access"), self.model.all_access(),
               "the whole access relation vs the group model")

    def close(self) -> None:
        if self.thread is not None:
            self.server.stop()      # serve_forever exits within a poll
            self.thread.join(timeout=60.0)
        for network in (self.client_net, self.server_net):
            if network is not None:
                network.close()
        if self.thread is not None and self.thread.is_alive():
            raise RuntimeError("serve thread did not stop")

    def wire(self) -> tuple[int, int]:
        server, client = self.server_net.total, self.client_net.total
        return server.messages + client.messages, server.bytes + client.bytes

    def eval_stats(self) -> list:
        return [self.workspace.stats]


# ----------------------------------------------------------------------
# shard_tc_stream — sharded transitive closure under an edge stream
# ----------------------------------------------------------------------

TC_PROGRAM = """
tc0: reach(X,Y) <- edge(X,Y).
tc1: reach(X,Z) <- reach(X,Y), edge(Y,Z).
"""


class ShardTcStream(Workload):
    """Hash-partitioned transitive closure on a 4-node BSP cluster.

    The graph is a layered DAG of ``LAYERS`` x ``WIDTH`` vertices with
    random labels; set-up gives every vertex ``OUT_DEGREE`` random edges
    into the next layer and runs to quiescence.  Each operation asserts
    ``BATCH`` new random edges one or two layers forward and runs to
    quiescence.  ``edge`` is sharded by source and ``reach`` by
    destination, so the recursive join is co-located.
    """

    name = "shard_tc_stream"
    NODES = 4
    LAYERS = 10
    WIDTH = 16
    OUT_DEGREE = 2
    BATCH = 4
    BATCHES = 12

    def setup(self) -> None:
        rng = self.rng
        count = self.LAYERS * self.WIDTH
        labels = rng.sample(range(10 * count), count)
        self.layers = [labels[i * self.WIDTH:(i + 1) * self.WIDTH]
                       for i in range(self.LAYERS)]
        names = [f"node{i}" for i in range(self.NODES)]
        partitioner = Partitioner(names)
        partitioner.hash_partition("edge", column=0)
        partitioner.hash_partition("reach", column=1)
        self.cluster = Cluster(names, partitioner=partitioner)
        self.cluster.load(TC_PROGRAM)
        self.edges: set = set()
        for upper, lower in zip(self.layers, self.layers[1:]):
            for vertex in upper:
                for target in rng.sample(lower, self.OUT_DEGREE):
                    self.edges.add((vertex, target))
        self.cluster.assert_facts("edge", sorted(self.edges))
        self.rounds += self.cluster.run().rounds

    def _new_edges(self) -> list:
        batch: set = set()
        while len(batch) < self.BATCH:
            layer = self.rng.randrange(self.LAYERS - 1)
            hop = self.rng.choice((1, 2)) if layer < self.LAYERS - 2 else 1
            edge = (self.rng.choice(self.layers[layer]),
                    self.rng.choice(self.layers[layer + hop]))
            if edge not in self.edges:
                batch.add(edge)
        return sorted(batch)

    def _assert_batch(self, batch: list) -> None:
        self.cluster.assert_facts("edge", batch)
        self.edges.update(batch)
        self.rounds += self.cluster.run().rounds

    def operations(self) -> Iterator[Operation]:
        for _ in range(self.BATCHES):
            batch = self._new_edges()
            yield "edge_batch", (lambda b=batch: self._assert_batch(b))

    def check(self) -> None:
        expect(self.cluster.tuples("reach"), transitive_closure(self.edges),
               "reach vs a BFS closure of the edge list")

    def wire(self) -> tuple[int, int]:
        total = self.cluster.network.total
        return total.messages, total.bytes

    def eval_stats(self) -> list:
        return [node.stats for node in self.cluster.nodes.values()]


WORKLOADS = {cls.name: cls for cls in
             (Fig2Rounds, SendlogLinks, AuthzServe, ShardTcStream)}
