"""Reference models the workloads' outputs are checked against.

Each is computed apart from the program under test: plain Python sets
and breadth-first searches over the benchmark's own copy of the inputs,
sharing no code with the Datalog engine.
"""

from __future__ import annotations

from collections import deque


def reachable_from(adjacency: dict, start) -> set:
    """Vertices reachable from ``start`` by a path of one or more edges."""
    seen: set = set()
    queue = deque(adjacency.get(start, ()))
    while queue:
        vertex = queue.popleft()
        if vertex in seen:
            continue
        seen.add(vertex)
        queue.extend(adjacency.get(vertex, ()))
    return seen


def transitive_closure(edges) -> set:
    """``{(x, y)}`` such that a directed path of length >= 1 leads x to y."""
    adjacency: dict = {}
    for src, dst in edges:
        adjacency.setdefault(src, set()).add(dst)
    return {(src, dst) for src in adjacency
            for dst in reachable_from(adjacency, src)}


def link_reachability(links, principals) -> dict:
    """SeNDlog reachability over undirected links.

    ``reachable(S,D)`` holds when a walk of one or more links leads from S
    to D, so S reaches itself as soon as it has any link.  Returns
    ``{principal: {(principal, d), ...}}`` for every name in
    ``principals``.
    """
    adjacency: dict = {}
    for a, b in links:
        adjacency.setdefault(a, set()).add(b)
        adjacency.setdefault(b, set()).add(a)
    return {name: {(name, d) for d in reachable_from(adjacency, name)}
            for name in principals}


class GroupModel:
    """Users in groups, groups nested by ``subgroup``, grants per group.

    ``access(U,O,M)`` holds when U is a member of some group G, G is G2 or
    nested (transitively) inside G2, and G2 grants (O, M).
    """

    def __init__(self) -> None:
        self.members: dict = {}       # user -> {group}
        self.parents: dict = {}       # group -> {enclosing group}
        self.grants: dict = {}        # group -> {(object, mode)}

    def add_member(self, user, group) -> None:
        self.members.setdefault(user, set()).add(group)

    def remove_member(self, user, group) -> None:
        self.members[user].remove(group)

    def is_member(self, user, group) -> bool:
        return group in self.members.get(user, ())

    def add_subgroup(self, child, parent) -> None:
        self.parents.setdefault(child, set()).add(parent)

    def add_grant(self, group, obj, mode) -> None:
        self.grants.setdefault(group, set()).add((obj, mode))

    def groups_of(self, user) -> set:
        direct = self.members.get(user, set())
        enclosing = set(direct)
        for group in direct:
            enclosing |= reachable_from(self.parents, group)
        return enclosing

    def access(self, user, mode=None) -> set:
        """``{(user, object, mode)}`` — the answer to one point query;
        every mode when ``mode`` is None."""
        return {(user, obj, m) for group in self.groups_of(user)
                for (obj, m) in self.grants.get(group, ())
                if mode is None or m == mode}

    def all_access(self) -> set:
        out: set = set()
        for user in self.members:
            out |= self.access(user)
        return out


class MessageLog:
    """Message ids each sender has said to its peer, per direction."""

    def __init__(self) -> None:
        self.sent: dict = {}

    def send(self, sender: str, message_id: str) -> None:
        ids = self.sent.setdefault(sender, set())
        if message_id in ids:
            raise ValueError(f"{sender} already sent {message_id!r}")
        ids.add(message_id)

    def received_by_peer_of(self, sender: str) -> set:
        """What the peer must hold: one ``(id,)`` tuple per sent id."""
        return {(m,) for m in self.sent.get(sender, ())}
