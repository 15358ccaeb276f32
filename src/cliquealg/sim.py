"""Synchronous congested-clique engine: node stores, routing, and the cost ledger.

A routed phase is described by a build function that each node of the active
subset runs on its own `NodeView` (which carries the node's id and its
position `pos` in the subset).  It yields sends of one of two shapes:

    (dst, key, payload)     one message: payload goes to node dst under key;
    (dsts, key, payload)    a block: dsts is an int array of nodes, and row
                            payload[i] goes to node dsts[i] under key.

A one-message send is the one-row case of a block; both are checked and
charged by the same rules.

Cost convention: a routing phase on an active subset of size n_act, in which the
most loaded node sends or receives S message units, is charged

    rounds = 2 * ceil(S / n_act)        (0 if nothing moves)

which reduces to exactly 2 rounds whenever every node's load is at most n_act.
Message units: one field element = 1 unit; a payload of b bits is charged
ceil(b / ceil(2*log2(n))) units per value (the wide-value rule used by the
min-plus routines).  Node-local computation is free.
"""

from __future__ import annotations

import hashlib
import math
import random
from collections import Counter
from contextlib import contextmanager
from itertools import repeat
from typing import Callable, Iterable, Sequence

import numpy as np


class RoutingViolation(Exception):
    pass


class DisjointnessError(Exception):
    pass


def message_bits(n: int) -> int:
    """Bits one message unit carries on n nodes: ceil(2*log2(n))."""
    return max(1, math.ceil(2 * math.log2(max(2, n))))


def wide_value_units(bits: int, n: int) -> int:
    """Message units charged for one value of the given bit width."""
    return max(1, math.ceil(bits / message_bits(n)))


class PhaseRecord:
    __slots__ = ("name", "subset_size", "rounds", "messages")

    def __init__(self, name: str, subset_size: int, rounds: int, messages: int):
        self.name = name
        self.subset_size = subset_size
        self.rounds = rounds
        self.messages = messages


class GroupRecord:
    __slots__ = ("name", "parallel", "children")

    def __init__(self, name: str, parallel: bool):
        self.name = name
        self.parallel = parallel
        self.children: list = []

    @property
    def rounds(self) -> int:
        if self.parallel:
            return max((child.rounds for child in self.children), default=0)
        return sum(child.rounds for child in self.children)

    @property
    def messages(self) -> int:
        return sum(child.messages for child in self.children)


class CostLedger:
    """Tree of phases; parallel groups charge the max of their branches."""

    def __init__(self):
        self.root = GroupRecord("", parallel=False)
        self._stack = [self.root]

    @property
    def total_rounds(self) -> int:
        return self.root.rounds

    @property
    def total_messages(self) -> int:
        return self.root.messages

    def phase(self, name: str, subset_size: int, rounds: int, messages: int) -> PhaseRecord:
        rec = PhaseRecord(name, subset_size, rounds, messages)
        self._stack[-1].children.append(rec)
        return rec

    @contextmanager
    def group(self, name: str, parallel: bool = False):
        grp = GroupRecord(name, parallel)
        self._stack[-1].children.append(grp)
        self._stack.append(grp)
        try:
            yield grp
        finally:
            self._stack.pop()

    def leaves(self) -> list[tuple[str, PhaseRecord]]:
        out: list[tuple[str, PhaseRecord]] = []

        def walk(node: GroupRecord, prefix: str):
            for child in node.children:
                if isinstance(child, PhaseRecord):
                    path = f"{prefix}/{child.name}" if prefix else child.name
                    out.append((path, child))
                else:
                    sub = f"{prefix}/{child.name}" if prefix else child.name
                    walk(child, sub)

        walk(self.root, "")
        return out

    def find(self, path: str):
        """Locate a group or phase by slash-separated path (first match)."""
        parts = path.split("/")

        def walk(node: GroupRecord, idx: int):
            for child in node.children:
                if child.name == parts[idx]:
                    if idx == len(parts) - 1:
                        return child
                    if isinstance(child, GroupRecord):
                        found = walk(child, idx + 1)
                        if found is not None:
                            return found
            return None

        return walk(self.root, 0)

    def to_text(self) -> str:
        lines = ["# congested-clique cost ledger",
                 "# unit rule: one field element = 1 unit; b-bit values cost ceil(b/ceil(2*log2(n))) units"]
        for path, rec in self.leaves():
            lines.append(
                f"phase={path} subset={rec.subset_size} rounds={rec.rounds} messages={rec.messages}"
            )
        lines.append(f"total rounds={self.total_rounds} messages={self.total_messages}")
        return "\n".join(lines) + "\n"


class NodeView:
    """Access handle for one node's local store; the only state a compute sees.

    `pos` is the node's position in the subset the phase runs on.
    """

    __slots__ = ("node", "pos", "_store", "_world")

    def __init__(self, node: int, pos: int, store: dict, world: "CliqueWorld"):
        self.node = node
        self.pos = pos
        self._store = store
        self._world = world

    def get(self, key, default=None):
        return self._store.get(key, default)

    def put(self, key, value) -> None:
        self._store[key] = value

    def pop(self, key, default=None):
        return self._store.pop(key, default)

    def pop_many(self, keys: Iterable) -> list:
        """Remove and return the values of several keys, in order."""
        store = self._store
        return [store.pop(key) for key in keys]

    def rng(self, phase: str) -> random.Random:
        return self._world.node_rng(phase, self.node)


class CliqueWorld:
    """n fully connected nodes, per-node key-value stores, one cost ledger.

    The world is owned by a single driver; node-local steps run in subset
    order, which is observationally identical to any parallel execution
    because computes only touch their own store.
    """

    def __init__(self, n: int, seed: int = 0):
        if n < 1:
            raise ValueError("need at least one node")
        self.n = n
        self.seed = seed
        self.stores: list[dict] = [dict() for _ in range(n + 1)]  # 1-based
        self.ledger = CostLedger()
        self._name_counter = 0
        self._member_masks: dict[tuple, np.ndarray] = {}
        self._plans: dict = {}

    def all_nodes(self) -> tuple[int, ...]:
        return tuple(range(1, self.n + 1))

    def fresh_name(self, prefix: str) -> str:
        self._name_counter += 1
        return f"{prefix}{self._name_counter}"

    def plan(self, key, make: Callable[[], object]):
        """The plan stored under `key`, made by `make()` on first use.  Plans
        depend on a shape only, so each shape is sized once per world."""
        if key not in self._plans:
            self._plans[key] = make()
        return self._plans[key]

    def node_rng(self, phase: str, node: int) -> random.Random:
        digest = hashlib.sha256(f"{self.seed}|{phase}|{node}".encode()).digest()
        return random.Random(int.from_bytes(digest[:8], "big"))

    def run_local(self, subset: Sequence[int], phase: str,
                  fn: Callable[[NodeView], None]) -> None:
        """Node-local computation on every node of the subset; zero rounds."""
        for pos, node in enumerate(subset):
            fn(NodeView(node, pos, self.stores[node], self))
        self.ledger.phase(phase, len(subset), 0, 0)

    def _members(self, subset: Sequence[int]) -> np.ndarray:
        """Membership mask of a subset over node ids 0..n+1, cached per subset."""
        subset = tuple(subset)
        mask = self._member_masks.get(subset)
        if mask is None:
            mask = np.zeros(self.n + 2, dtype=bool)
            mask[list(subset)] = True
            self._member_masks[subset] = mask
        return mask

    @staticmethod
    def route_rounds(load: int, n_act: int) -> int:
        """Rounds charged for a routed phase whose busiest node moves `load` units."""
        return 0 if load == 0 else 2 * math.ceil(load / n_act)

    def route(self, subset: Sequence[int], phase: str,
              build: Callable[[NodeView], Iterable[tuple]],
              width: int = 1) -> PhaseRecord:
        """One routed phase.  build(view) yields (dst, key, payload) sends.

        dst is a node, or an int array of nodes for a block send, in which
        row payload[i] goes to dsts[i]; a send of one message is the one-row
        block.  Payloads are ints or numpy arrays of field values; each
        element of a row counts `width` units.  Every destination must lie in
        the subset, and no (destination, key) pair may be delivered twice.
        A row addressed to its own sender stays local and is free; a send
        whose rows hold no elements is skipped.  All sends are checked and
        charged before any is delivered, and each delivered block is copied
        once, so later changes at the sender do not reach the receivers.
        """
        n_act = len(subset)
        sends: list[tuple] = []
        srcs: list[int] = []
        for pos, node in enumerate(subset):
            before = len(sends)
            sends.extend(build(NodeView(node, pos, self.stores[node], self)))
            srcs += [node] * (len(sends) - before)
        if not sends:
            return self.ledger.phase(phase, n_act, 0, 0)
        dsts, keys, payloads = zip(*sends)
        blocks = list(map(isinstance, dsts, repeat(np.ndarray)))
        # a send to one node is a block of one row
        rows = [len(dst) if blk else 1 for dst, blk in zip(dsts, blocks)]
        row_size = [(pl.size // count if count else 0) if blk
                    else (pl.size if isinstance(pl, np.ndarray) else 1)
                    for pl, count, blk in zip(payloads, rows, blocks)]
        key_ids = {key: i for i, key in enumerate(dict.fromkeys(keys))}
        # one entry per delivered row: source, key, elements, destination
        src, key_id, units = np.repeat(
            np.array([srcs, list(map(key_ids.__getitem__, keys)), row_size]), rows, axis=1)
        dst = np.hstack(dsts).astype(np.int64) if any(blocks) else np.array(dsts, dtype=np.int64)
        if not self._members(subset).take(dst, mode="clip").all():
            raise RoutingViolation(f"phase {phase}: a destination lies outside the active subset")
        taken = key_id * (self.n + 1) + dst
        if 0 in row_size:
            taken = taken[units > 0]
        taken = taken.tolist()
        if len(set(taken)) < len(taken):
            again = next(code for code, times in Counter(taken).items() if times > 1)
            raise RoutingViolation(
                f"phase {phase}: duplicate delivery key "
                f"{list(key_ids)[again // (self.n + 1)]!r} at node {again % (self.n + 1)}")
        units *= dst != src  # self-addressed rows stay local and are free
        sent = np.bincount(src, weights=units, minlength=self.n + 1)
        recv = np.bincount(dst, weights=units, minlength=self.n + 1)
        rounds = self.route_rounds(width * int(max(sent.max(), recv.max())), n_act)
        total = width * int(units.sum())
        # the per-row bookkeeping would otherwise live on beside the delivered copies
        del taken, src, key_id, units, dst, sent, recv
        stores = self.stores
        for to, key, payload, blk, size in zip(dsts, keys, payloads, blocks, row_size):
            if size == 0:
                continue
            if isinstance(payload, np.ndarray):
                payload = payload.copy()
            if blk:
                for node, row in zip(to.tolist(), payload):
                    stores[node][key] = row
            else:
                stores[to][key] = payload
        return self.ledger.phase(phase, n_act, rounds, total)

    def parallel_phases(self, name: str,
                        branches: Sequence[tuple[Sequence[int], Callable[[], object]]]) -> list:
        """Run sub-programs on pairwise disjoint subsets; charge max rounds.
        Returns the sub-programs' results in branch order."""
        taken: set[int] = set()
        for subset, _ in branches:
            sub = set(subset)
            if sub & taken:
                raise DisjointnessError(f"parallel phases of {name} overlap on {sub & taken}")
            taken |= sub
        results = []
        with self.ledger.group(name, parallel=True):
            for idx, (_, prog) in enumerate(branches):
                with self.ledger.group(f"branch{idx}"):
                    results.append(prog())
        return results
