"""Synchronous congested-clique engine: node stores, routing, and the cost ledger.

A routed phase is described by a build function that each node of the active
subset runs on its own `NodeView` (which carries the node's id and its
position `pos` in the subset).  It yields sends of one shape, a block

    (dsts, key, rows)       dsts is an int array of nodes, and row rows[i]
                            goes to node dsts[i].

A receiver holds one array under each key that rows reach it by: the rows
sent to it under that key, stacked in sender (subset) order, so a single row
arrives as a one-row stack.  `CliqueWorld.route` checks and charges them.

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
from contextlib import contextmanager
from itertools import accumulate
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

    @contextmanager
    def frame(self):
        """Scope of a routine's stores: on exit, by return or by exception,
        every key put inside the frame is popped, except those passed to the
        `keep(*items)` it yields.  An item is a key, or a `RowColMatrix`,
        whose rows and columns are kept.  A key that existed before the frame
        stays, overwritten or not.  The pops are driver-side, like `place`
        and `read`, so the ledger does not see them."""
        before = [set(store) for store in self.stores]
        kept: set = set()

        def keep(*items):
            for item in items:
                if hasattr(item, "row_key"):
                    kept.update(map(item.row_key, range(item.rows)))
                    kept.update(map(item.col_key, range(item.cols)))
                else:
                    kept.add(item)

        try:
            yield keep
        finally:
            for store, old in zip(self.stores, before):
                for key in store.keys() - old - kept:
                    del store[key]

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
        """One routed phase.  build(view) yields blocks (dsts, key, rows):
        dsts is an int array of nodes, and row i of the array rows goes to
        dsts[i].

        Each receiver holds one array under each key that rows reach it by:
        the rows sent to it under that key, stacked in sender (subset) order.
        Each row element counts `width` units.  Every destination must lie in
        the subset, a sender addresses one (destination, key) at most once,
        and the rows stacked under one (destination, key) share one shape and
        dtype; each breach raises RoutingViolation.  A row addressed to its
        own sender stays local and is free; a row holding no elements is
        skipped.  All rows are checked and charged before any is delivered,
        and every delivered element is copied once, so later changes at the
        sender do not reach the receivers.

        The rows of a phase are ordered by (key, destination, sender) once;
        each block is scattered into that order, one buffer per row format,
        and each receiver stores one slice of it per key.
        """
        n_act = len(subset)
        sends: list[tuple] = []
        srcs: list[int] = []
        for pos, node in enumerate(subset):
            for send in build(NodeView(node, pos, self.stores[node], self)):
                sends.append(send)
                srcs.append(node)
        if not sends:
            return self.ledger.phase(phase, n_act, 0, 0)
        key_ids: dict = {}
        formats: dict = {}  # (row shape, dtype) -> format id
        key_of, fmts, rows = [], [], []
        for to, key, payload in sends:
            key_of.append(key_ids.setdefault(key, len(key_ids)))
            fmts.append(formats.setdefault((payload.shape[1:], payload.dtype), len(formats)))
            rows.append(len(to))
        sizes = [math.prod(shape) for shape, _ in formats]  # elements in a row of each format
        dst = np.concatenate([send[0] for send in sends]).astype(np.int64, copy=False)
        if not self._members(subset).take(dst, mode="clip").all():
            raise RoutingViolation(f"phase {phase}: a destination lies outside the active subset")
        # one entry per row: source, key, format; and the elements it holds
        src, key_id, fmt = np.repeat(np.array([srcs, key_of, fmts]), rows, axis=1)
        units = np.array(sizes)[fmt]
        # rows by (key, destination); the stable sort keeps sender order within a pair
        pair = key_id * (self.n + 1) + dst
        if 0 in sizes:
            pair[units == 0] = -1
        order = pair.argsort(kind="stable")
        pair = pair[order]
        if 0 in sizes:  # rows holding no elements are skipped
            skip = int(np.searchsorted(pair, 0))
            order, pair = order[skip:], pair[skip:]
        same = pair[1:] == pair[:-1]  # the next row joins this row's pair
        mixed = len(formats) > 1
        sorted_fmt = fmt[order] if mixed else None
        if same.any():
            by = src[order]
            clash = same & (by[1:] == by[:-1])  # one sender, one pair, twice
            if mixed:  # stacked rows share a format
                clash |= same & (sorted_fmt[1:] != sorted_fmt[:-1])
            if clash.any():
                at = int(clash.argmax()) + 1
                row = order[at]
                why = ("sent twice by one node" if by[at] == by[at - 1]
                       else "rows of different shapes")
                raise RoutingViolation(
                    f"phase {phase}: key {list(key_ids)[key_id[row]]!r} at node {dst[row]}: {why}")
        units *= dst != src  # self-addressed rows stay local and are free
        sent = np.bincount(src, weights=units, minlength=self.n + 1)
        recv = np.bincount(dst, weights=units, minlength=self.n + 1)
        rounds = self.route_rounds(width * int(max(sent.max(), recv.max())), n_act)
        total = width * int(units.sum())
        # the per-row bookkeeping would otherwise live on beside the delivered copies
        del src, units, sent, recv, pair
        first = np.empty(order.size, dtype=bool)  # a row that opens a (key, destination) pair
        first[:1] = True
        np.logical_not(same, out=first[1:])
        ends = list(accumulate(rows))
        keys = list(key_ids)
        stores = self.stores
        for (shape, dtype), f in formats.items():
            pick = sorted_fmt == f if mixed else None
            here = order if pick is None else order[pick]
            slot = np.empty(dst.size, dtype=np.intp)
            slot[here] = np.arange(here.size)
            buf = np.empty((here.size, *shape), dtype=dtype)
            for (_, _, payload), g, count, end in zip(sends, fmts, rows, ends):
                if g == f and sizes[f]:
                    buf[slot[end - count:end]] = payload
            starts = np.flatnonzero(first if pick is None else first[pick])
            heads = here[starts]
            bounds = starts.tolist() + [here.size]
            for node, kid, lo, hi in zip(dst[heads].tolist(), key_id[heads].tolist(),
                                         bounds, bounds[1:]):
                stores[node][keys[kid]] = buf[lo:hi]
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
