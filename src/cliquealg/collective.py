"""Small collective-communication idioms built on the routing primitive.

Each helper is a constant number of routed phases with per-node load O(L/n + n)
for an L-element payload, so every one of them finishes in O(ceil(L/n)) rounds.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .sim import CliqueWorld


def broadcast_vector(world: CliqueWorld, subset: Sequence[int], phase: str,
                     src_pos: int, in_key, out_key) -> None:
    """Vector held at one node -> full copy at every node (scatter + allgather)."""
    subset = tuple(subset)
    nodes = np.array(subset)
    n = len(subset)
    length = {}

    def scatter(view):
        if view.node != subset[src_pos]:
            return
        vec = np.asarray(view.get(in_key))
        length["value"] = vec.size
        chunk = -(-vec.size // n)  # ceil
        for j in range(n):
            part = vec[j * chunk:(j + 1) * chunk]
            if part.size:
                yield subset[j], (out_key, "chunk"), part

    world.route(subset, f"{phase}-scatter", scatter)
    total = length["value"]
    chunk = -(-total // n)

    def allgather(view):
        part = view.get((out_key, "chunk"))
        if part is None:
            return
        yield nodes, (out_key, "part", view.node), np.broadcast_to(part, (n, part.size))

    world.route(subset, f"{phase}-allgather", allgather)

    def assemble(view):
        pieces = []
        for j in range(n):
            part = view.pop((out_key, "part", subset[j]), None)
            if part is not None:
                pieces.append(part)
        view.pop((out_key, "chunk"), None)
        vec = np.concatenate(pieces) if pieces else np.zeros(0, dtype=np.int64)
        assert vec.size == total
        view.put(out_key, vec)

    world.run_local(subset, f"{phase}-assemble", assemble)


def allgather_scalars(world: CliqueWorld, subset: Sequence[int], phase: str,
                      in_key, out_key) -> None:
    """Every node holds a scalar; afterwards every node holds the full vector."""
    subset = tuple(subset)
    nodes = np.array(subset)

    def spread(view):
        yield nodes, (out_key, "from", view.node), np.full(len(subset), int(view.get(in_key)))

    world.route(subset, f"{phase}-exchange", spread)

    def assemble(view):
        vec = np.array([view.pop((out_key, "from", node)) for node in subset],
                       dtype=np.int64)
        view.put(out_key, vec)

    world.run_local(subset, f"{phase}-assemble", assemble)


def broadcast_scalar(world: CliqueWorld, subset: Sequence[int], phase: str,
                     src_pos: int, in_key, out_key) -> None:
    """One scalar from a designated node to everyone (one routed phase)."""
    subset = tuple(subset)

    def send(view):
        if view.node != subset[src_pos]:
            return
        value = int(view.get(in_key))
        for node in subset:
            yield node, out_key, value

    world.route(subset, f"{phase}-bcast", send)
