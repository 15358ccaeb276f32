"""Small collective-communication idioms built on the routing primitive.

Each helper is one routed phase with per-node load O(L + n) for an L-element
result, so every one of them finishes in O(ceil(L/n)) rounds.
"""

from __future__ import annotations

import random
from typing import Callable, Sequence

import numpy as np

from .sim import CliqueWorld, NodeView


def allgather_vectors(world: CliqueWorld, subset: Sequence[int], phase: str, out_key,
                      part: Callable[[NodeView], Sequence[int]]) -> None:
    """Node pos contributes the int64 vector part(view); afterwards every node
    of the subset holds their concatenation, in subset order, under out_key.
    One routed phase, then a 0-round assemble."""
    subset = tuple(subset)
    nodes = np.array(subset)

    def spread(view):
        vec = np.asarray(part(view), dtype=np.int64)
        yield nodes, (out_key, "part", view.node), np.broadcast_to(vec, (len(subset), vec.size))

    world.route(subset, f"{phase}-allgather", spread)

    def assemble(view):  # an empty part is never delivered
        pieces = [piece for piece in (view.pop((out_key, "part", node), None) for node in subset)
                  if piece is not None]
        view.put(out_key, np.concatenate(pieces) if pieces else np.zeros(0, dtype=np.int64))

    world.run_local(subset, f"{phase}-assemble", assemble)


def share_random(world: CliqueWorld, subset: Sequence[int], phase: str, label: str, out_key,
                 length: int, coin: Callable[[random.Random, int], int]) -> None:
    """`length` random coins -> full copy at every node, under out_key.

    With c = ceil(length / n), the node at position j draws coins i in
    [j c, min((j + 1) c, length)) itself, as coin(view.rng(label), i), and
    one allgather leaves the int64 vector at every node of the subset.
    """
    chunk = -(-length // len(subset))

    def draw(view):
        rng = view.rng(label)
        return [coin(rng, i) for i in range(view.pos * chunk, min((view.pos + 1) * chunk, length))]

    allgather_vectors(world, subset, phase, out_key, draw)


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
