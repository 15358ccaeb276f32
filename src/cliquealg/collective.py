"""Small collective-communication idioms built on the routing primitive.

Each helper is one routed phase with per-node load O(L + n) for an L-element
result, so every one of them finishes in O(ceil(L/n)) rounds.  Every node
sends its part as one block row to each node, so a receiver gets the parts
already stacked in subset order and its 0-round assemble only moves them.
"""

from __future__ import annotations

import random
from itertools import groupby
from typing import Callable, Sequence

import numpy as np

from .sim import CliqueWorld, NodeView


def allgather_vectors(world: CliqueWorld, subset: Sequence[int], phase: str, out_key,
                      sizes: Sequence[int], part: Callable[[NodeView], Sequence[int]]) -> None:
    """Node pos contributes the int64 vector part(view) of sizes[pos]
    elements; afterwards every node of the subset holds their concatenation,
    in subset order, under out_key.  One routed phase, then a 0-round
    assemble.

    A part goes to every node under (out_key, its size), so each node
    receives one stacked array per distinct size; an empty part is never
    delivered.  The nonempty parts of one size must lie in one run of
    positions (as a last, shorter part does), so the concatenation is the
    stacks in the order of their runs; ValueError otherwise.
    """
    subset = tuple(subset)
    nodes = np.array(subset)
    runs = [size for size, _ in groupby(size for size in sizes if size)]
    if len(runs) != len(set(runs)):
        raise ValueError(f"parts of one size are not adjacent: {list(sizes)}")
    keys = [(out_key, size) for size in runs]

    def spread(view):
        vec = np.asarray(part(view), dtype=np.int64)
        if vec.size != sizes[view.pos]:
            raise ValueError(f"part of {vec.size} elements at position {view.pos}, "
                             f"expected {sizes[view.pos]}")
        yield nodes, (out_key, vec.size), np.broadcast_to(vec, (len(subset), vec.size))

    world.route(subset, f"{phase}-allgather", spread)

    def assemble(view):
        stacks = [view.pop(key).reshape(-1) for key in keys]
        view.put(out_key, np.concatenate(stacks) if stacks else np.zeros(0, dtype=np.int64))

    world.run_local(subset, f"{phase}-assemble", assemble)


def share_random(world: CliqueWorld, subset: Sequence[int], phase: str, label: str, out_key,
                 length: int, coin: Callable[[random.Random, int], int]) -> None:
    """`length` random coins -> full copy at every node, under out_key.

    With c = ceil(length / n), the node at position j draws coins i in
    [j c, min((j + 1) c, length)) itself, as coin(view.rng(label), i), and
    one allgather leaves the int64 vector at every node of the subset.
    """
    n = len(subset)
    chunk = -(-length // n)
    sizes = [min(chunk, max(0, length - pos * chunk)) for pos in range(n)]

    def draw(view):
        rng = view.rng(label)
        start = view.pos * chunk
        return [coin(rng, i) for i in range(start, start + sizes[view.pos])]

    allgather_vectors(world, subset, phase, out_key, sizes, draw)


def allgather_scalars(world: CliqueWorld, subset: Sequence[int], phase: str,
                      in_key, out_key) -> None:
    """Every node holds a scalar; afterwards every node holds the full vector.
    The scalars arrive stacked in subset order under (out_key, "parts"), and
    a 0-round assemble moves them to out_key."""
    subset = tuple(subset)
    nodes = np.array(subset)
    parts = (out_key, "parts")

    def spread(view):
        yield nodes, parts, np.full(len(subset), int(view.get(in_key)))

    world.route(subset, f"{phase}-exchange", spread)
    world.run_local(subset, f"{phase}-assemble", lambda view: view.put(out_key, view.pop(parts)))
