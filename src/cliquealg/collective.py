"""Small collective-communication idioms built on the routing primitive.

Each helper is a constant number of routed phases with per-node load O(L/n + n)
for an L-element payload, so every one of them finishes in O(ceil(L/n)) rounds.
"""

from __future__ import annotations

import random
from typing import Callable, Sequence

import numpy as np

from .sim import CliqueWorld


def share_random(world: CliqueWorld, subset: Sequence[int], draw_phase: str, phase: str,
                 label: str, out_key, draw: Callable[[random.Random], Sequence[int]]) -> None:
    """Random coins drawn at one node -> full copy at every node.

    The node at position 0 draws the integers draw(view.rng(label)) in the
    local phase `draw_phase`; a scatter of ceil(L/n)-element chunks and an
    allgather then leave them, as an int64 vector, under out_key at every
    node of the subset.
    """
    subset = tuple(subset)
    nodes = np.array(subset)
    n = len(subset)
    drawn = (out_key, "drawn")

    def draw_step(view):
        if view.pos == 0:
            view.put(drawn, np.asarray(draw(view.rng(label)), dtype=np.int64))

    world.run_local(subset, draw_phase, draw_step)

    def scatter(view):
        vec = view.pop(drawn, None)
        if vec is None or vec.size == 0:
            return
        chunk = -(-vec.size // n)  # ceil
        full = vec.size // chunk  # equal chunks, then at most one shorter one
        yield nodes[:full], (out_key, "chunk"), vec[:full * chunk].reshape(full, chunk)
        if vec.size % chunk:
            yield subset[full], (out_key, "chunk"), vec[full * chunk:]

    world.route(subset, f"{phase}-scatter", scatter)

    def allgather(view):
        part = view.get((out_key, "chunk"))
        if part is None:
            return
        yield nodes, (out_key, "part", view.node), np.broadcast_to(part, (n, part.size))

    world.route(subset, f"{phase}-allgather", allgather)

    def assemble(view):
        pieces = [part for part in (view.pop((out_key, "part", node), None) for node in subset)
                  if part is not None]
        view.pop((out_key, "chunk"), None)
        view.put(out_key, np.concatenate(pieces) if pieces else np.zeros(0, dtype=np.int64))

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

