import numpy as np
import pytest

from cliquealg.collective import allgather_vectors, share_random
from cliquealg.sim import CliqueWorld


def _coin(rng, i):
    return rng.randrange(97) + 100 * i  # the index shows in the coin


@pytest.mark.parametrize("n", range(1, 10))
def test_share_random_delivers_and_charges_hand_count(n):
    for length in range(3 * n + 1):
        world = CliqueWorld(n, seed=length)
        subset = world.all_nodes()
        share_random(world, subset, "coins", "label", "out", length, _coin)
        # position j draws chunk j, coins j c .. (j + 1) c - 1, from its own stream
        chunk = -(-length // n)
        rngs = [world.node_rng("label", node) for node in subset]
        want = [_coin(rngs[i // chunk], i) for i in range(length)]
        for node in subset:
            assert world.stores[node]["out"].tolist() == want, (n, length, node)
            assert set(world.stores[node]) == {"out"}, (n, length, node)
        # node j sends its chunk to n - 1 others and receives the rest; the
        # busiest is the one with a full chunk or the one with the least own
        own = min(min(chunk, max(0, length - j * chunk)) for j in range(n))
        load = max(chunk * (n - 1), length - own)
        phases = [(path, rec.rounds, rec.messages) for path, rec in world.ledger.leaves()]
        assert phases == [
            ("coins-allgather", CliqueWorld.route_rounds(load, n), (n - 1) * length),
            ("coins-assemble", 0, 0),
        ], (n, length)


def test_allgather_vectors_concatenates_in_subset_order():
    world = CliqueWorld(5)
    subset = (4, 2, 5)  # parts of 0, 1 and 2 elements
    allgather_vectors(world, subset, "g", "out", (0, 1, 2),
                      lambda view: [10 * view.node + k for k in range(view.pos)])
    for node in subset:
        assert world.stores[node]["out"].tolist() == [20, 50, 51]
    assert world.stores[1] == world.stores[3] == {}
    # node 5 sends 2 elements to each of 2 others: a load of 4 on 3 nodes
    phases = [(path, rec.rounds, rec.messages) for path, rec in world.ledger.leaves()]
    assert phases == [("g-allgather", 4, 6), ("g-assemble", 0, 0)]
