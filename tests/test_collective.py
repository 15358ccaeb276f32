import numpy as np
import pytest

from cliquealg.collective import share_random
from cliquealg.sim import CliqueWorld


def _rounds(load, n):
    return 2 * -(-load // n)


@pytest.mark.parametrize("n", range(1, 10))
def test_share_random_delivers_and_charges_hand_count(n):
    for length in range(3 * n + 1):
        world = CliqueWorld(n, seed=length)
        subset = world.all_nodes()
        share_random(world, subset, "draw", "coins", "label", "out",
                     lambda rng: [rng.randrange(97) for _ in range(length)])
        rng = world.node_rng("label", subset[0])
        want = [rng.randrange(97) for _ in range(length)]
        for node in subset:
            assert world.stores[node]["out"].tolist() == want, (n, length, node)
        # chunks of ceil(L/n), the first one kept by the drawing node
        chunk = -(-length // n)
        sizes = [min(chunk, max(0, length - j * chunk)) for j in range(n)]
        scatter_load = max([length - sizes[0]] + sizes[1:])
        # node j sends its chunk to n - 1 others and receives the rest
        gather_load = max(max((n - 1) * size, length - size) for size in sizes)
        phases = [(path, rec.rounds, rec.messages) for path, rec in world.ledger.leaves()]
        assert phases == [
            ("draw", 0, 0),
            ("coins-scatter", _rounds(scatter_load, n), length - sizes[0]),
            ("coins-allgather", _rounds(gather_load, n), (n - 1) * length),
            ("coins-assemble", 0, 0),
        ], (n, length)
