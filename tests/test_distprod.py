import random

import numpy as np
import pytest

from cliquealg import distprod, mm, oracles
from cliquealg.minplus import INF, entry_bits, format_entry, read_pair_file
from cliquealg.sim import CliqueWorld


def rand_minplus(rng, rows, cols, bound, density=0.8, values=None):
    """Finite entries uniform in [-bound, bound], or drawn from `values`."""
    out = np.full((rows, cols), INF, dtype=np.int64)
    for i in range(rows):
        for j in range(cols):
            if rng.random() < density:
                out[i, j] = (rng.randrange(-bound, bound + 1) if values is None
                             else rng.choice(values))
    return out


def scatter_pair(world, a_mat, b_mat, bound):
    sub = world.all_nodes()
    a = distprod.scatter_minplus(world, sub, a_mat, bound, has_cols=False)
    b = distprod.scatter_minplus(world, sub, b_mat, bound, has_rows=False)
    return sub, a, b


def test_two_by_two_example():
    # the bounded variant of the canonical 2x2 instance
    a_mat = np.array([[0, 1], [2, INF]])
    b_mat = np.array([[1, 0], [INF, 2]])
    want = [[1, 0], [3, 2]]
    for strategy in (distprod.dist_prod_dft, distprod.dist_prod_semiring):
        world = CliqueWorld(2, seed=0)
        sub, a, b = scatter_pair(world, a_mat, b_mat, 2)
        got = distprod.gather_minplus(world, strategy(world, sub, a, b))
        assert got.tolist() == want, strategy.__name__


def test_all_infinite_inputs():
    a_mat = np.full((4, 4), INF, dtype=np.int64)
    for strategy in (distprod.dist_prod_dft, distprod.dist_prod_semiring):
        world = CliqueWorld(4, seed=0)
        sub, a, b = scatter_pair(world, a_mat, a_mat, 2)
        got = distprod.gather_minplus(world, strategy(world, sub, a, b))
        assert (got >= INF // 2).all()


def test_zero_bound_boolean_product():
    rng = random.Random(5)
    n = 6
    a_mat = np.where(np.array([[rng.random() < 0.5] * 1 for _ in range(n * n)]
                              ).reshape(n, n), 0, INF).astype(np.int64)
    b_mat = np.where(np.random.RandomState(7).rand(n, n) < 0.5, 0, INF).astype(np.int64)
    world = CliqueWorld(n, seed=0)
    sub, a, b = scatter_pair(world, a_mat, b_mat, 0)
    got = distprod.gather_minplus(world, distprod.dist_prod_dft(world, sub, a, b))
    want = oracles.minplus_product(a_mat, b_mat)
    assert np.array_equal(got, want)
    # entries are 0 where a witness exists, infinite otherwise
    assert set(np.unique(got)) <= {0, INF}


@pytest.mark.parametrize("n,m,bound", [
    (8, 8, 3), (8, 5, 2), (6, 6, 5), (8, 8, 1),
    (8, 8, 0), (8, 1, 2), (1, 1, 0), (1, 1, 1), (6, 6, 6),
])
def test_strategies_agree_with_oracle(n, m, bound):
    for seed in range(12):  # seeds from 6 on draw only the extreme entries -M, M, inf
        rng = random.Random(seed * 37 + n)
        values = None if seed < 6 else (-bound, bound)
        a_mat = rand_minplus(rng, n, m, bound, values=values)
        b_mat = rand_minplus(rng, m, n, bound, values=values)
        want = oracles.minplus_product(a_mat, b_mat)
        world = CliqueWorld(n, seed=seed)
        sub, a, b = scatter_pair(world, a_mat, b_mat, bound)
        got_dft = distprod.gather_minplus(
            world, distprod.dist_prod_dft(world, sub, a, b))
        got_semi = distprod.gather_minplus(
            world, distprod.dist_prod_semiring(world, sub, a, b))
        got_auto = distprod.gather_minplus(
            world, distprod.dist_prod(world, sub, a, b))
        assert np.array_equal(got_dft, want)
        assert np.array_equal(got_semi, want)
        assert np.array_equal(got_auto, want)


def test_semiring_handles_large_bounds():
    rng = random.Random(11)
    n = 8
    bound = 500  # far above n: DFT strategy is not applicable
    a_mat = rand_minplus(rng, n, n, bound)
    b_mat = rand_minplus(rng, n, n, bound)
    world = CliqueWorld(n, seed=0)
    sub, a, b = scatter_pair(world, a_mat, b_mat, bound)
    with pytest.raises(distprod.StrategyUnsupportedError):
        distprod.dist_prod_dft(world, sub, a, b)
    got = distprod.gather_minplus(world, distprod.dist_prod(world, sub, a, b))
    assert np.array_equal(got, oracles.minplus_product(a_mat, b_mat))
    # the selector recorded its (forced) choice
    assert any("select-semiring" in path for path, _ in world.ledger.leaves())


def test_selector_matches_prediction():
    for (n, m, bound) in [(8, 8, 1), (8, 8, 8), (16, 16, 3), (16, 4, 2)]:
        semi = distprod.predict_semiring_rounds(n, m, bound)
        dft = distprod.predict_dft_rounds(n, m, bound) if bound <= n and m <= n else None
        world = CliqueWorld(n, seed=1)
        rng = random.Random(n * m)
        sub, a, b = scatter_pair(world, rand_minplus(rng, n, m, bound),
                                 rand_minplus(rng, m, n, bound), bound)
        distprod.dist_prod(world, sub, a, b)
        chosen = [path for path, _ in world.ledger.leaves() if "select-" in path][0]
        expect = "dft" if dft is not None and dft < semi else "semiring"
        assert expect in chosen, (n, m, bound, semi, dft, chosen)


@pytest.mark.parametrize("n,m,bound", [
    (8, 8, 1), (16, 16, 3), (16, 4, 2), (13, 9, 2), (32, 32, 3), (32, 17, 40), (32, 32, 1),
])
def test_predictions_equal_ledgers(n, m, bound):
    rng = random.Random(n + m + bound)
    a_mat, b_mat = rand_minplus(rng, n, m, bound), rand_minplus(rng, m, n, bound)
    world = CliqueWorld(n, seed=0)
    sub, a, b = scatter_pair(world, a_mat, b_mat, bound)
    distprod.dist_prod_semiring(world, sub, a, b)
    assert distprod.predict_semiring_rounds(n, m, bound) == world.ledger.total_rounds
    if m <= n and bound <= n:
        world = CliqueWorld(n, seed=0)
        sub, a, b = scatter_pair(world, a_mat, b_mat, bound)
        distprod.dist_prod_dft(world, sub, a, b)
        assert distprod.predict_dft_rounds(n, m, bound) == world.ledger.total_rounds
        assert distprod.predict_dft_rounds(n, m, bound) == mm.predict_rounds(n, m, 4 * bound + 2)


def test_monotone_in_entries():
    rng = random.Random(2)
    n, bound = 6, 4
    a_mat = rand_minplus(rng, n, n, bound)
    b_mat = rand_minplus(rng, n, n, bound)
    world = CliqueWorld(n, seed=0)
    sub, a, b = scatter_pair(world, a_mat, b_mat, bound)
    base = distprod.gather_minplus(world, distprod.dist_prod_semiring(world, sub, a, b))
    for _ in range(10):
        a2 = a_mat.copy()
        i, j = rng.randrange(n), rng.randrange(n)
        a2[i, j] = min(int(a2[i, j]), rng.randrange(-bound, bound + 1))
        world2 = CliqueWorld(n, seed=0)
        sub2, a2d, b2d = scatter_pair(world2, a2, b_mat, bound)
        lowered = distprod.gather_minplus(
            world2, distprod.dist_prod_semiring(world2, sub2, a2d, b2d))
        assert (lowered <= base).all()


def test_entry_bound_violation_detected():
    world = CliqueWorld(2, seed=0)
    a_mat = np.array([[0, 5], [1, 0]])  # 5 exceeds the declared bound 2
    sub, a, b = scatter_pair(world, a_mat, np.zeros((2, 2), dtype=np.int64), 2)
    with pytest.raises(ValueError):
        distprod.dist_prod_dft(world, sub, a, b)


def test_oblivious_ledger_across_inputs():
    texts = set()
    for seed in range(20):
        rng = random.Random(seed)
        world = CliqueWorld(8, seed=0)
        sub, a, b = scatter_pair(world, rand_minplus(rng, 8, 8, 3),
                                 rand_minplus(rng, 8, 8, 3), 3)
        distprod.dist_prod(world, sub, a, b)
        texts.add(world.ledger.to_text())
    assert len(texts) == 1


def write_pair_file(path, a, b, bound_m):
    """The pair format `read_pair_file` reads: an 'n m M' header, then the n
    rows of A and the m rows of B."""
    n, m = a.shape
    assert b.shape == (m, n)
    with open(path, "w") as fh:
        fh.write(f"{n} {m} {bound_m}\n")
        for row in [*a, *b]:
            fh.write(" ".join(format_entry(v) for v in row) + "\n")


def test_pair_file_roundtrip(tmp_path):
    rng = random.Random(9)
    a_mat = rand_minplus(rng, 4, 3, 2)
    b_mat = rand_minplus(rng, 3, 4, 2)
    path = tmp_path / "pair.mp"
    write_pair_file(path, a_mat, b_mat, 2)
    a2, b2, bound = read_pair_file(path)
    assert bound == 2
    assert np.array_equal(a2, a_mat) and np.array_equal(b2, b_mat)
    assert entry_bits(2) == 3
