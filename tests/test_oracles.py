import random

import numpy as np

from cliquealg import oracles
from cliquealg.minplus import INF


P = 101


def test_elimination_inverse_identity():
    rng = random.Random(0)
    for n in (2, 5, 8):
        for _ in range(10):
            mat = np.array([[rng.randrange(P) for _ in range(n)] for _ in range(n)])
            inv = oracles.inverse_mod(mat, P)
            if inv is None:
                assert oracles.det_mod(mat, P) == 0
                continue
            assert np.array_equal(oracles.mat_mult(mat, inv, P),
                                  np.eye(n, dtype=np.int64))
            assert np.array_equal(oracles.mat_mult(inv, mat, P),
                                  np.eye(n, dtype=np.int64))


def test_det_known_values():
    assert oracles.det_mod(np.diag([1, 2, 3, 4]), P) == 24
    singular = np.array([[1, 2], [2, 4]])
    assert oracles.det_mod(singular, P) == 0
    assert oracles.rank_mod(singular, P) == 1


def test_solve_consistency():
    rng = random.Random(1)
    n = 6
    mat = np.array([[rng.randrange(P) for _ in range(n)] for _ in range(n)])
    while oracles.det_mod(mat, P) == 0:
        mat = np.array([[rng.randrange(P) for _ in range(n)] for _ in range(n)])
    b = np.array([rng.randrange(P) for _ in range(n)])
    x = oracles.solve_mod(mat, b, P)
    assert np.array_equal(oracles.mat_mult(mat, x.reshape(-1, 1), P).ravel(), b)


def test_charpoly_and_minpol_consistency():
    rng = random.Random(2)
    n = 5
    mat = np.array([[rng.randrange(P) for _ in range(n)] for _ in range(n)])
    coeffs = oracles.charpoly_mod(mat, P)
    # Cayley-Hamilton: A^n + c_1 A^(n-1) + ... + c_n I = 0
    acc = np.zeros((n, n), dtype=np.int64)
    power = np.eye(n, dtype=np.int64)
    terms = [1] + coeffs
    for coef in reversed(terms):
        acc = (acc + coef * power) % P
        power = oracles.mat_mult(power, mat, P)
    assert not acc.any()
    # minimal polynomial annihilates as well
    mp = oracles.minpol_mod(mat, P)
    acc = np.zeros((n, n), dtype=np.int64)
    power = np.eye(n, dtype=np.int64)
    for coef in mp:
        acc = (acc + coef * power) % P
        power = oracles.mat_mult(power, mat, P)
    assert not acc.any()


def test_floyd_warshall_triangle_identity():
    rng = random.Random(3)
    n = 7
    adj = np.full((n, n), INF, dtype=np.int64)
    np.fill_diagonal(adj, 0)
    for i in range(n):
        for j in range(n):
            if i != j and rng.random() < 0.5:
                adj[i, j] = rng.randrange(1, 5)
    dist = oracles.floyd_warshall(adj)
    for i in range(n):
        for j in range(n):
            assert dist[i, j] <= adj[i, j]
            for k in range(n):
                if max(dist[i, k], dist[k, j]) < INF // 2:
                    assert dist[i, j] <= dist[i, k] + dist[k, j]


def test_matching_enumeration_known():
    # C4 has a perfect matching, the star does not
    c4 = oracles.graph_adj_sets(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    assert oracles.max_matching_size(c4) == 2
    star = oracles.graph_adj_sets(4, [(0, 1), (0, 2), (0, 3)])
    assert oracles.max_matching_size(star) == 1
    p5 = oracles.graph_adj_sets(5, [(i, i + 1) for i in range(4)])
    assert oracles.max_matching_size(p5) == 2


def matching_table_by_masks(n, edges):
    """The one-mask-at-a-time bitmask DP that matching_table vectorizes."""
    masks = [0] * n
    for u, v in edges:
        masks[u] |= 1 << v
        masks[v] |= 1 << u
    best = [0] * (1 << n)
    for mask in range(1, 1 << n):
        low = (mask & -mask).bit_length() - 1
        rest = mask ^ (1 << low)
        out = best[rest]
        nbrs = masks[low] & rest
        while nbrs:
            vbit = nbrs & -nbrs
            nbrs ^= vbit
            out = max(out, 1 + best[rest ^ vbit])
        best[mask] = out
    return best


def test_matching_table_equals_the_per_mask_loop():
    for n, edges in oracles.connected_graphs_up_to(6):
        assert oracles.matching_table(n, edges) == matching_table_by_masks(n, edges)
    rng = random.Random(16)
    for _ in range(50):
        prob = rng.choice((0.1, 0.2, 0.3, 0.5))
        edges = [(i, j) for i in range(16) for j in range(i + 1, 16) if rng.random() < prob]
        assert oracles.matching_table(16, edges) == matching_table_by_masks(16, edges)


def test_gallai_edmonds_oracle_p3():
    d, k, c = oracles.gallai_edmonds_oracle(3, [(0, 1), (1, 2)])
    assert d == {0, 2} and k == {1} and c == set()


def test_allowed_edges_oracle_p4():
    allowed = oracles.allowed_edges_oracle(4, [(0, 1), (1, 2), (2, 3)])
    assert allowed == {frozenset((0, 1)), frozenset((2, 3))}


def test_connected_graph_counts():
    per_size = {}
    for n, edges in oracles.connected_graphs_up_to(6):
        per_size[n] = per_size.get(n, 0) + 1
    assert per_size == {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112}


def test_minplus_product_against_bruteforce():
    rng = random.Random(4)
    a = np.array([[rng.randrange(-3, 4) if rng.random() < 0.7 else INF
                   for _ in range(5)] for _ in range(4)], dtype=np.int64)
    b = np.array([[rng.randrange(-3, 4) if rng.random() < 0.7 else INF
                   for _ in range(4)] for _ in range(5)], dtype=np.int64)
    got = oracles.minplus_product(a, b)
    for i in range(4):
        for j in range(4):
            best = INF
            for s in range(5):
                if a[i, s] < INF // 2 and b[s, j] < INF // 2:
                    best = min(best, int(a[i, s]) + int(b[s, j]))
            assert got[i, j] == best
