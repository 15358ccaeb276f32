"""Centralized reference implementations used to verify the distributed code.

Everything here is deliberately independent of the distributed modules: plain
Gaussian elimination, schoolbook loops, Floyd-Warshall, and exponential-time
matching enumeration.  These are the ground truth the test suite trusts.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

import numpy as np

from .minplus import INF, INF_THRESHOLD


# ------------------------------------------------------ field linear algebra

def mat_mult(a, b, p: int) -> np.ndarray:
    """Schoolbook triple loop."""
    a = np.asarray(a, dtype=np.int64) % p
    b = np.asarray(b, dtype=np.int64) % p
    n, m = a.shape
    m2, q = b.shape
    assert m == m2
    out = np.zeros((n, q), dtype=np.int64)
    for i in range(n):
        for j in range(q):
            acc = 0
            for s in range(m):
                acc += int(a[i, s]) * int(b[s, j])
            out[i, j] = acc % p
    return out


def _eliminate(a, p: int):
    """Forward elimination; returns (echelon matrix, rank, det, row ops)."""
    mat = [[int(x) % p for x in row] for row in np.asarray(a)]
    rows = len(mat)
    cols = len(mat[0]) if rows else 0
    det = 1
    rank = 0
    pivots = []
    for col in range(cols):
        pivot = None
        for i in range(rank, rows):
            if mat[i][col] % p:
                pivot = i
                break
        if pivot is None:
            continue
        if pivot != rank:
            mat[rank], mat[pivot] = mat[pivot], mat[rank]
            det = -det
        inv = pow(mat[rank][col], -1, p)
        det = det * mat[rank][col] % p
        mat[rank] = [x * inv % p for x in mat[rank]]
        for i in range(rows):
            if i != rank and mat[i][col]:
                f = mat[i][col]
                mat[i] = [(x - f * y) % p for x, y in zip(mat[i], mat[rank])]
        pivots.append(col)
        rank += 1
    return mat, rank, det % p, pivots


def rank_mod(a, p: int) -> int:
    return _eliminate(a, p)[1]


def det_mod(a, p: int) -> int:
    a = np.asarray(a)
    n = a.shape[0]
    mat, rank, det, _ = _eliminate(a, p)
    return det if rank == n else 0


def inverse_mod(a, p: int):
    """Inverse over GF(p), or None if singular."""
    a = np.asarray(a)
    n = a.shape[0]
    aug = np.concatenate([a % p, np.eye(n, dtype=np.int64)], axis=1)
    mat, rank, _, pivots = _eliminate(aug, p)
    if pivots[:n] != list(range(n)):
        return None
    return np.array([row[n:] for row in mat[:n]], dtype=np.int64)


def solve_mod(a, b, p: int):
    inv = inverse_mod(a, p)
    if inv is None:
        return None
    b = np.asarray(b, dtype=np.int64).reshape(-1, 1)
    return mat_mult(inv, b, p).ravel()


def charpoly_mod(a, p: int) -> list[int]:
    """[c_1..c_n] with det(xI - A) = x^n + c_1 x^(n-1) + ... + c_n.

    Evaluation at n+1 points plus Lagrange interpolation; needs p > n.
    """
    a = np.asarray(a, dtype=np.int64) % p
    n = a.shape[0]
    if p <= n:
        raise ValueError("field too small to interpolate the characteristic polynomial")
    xs = list(range(n + 1))
    ys = []
    for x in xs:
        mat = (x * np.eye(n, dtype=np.int64) - a) % p
        ys.append(det_mod(mat, p))
    # Lagrange interpolation to monomial coefficients, low degree first
    coeffs = [0] * (n + 1)
    for i, (xi, yi) in enumerate(zip(xs, ys)):
        basis = [1]
        denom = 1
        for j, xj in enumerate(xs):
            if j == i:
                continue
            basis = _poly_mul_linear(basis, (-xj) % p, p)
            denom = denom * (xi - xj) % p
        scale = yi * pow(denom, -1, p) % p
        for d_idx, c in enumerate(basis):
            coeffs[d_idx] = (coeffs[d_idx] + scale * c) % p
    # coeffs is det(xI-A) low-first; convert to c_1..c_n (high-to-low after x^n)
    assert coeffs[n] == 1 % p
    return [coeffs[n - j] for j in range(1, n + 1)]


def _poly_mul_linear(poly: list[int], constant: int, p: int) -> list[int]:
    """poly(x) * (x + constant) mod p, low-first coefficients."""
    out = [0] * (len(poly) + 1)
    for i, c in enumerate(poly):
        out[i] = (out[i] + c * constant) % p
        out[i + 1] = (out[i + 1] + c) % p
    return out


def minpol_mod(a, p: int) -> list[int]:
    """Monic minimal polynomial of A, low-first coefficients.

    Incremental echelon basis over the flattened powers: the first power that
    reduces to zero against the span of the lower ones yields the (monic,
    minimal) dependency directly from the tracked combination.
    """
    a = np.asarray(a, dtype=np.int64) % p
    n = a.shape[0]
    basis: list[tuple[int, np.ndarray, np.ndarray]] = []  # (pivot, row, combo)
    power = np.eye(n, dtype=np.int64)
    for j in range(n + 1):
        vec = power.ravel().copy() % p
        combo = np.zeros(n + 2, dtype=np.int64)
        combo[j] = 1
        for pivot, row, row_combo in basis:
            factor = int(vec[pivot])
            if factor:
                vec = (vec - factor * row) % p
                combo = (combo - factor * row_combo) % p
        nz = np.flatnonzero(vec)
        if nz.size == 0:
            # sum_i combo[i] A^i = 0 with combo[j] = 1: monic of degree j
            return [int(c) for c in combo[:j + 1]]
        pivot = int(nz[0])
        inv = pow(int(vec[pivot]), -1, p)
        basis.append((pivot, vec * inv % p, combo * inv % p))
        power = (power @ a) % p if n * (p - 1) ** 2 < (1 << 62) else mat_mult(power, a, p)
    raise AssertionError("minimal polynomial must exist by degree n")


# ---------------------------------------------------------------- min-plus

def minplus_product(a, b) -> np.ndarray:
    a = np.asarray(a, dtype=np.int64)
    b = np.asarray(b, dtype=np.int64)
    n, m = a.shape
    q = b.shape[1]
    out = np.full((n, q), INF, dtype=np.int64)
    for i in range(n):
        for j in range(q):
            best = INF
            for s in range(m):
                if a[i, s] >= INF_THRESHOLD or b[s, j] >= INF_THRESHOLD:
                    continue
                cand = int(a[i, s]) + int(b[s, j])
                if cand < best:
                    best = cand
            out[i, j] = best
    return out


def floyd_warshall(adj) -> np.ndarray:
    dist = np.asarray(adj, dtype=np.int64).copy()
    n = dist.shape[0]
    for k in range(n):
        for i in range(n):
            if dist[i, k] >= INF_THRESHOLD:
                continue
            for j in range(n):
                if dist[k, j] >= INF_THRESHOLD:
                    continue
                cand = int(dist[i, k]) + int(dist[k, j])
                if cand < dist[i, j]:
                    dist[i, j] = cand
    return dist


# ---------------------------------------------------------------- matchings

def matching_table(n: int, edges) -> list[int]:
    """best[mask] = maximum matching size of the induced subgraph on mask.

    One bottom-up pass over all 2^n vertex subsets; queries for any induced
    subgraph (vertex deletions) are then O(1).
    """
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
            cand = 1 + best[rest ^ vbit]
            if cand > out:
                out = cand
        best[mask] = out
    return best


def graph_adj_sets(n: int, edges) -> tuple[frozenset, ...]:
    sets = [set() for _ in range(n)]
    for u, v in edges:
        sets[u].add(v)
        sets[v].add(u)
    return tuple(frozenset(s) for s in sets)


def max_matching_size(adj_sets: tuple[frozenset, ...]) -> int:
    """nu(G); exponential-time enumeration, fine up to ~16 vertices."""
    n = len(adj_sets)
    edges = [(u, v) for u in range(n) for v in adj_sets[u] if u < v]
    return matching_table(n, edges)[(1 << n) - 1]


def noncritical_vertices(n: int, edges) -> set[int]:
    """Vertices missed by at least one maximum matching (0-based)."""
    best = matching_table(n, edges)
    full = (1 << n) - 1
    base = best[full]
    return {v for v in range(n) if best[full ^ (1 << v)] == base}


def gallai_edmonds_oracle(n: int, edges) -> tuple[set[int], set[int], set[int]]:
    d_set = noncritical_vertices(n, edges)
    k_set = set()
    for u, v in edges:
        if u in d_set and v not in d_set:
            k_set.add(v)
        if v in d_set and u not in d_set:
            k_set.add(u)
    c_set = set(range(n)) - d_set - k_set
    return d_set, k_set, c_set


def allowed_edges_oracle(n: int, edges) -> set[frozenset]:
    """Edges contained in at least one perfect matching (graph must have one)."""
    best = matching_table(n, edges)
    full = (1 << n) - 1
    assert n % 2 == 0 and best[full] == n // 2
    return {frozenset((u, v)) for u, v in edges
            if best[full ^ (1 << u) ^ (1 << v)] == n // 2 - 1}


# ------------------------------------------------- small-graph enumeration

def connected_graphs_up_to(n_max: int) -> list[tuple[int, tuple[tuple[int, int], ...]]]:
    """One representative per isomorphism class of connected graphs, n <= n_max."""
    out = []
    for n in range(1, n_max + 1):
        for edges in _graph_classes(n):
            if _is_connected(n, edges):
                out.append((n, edges))
    return out


def _edge_list(n: int) -> list[tuple[int, int]]:
    return [(i, j) for i in range(n) for j in range(i + 1, n)]


def _perm_tables(n: int) -> list[list[int]]:
    """For each vertex permutation, the induced permutation of edge slots."""
    pairs = _edge_list(n)
    positions = {pair: i for i, pair in enumerate(pairs)}
    tables = []
    for perm in itertools.permutations(range(n)):
        table = []
        for u, v in pairs:
            pu, pv = perm[u], perm[v]
            if pu > pv:
                pu, pv = pv, pu
            table.append(positions[(pu, pv)])
        tables.append(table)
    return tables


def _canonical_mask(mask: int, tables: list[list[int]]) -> int:
    best = None
    for table in tables:
        relabeled = 0
        m = mask
        while m:
            idx = (m & -m).bit_length() - 1
            m &= m - 1
            relabeled |= 1 << table[idx]
        if best is None or relabeled < best:
            best = relabeled
    return best


@lru_cache(maxsize=None)
def _graph_classes(n: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """All graphs on n labeled-irrelevant vertices, one per isomorphism class.

    Built by augmenting every (n-1)-vertex class with a new vertex attached to
    every possible neighborhood, then deduplicating by canonical edge mask.
    """
    if n == 1:
        return ((),)
    pairs = _edge_list(n)
    positions = {pair: i for i, pair in enumerate(pairs)}
    tables = _perm_tables(n)
    seen = set()
    out = []
    for edges in _graph_classes(n - 1):
        base_mask = sum(1 << positions[pair] for pair in edges)
        for nbr in range(1 << (n - 1)):
            mask = base_mask
            for v in range(n - 1):
                if nbr >> v & 1:
                    mask |= 1 << positions[(v, n - 1)]
            canon = _canonical_mask(mask, tables)
            if canon in seen:
                continue
            seen.add(canon)
            out.append(tuple(pairs[i] for i in range(len(pairs)) if canon >> i & 1))
    return tuple(out)


def _is_connected(n: int, edges) -> bool:
    if n == 1:
        return True
    adj = [set() for _ in range(n)]
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    seen = {0}
    stack = [0]
    while stack:
        u = stack.pop()
        for v in adj[u]:
            if v not in seen:
                seen.add(v)
                stack.append(v)
    return len(seen) == n
