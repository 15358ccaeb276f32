"""The benchmark's workloads: seeded inputs, entry-point calls and exact references.

Every instance is prepared once per run from the run's seed.  Preparation
draws the inputs and computes the reference answer with code that shares
nothing with the distributed paths: float64-limb modular products, numpy
min-plus and Floyd-Warshall, the Gaussian-elimination oracles, and scipy's
bipartite matching.  Low-rank inputs are built exactly in Python integers.
A pass then builds a fresh world per instance, places the inputs, calls one
algorithm entry point and reads the output back.

Entry points are looked up on their module at call time, so a traced pass
sees the wrapped functions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import maximum_bipartite_matching

from cliquealg import cli, detinv, distprod, graphs, krylov, mm, oracles
from cliquealg.ff import next_prime_at_least
from cliquealg.minplus import INF, INF_THRESHOLD
from cliquealg.sim import CliqueWorld


@dataclass
class Case:
    """One prepared instance.

    place(world) puts the inputs into the node stores (timed as set-up),
    call(world, placed) runs the entry point (timed as wall time), and
    read(world, result) turns the result into the value check() judges.
    A Monte Carlo instance may answer wrongly by design, so its failures are
    counted; a wrong answer from a deterministic instance means the program
    is wrong.
    """

    name: str
    n: int
    monte_carlo: bool
    place: Callable[[CliqueWorld], Any]
    call: Callable[[CliqueWorld, Any], Any]
    read: Callable[[CliqueWorld, Any], Any]
    check: Callable[[Any], bool]


# ------------------------------------------------------------ references

def exact_matmul(a, b, p: int) -> np.ndarray:
    """(a @ b) mod p for p < 2^32, from 16-bit limbs multiplied in float64.

    Each limb product sums at most `inner` terms below 2^32, which float64
    holds exactly while inner < 2^21.
    """
    a = np.asarray(a, dtype=np.int64) % p
    b = np.asarray(b, dtype=np.int64) % p
    if p >= 1 << 32 or a.shape[-1] >= 1 << 21:
        raise ValueError("limb reference needs p < 2^32 and inner size < 2^21")
    a_hi, a_lo = (a >> 16).astype(np.float64), (a & 0xFFFF).astype(np.float64)
    b_hi, b_lo = (b >> 16).astype(np.float64), (b & 0xFFFF).astype(np.float64)

    def prod(x, y):
        return np.matmul(x, y).astype(np.int64) % p

    hi = prod(a_hi, b_hi)
    mid = (prod(a_hi, b_lo) + prod(a_lo, b_hi)) % p
    lo = prod(a_lo, b_lo)
    return ((((hi << 16) % p + mid) % p << 16) % p + lo) % p


def minplus_ref(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    out = (a[:, :, None] + b[None, :, :]).min(axis=1)
    out[out >= INF_THRESHOLD] = INF
    return out


def floyd_warshall_ref(adj: np.ndarray) -> np.ndarray:
    dist = adj.copy()
    for k in range(dist.shape[0]):
        dist = np.minimum(dist, dist[:, k, None] + dist[None, k, :])
        dist[dist >= INF_THRESHOLD] = INF
    return dist


# ------------------------------------------------------------- generators

def rand_matrix(rng: np.random.Generator, n: int, p: int) -> np.ndarray:
    return rng.integers(0, p, size=(n, n), dtype=np.int64)


def rand_invertible(rng: np.random.Generator, n: int, p: int) -> np.ndarray:
    while True:
        mat = rand_matrix(rng, n, p)
        if oracles.det_mod(mat, p) != 0:
            return mat


def low_rank(rng: np.random.Generator, n: int, rank: int, p: int) -> np.ndarray:
    """Product of random n x rank and rank x n factors, in Python integers mod p."""
    left = rng.integers(0, 1 << 62, size=(n, rank)).astype(object) % p
    right = rng.integers(0, 1 << 62, size=(rank, n)).astype(object) % p
    return (left.dot(right) % p).astype(np.int64)


def rand_minplus(rng: np.random.Generator, n: int, bound: int) -> np.ndarray:
    """Entries uniform in [-bound, bound], infinite with probability 0.2."""
    values = rng.integers(-bound, bound + 1, size=(n, n), dtype=np.int64)
    return np.where(rng.random((n, n)) < 0.8, values, INF)


def rand_graph(rng: np.random.Generator, n: int, prob: float,
               bound: int) -> graphs.WeightedGraph:
    """Undirected G(n, prob) with weights uniform in [0, bound]."""
    upper = np.triu(rng.random((n, n)) < prob, k=1)
    weights = rng.integers(0, bound + 1, size=(n, n), dtype=np.int64)
    adj = np.where(upper, weights, INF)
    adj = np.minimum(adj, adj.T)
    np.fill_diagonal(adj, 0)
    return graphs.WeightedGraph(n, False, bound, adj)


# ------------------------------------------------------------------ cases

def _equal_to(ref) -> Callable[[Any], bool]:
    return lambda out: np.array_equal(np.asarray(out), np.asarray(ref))


def _scatter(mat: np.ndarray, p: int) -> Callable[[CliqueWorld], Any]:
    return lambda world: mm.scatter_matrix(world, world.all_nodes(), mat, p)


def mm_case(n: int, k: int, kernel: str = "trivial",
            prime_of: Callable[[int], int] = lambda n: cli.default_prime("mm", n)):
    def prepare(rng):
        p = prime_of(n)
        a_mats = [rand_matrix(rng, n, p) for _ in range(k)]
        b_mats = [rand_matrix(rng, n, p) for _ in range(k)]

        def place(world):
            nodes = world.all_nodes()
            return ([mm.scatter_matrix(world, nodes, x, p) for x in a_mats],
                    [mm.scatter_matrix(world, nodes, y, p) for y in b_mats])

        return Case(
            f"mm-n{n}-k{k}-{kernel}-p{p}", n, False, place,
            lambda world, ab: mm.mm_multi(world, world.all_nodes(), ab[0], ab[1], kernel),
            lambda world, outs: np.stack([mm.gather_matrix(world, c) for c in outs]),
            _equal_to([exact_matmul(x, y, p) for x, y in zip(a_mats, b_mats)]))
    return prepare


def distprod_case(n: int, bound: int, forced_dft: bool = False):
    def prepare(rng):
        a = rand_minplus(rng, n, bound)
        b = rand_minplus(rng, n, bound)

        def place(world):
            nodes = world.all_nodes()
            return (distprod.scatter_minplus(world, nodes, a, bound),
                    distprod.scatter_minplus(world, nodes, b, bound))

        def call(world, ab):
            entry = distprod.dist_prod_dft if forced_dft else distprod.dist_prod
            return entry(world, world.all_nodes(), ab[0], ab[1])

        return Case(f"distprod-{'dft' if forced_dft else 'auto'}-n{n}-M{bound}", n, False,
                    place, call, lambda world, out: distprod.gather_minplus(world, out),
                    _equal_to(minplus_ref(a, b)))
    return prepare


def apsp_case(n: int, prob: float, bound: int):
    def prepare(rng):
        graph = rand_graph(rng, n, prob, bound)
        return Case(f"apsp-gnp-n{n}-M{bound}", n, False, lambda world: graph,
                    lambda world, g: graphs.apsp_minplus_squaring(world, g),
                    lambda world, out: distprod.gather_minplus(world, out),
                    _equal_to(floyd_warshall_ref(graph.adj)))
    return prepare


def det_case(n: int):
    def prepare(rng):
        p = cli.default_prime("det", n)
        mat = rand_matrix(rng, n, p)
        ref = oracles.det_mod(mat, p)
        return Case(f"det-n{n}-p{p}", n, False, _scatter(mat, p),
                    lambda world, a: detinv.det(world, world.all_nodes(), a),
                    lambda world, out: int(out), lambda out: out == ref)
    return prepare


def inverse_case(n: int):
    def prepare(rng):
        p = cli.default_prime("inverse", n)
        mat = rand_invertible(rng, n, p)
        ident = np.eye(n, dtype=np.int64)
        return Case(f"inverse-n{n}-p{p}", n, False, _scatter(mat, p),
                    lambda world, a: detinv.inverse(world, world.all_nodes(), a),
                    lambda world, out: mm.gather_matrix(world, out),
                    lambda out: np.array_equal(exact_matmul(mat, out, p), ident))
    return prepare


def _krylov_prime(n: int) -> int:
    return cli.default_prime("minpol", n)


def minpol_case(n: int):
    def prepare(rng):
        p = _krylov_prime(n)
        mat = rand_matrix(rng, n, p)
        ref = tuple(oracles.minpol_mod(mat, p))
        return Case(f"minpol-n{n}-p{p}", n, True, _scatter(mat, p),
                    lambda world, a: krylov.minpol_monte_carlo(world, world.all_nodes(), a),
                    lambda world, poly: tuple(int(c) for c in poly.coeffs),
                    lambda out: out == ref)
    return prepare


def det_rand_case(n: int):
    def prepare(rng):
        p = _krylov_prime(n)
        mat = rand_matrix(rng, n, p)
        ref = oracles.det_mod(mat, p)
        return Case(f"det_rand-n{n}-p{p}", n, True, _scatter(mat, p),
                    lambda world, a: krylov.det_rand(world, world.all_nodes(), a),
                    lambda world, out: int(out), lambda out: out == ref)
    return prepare


def solve_case(n: int):
    def prepare(rng):
        p = _krylov_prime(n)
        mat = rand_invertible(rng, n, p)
        rhs = rng.integers(0, p, size=n, dtype=np.int64)
        return Case(f"solve-n{n}-p{p}", n, True, _scatter(mat, p),
                    lambda world, a: krylov.solve(world, world.all_nodes(), a, rhs),
                    lambda world, out: np.asarray(out, dtype=np.int64),
                    lambda out: np.array_equal(exact_matmul(mat, out[:, None], p)[:, 0], rhs))
    return prepare


def rank_case(n: int, rank: int, prime_of: Callable[[int], int] = _krylov_prime):
    def prepare(rng):
        prime = prime_of(n)
        mat = low_rank(rng, n, rank, prime)
        ref = oracles.rank_mod(mat, prime)
        return Case(f"rank_rand-n{n}-r{rank}-p{prime}", n, True, _scatter(mat, prime),
                    lambda world, a: krylov.rank_rand(world, world.all_nodes(), a),
                    lambda world, out: int(out), lambda out: out == ref)
    return prepare


def matching_case(n: int, prob: float):
    """matching_size on a random bipartite graph with n/2 vertices a side."""
    def prepare(rng):
        half = n // 2
        biadj = rng.random((half, half)) < prob
        adj = np.full((n, n), INF, dtype=np.int64)
        adj[:half, half:][biadj] = 1
        adj[half:, :half][biadj.T] = 1
        np.fill_diagonal(adj, 0)
        graph = graphs.WeightedGraph(n, False, 1, adj)
        match = maximum_bipartite_matching(csr_matrix(biadj.astype(np.int8)),
                                           perm_type="column")
        ref = int((match >= 0).sum())
        return Case(f"matching_size-bipartite-n{n}", n, True, lambda world: graph,
                    lambda world, g: graphs.matching_size(world, g),
                    lambda world, out: int(out), lambda out: out == ref)
    return prepare


WORKLOADS = {
    "four-step": [
        mm_case(64, 1), mm_case(128, 1), mm_case(256, 1),
        mm_case(128, 1, kernel="strassen"), mm_case(64, 4),
        distprod_case(128, 3), distprod_case(64, 15),
        distprod_case(64, 3, forced_dft=True),
        apsp_case(64, 0.3, 3),
    ],
    "blocks": [
        mm_case(96, 96, prime_of=graphs.matching_prime),
        mm_case(128, 128, prime_of=graphs.matching_prime),
    ],
    "krylov-mc": [
        minpol_case(64), det_rand_case(64), solve_case(64), rank_case(64, 16),
        matching_case(64, 0.06),
        rank_case(32, 12, prime_of=lambda n: next_prime_at_least(1 << 40)),
    ],
    "detinv": [det_case(32), det_case(64), inverse_case(32), inverse_case(64)],
}

# Layers whose calls a traced run must see on each workload (span-name
# prefixes); a zero count means a wrapper missed an alias or a workload
# no longer reaches the layer it was chosen for.
REQUIRED_LAYERS = {
    "four-step": ("sim.route", "sim.run_local", "mm.mm_multi", "mm.make_medium_plan",
                  "ff.matmul_mod", "planner.solve_maincond", "distprod.dist_prod_dft",
                  "distprod.dist_prod_semiring", "graphs."),
    "blocks": ("sim.route", "sim.run_local", "mm.mm_multi", "ff.matmul_mod"),
    "krylov-mc": ("sim.route", "sim.run_local", "mm.mm_multi", "ff.matmul_mod",
                  "ff.generating_polynomial", "krylov.", "collective.", "graphs."),
    "detinv": ("sim.route", "sim.parallel_phases", "mm.mm_multi", "planner.solve_maincond",
               "detinv.", "collective."),
}


def prepare(workload: str, seed: int) -> list[Case]:
    """Draw every instance of a workload; instance i uses stream (seed, i)."""
    return [make(np.random.default_rng([seed, idx]))
            for idx, make in enumerate(WORKLOADS[workload])]
