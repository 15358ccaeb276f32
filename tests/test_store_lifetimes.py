"""Store lifetimes: after each public routine, on return and on raise, every
node store holds exactly the routine's inputs and its documented outputs.

Node-local state is free in the congested clique, so what a routine leaves
behind is bookkeeping; `CliqueWorld.frame` pops the rest."""

import contextlib
import random
import warnings

import numpy as np
import pytest

from cliquealg import cli, detinv, distprod, graphs, krylov, mm, oracles
from cliquealg.ff import Polynomial
from cliquealg.sim import CliqueWorld

warnings.filterwarnings("ignore", message=".*field size.*")

SIZES = [1, 2, 8]


def expected_keys(world, *items):
    """Per store, the keys that items put there: the rows and columns a
    matrix holds, or one plain key at every node."""
    want = [set() for _ in world.stores]
    for item in items:
        if not isinstance(item, mm.RowColMatrix):
            for node in world.all_nodes():
                want[node].add(item)
            continue
        sub = item.subset
        if item.has_rows:
            for i0 in range(min(item.rows, len(sub))):
                want[sub[i0]].add(item.row_key(i0))
        if item.has_cols:
            for j0 in range(min(item.cols, len(sub))):
                want[sub[j0]].add(item.col_key(j0))
    return want


def assert_holds(world, *items):
    assert [set(store) for store in world.stores] == expected_keys(world, *items)


def matrix_world(name, n, invertible=False):
    """A world holding a random n x n matrix over the default prime of name."""
    p = cli.default_prime(name, n)
    rng = np.random.default_rng(n)
    mat = rng.integers(0, p, (n, n))
    while invertible and oracles.det_mod(mat, p) == 0:
        mat = rng.integers(0, p, (n, n))
    world = CliqueWorld(n, seed=1)
    return world, world.all_nodes(), mm.scatter_matrix(world, world.all_nodes(), mat, p)


def weighted_graph(n):
    rng = random.Random(n)
    edges = [(u, v, rng.randint(1, 3)) for u in range(1, n + 1) for v in range(u + 1, n + 1)
             if rng.random() < 0.4]
    return graphs.WeightedGraph.from_edges(n, edges, directed=False, bound=3)


def matchable_graph(n):
    """A cycle through every vertex (an edge at n = 2) plus chords; it has a
    perfect matching for even n."""
    edges = {(i, i % n + 1, 1) for i in range(1, n + 1) if i != i % n + 1}
    edges |= {(1, 4, 1), (2, 7, 1)} if n == 8 else set()
    return graphs.WeightedGraph.from_edges(n, sorted(edges), directed=False, bound=1)


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("k", [1, 2])
def test_mm_multi_leaves_its_factors_and_products(n, k):
    world = CliqueWorld(n)
    sub = world.all_nodes()
    rng = np.random.default_rng(n)
    lefts = [mm.scatter_matrix(world, sub, rng.integers(0, 101, (n, n)), 101, has_cols=False)
             for _ in range(k)]
    rights = [mm.scatter_matrix(world, sub, rng.integers(0, 101, (n, n)), 101, has_rows=False)
              for _ in range(k)]
    outs = mm.mm_multi(world, sub, lefts, rights, "trivial")
    assert_holds(world, *lefts, *rights, *outs)


@pytest.mark.parametrize("n", SIZES)
def test_dist_prod_leaves_its_factors_and_product(n):
    world = CliqueWorld(n)
    sub = world.all_nodes()
    rng = np.random.default_rng(n)
    left = distprod.scatter_minplus(world, sub, rng.integers(-3, 4, (n, n)), 3, has_cols=False)
    right = distprod.scatter_minplus(world, sub, rng.integers(-3, 4, (n, n)), 3,
                                     has_rows=False)
    out = distprod.dist_prod(world, sub, left, right)
    assert_holds(world, left, right, out)


@pytest.mark.parametrize("n", SIZES)
def test_det_leaves_only_its_input(n):
    world, sub, a = matrix_world("det", n)
    detinv.det(world, sub, a)
    assert_holds(world, a)


@pytest.mark.parametrize("n", SIZES)
def test_inverse_leaves_its_input_and_the_inverse(n):
    world, sub, a = matrix_world("inverse", n, invertible=True)
    out = detinv.inverse(world, sub, a)
    assert_holds(world, a, out)


@pytest.mark.parametrize("n", SIZES)
def test_inverse_of_a_singular_matrix_leaves_only_its_input(n):
    p = cli.default_prime("inverse", n)
    world = CliqueWorld(n)
    sub = world.all_nodes()
    a = mm.scatter_matrix(world, sub, np.ones((n, n), dtype=np.int64) * (n > 1), p)
    with pytest.raises(detinv.SingularMatrixError):
        detinv.inverse(world, sub, a)
    assert_holds(world, a)


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("name,routine,outputs", [
    ("minpol", krylov.minpol_monte_carlo, ("mp_vw_all", "mp_poly")),
    ("det", krylov.det_rand, ("dr_d_all", "mp_vw_all", "mp_poly")),
    ("rank", krylov.rank_rand, ("rk_pre_all", "mp_vw_all", "mp_poly")),
])
def test_krylov_routines_leave_their_coins_and_generator(n, name, routine, outputs):
    world, sub, a = matrix_world(name, n)
    routine(world, sub, a)
    assert_holds(world, a, *outputs)


@pytest.mark.parametrize("n", SIZES)
def test_det_rand_leaves_the_same_when_every_attempt_is_inconclusive(n, monkeypatch):
    # a generator x + 1 has degree below n and g(0) != 0 for n >= 2, so
    # every attempt is inconclusive; at n = 1 the first one answers
    world, sub, a = matrix_world("det", n)
    monkeypatch.setattr(krylov, "generating_polynomial", lambda seq, q: Polynomial([1, 1], q))
    with pytest.raises(krylov.InconclusiveError) if n > 1 else contextlib.nullcontext():
        krylov.det_rand(world, sub, a)
    assert_holds(world, a, "dr_d_all", "mp_vw_all", "mp_poly")


@pytest.mark.parametrize("n", SIZES)
def test_solve_leaves_its_last_attempt(n):
    world, sub, a = matrix_world("solve", n, invertible=True)
    b = np.arange(1, n + 1)
    krylov.solve(world, sub, a, b)
    assert_holds(world, a, "sv_w_all", "sv_poly", "sv_x_all", "sv_ok", "sv_ok_all")


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("routine", [graphs.apsp_minplus_squaring, graphs.apsp_zwick])
def test_apsp_leaves_only_the_distances(n, routine):
    world = CliqueWorld(n, seed=1)
    dist = routine(world, weighted_graph(n))
    assert_holds(world, dist)


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("routine", [graphs.diameter, graphs.matching_size,
                                     graphs.allowed_edges, graphs.gallai_edmonds])
def test_graph_routines_leave_nothing(n, routine):
    # allowed_edges raises NoPerfectMatchingError at n = 1
    world = CliqueWorld(n, seed=1)
    graph = weighted_graph(n) if routine is graphs.diameter else matchable_graph(n)
    with (pytest.raises(graphs.NoPerfectMatchingError) if routine is graphs.allowed_edges
          and n % 2 else contextlib.nullcontext()):
        routine(world, graph)
    assert_holds(world)


@pytest.mark.parametrize("n", SIZES)
def test_gallai_edmonds_leaves_nothing_when_every_attempt_is_inconclusive(n, monkeypatch):
    real_attempt = krylov.rank_attempt
    monkeypatch.setattr(krylov, "rank_attempt", lambda *args: (None, real_attempt(*args)[1]))
    world = CliqueWorld(n, seed=1)
    with pytest.raises(graphs.DecompositionFailedError):
        graphs.gallai_edmonds(world, matchable_graph(n))
    assert_holds(world)
