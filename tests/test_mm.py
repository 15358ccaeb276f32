import random

import numpy as np
import pytest

from cliquealg import mm, oracles
from cliquealg.sim import CliqueWorld


def rand_mat(rng, rows, cols, p):
    return np.array([[rng.randrange(p) for _ in range(cols)] for _ in range(rows)],
                    dtype=np.int64)


def run_mm(n, m, k, kernel="trivial", p=101, seed=1, mats=None):
    rng = random.Random(seed)
    world = CliqueWorld(n, seed=seed)
    sub = world.all_nodes()
    if mats is None:
        a_mats = [rand_mat(rng, n, m, p) for _ in range(k)]
        b_mats = [rand_mat(rng, m, n, p) for _ in range(k)]
    else:
        a_mats, b_mats = mats
    a_dms = [mm.scatter_matrix(world, sub, a, p, has_cols=False) for a in a_mats]
    b_dms = [mm.scatter_matrix(world, sub, b, p, has_rows=False) for b in b_mats]
    outs = mm.mm_multi(world, sub, a_dms, b_dms, kernel)
    results = [mm.gather_matrix(world, dm) for dm in outs]
    return world, a_mats, b_mats, results


def test_identity_times_random():
    p = 11
    rng = random.Random(0)
    b = rand_mat(rng, 4, 4, p)
    _, _, _, res = run_mm(4, 4, 1, p=p, mats=([np.eye(4, dtype=np.int64)], [b]))
    assert np.array_equal(res[0], b % p)


@pytest.mark.parametrize("n,m,k", [
    (4, 4, 2), (8, 8, 1), (8, 8, 2), (8, 2, 1), (8, 3, 3), (6, 5, 2),
    (8, 8, 8), (4, 16, 1), (4, 8, 2), (4, 4, 4), (5, 30, 2), (7, 7, 1),
    (16, 16, 4), (13, 9, 3),
])
def test_matches_oracle(n, m, k):
    _, a_mats, b_mats, res = run_mm(n, m, k, p=11)
    for s in range(k):
        assert np.array_equal(res[s], oracles.mat_mult(a_mats[s], b_mats[s], 11))


def test_more_products_than_nodes():
    n, m, k = 8, 8, 17
    world, a_mats, b_mats, res = run_mm(n, m, k)
    for s in range(k):
        assert np.array_equal(res[s], oracles.mat_mult(a_mats[s], b_mats[s], 101))
    # batching: ceil(17/8) = 3 sequential batches
    batches = [path for path, _ in world.ledger.leaves() if "batch2" in path]
    assert batches


def test_small_m_branch_dispatch():
    # m <= sqrt(k n) pads the inner dimension and runs the gamma = 0 pattern
    n, m, k = 8, 2, 1
    world, a_mats, b_mats, res = run_mm(n, m, k)
    assert np.array_equal(res[0], oracles.mat_mult(a_mats[0], b_mats[0], 101))


def test_large_m_branch_dispatch():
    n, m, k = 4, 16, 1  # m >= n^2/k
    world, a_mats, b_mats, res = run_mm(n, m, k)
    assert np.array_equal(res[0], oracles.mat_mult(a_mats[0], b_mats[0], 101))
    names = {path.split("/")[-1] for path, _ in world.ledger.leaves()}
    assert "block-multiply" in names


def test_degenerate_plan_budget_below_kernel():
    # n=8, k=2: rank budget 4 forces d=1; the pattern degenerates gracefully
    plan = mm.make_medium_plan(8, 8, 2, "trivial", 1.0)
    assert plan.d == 1 and plan.t == 1
    _, a_mats, b_mats, res = run_mm(8, 8, 2)
    for s in range(2):
        assert np.array_equal(res[s], oracles.mat_mult(a_mats[s], b_mats[s], 101))


def test_strassen_kernel_matches_oracle():
    for (n, m, k) in [(16, 16, 1), (8, 8, 2), (16, 16, 2)]:
        _, a_mats, b_mats, res = run_mm(n, m, k, kernel="strassen")
        for s in range(k):
            assert np.array_equal(res[s], oracles.mat_mult(a_mats[s], b_mats[s], 101))


def test_strassen_exact_at_31_bit_prime():
    # Strassen's -1 coefficients become p - 1, so each contraction term is
    # close to p^2 ~ 2^62 and a sum of several overflows int64 unless the
    # contractions reduce as they go
    p = (1 << 31) - 1
    _, a_mats, b_mats, res = run_mm(64, 64, 1, kernel="strassen", p=p, seed=5)
    assert np.array_equal(res[0], oracles.mat_mult(a_mats[0], b_mats[0], p))


def test_zero_inputs_zero_outputs():
    n = 8
    zero = [np.zeros((n, n), dtype=np.int64)]
    _, _, _, res = run_mm(n, n, 1, mats=(zero, zero))
    assert not res[0].any()


def test_data_oblivious_ledger():
    texts = set()
    for seed in range(20):
        world, _, _, _ = run_mm(8, 8, 2, seed=seed)
        texts.add(world.ledger.to_text())
    # include the all-zero instance: identical ledger
    zero = [np.zeros((8, 8), dtype=np.int64)] * 2
    world, _, _, _ = run_mm(8, 8, 2, mats=(zero, zero))
    texts.add(world.ledger.to_text())
    assert len(texts) == 1


def test_per_step_counts_within_factor_four():
    # medium pattern at n=8, m=8, k=1 with the schoolbook kernel
    n = m = 8
    world, _, _, _ = run_mm(n, m, 1)
    plan = mm.make_medium_plan(n, m, 1, "trivial", 1.0)
    counts = {
        "form": 2 * 1 * m,                   # 2km
        "gather": 2 * (n // plan.d) * (m // plan.e),
        "combine": (n // 1) * (1 * n // (plan.d * plan.d)),
        "deliver": 2 * 1 * n,
    }
    phases = {path.split("/")[-1]: rec for path, rec in world.ledger.leaves()}
    for step, reference in counts.items():
        rec = phases[step]
        # per-node load implied by the charged rounds: rounds = 2*ceil(load/n)
        load_upper = (rec.rounds // 2) * n
        assert load_upper <= 4 * max(reference, n), (step, load_upper, reference)


# (n, m, k) per route of mm_multi, all with n <= 32
ROUTE_SHAPES = {
    "medium": [(8, 8, 1), (16, 16, 1), (32, 32, 1), (13, 9, 3), (16, 16, 4),
               (32, 20, 2), (27, 27, 1), (7, 7, 1)],
    "small-m": [(8, 2, 1), (8, 3, 3), (32, 4, 2), (16, 1, 1), (30, 7, 4)],
    "column-block": [(4, 16, 1), (8, 8, 8), (5, 30, 2), (6, 40, 1), (32, 64, 16)],
    "batches": [(8, 8, 17), (5, 3, 12), (4, 16, 9), (6, 6, 13)],
}


def _route_of(n, m, k):
    if k > n:
        return "batches"
    if m * k >= n * n:
        return "column-block"
    return "small-m" if m * m <= k * n else "medium"


@pytest.mark.parametrize("kernel", ["trivial", "strassen"])
@pytest.mark.parametrize("route,n,m,k", [(route, *shape) for route, shapes
                                         in ROUTE_SHAPES.items() for shape in shapes])
def test_predict_rounds_equals_ledger(route, n, m, k, kernel):
    assert _route_of(n, m, k) == route
    world, _, _, _ = run_mm(n, m, k, kernel)
    assert mm.predict_rounds(n, m, k, kernel) == world.ledger.total_rounds


@pytest.mark.parametrize("kernel", ["trivial", "strassen"])
def test_predict_rounds_equals_ledger_every_size(kernel):
    for n in range(1, 33):
        for m, k in {(n, 1), (n, 2), (max(1, n // 3), 3), (n + 5, n + 1)}:
            world, _, _, _ = run_mm(n, m, k, kernel)
            assert mm.predict_rounds(n, m, k, kernel) == world.ledger.total_rounds, \
                (n, m, k, kernel)


def test_phase_loads_match_router():
    # per-step loads, read back from the charged rounds where they are exact
    n = m = 32
    world, _, _, _ = run_mm(n, m, 1)
    plan = mm.make_medium_plan(n, m, 1, "trivial", 1.0)
    loads = plan.phase_loads()
    phases = {path.split("/")[-1]: rec for path, rec in world.ledger.leaves()}
    for step, load in loads.items():
        assert phases[step].rounds == CliqueWorld.route_rounds(load, n), step


def test_shape_only_plan_builds_no_tensors():
    n = 2 ** 18
    plan = mm.make_medium_plan(n, n, 1, "trivial", 1.0)
    assert set(plan.phase_loads()) == {"form", "gather", "combine", "deliver"}
    assert mm.predict_rounds(n, n, 1) > 0
    assert "alg" not in vars(plan)  # coefficient tensors are built on first use only
    small = mm.make_medium_plan(8, 8, 1, "trivial", 1.0)
    assert (small.alg.d, small.alg.e, small.alg.t) == (small.d, small.e, small.t)


def test_wide_product_helper():
    rng = random.Random(3)
    p = 101
    n, L = 6, 15
    world = CliqueWorld(n, seed=0)
    sub = world.all_nodes()
    lhs_mat = rand_mat(rng, n, n, p)
    lhs = mm.scatter_matrix(world, sub, lhs_mat, p)
    wide_mat = rand_mat(rng, n, L, p)
    wide = mm.WideMat(world.fresh_name("W"), n, L, p, sub)
    for j0 in range(L):
        world.stores[sub[j0 % n]][wide.col_key(j0)] = wide_mat[:, j0].copy()
    prod = mm.mm_square_times_wide(world, sub, lhs, wide)
    want = oracles.mat_mult(lhs_mat, wide_mat, p)
    for j0 in range(L):
        got = world.stores[sub[j0 % n]][prod.col_key(j0)]
        assert np.array_equal(got, want[:, j0])


def test_dimension_and_field_mismatch_errors():
    world = CliqueWorld(4, seed=0)
    sub = world.all_nodes()
    a = mm.scatter_matrix(world, sub, np.eye(4, dtype=np.int64), 101, has_cols=False)
    b = mm.scatter_matrix(world, sub, np.eye(4, dtype=np.int64), 101, has_rows=False)
    b_bad = mm.scatter_matrix(world, sub, np.eye(4, dtype=np.int64), 11, has_rows=False)
    with pytest.raises(ValueError):
        mm.mm_multi(world, sub, [a], [b, b])
    with pytest.raises(ValueError):
        mm.mm_multi(world, sub, [a], [b_bad])
