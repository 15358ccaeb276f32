import math
import random

import numpy as np
import pytest

from cliquealg import distprod, mm, oracles, planner
from cliquealg.minplus import INF
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


@pytest.mark.parametrize("n,m,k,blocks,assemble", [
    (6, 13, 3, (24, 390), (20, 360)),       # ragged last span (w = 7), every node works
    (11, 25, 5, (48, 2500), (40, 2200)),    # ragged last span, one idle node
    (8, 13, 5, (46, 910), (28, 560)),       # one span per product, three idle nodes
    (2, 2, 1, (2, 4), (4, 8)),              # k = 1
    (16, 16, 16, (60, 7680), (60, 7680)),   # k = n
])
def test_column_block_products_and_ledger(n, m, k, blocks, assemble):
    p = 2 ** 31 - 1
    world, a_mats, b_mats, res = run_mm(n, m, k, p=p)
    for s in range(k):
        exact = a_mats[s].astype(object) @ b_mats[s].astype(object) % p
        assert np.array_equal(res[s], exact.astype(np.int64))
    charged = {path.split("/")[-1]: (rec.rounds, rec.messages)
               for path, rec in world.ledger.leaves()}
    assert charged == {"blocks": blocks, "block-multiply": (0, 0),
                       "assemble": assemble, "sum-blocks": (0, 0)}
    assert mm.predict_rounds(n, m, k) == world.ledger.total_rounds


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
    # medium pattern at n=8, m=8, k=1 with the schoolbook kernel, run directly:
    # mm_multi takes the column-block route at this shape
    n = m = 8
    p = 101
    rng = random.Random(1)
    world = CliqueWorld(n, seed=1)
    sub = world.all_nodes()
    plan = mm.make_medium_plan(n, m, 1, "trivial", 1.0)
    a = mm.scatter_matrix(world, sub, rand_mat(rng, n, m, p), p, has_cols=False)
    b = mm.scatter_matrix(world, sub, rand_mat(rng, m, n, p), p, has_rows=False)
    out = mm.DMat(world.fresh_name("C"), n, n, p, sub)
    mm.four_step(world, sub, plan, mm.FieldAlgebra(plan, p), [a], [b], [out])
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


# (n, m, k) per shape regime of mm_multi's seed plan, all with n <= 32
ROUTE_SHAPES = {
    "medium": [(8, 8, 1), (16, 16, 1), (32, 32, 1), (13, 9, 3), (16, 16, 4),
               (32, 20, 2), (27, 27, 1), (7, 7, 1),
               # just below the column-block threshold: gamma in the thousands
               (12, 143, 1), (16, 255, 1), (24, 287, 2)],
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


def test_every_shape_below_column_block_threshold_plans():
    # the balancing gamma grows without bound as m approaches n^2/k; such
    # shapes get the d = 1 schoolbook seed plan instead of an overflowing power
    for n in range(1, 200):
        for k in (1, 2, 3, 4, 7, 8):
            for m in {n * n // k - 1, (n * n - 1) // k}:
                if k > n or m < 1:
                    continue
                seed = mm._seed_plan(n, m, k, "trivial")
                assert seed is not None and k * seed.t <= n, (n, m, k)
                plan = mm._plan_for(n, m, k, "trivial")
                assert plan is None or (k * plan.t <= n and k * plan.q ** 2 <= n), (n, m, k)
                assert mm.predict_rounds(n, m, k) > 0


def _lattice_minimum(n, m, k, kernel):
    """Fewest rounds of any four-step dimensioning of the kernel's family
    with k*q^2 <= n and k*t <= n, each plan counted worker by worker."""
    budget = n // k
    if kernel == "strassen":
        shapes = [(2 ** j, 2 ** j, 7 ** j) for j in range(8) if 7 ** j <= budget]
    else:
        shapes = [(d, d * d * e, e) for d in range(1, math.isqrt(budget) + 1)
                  for e in range(1, budget // (d * d) + 1)]
        shapes = [(d, e, t) for d, t, e in shapes]
    return min(mm.MediumPlan(n, m, k, kernel, d, e, t, q, -(-n // (d * q)),
                             -(-m // (e * q))).rounds()
               for q in range(1, math.isqrt(budget) + 1) for d, e, t in shapes)


@pytest.mark.parametrize("kernel", ["trivial", "strassen"])
def test_chosen_plan_is_the_lattice_minimum(kernel):
    # the chosen route predicts the fewest rounds of the column-block route,
    # the greedy seed plan (for a small inner size a schoolbook plan, outside
    # the Strassen lattice) and every lattice plan, and never more than the seed
    for n in range(1, 49):
        for k in (1, 2, 4, 8):
            for m in {n // 2, n, 2 * n, n * n // k - 1}:
                if k > n or m < 1:
                    continue
                seed = mm._seed_plan(n, m, k, kernel)
                block = mm._rounds(mm._block_loads(n, m, k).values(), n)
                seed_rounds = block if seed is None else seed.rounds()
                chosen = mm.predict_rounds(n, m, k, kernel)
                assert chosen <= seed_rounds, (n, m, k)
                assert chosen == min(_lattice_minimum(n, m, k, kernel), block, seed_rounds), \
                    (n, m, k)


@pytest.mark.parametrize("n,m,k,seed_rounds,rounds,route", [
    (32, 1000, 1, 4458, 248, "block-multiply"),
    (64, 2048, 1, 8314, 376, "multiply"),  # the column-block route costs 378
])
def test_route_chosen_by_rounds(n, m, k, seed_rounds, rounds, route):
    # m*k < n^2, where the greedy four-step plan costs thousands of rounds
    assert mm._seed_plan(n, m, k, "trivial").rounds() == seed_rounds
    world, a_mats, b_mats, res = run_mm(n, m, k)
    assert world.ledger.total_rounds == mm.predict_rounds(n, m, k) == rounds
    assert route in {path.split("/")[-1] for path, _ in world.ledger.leaves()}
    # entries below 101: int64 holds every inner sum exactly
    assert np.array_equal(res[0], a_mats[0] @ b_mats[0] % 101)


def test_plans_made_once_per_world(monkeypatch):
    made = []
    seed_plan = mm._seed_plan
    monkeypatch.setattr(mm, "_seed_plan", lambda *shape: made.append(shape) or seed_plan(*shape))
    for _ in range(2):
        world = CliqueWorld(16, seed=0)
        sub = world.all_nodes()
        a = mm.scatter_matrix(world, sub, np.eye(16, dtype=np.int64), 101)
        for _ in range(3):
            mm.mm_multi(world, sub, [a, a], [a, a])
    # each world sizes its shape once; a fresh world sizes it again
    assert made == [(16, 16, 2, "trivial")] * 2


def test_no_crossing_next_to_the_threshold():
    # from n = 2^14 the balancing equation finds no crossing for m = n^2/k - 1;
    # the column-block route is then the seed
    for n, k in ((2 ** 14, 1), (2 ** 14, 3), (2 ** 18, 16)):
        m = n * n // k - 1
        with pytest.raises(planner.RegimeError):
            planner.solve_maincond(math.log(k) / math.log(n), math.log(m) / math.log(n),
                                   planner.OmegaCurve.trivial())
        assert mm._seed_plan(n, m, k, "trivial") is None
        assert 0 < mm.predict_rounds(n, m, k) <= mm._rounds(mm._block_loads(n, m, k).values(), n)


def test_phase_loads_match_router(monkeypatch):
    # the load `CliqueWorld.route` charges in each routed step, recorded as it
    # is charged, equals the plan's load of that step exactly; the planner's
    # own calls of route_rounds, outside any routed step, are not recorded
    route, route_rounds = CliqueWorld.route, CliqueWorld.route_rounds
    charged, steps = {}, []

    def recording_route(world, subset, phase, build, width=1):
        charged[phase] = 0  # a step with no sends charges nothing
        steps.append(phase)
        try:
            return route(world, subset, phase, build, width)
        finally:
            steps.pop()

    def recording_rounds(load, n_act):
        if steps:
            charged[steps[-1]] = load
        return route_rounds(load, n_act)

    monkeypatch.setattr(CliqueWorld, "route", recording_route)
    monkeypatch.setattr(CliqueWorld, "route_rounds", staticmethod(recording_rounds))
    plans = []
    for n in range(2, 41):
        shapes = {(n, 1), (math.isqrt(n), 1), (n // 2 + 1, 2) if n % 2 else (n - 1, min(n, 4))}
        for m, k in shapes:
            for kernel in ("trivial", "strassen") if n % 8 == 0 else ("trivial",):
                plan = mm._plan_for(n, m, k, kernel)
                if plan is None:
                    continue
                zero = np.zeros((n, m), dtype=np.int64)
                charged.clear()
                run_mm(n, m, k, kernel, mats=([zero] * k, [zero.T] * k))
                assert charged == plan.phase_loads(), (n, m, k, kernel)
                plans.append(plan)
    assert len(plans) > 80
    assert any(plan.c == 1 for plan in plans) and any(plan.k > 1 for plan in plans)


@pytest.mark.parametrize("algebra,n,m,k", [
    ("field", 10, 10, 1), ("field", 15, 11, 1), ("field", 15, 7, 2), ("min-plus", 7, 7, 1),
])
def test_four_step_layout(monkeypatch, algebra, n, m, k):
    # at ragged shapes, every routed step of the four-step pattern sends under
    # one key per factor family, so each receiver pops one stack per step;
    # deliver keys its rows by slot width, one key per width and direction
    route = CliqueWorld.route
    keys = {}

    def spying_route(world, subset, phase, build, width=1):
        def spy(view):
            for send in build(view):
                keys.setdefault(phase, set()).add(send[1])
                yield send
        return route(world, subset, phase, spy, width)

    monkeypatch.setattr(CliqueWorld, "route", spying_route)
    if algebra == "field":
        plan = mm._plan_for(n, m, k, "trivial")
        _, a_mats, b_mats, res = run_mm(n, m, k, seed=n + m + k)
        for s0 in range(k):
            assert np.array_equal(res[s0], oracles.mat_mult(a_mats[s0], b_mats[s0], 101))
    else:
        plan, _ = distprod._semiring_plan(n, m, 3)
        world = CliqueWorld(n, seed=1)
        sub = world.all_nodes()
        rng, values = random.Random(n), [-3, -1, 0, 2, 3, INF]
        a_mat = np.array([[rng.choice(values) for _ in range(m)] for _ in range(n)])
        b_mat = np.array([[rng.choice(values) for _ in range(n)] for _ in range(m)])
        a = distprod.scatter_minplus(world, sub, a_mat, 3, has_cols=False)
        b = distprod.scatter_minplus(world, sub, b_mat, 3, has_rows=False)
        out = distprod.dist_prod_semiring(world, sub, a, b)
        assert np.array_equal(distprod.gather_minplus(world, out),
                              oracles.minplus_product(a_mat, b_mat))
    widths = sorted({len(slots) for slots in plan.routes.slots} - {0})
    assert len(widths) >= 2  # the shape is ragged
    assert keys == {"form": {"fA", "fB"}, "gather": {"fG"}, "combine": {"fP"},
                    "deliver": {(key, w) for key in ("fR", "fK") for w in widths}}
    groups = plan.routes.width_groups
    assert [w for w, _ in groups] == widths
    assert sorted(np.concatenate([slots for _, slots in groups]).tolist()) == list(range(n))


def test_shape_only_plan_builds_no_tensors():
    n = 2 ** 18
    plan = mm.make_medium_plan(n, n, 1, "trivial", 1.0)
    assert set(plan.phase_loads()) == {"form", "gather", "combine", "deliver"}
    assert mm.predict_rounds(n, n, 1) > 0
    assert "alg" not in vars(plan)  # coefficient tensors are built on first use only
    small = mm.make_medium_plan(8, 8, 1, "trivial", 1.0)
    assert (small.alg.d, small.alg.e, small.alg.t) == (small.d, small.e, small.t)


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
    # a left factor without its rows, or a right factor without its columns,
    # is refused before any phase, on the column-block and the four-step route
    for n, k, blocks in ((8, 3, True), (10, 1, False)):
        assert (mm._plan_for(n, n, k, "trivial") is None) == blocks
        world = CliqueWorld(n, seed=0)
        sub = world.all_nodes()
        eye = np.eye(n, dtype=np.int64)
        rows = [mm.scatter_matrix(world, sub, eye, 101, has_cols=False) for _ in range(k)]
        cols = [mm.scatter_matrix(world, sub, eye, 101, has_rows=False) for _ in range(k)]
        for a_list, b_list in ((cols, cols), (rows, rows), (rows[:-1] + cols[-1:], cols)):
            with pytest.raises(ValueError, match="must hold rows"):
                mm.mm_multi(world, sub, a_list, b_list)
        assert world.ledger.leaves() == []
        for out in mm.mm_multi(world, sub, rows, cols):
            assert np.array_equal(mm.gather_matrix(world, out), eye)
