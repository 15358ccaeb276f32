import collections
import contextlib
import hashlib
import io
import math
import random
import warnings

import numpy as np
import pytest

from cliquealg import cli, detinv, distprod, ff, graphs, krylov, mm, oracles
from cliquealg.minplus import INF, INF_THRESHOLD
from cliquealg.sim import CliqueWorld
from test_golden import ledger_summary

warnings.filterwarnings("ignore", message=".*field size.*")


def unweighted(n, pairs):
    return graphs.WeightedGraph.from_edges(
        n, [(u + 1, v + 1, 1) for u, v in pairs], directed=False, bound=1)


def random_digraph(rng, n, prob, bound):
    # node potentials keep every cycle nonnegative while allowing negative edges
    adj = np.full((n, n), INF, dtype=np.int64)
    np.fill_diagonal(adj, 0)
    phi = [rng.randrange(bound) for _ in range(n)]
    for i in range(n):
        for j in range(n):
            if i != j and rng.random() < prob:
                adj[i, j] = rng.randrange(0, 2) + phi[i] - phi[j]
    return graphs.WeightedGraph(n, True, bound, adj)


# ------------------------------------------------------------------- APSP

def test_apsp_path_graph():
    g = unweighted(4, [(0, 1), (1, 2), (2, 3)])
    world = CliqueWorld(4, seed=0)
    dist = distprod.gather_minplus(world, graphs.apsp_minplus_squaring(world, g))
    assert dist[0, 3] == 3
    assert np.array_equal(dist, oracles.floyd_warshall(g.adj))


def test_apsp_complete_graph():
    n = 6
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    g = unweighted(n, pairs)
    world = CliqueWorld(n, seed=0)
    dist = distprod.gather_minplus(world, graphs.apsp_minplus_squaring(world, g))
    assert (dist[~np.eye(n, dtype=bool)] == 1).all()


def test_apsp_directed_cycle():
    g = graphs.WeightedGraph.from_edges(
        3, [(1, 2, 1), (2, 3, 1), (3, 1, 1)], directed=True, bound=1)
    world = CliqueWorld(3, seed=0)
    dist = distprod.gather_minplus(world, graphs.apsp_minplus_squaring(world, g))
    assert dist[0, 2] == 2 and dist[2, 0] == 1


@pytest.mark.parametrize("seed", range(5))
def test_apsp_random_digraphs(seed):
    rng = random.Random(seed)
    g = random_digraph(rng, 8, 0.4, 3)
    world = CliqueWorld(8, seed=seed)
    dist = distprod.gather_minplus(world, graphs.apsp_minplus_squaring(world, g))
    assert np.array_equal(dist, oracles.floyd_warshall(g.adj))


def test_apsp_triangle_inequality_property():
    rng = random.Random(17)
    g = random_digraph(rng, 8, 0.5, 3)
    world = CliqueWorld(8, seed=1)
    dist = distprod.gather_minplus(world, graphs.apsp_minplus_squaring(world, g))
    n = 8
    for i in range(n):
        for j in range(n):
            assert dist[i, j] <= g.adj[i, j]
            for k in range(n):
                if dist[i, k] < INF_THRESHOLD and dist[k, j] < INF_THRESHOLD:
                    assert dist[i, j] <= dist[i, k] + dist[k, j]


def test_zwick_single_edge():
    g = graphs.WeightedGraph.from_edges(2, [(1, 2, 5)], directed=True, bound=5)
    world = CliqueWorld(2, seed=3)
    dist = distprod.gather_minplus(world, graphs.apsp_zwick(world, g))
    assert dist[0, 1] == 5 and dist[1, 0] >= INF_THRESHOLD


@pytest.mark.parametrize("n", [1, 4, 7])
def test_zwick_sample_is_sorted_distinct_and_shared(n):
    for size in range(n + 1):
        world = CliqueWorld(n, seed=size)
        sub = world.all_nodes()
        graphs.share_sample(world, sub, "sample", "label", "ids", size)
        assert world.stores[sub[0]]["ids"].dtype == np.int64  # the ids index arrays
        ids = world.stores[sub[0]]["ids"].tolist()
        assert ids == sorted(set(ids)) and len(ids) == size
        assert all(0 <= i < n for i in ids)
        assert all(world.stores[node]["ids"].tolist() == ids for node in sub)


def test_zwick_sample_reaches_every_subset():
    # size 2 of 4: partial Fisher-Yates on coins uniform in [0, n - i)
    seen = collections.Counter()
    for seed in range(120):
        world = CliqueWorld(4, seed=seed)
        graphs.share_sample(world, world.all_nodes(), "sample", "label", "ids", 2)
        seen[tuple(world.stores[1]["ids"].tolist())] += 1
    assert set(seen) == {(i, j) for i in range(4) for j in range(i + 1, 4)}


def test_zwick_matches_squaring_and_oracle():
    agree = 0
    trials = 20
    for seed in range(trials):
        rng = random.Random(1000 + seed)
        g = random_digraph(rng, 16, 0.25, 3)
        want = oracles.floyd_warshall(g.adj)
        world = CliqueWorld(16, seed=seed)
        z = distprod.gather_minplus(world, graphs.apsp_zwick(world, g))
        world2 = CliqueWorld(16, seed=seed)
        s = distprod.gather_minplus(world2, graphs.apsp_minplus_squaring(world2, g))
        assert np.array_equal(s, want)
        agree += int(np.array_equal(z, want))
    assert agree >= 19


def random_graph(rng, n, prob, bound):
    adj = np.full((n, n), INF, dtype=np.int64)
    np.fill_diagonal(adj, 0)
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < prob:
                adj[i, j] = adj[j, i] = rng.randrange(bound + 1)
    return graphs.WeightedGraph(n, False, bound, adj)


def squarings(n):
    return math.ceil(math.log2(n)) if n > 1 else 0


def full_schedule_distances(adj):
    """ceil(log2 n) min-plus squarings, none skipped."""
    dist = adj
    for _ in range(squarings(len(adj))):
        dist = oracles.minplus_product(dist, dist)
    return dist


def full_schedule_rounds(n, bound):
    """Rounds of ceil(log2 n) distance-product squarings with the bounds of
    walks of <= 2^i edges; a product's ledger depends on its shape only."""
    world = CliqueWorld(n, seed=0)
    sub = world.all_nodes()
    dist = distprod.scatter_minplus(world, sub, np.zeros((n, n), dtype=np.int64), bound)
    for i in range(squarings(n)):
        distprod.dist_prod(world, sub, dist, dist, bound=min(2 ** i, n) * max(1, bound))
    return world.ledger.total_rounds


def same_answers_cases():
    rng = random.Random(22)
    for n in (2, 5, 8, 16, 32):
        yield f"path{n}", unweighted(n, [(i, i + 1) for i in range(n - 1)])
        yield f"cycle{n}", unweighted(n, [(i, (i + 1) % n) for i in range(n)])
        yield f"complete{n}", unweighted(n, [(i, j) for i in range(n) for j in range(i + 1, n)])
    for n in (8, 16, 32):
        for prob in (0.05, 0.1, 0.3, 0.6):
            yield f"gnp{n},{prob}", random_graph(rng, n, prob, 3)
        yield f"digraph{n}", random_digraph(rng, n, 0.3, 3)
    negative = random_graph(rng, 16, 0.3, 3)
    negative.adj[0, 1] = negative.adj[1, 0] = -1  # the walk 0-1-0 is a negative cycle
    yield "negative-edge16", negative


@pytest.mark.parametrize("name,g", [pytest.param(name, g, id=name)
                                    for name, g in same_answers_cases()])
def test_apsp_and_diameter_match_the_full_schedule(name, g):
    n = g.n
    want = full_schedule_distances(g.adj)
    world = CliqueWorld(n, seed=1)
    got = distprod.gather_minplus(world, graphs.apsp_minplus_squaring(world, g))
    assert np.array_equal(got, want)
    checks = max(0, squarings(n) - 2)
    full = full_schedule_rounds(n, g.bound)
    assert world.ledger.total_rounds <= full + 2 * checks
    if name.startswith("negative"):  # the rows never settle: every squaring runs
        assert world.ledger.total_rounds == full + 2 * checks

    off = want[~np.eye(n, dtype=bool)]
    want_diam = INF if (off >= INF_THRESHOLD).any() else int(off.max(initial=0))
    world = CliqueWorld(n, seed=1)
    assert graphs.diameter(world, g) == want_diam
    assert world.ledger.total_rounds <= full + 2 * checks + 2


def test_apsp_stops_at_its_fixpoint_on_the_complete_graph():
    # squarings 0 and 1 give the same D, so the check after squaring 1 ends
    # the loop: 2 of 6 squarings at 32 rounds each, and one 2-round allgather
    n = 64
    g = unweighted(n, [(i, j) for i in range(n) for j in range(i + 1, n)])
    world = CliqueWorld(n, seed=1)
    dist = distprod.gather_minplus(world, graphs.apsp_minplus_squaring(world, g))
    assert np.array_equal(dist, 1 - np.eye(n, dtype=np.int64))
    assert full_schedule_rounds(n, 1) == 192
    assert world.ledger.total_rounds == 66
    world = CliqueWorld(n, seed=1)
    assert graphs.diameter(world, g) == 1 and world.ledger.total_rounds == 68


def test_diameter_examples():
    g = unweighted(4, [(0, 1), (1, 2), (2, 3)])
    assert graphs.diameter(CliqueWorld(4, seed=0), g) == 3
    n = 5
    complete = unweighted(n, [(i, j) for i in range(n) for j in range(i + 1, n)])
    assert graphs.diameter(CliqueWorld(n, seed=0), complete) == 1
    two = unweighted(2, [])
    assert graphs.diameter(CliqueWorld(2, seed=0), two) == INF


# ------------------------------------------------------------- matchings

def test_tutte_instance_structure():
    g = unweighted(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (1, 3)])
    world = CliqueWorld(5, seed=9)
    p = graphs.matching_prime(5)
    tutte = graphs.build_tutte_instance(world, g, p, "t")
    mat = mm.gather_matrix(world, tutte)
    assert np.array_equal(mat, (-mat.T) % p)
    for i in range(5):
        for j in range(5):
            edge = g.adj[i, j] < INF_THRESHOLD and i != j
            if not edge:
                assert mat[i, j] == 0


def test_matching_size_examples():
    c4 = unweighted(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    assert graphs.matching_size(CliqueWorld(4, seed=0), c4) == 2
    star = unweighted(4, [(0, 1), (0, 2), (0, 3)])
    assert graphs.matching_size(CliqueWorld(4, seed=0), star) == 1
    empty = unweighted(3, [])
    assert graphs.matching_size(CliqueWorld(3, seed=0), empty) == 0


def test_matching_size_random_graphs():
    hits = 0
    trials = 100
    for seed in range(trials):
        rng = random.Random(2000 + seed)
        n = 10
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)
                 if rng.random() < 0.5]
        g = unweighted(n, pairs)
        nu = graphs.matching_size(CliqueWorld(n, seed=seed), g)
        want = oracles.max_matching_size(oracles.graph_adj_sets(n, pairs))
        hits += int(nu == want)
    assert hits >= 95


def test_allowed_edges_examples():
    k2 = unweighted(2, [(0, 1)])
    assert graphs.allowed_edges(CliqueWorld(2, seed=0), k2) == {frozenset((1, 2))}
    p4 = unweighted(4, [(0, 1), (1, 2), (2, 3)])
    assert graphs.allowed_edges(CliqueWorld(4, seed=0), p4) == \
        {frozenset((1, 2)), frozenset((3, 4))}
    c4 = unweighted(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    assert len(graphs.allowed_edges(CliqueWorld(4, seed=0), c4)) == 4


def test_allowed_edges_requires_perfect_matching():
    p3 = unweighted(3, [(0, 1), (1, 2)])
    with pytest.raises(graphs.NoPerfectMatchingError):
        graphs.allowed_edges(CliqueWorld(3, seed=0), p3)


def test_allowed_edges_deletion_property():
    # removing an allowed edge with its endpoints leaves nu = n/2 - 1
    rng = random.Random(77)
    n = 8
    while True:
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)
                 if rng.random() < 0.45]
        if oracles.max_matching_size(oracles.graph_adj_sets(n, pairs)) == n // 2:
            break
    g = unweighted(n, pairs)
    allowed = graphs.allowed_edges(CliqueWorld(n, seed=5), g)
    for edge in sorted(allowed, key=sorted)[:4]:
        u, v = sorted(edge)
        sub = [(a, b) for a, b in pairs if a not in (u - 1, v - 1)
               and b not in (u - 1, v - 1)]
        assert oracles.max_matching_size(oracles.graph_adj_sets(n, sub)) == n // 2 - 1


# ----------------------------------------------------------------- GE

def test_gallai_edmonds_examples():
    single = unweighted(1, [])
    ge = graphs.gallai_edmonds(CliqueWorld(1, seed=0), single)
    assert (ge.d_set, ge.k_set, ge.c_set) == (frozenset({1}), frozenset(), frozenset())
    p3 = unweighted(3, [(0, 1), (1, 2)])
    ge = graphs.gallai_edmonds(CliqueWorld(3, seed=0), p3)
    assert ge.d_set == {1, 3} and ge.k_set == {2} and ge.c_set == frozenset()
    c4 = unweighted(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    ge = graphs.gallai_edmonds(CliqueWorld(4, seed=0), c4)
    assert ge.d_set == frozenset() and ge.k_set == frozenset()
    assert ge.c_set == {1, 2, 3, 4}
    for n in (2, 3, 4):  # rank 0: T = 0, so D is every vertex, with no null vector
        ge = graphs.gallai_edmonds(CliqueWorld(n, seed=0), unweighted(n, []))
        assert (ge.d_set, ge.k_set, ge.c_set) == (frozenset(range(1, n + 1)), frozenset(),
                                                  frozenset())


def test_gallai_edmonds_null_space_run_is_pinned(tmp_path):
    # The 7-vertex path has a rank-6 Tutte matrix, so its run takes the
    # null-vector step (the x coins, six Horner allgathers in B and the
    # okshare verdict) that no full-rank golden graph reaches.  The routed
    # phases and the 0-round phases are pinned by the sha256 of their
    # `ledger_summary` lines.
    report = tmp_path / "report"
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["run", "gallai-edmonds", "--gen", "path:n=7", "--seed", "1",
                         "--out", str(report)]) == 0
    summary = ledger_summary(report.read_text())
    assert summary[1:4] == ["verdict: pass", "rounds: 60", "messages: 1212"]
    routed = [line for line in summary if line.startswith("routed ")]
    local = [line for line in summary if line.startswith("local ")]
    assert "routed geattempt#/horner#-exchange subset=7 rounds=2 messages=42" in routed
    assert "local check x1" in local
    assert not [line for line in summary if any(
        name in line for name in ("moveN", "flatten", "solve-tail"))]

    def digest(lines):
        return hashlib.sha256("\n".join(lines).encode()).hexdigest()

    assert digest(routed) == "2532de5a66a396ed95faae4ebdde138748f4d1b15e2eddd65d8e366ee005abc9"
    assert digest(local) == "ff6a59ce95d3aff0d22fbf73c357cb4f0d821eeffa22a03476ab5c7de6425316"


def test_gallai_edmonds_random_graphs():
    hits = 0
    trials = 20
    for seed in range(trials):
        rng = random.Random(3000 + seed)
        n = 8
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)
                 if rng.random() < 0.35]
        g = unweighted(n, pairs)
        ge = graphs.gallai_edmonds(CliqueWorld(n, seed=seed), g)
        dw, kw, cw = oracles.gallai_edmonds_oracle(n, pairs)
        ok = (ge.d_set == frozenset(v + 1 for v in dw)
              and ge.k_set == frozenset(v + 1 for v in kw)
              and ge.c_set == frozenset(v + 1 for v in cw))
        hits += int(ok)
    assert hits >= 19


def test_gallai_edmonds_seven_vertex_spot_check():
    # sampled 7-vertex graphs, majority over 5 seeds
    rng = random.Random(123)
    for _ in range(12):
        pairs = [(i, j) for i in range(7) for j in range(i + 1, 7)
                 if rng.random() < 0.35]
        g = unweighted(7, pairs)
        votes = {}
        for seed in range(5):
            ge = graphs.gallai_edmonds(CliqueWorld(7, seed=seed), g)
            key = (ge.d_set, ge.k_set, ge.c_set)
            votes[key] = votes.get(key, 0) + 1
        winner = max(votes, key=votes.get)
        dw, kw, cw = oracles.gallai_edmonds_oracle(7, pairs)
        assert winner == (frozenset(v + 1 for v in dw),
                          frozenset(v + 1 for v in kw),
                          frozenset(v + 1 for v in cw))


def test_rank_evenness_enforced():
    # matching size never reports an odd rank halved down silently on retry
    rng = random.Random(4)
    n = 7
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.4]
    g = unweighted(n, pairs)
    nu = graphs.matching_size(CliqueWorld(n, seed=2), g)
    assert nu == oracles.max_matching_size(oracles.graph_adj_sets(n, pairs))


def test_matching_size_raises_after_odd_ranks():
    # G(6, 0.5) over GF(7): every attempt ends on an odd rank or an
    # inconclusive rank_rand.  Seed 49 is the first of 1..399 at which a graph
    # with maximum matching 2 makes matching_size raise.
    rng = random.Random(49)
    pairs = [(i, j) for i in range(6) for j in range(i + 1, 6) if rng.random() < 0.5]
    assert oracles.max_matching_size(oracles.graph_adj_sets(6, pairs)) == 2
    with pytest.raises(krylov.InconclusiveError):
        graphs.matching_size(CliqueWorld(6, seed=49), unweighted(6, pairs), p=7)


def _attempt_phases(world):
    """Phase names under each top-level ledger group, in ledger order."""
    attempts = collections.defaultdict(list)
    for path, _ in world.ledger.leaves():
        group, _, name = path.partition("/")
        attempts[group].append(name)
    return attempts


def _assert_oracle_decomposition(ge, n, pairs):
    dw, kw, cw = oracles.gallai_edmonds_oracle(n, pairs)
    assert (ge.d_set, ge.k_set, ge.c_set) == tuple(frozenset(v + 1 for v in s)
                                                   for s in (dw, kw, cw))


def test_gallai_edmonds_preconditions_once_per_attempt(monkeypatch):
    # no perfect matching (rank 4 of 6): each attempt is one ledger group
    # that draws coins and forms B = U T V D once, and the null vector reuses
    # them.  The first attempt is forced to an odd rank, so a second attempt
    # draws a fresh Tutte matrix and fresh coins.  Every B is popped.
    n = 6
    pairs = [(0, 1), (1, 2), (3, 4)]
    world = CliqueWorld(n, seed=1)
    real_attempt = krylov.rank_attempt
    draws, popped = [], []

    def first_odd(world, subset, a, *args):
        rank, b = real_attempt(world, subset, a, *args)
        store = world.stores[subset[0]]
        draws.append((store[a.row_key(0)].copy(), store["rk_pre_all"].copy()))
        popped.append(f"{b.name}:")
        return (1 if len(draws) == 1 else rank), b

    monkeypatch.setattr(krylov, "rank_attempt", first_odd)
    _assert_oracle_decomposition(graphs.gallai_edmonds(world, unweighted(n, pairs)), n, pairs)
    assert len(draws) == 2
    assert all(not np.array_equal(x, y) for x, y in zip(*draws))
    attempts = _attempt_phases(world)
    assert [group.rstrip("0123456789") for group in attempts] == ["geattempt"] * 2
    for names in attempts.values():
        assert sum(name.startswith("share-pre") and name.endswith("-allgather")
                   for name in names) == 1
        assert names.count("ua-rows") == names.count("uavd-cols") == 1
        assert not any("-uv" in name for name in names)
    assert not [key for store in world.stores for key in store
                if isinstance(key, str) and key.startswith(tuple(popped))]


@pytest.mark.parametrize("wrong", ["q(0) = 0", "T z != 0"])
def test_gallai_edmonds_retries_a_vector_that_is_not_null(wrong, monkeypatch):
    # rank 4 of 6.  The first attempt's generator g = t q(t) is replaced at
    # every node: by t^2 (g / t^2) with the linear term dropped, so q(0) = 0
    # and no coins are drawn; or by t (t^4 + 1), whose q(B) x is no null
    # vector of B, so the okshare verdict fails.  Either way the next
    # geattempt group starts and ends on the oracle's answer.
    n = 6
    pairs = [(0, 1), (1, 2), (3, 4)]
    world = CliqueWorld(n, seed=1)
    real_attempt = krylov.rank_attempt
    calls = []

    def first_wrong(world, subset, a, *args):
        rank, b = real_attempt(world, subset, a, *args)
        calls.append(rank)
        if len(calls) == 1:
            g = world.stores[subset[0]]["mp_poly"]
            coeffs = (0, 0, *g.coeffs[2:]) if wrong == "q(0) = 0" else (0, 1, 0, 0, 0, 1)
            for store in world.stores:
                store["mp_poly"] = ff.Polynomial(coeffs, a.p)
        return rank, b

    monkeypatch.setattr(krylov, "rank_attempt", first_wrong)
    _assert_oracle_decomposition(graphs.gallai_edmonds(world, unweighted(n, pairs)), n, pairs)
    assert calls == [4, 4]
    first, second = _attempt_phases(world).values()
    assert ("share-x-allgather" in first) == (wrong == "T z != 0")
    assert ("okshare-exchange" in first) == (wrong == "T z != 0")
    assert "kshare-exchange" not in first
    assert {"share-x-allgather", "okshare-exchange", "kshare-exchange"} <= set(second)


def test_gallai_edmonds_null_vector_keeps_the_basis_answer():
    # the output digest of the null-space basis this step replaced, at a
    # fraction of its 648 rounds
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(["run", "gallai-edmonds", "--gen", "gnp:n=32,p=0.05",
                         "--seed", "1"]) == 0
    fields = dict(line.split(": ", 1) for line in out.getvalue().splitlines()
                  if line.startswith(("output-digest:", "rounds:")))
    assert fields["output-digest"] == (
        "sha256:f16adef72cb8722eec1e47886c6ec15dff1e77b76021b731f015a09817ca35ac")
    assert int(fields["rounds"]) < 648


def test_gallai_edmonds_runs_one_generator_per_attempt(monkeypatch):
    # every rank attempt forced inconclusive: GE_RETRIES attempts, one
    # generator each, then DecompositionFailedError, with every B popped
    real_attempt = krylov.rank_attempt
    names = []

    def inconclusive(*args):
        b = real_attempt(*args)[1]
        names.append(f"{b.name}:")
        return None, b

    monkeypatch.setattr(krylov, "rank_attempt", inconclusive)
    world = CliqueWorld(6, seed=1)
    with pytest.raises(graphs.DecompositionFailedError):
        graphs.gallai_edmonds(world, unweighted(6, [(0, 1), (1, 2), (3, 4)]))
    generators = [path for path, _ in world.ledger.leaves() if path.endswith("/recover")]
    assert len(names) == len(generators) == graphs.GE_RETRIES
    assert not [key for store in world.stores for key in store
                if isinstance(key, str) and key.startswith(tuple(names))]


def test_matching_prime_is_capped_at_float_prime_max():
    assert graphs.matching_prime(165) == 2964802513  # least prime >= 4 * 165^4
    with pytest.warns(UserWarning, match="field size"):
        assert graphs.matching_prime(200) == ff.FLOAT_PRIME_MAX


def test_graph_file_roundtrip(tmp_path):
    g = graphs.WeightedGraph.from_edges(
        5, [(1, 2, 3), (2, 5, 1), (4, 5, 2)], directed=True, bound=3)
    path = tmp_path / "g.graph"
    with open(path, "w") as fh:
        fh.write("5 directed 3\n")
        fh.writelines(f"{u} {v} {w}\n" for u, v, w in g.edges())
    g2 = graphs.WeightedGraph.load(path)
    assert g2.n == 5 and g2.directed and g2.bound == 3
    assert np.array_equal(g2.adj, g.adj)
    with pytest.raises(ValueError):
        bad = tmp_path / "bad.graph"
        bad.write_text("5 sideways 3\n")
        graphs.WeightedGraph.load(bad)
