import collections
import contextlib
import math
import random
import re
import warnings

import numpy as np
import pytest

from cliquealg import cli, detinv, krylov, mm, oracles
from cliquealg.ff import Polynomial, generating_polynomial, matmul_mod, next_prime_at_least
from cliquealg.sim import CliqueWorld, GroupRecord, PhaseRecord
from polytools import divides, poly_mul

warnings.filterwarnings("ignore", message=".*field size.*")


def prime_for(n):
    return next_prime_at_least(4 * n * n * max(1, math.ceil(math.log2(max(2, n)))))


def world_with(mat, p, seed=0):
    n = mat.shape[0]
    world = CliqueWorld(n, seed=seed)
    sub = world.all_nodes()
    dm = mm.scatter_matrix(world, sub, mat, p)
    return world, sub, dm


def stage_vector(world, sub, key, vec):
    world.run_local(sub, "stage", lambda view: view.put(key, np.array(vec)))


# ------------------------------------------------- baby and giant steps

def _check_terms(mat, p, probe):
    """Every power of two s <= 2n leaves w A^i u, i < 2n, at every node
    (u, w the halves of the probe), whether the giant steps on u run inside
    `_terms`, as in minpol, or before it, as in solve; returns those terms."""
    n = mat.shape[0]
    vec, want = probe[:n] % p, []
    for _ in range(2 * n):
        want.append(int(matmul_mod(probe[n:], vec, p)))
        vec = oracles.mat_mult(mat, vec.reshape(-1, 1), p).ravel()

    def u(view):
        return view.get("probe")[:n]

    def w(view):
        return view.get("probe")[n:]

    for s in [1 << e for e in range((2 * n).bit_length())]:
        giants = [("kr_x", j) for j in range(1, krylov._schedule(n, s)[2] + 1)]
        for held in (False, True):
            world, sub, dm = world_with(mat, p)
            stage_vector(world, sub, "probe", probe)
            apow = krylov._power(world, sub, dm, s, "trivial")
            if held:
                krylov._giants(world, sub, apow, len(giants), u)
            krylov._terms(world, sub, dm, s, u, w, "terms", apow=None if held else apow)
            for node in sub:
                assert world.stores[node]["terms"].tolist() == want, (n, s, held, node)
                # only held giant vectors outlive the terms
                assert all((key in world.stores[node]) == held for key in giants)
                assert not any(key[0] == "kr_y" for key in world.stores[node]
                               if isinstance(key, tuple))
    return want


TERM_SIZES = [1, 2, 3, 5, 8, 12]


def test_sequence_identity_matrix():
    for n in TERM_SIZES:
        p = prime_for(n)
        probe = np.arange(1, 2 * n + 1)
        assert _check_terms(np.eye(n, dtype=np.int64), p, probe) == [
            int(probe[:n] @ probe[n:]) % p] * (2 * n)


def test_sequence_shift_matrix_walks_basis():
    # S^i e_(n-1) = e_(n-1-i), so the terms read w backwards, then zeros
    for n in TERM_SIZES:
        p = prime_for(n)
        probe = np.concatenate([np.eye(n, dtype=np.int64)[-1], np.arange(1, n + 1)])
        assert _check_terms(np.eye(n, k=1, dtype=np.int64), p, probe) == (
            list(range(n, 0, -1)) + [0] * n)


@pytest.mark.parametrize("n", TERM_SIZES)
def test_terms_equal_projected_powers_for_every_giant_step(n):
    p = prime_for(n)
    rng = random.Random(n)
    mat = np.array([[rng.randrange(p) for _ in range(n)] for _ in range(n)])
    _check_terms(mat, p, np.array([rng.randrange(p) for _ in range(2 * n)]))


def test_sequence_uses_expected_product_call_count(monkeypatch):
    # log2 s squarings, made once before the first probe: A^s does not
    # depend on the coins, so a redraw repeats the steps and not the squarings
    n = 16
    p = prime_for(n)
    world, sub, dm = world_with(np.eye(n, dtype=np.int64), p)
    degrees = iter([0, 1])
    monkeypatch.setattr(krylov, "generating_polynomial",
                        lambda seq, q: Polynomial([0] * next(degrees) + [1], q))
    krylov.minpol_monte_carlo(world, sub, dm)
    (group,) = world.ledger.root.children
    names = [child.name for child in group.children]
    products = [child.name for child in group.children if isinstance(child, GroupRecord)]
    assert products == ["square0"] and krylov._giant_step(n, "trivial")[1] == 2
    assert names.index("square0") < names.index("share-probe-allgather")
    assert [name for name in names if name.startswith("terms")] == ["terms", "terms-1"]


@pytest.mark.parametrize("kernel", ["trivial", "strassen"])
@pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 16, 33])
def test_predict_rounds_equals_the_minpol_ledger(n, kernel):
    # at n = 1 and 2 every self-addressed row is free, so steps cost 0 and 2
    world = cli._bench_once("minpol", n, 1, 0, kernel)
    assert world.ledger.total_rounds == krylov.predict_rounds(n, kernel)


@pytest.mark.parametrize("n", [16, 64])
def test_minpol_leaves_only_its_probe_and_generator(n):
    # the baby and giant vectors, the terms, A^s and (at n = 64, s = 4) A^2
    # are popped after their last use
    p = prime_for(n)
    mat = np.random.default_rng(n).integers(0, p, (n, n))
    world, sub, dm = world_with(mat, p, seed=1)
    assert krylov._giant_step(n, "trivial")[1] > 1  # so A^s is a product
    krylov.minpol_monte_carlo(world, sub, dm)
    for pos, node in enumerate(sub):
        assert set(world.stores[node]) == {dm.row_key(pos), dm.col_key(pos),
                                           "mp_vw_all", "mp_poly"}


@pytest.mark.parametrize("routine,coins", [(krylov.det_rand, "dr_d_all"),
                                           (krylov.rank_rand, "rk_pre_all")])
def test_det_and_rank_leave_only_their_coins_probe_and_generator(routine, coins):
    # D A and U A V D are popped once their generator is read
    n = 16
    p = prime_for(n)
    mat = np.random.default_rng(n).integers(0, p, (n, n))
    world, sub, dm = world_with(mat, p, seed=1)
    routine(world, sub, dm)
    for pos, node in enumerate(sub):
        assert set(world.stores[node]) == {dm.row_key(pos), dm.col_key(pos), coins,
                                           "mp_vw_all", "mp_poly"}


# ----------------------------------------------------------------- minpol

def test_minpol_identity():
    p = prime_for(4)
    world, sub, dm = world_with(np.eye(4, dtype=np.int64), p)
    poly = krylov.minpol_monte_carlo(world, sub, dm)
    assert poly.coeffs == ((p - 1), 1)  # x - 1


def test_minpol_distinct_diagonal():
    p = prime_for(4)
    diag = np.diag([1, 2, 5, 9]).astype(np.int64)
    world, sub, dm = world_with(diag, p)
    poly = krylov.minpol_monte_carlo(world, sub, dm)
    want = Polynomial([1], p)
    for d in (1, 2, 5, 9):
        want = poly_mul(want, Polynomial([-d, 1], p))
    assert poly == want


def test_minpol_matches_oracle_overwhelmingly():
    n = 8
    p = prime_for(n)
    rng = random.Random(0)
    hits = 0
    for trial in range(40):
        mat = np.array([[rng.randrange(p) for _ in range(n)] for _ in range(n)])
        world, sub, dm = world_with(mat, p, seed=trial)
        poly = krylov.minpol_monte_carlo(world, sub, dm, tag=f"t{trial}")
        hits += int(list(poly.coeffs) == oracles.minpol_mod(mat, p))
    assert hits >= 38


@pytest.mark.parametrize("seed", [44, 57])
def test_minpol_redraws_a_zero_probe(seed, capsys):
    # at these seeds the first probe of the 1 x 1 instance projects to an
    # all-zero sequence, whose generator 1 is no minimal polynomial
    argv = ["run", "minpol", "--gen", "matrix:n=1", "--field-prime", "101",
            "--seed", str(seed)]
    assert cli.main(argv) == 0
    out = capsys.readouterr().out
    assert "verdict: pass" in out and "/terms-1 " in out


@pytest.mark.parametrize("n,p,seed,attempts", [(8, None, 1, 1), (1, 101, 44, 2), (1, 101, 57, 2)])
def test_minpol_leaves_the_generator_at_every_node(n, p, seed, attempts, monkeypatch):
    # the instances `run minpol --gen matrix:n=N` builds; the 1 x 1 ones redraw
    # their probe.  Berlekamp-Massey runs once per recover phase, not per node.
    p = p or prime_for(n)
    mat = cli.build_instance("minpol", f"matrix:n={n}", None, seed, p).payload["mat"]
    world, sub, dm = world_with(mat, p, seed=seed)
    runs = []
    monkeypatch.setattr(krylov, "generating_polynomial",
                        lambda seq, q: runs.append(seq) or generating_polynomial(seq, q))
    poly = krylov.minpol_monte_carlo(world, sub, dm, f"cli-{seed}")
    assert list(poly.coeffs) == oracles.minpol_mod(mat, p)
    assert all(world.stores[node]["mp_poly"] == poly for node in sub)
    recovers = [path for path, _ in world.ledger.leaves() if path.endswith("/recover")]
    assert len(runs) == len(recovers) == attempts


def test_minpol_inconclusive_once_every_probe_is_zero(monkeypatch):
    p = prime_for(4)
    world, sub, dm = world_with(np.eye(4, dtype=np.int64), p)
    monkeypatch.setattr(krylov, "generating_polynomial", lambda seq, q: Polynomial([1], q))
    with pytest.raises(krylov.InconclusiveError):
        krylov.minpol_monte_carlo(world, sub, dm)
    terms = [path for path, _ in world.ledger.leaves()
             if path.split("/")[-1].startswith("terms")]
    assert len(terms) == krylov.RETRIES


def test_minpol_divides_charpol():
    n = 8
    p = prime_for(n)
    rng = random.Random(3)
    for trial in range(10):
        mat = np.array([[rng.randrange(p) for _ in range(n)] for _ in range(n)])
        world, sub, dm = world_with(mat, p, seed=trial)
        minp = krylov.minpol_monte_carlo(world, sub, dm, tag=f"d{trial}")
        state = detinv.char_poly(world, sub, dm)
        charp = Polynomial(
            [int(state.coeffs[n - 1 - j]) for j in range(n)] + [1], p)
        assert divides(minp, charp)


# ------------------------------------------------------------------- det

def test_det_rand_identity_and_singular():
    p = prime_for(4)
    world, sub, dm = world_with(np.eye(4, dtype=np.int64), p)
    assert krylov.det_rand(world, sub, dm) == 1
    dup = np.array([[1, 2, 3, 4]] * 2 + [[5, 6, 7, 8]] * 2, dtype=np.int64)
    world, sub, dm = world_with(dup, p)
    assert krylov.det_rand(world, sub, dm) == 0 == oracles.det_mod(dup, p)


def test_det_rand_matches_oracle():
    n = 8
    p = prime_for(n)
    rng = random.Random(1)
    hits = 0
    for trial in range(40):
        mat = np.array([[rng.randrange(p) for _ in range(n)] for _ in range(n)])
        world, sub, dm = world_with(mat, p, seed=100 + trial)
        hits += int(krylov.det_rand(world, sub, dm, tag=f"t{trial}") ==
                    oracles.det_mod(mat, p))
    assert hits >= 38


@pytest.mark.parametrize("seed", [17, 25])
def test_det_rand_raises_when_every_attempt_is_inconclusive(seed):
    # over GF(5) these draws leave all three attempts inconclusive; 17 and 25
    # are the first two seeds in 1..399 that do.  At 25 the last attempt's
    # value (3) is not the determinant (1).
    mat = np.random.default_rng(seed).integers(0, 5, (4, 4))
    world, sub, dm = world_with(mat, 5, seed=seed)
    with pytest.raises(krylov.InconclusiveError):
        krylov.det_rand(world, sub, dm)


@pytest.mark.parametrize("n,p,seed,attempts", [(8, None, 1, 1), (4, 5, 5, 3)])
def test_det_rand_routes_nothing_after_its_generator(n, p, seed, attempts, monkeypatch):
    # every node holds the generator and the diagonal, so each reaches the
    # verdict and the value alone; the GF(5) case is made to spend all three
    # attempts by a generator x + 1, of degree below n and with g(0) != 0
    p = p or prime_for(n)
    mat = np.random.default_rng(seed).integers(0, p, (n, n))
    world, sub, dm = world_with(mat, p, seed=seed)
    inconclusive = attempts == krylov.RETRIES
    if inconclusive:
        monkeypatch.setattr(krylov, "generating_polynomial", lambda seq, q: Polynomial([1, 1], q))
    with pytest.raises(krylov.InconclusiveError) if inconclusive else contextlib.nullcontext():
        assert krylov.det_rand(world, sub, dm) == oracles.det_mod(mat, p)
    group = world.ledger.root.children[-1]
    names = [re.sub(r"\d+", "#", child.name) for child in group.children]
    assert names == ["share-diag#-allgather", "share-diag#-assemble", "scale",
                     "minpol#"] * attempts


# ----------------------------------------------------------------- solve

def test_solve_identity():
    p = prime_for(4)
    world, sub, dm = world_with(np.eye(4, dtype=np.int64), p)
    b = np.array([5, 6, 7, 8])
    assert list(krylov.solve(world, sub, dm, b)) == [5, 6, 7, 8]


def test_solve_small_field_example():
    # diag(2,3) embedded in a 4x4 identity over GF(7)
    mat = np.diag([2, 3, 1, 1]).astype(np.int64)
    world, sub, dm = world_with(mat, 7)
    x = krylov.solve(world, sub, dm, np.array([1, 1, 0, 0]))
    assert list(x[:2]) == [4, 5]


def test_solve_random_systems_always_verified():
    n = 8
    p = prime_for(n)
    rng = random.Random(2)
    for trial in range(30):
        while True:
            mat = np.array([[rng.randrange(p) for _ in range(n)] for _ in range(n)])
            if oracles.det_mod(mat, p) != 0:
                break
        b = np.array([rng.randrange(p) for _ in range(n)])
        world, sub, dm = world_with(mat, p, seed=trial)
        x = krylov.solve(world, sub, dm, b, tag=f"t{trial}")
        assert np.array_equal(oracles.mat_mult(mat, x.reshape(-1, 1), p).ravel(),
                              b % p)
        assert np.array_equal(x, oracles.solve_mod(mat, b, p))


@pytest.mark.parametrize("n", [1, 2, 3, 8, 16, 64])
def test_solve_gathers_b_and_reads_its_coefficients_locally(n):
    # node pos holds b[pos]; one allgather gives every node b.  Its giant
    # vectors A^(js) b are formed once, each node reads the generator's
    # coefficients from its own sv_poly, and Horner in A leaves x at every node
    p = prime_for(n)
    rng = random.Random(n)
    mat = np.array([[rng.randrange(p) for _ in range(n)] for _ in range(n)])
    b = np.array([rng.randrange(p) for _ in range(n)])
    world, sub, dm = world_with(mat, p, seed=n)
    x = krylov.solve(world, sub, dm, b)
    assert np.array_equal(oracles.mat_mult(mat, x.reshape(-1, 1), p).ravel(), b % p)
    assert all(np.array_equal(world.stores[node]["sv_x_all"], x) for node in sub)
    assert world.ledger.total_rounds == krylov.predict_solve_rounds(n)
    (group,) = world.ledger.root.children
    share = next(child for child in group.children if child.name == "share-b-exchange")
    assert (share.rounds, share.messages) == (2 if n > 1 else 0, n * (n - 1))
    s = krylov._giant_step(n, "trivial", solve=True)[1]
    names = [child.name for child in group.children]
    assert not any(name.startswith("baby-b") for name in names)
    assert len([name for name in names if re.fullmatch(r"horner\d+", name)]) == s - 1
    assert len([name for name in names if re.fullmatch(r"giant\d+", name)]) == -(-2 * n // s) - 1
    # b, its giant vectors, A^s and the Horner vectors are popped
    for pos, node in enumerate(sub):
        assert set(world.stores[node]) == {dm.row_key(pos), dm.col_key(pos), "sv_w_all",
                                           "sv_poly", "sv_x_all", "sv_ok", "sv_ok_all"}


def test_solve_picks_its_own_giant_step():
    # solve forms its giant vectors once and runs s - 1 Horner steps per
    # attempt, so its best s can be smaller than minpol's
    assert krylov._giant_step(128, "trivial")[1] == 8
    assert krylov._giant_step(128, "trivial", solve=True)[1] == 4


def test_solve_forms_giants_once_and_redraws_only_w(monkeypatch):
    # the first generator has g(0) = 0, so nothing is evaluated; the second,
    # 1 + z, evaluates x = -b, which verify refuses; the third is real
    n = 64
    p = prime_for(n)
    rng = random.Random(3)
    mat = np.array([[rng.randrange(p) for _ in range(n)] for _ in range(n)])
    b = np.array([rng.randrange(p) for _ in range(n)])
    world, sub, dm = world_with(mat, p, seed=3)
    fakes = iter([Polynomial([0, 1], p), Polynomial([1, 1], p)])
    monkeypatch.setattr(krylov, "generating_polynomial",
                        lambda seq, q: next(fakes, None) or generating_polynomial(seq, q))
    # A^s, and A^2 before it, are popped after the giant steps, before the
    # first probe draws w
    real_mm, real_share = krylov.mm_multi, krylov.share_random
    powers, probes = [], []

    def square(*args, **kwargs):
        out = real_mm(*args, **kwargs)
        powers.extend(f"{dm.name}:" for dm in out)
        return out

    def share(world, subset, phase, *args):
        if phase.startswith("share-w"):
            probes.append([key for store in world.stores for key in store
                           if isinstance(key, str) and key.startswith(tuple(powers))])
        return real_share(world, subset, phase, *args)

    monkeypatch.setattr(krylov, "mm_multi", square)
    monkeypatch.setattr(krylov, "share_random", share)
    x = krylov.solve(world, sub, dm, b)
    assert np.array_equal(x, oracles.solve_mod(mat, b, p))
    (group,) = world.ledger.root.children
    names = [re.sub(r"\d+", "#", child.name) for child in group.children
             if isinstance(child, GroupRecord) or child.rounds]
    s = krylov._giant_step(n, "trivial", solve=True)[1]
    assert s == 4
    giants = ["giant#-exchange"] * (-(-2 * n // s) - 1)
    attempt = ["share-w{}-allgather"] + ["baby#{}-exchange"] * (s - 1)
    evaluate = ["horner#{}-exchange"] * (s - 1) + ["okshare{}-exchange"]
    assert names == (["share-b-exchange", "square#", "square#"] + giants
                     + [name.format("") for name in attempt]
                     + [name.format("-#") for name in attempt + evaluate] * 2)
    assert len(powers) == 2 and probes == [[]] * 3
    for pos, node in enumerate(sub):
        assert set(world.stores[node]) == {dm.row_key(pos), dm.col_key(pos), "sv_w_all",
                                           "sv_poly", "sv_x_all", "sv_ok", "sv_ok_all"}


@pytest.mark.parametrize("n", [1, 2, 8])
def test_solve_of_a_zero_right_hand_side_is_zero(n):
    # b = 0 gives an all-zero sequence, so g = 1 and x = 0, which verifies
    p = prime_for(n)
    rng = random.Random(n)
    mat = np.array([[rng.randrange(p) for _ in range(n)] for _ in range(n)])
    world, sub, dm = world_with(mat, p)
    assert krylov.solve(world, sub, dm, np.zeros(n, dtype=np.int64)).tolist() == [0] * n
    names = [child.name for child in world.ledger.root.children[0].children]
    assert "share-w-allgather" in names and "share-w-1-allgather" not in names


def test_solve_singular_consistent_system():
    # the annihilator of b is (z - 1)(z - 2), whose constant term is nonzero
    mat = np.diag([1, 2, 0, 0]).astype(np.int64)
    world, sub, dm = world_with(mat, 101)
    x = krylov.solve(world, sub, dm, np.array([3, 4, 0, 0]))
    assert x.tolist() == [3, 2, 0, 0]


def test_solve_singular_system_raises():
    p = prime_for(4)
    world, sub, dm = world_with(np.zeros((4, 4), dtype=np.int64), p)
    with pytest.raises(krylov.SolveFailedError):
        krylov.solve(world, sub, dm, np.array([1, 0, 0, 0]))


# ------------------------------------------------------------------ rank

def test_rank_zero_matrix():
    p = prime_for(4)
    world, sub, dm = world_with(np.zeros((4, 4), dtype=np.int64), p)
    assert krylov.rank_rand(world, sub, dm) == 0


def test_rank_full():
    p = prime_for(6)
    world, sub, dm = world_with(np.eye(6, dtype=np.int64), p)
    assert krylov.rank_rand(world, sub, dm) == 6


def test_rank_outer_product():
    n = 8
    p = prime_for(n)
    rng = random.Random(5)
    hits = 0
    for trial in range(30):
        u = np.array([1 + rng.randrange(p - 1) for _ in range(n)])
        v = np.array([1 + rng.randrange(p - 1) for _ in range(n)])
        mat = np.outer(u, v) % p
        world, sub, dm = world_with(mat, p, seed=trial)
        hits += int(krylov.rank_rand(world, sub, dm, tag=f"t{trial}") == 1)
    assert hits >= 28


def test_rank_matches_oracle_various():
    n = 8
    p = prime_for(n)
    rng = random.Random(6)
    hits = 0
    for trial in range(30):
        r = rng.randrange(0, n + 1)
        if r == 0:
            mat = np.zeros((n, n), dtype=np.int64)
        else:
            mat = (np.array([[rng.randrange(p) for _ in range(r)] for _ in range(n)]) @
                   np.array([[rng.randrange(p) for _ in range(n)] for _ in range(r)])) % p
        world, sub, dm = world_with(mat, p, seed=50 + trial)
        hits += int(krylov.rank_rand(world, sub, dm, tag=f"t{trial}") ==
                    oracles.rank_mod(mat, p))
    assert hits >= 28


def _low_rank(n, r, p, seed):
    rng = random.Random(seed)
    return (np.array([[rng.randrange(p) for _ in range(r)] for _ in range(n)]) @
            np.array([[rng.randrange(p) for _ in range(n)] for _ in range(r)])) % p


def test_rank_rand_scales_by_its_diagonal_locally():
    # B = U A V D is formed node by node around two transposes: the only
    # product call under rank_rand is the minpol of B
    n, r = 8, 3
    p = prime_for(n)
    mat = _low_rank(n, r, p, 3)
    assert oracles.rank_mod(mat, p) == r
    world, sub, dm = world_with(mat, p, seed=3)
    assert krylov.rank_rand(world, sub, dm) == r
    group = next(child for child in world.ledger.root.children
                 if child.name.startswith("rankrand"))
    products = [child.name for child in group.children if isinstance(child, GroupRecord)]
    assert [re.sub(r"\d+", "#", name) for name in products] == ["minpol#"]
    names = [child.name for child in group.children]
    assert names.index("ua") < names.index("uavd") < names.index(products[0])


@pytest.mark.parametrize("r", [3, 8])
def test_rank_rand_forms_b_by_two_transposes(r):
    # one generator per attempt and no det_rand pre-check; forming B routes
    # exactly two transposes of 2 rounds and n(n - 1) messages each
    n = 8
    p = prime_for(n)
    mat = _low_rank(n, r, p, r)
    world, sub, dm = world_with(mat, p, seed=r)
    assert krylov.rank_rand(world, sub, dm) == r == oracles.rank_mod(mat, p)
    groups = [path for path, _ in world.ledger.leaves()]
    assert not any("detrand" in path for path in groups)
    (group,) = world.ledger.root.children
    routed = [(child.name, child.rounds, child.messages) for child in group.children
              if isinstance(child, PhaseRecord) and child.rounds
              and not child.name.startswith("share-pre")]
    assert routed == [("ua-rows", 2, n * (n - 1)), ("uavd-cols", 2, n * (n - 1))]


def test_rank_rand_never_underestimates_an_invertible_matrix():
    # B = U A V D with a nonzero diagonal is invertible with A, so its
    # generator never has g(0) = 0: the answer is n or InconclusiveError.  A
    # zero entry of D would make B singular and the answer smaller.
    n, p = 6, 7
    answers = collections.Counter()
    for seed in range(50):
        rng = np.random.default_rng(seed)
        mat = rng.integers(0, p, (n, n))
        while oracles.det_mod(mat, p) == 0:
            mat = rng.integers(0, p, (n, n))
        world, sub, dm = world_with(mat, p, seed=seed)
        try:
            answers[krylov.rank_rand(world, sub, dm)] += 1
        except krylov.InconclusiveError:
            answers["raised"] += 1
    assert set(answers) <= {n, "raised"} and answers[n] > 0


def test_run_rank_of_a_low_rank_matrix(capsys):
    argv = ["run", "rank", "--gen", "lowrank:n=16", "--seed", "1"]
    assert cli.main(argv) == 0
    out = capsys.readouterr().out
    assert "verdict: pass" in out
    assert "total rounds=70 messages=8370" in out
    assert "detrand" not in out


def test_rank_rand_raises_when_no_estimate_is_in_range():
    # a rank-2 matrix over GF(5) at which all three attempts are inconclusive
    # (g(0) != 0 and deg g < n); 45 is the first seed in 1..399 that gives one
    rng = np.random.default_rng(45)
    mat = rng.integers(0, 5, (4, 2)) @ rng.integers(0, 5, (2, 4)) % 5
    assert oracles.rank_mod(mat, 5) == 2
    world, sub, dm = world_with(mat, 5, seed=45)
    with pytest.raises(krylov.InconclusiveError):
        krylov.rank_rand(world, sub, dm)


@pytest.mark.parametrize("routine", [
    krylov.rank_rand, krylov.minpol_monte_carlo, krylov.det_rand,
    lambda world, sub, dm: krylov.solve(world, sub, dm, np.ones(4, dtype=np.int64)),
], ids=["rank_rand", "minpol", "det_rand", "solve"])
def test_refused_prime_raises_before_any_phase(routine):
    # 2^40 + 15 lies above FLOAT_PRIME_MAX, where matmul_mod is not exact
    p = next_prime_at_least(2 ** 40)
    mat = np.arange(16, dtype=np.int64).reshape(4, 4) * (2 ** 35 + 1) % p
    world, sub, dm = world_with(mat, p)
    with pytest.raises(ValueError, match="exceeds"):
        routine(world, sub, dm)
    assert world.ledger.leaves() == [] and world.ledger.total_messages == 0


def test_toeplitz_builder_shapes():
    p = 101
    n = 5
    rng = random.Random(0)
    coeffs = np.array([rng.randrange(p) for _ in range(8)])
    u_mat, v_mat = krylov.unit_toeplitz(coeffs, n, p)
    for i in range(n):
        assert u_mat[i, i] == 1 and v_mat[i, i] == 1
        for j in range(i + 1, n):
            assert u_mat[i, j] == coeffs[j - i - 1] % p
            assert v_mat[j, i] == coeffs[4 + j - i - 1] % p
            assert u_mat[j, i] == 0 and v_mat[i, j] == 0
    # Toeplitz: constant along diagonals
    for off in range(1, n):
        vals = {u_mat[i, i + off] for i in range(n - off)}
        assert len(vals) == 1


def test_rank_exact_at_30_bit_prime():
    # the probe projections overflowed int64 and made the rank come out as n
    n, r = 32, 12
    p = next_prime_at_least(2**30)
    rng = random.Random(12)
    u = [[rng.randrange(p) for _ in range(r)] for _ in range(n)]
    v = [[rng.randrange(p) for _ in range(n)] for _ in range(r)]
    mat = np.array([[sum(u[i][s] * v[s][j] for s in range(r)) % p for j in range(n)]
                    for i in range(n)], dtype=np.int64)
    assert oracles.rank_mod(mat, p) == r
    world, sub, dm = world_with(mat, p, seed=1)
    assert krylov.rank_rand(world, sub, dm) == r
