import random

import numpy as np
import pytest

from cliquealg import detinv, mm, oracles
from cliquealg.sim import CliqueWorld


P = 101


def world_with(mat, p=P, seed=0):
    n = mat.shape[0]
    world = CliqueWorld(n, seed=seed)
    sub = world.all_nodes()
    dm = mm.scatter_matrix(world, sub, mat, p)
    return world, sub, dm


def rand_lower(rng, n, p=P):
    mat = np.array([[rng.randrange(p) if j < i else 0 for j in range(n)]
                    for i in range(n)], dtype=np.int64)
    for i in range(n):
        mat[i, i] = 1 + rng.randrange(p - 1)
    return mat


# ------------------------------------------------------------ tri_inverse

def test_tri_inverse_identity():
    world, sub, dm = world_with(np.eye(4, dtype=np.int64))
    inv = detinv.tri_inverse(world, sub, dm)
    assert np.array_equal(mm.gather_matrix(world, inv), np.eye(4, dtype=np.int64))


def test_tri_inverse_diagonal():
    diag = np.diag([1, 2, 3, 4]).astype(np.int64)
    world, sub, dm = world_with(diag)
    inv = mm.gather_matrix(world, detinv.tri_inverse(world, sub, dm))
    want = np.diag([pow(d, -1, P) for d in (1, 2, 3, 4)])
    assert np.array_equal(inv, want)


@pytest.mark.parametrize("n", [1, 2, 3, 5, 7, 8, 11])
def test_tri_inverse_random(n):
    rng = random.Random(n)
    mat = rand_lower(rng, n)
    world, sub, dm = world_with(mat)
    inv = mm.gather_matrix(world, detinv.tri_inverse(world, sub, dm))
    assert np.array_equal(inv, oracles.inverse_mod(mat, P))


def test_tri_inverse_zero_diagonal_reports_index():
    mat = rand_lower(random.Random(0), 4)
    mat[2, 2] = 0
    world, sub, dm = world_with(mat)
    with pytest.raises(detinv.SingularMatrixError) as exc:
        detinv.tri_inverse(world, sub, dm)
    assert "index" in str(exc.value)


def test_tri_inverse_recurrence_in_ledger():
    # R(n) <= R(n/2) + 2 R_M(n/2) + 4 read off the ledger tree
    rng = random.Random(7)
    world, sub, dm = world_with(rand_lower(rng, 8))
    detinv.tri_inverse(world, sub, dm)
    tri = world.ledger.root.children[-1]
    assert [child.name for child in tri.children] == [
        "split", "halves", "handover", "pad", "prod1", "prod2", "handback", "assemble"]
    parts = {child.name: child for child in tri.children}
    halves = parts["halves"].rounds
    prod1 = parts["prod1"].rounds
    prod2 = parts["prod2"].rounds
    transfers = parts["handover"].rounds + parts["handback"].rounds
    assert transfers == 4
    assert tri.rounds == halves + prod1 + prod2 + 4
    # and the parallel group charged the max of its branches
    branches = parts["halves"].children
    assert parts["halves"].rounds == max(b.rounds for b in branches)


# ------------------------------------------------------------ power_batch

def test_power_batch_cycle_matrix():
    perm = np.zeros((4, 4), dtype=np.int64)
    for i in range(4):
        perm[i, (i + 1) % 4] = 1
    world, sub, dm = world_with(perm)
    lows, strides = detinv.power_batch(world, sub, dm)
    assert np.array_equal(mm.gather_matrix(world, lows[1]),
                          oracles.mat_mult(perm, perm, P))
    # A^4 = I: strides[0] is (A^2)^1 = A^2, lows[-1] = A^2 as well for p=2
    a4 = oracles.mat_mult(oracles.mat_mult(perm, perm, P),
                          oracles.mat_mult(perm, perm, P), P)
    assert np.array_equal(a4, np.eye(4, dtype=np.int64))


def test_power_batch_zero_matrix():
    world, sub, dm = world_with(np.zeros((4, 4), dtype=np.int64))
    lows, strides = detinv.power_batch(world, sub, dm)
    for dmat in lows + strides:
        assert not mm.gather_matrix(world, dmat).any()


@pytest.mark.parametrize("n", [4, 8, 9])
def test_power_batch_matches_iterated_products(n):
    rng = random.Random(n)
    mat = np.array([[rng.randrange(P) for _ in range(n)] for _ in range(n)])
    world, sub, dm = world_with(mat)
    lows, strides = detinv.power_batch(world, sub, dm)
    pc = len(lows)
    acc = np.eye(n, dtype=np.int64)
    for j, low in enumerate(lows, start=1):
        acc = oracles.mat_mult(acc, mat, P)
        assert np.array_equal(mm.gather_matrix(world, low), acc), f"A^{j}"
    base = acc if pc * pc >= n else None
    stride_acc = np.eye(n, dtype=np.int64)
    a_pc = mm.gather_matrix(world, lows[-1])
    for i, stride in enumerate(strides, start=1):
        stride_acc = oracles.mat_mult(stride_acc, a_pc, P)
        assert np.array_equal(mm.gather_matrix(world, stride), stride_acc)


# ------------------------------------------------------- char poly and det

def test_charpoly_identity_small_field():
    world, sub, dm = world_with(np.eye(4, dtype=np.int64), p=7)
    state = detinv.char_poly(world, sub, dm)
    assert list(state.coeffs) == [(-4) % 7, 6 % 7, (-4) % 7, 1 % 7]


def test_charpoly_companion_matrix():
    comp = np.array([[0, -2], [1, 3]]) % P  # companion of x^2 - 3x + 2
    world, sub, dm = world_with(comp)
    state = detinv.char_poly(world, sub, dm)
    assert list(state.coeffs) == [(-3) % P, 2]


def test_charpoly_zero_matrix():
    world, sub, dm = world_with(np.zeros((4, 4), dtype=np.int64))
    state = detinv.char_poly(world, sub, dm)
    assert list(state.coeffs) == [0, 0, 0, 0]


def test_charpoly_rejects_small_characteristic():
    world, sub, dm = world_with(np.eye(8, dtype=np.int64), p=7)
    with pytest.raises(detinv.UnsupportedFieldError):
        detinv.char_poly(world, sub, dm)


@pytest.mark.parametrize("n", [2, 4, 5, 8])
def test_charpoly_matches_oracle(n):
    rng = random.Random(n * 13)
    mat = np.array([[rng.randrange(P) for _ in range(n)] for _ in range(n)])
    world, sub, dm = world_with(mat)
    state = detinv.char_poly(world, sub, dm)
    assert list(state.coeffs) == oracles.charpoly_mod(mat, P)


def test_det_diagonal():
    world, sub, dm = world_with(np.diag([1, 2, 3, 4]).astype(np.int64))
    assert detinv.det(world, sub, dm) == 24


def test_det_multiplicative():
    rng = random.Random(4)
    n = 6
    a = np.array([[rng.randrange(P) for _ in range(n)] for _ in range(n)])
    b = np.array([[rng.randrange(P) for _ in range(n)] for _ in range(n)])
    # the product itself computed by the distributed multiplier
    world = CliqueWorld(n, seed=0)
    sub = world.all_nodes()
    a_dm = mm.scatter_matrix(world, sub, a, P)
    b_dm = mm.scatter_matrix(world, sub, b, P)
    ab_dm = mm.mm_multi(world, sub, [a_dm], [b_dm])[0]
    det_ab = detinv.det(world, sub, ab_dm)
    dets = []
    for mat in (a, b):
        w2, s2, d2 = world_with(mat)
        dets.append(detinv.det(w2, s2, d2))
    assert det_ab == dets[0] * dets[1] % P


@pytest.mark.parametrize("n", [1, 2, 3, 4, 8])  # n = 1: pc = 1, no product; n = 3: ragged
def test_det_and_inverse_match_oracle(n):
    rng = random.Random(n * 7 + 1)
    for trial in range(25):
        mat = np.array([[rng.randrange(P) for _ in range(n)] for _ in range(n)])
        world, sub, dm = world_with(mat, seed=trial)
        value = detinv.det(world, sub, dm)
        assert value == oracles.det_mod(mat, P)
        want_inv = oracles.inverse_mod(mat, P)
        if want_inv is None:
            with pytest.raises(detinv.SingularMatrixError):
                detinv.inverse(world, sub, dm)
        else:
            inv = mm.gather_matrix(world, detinv.inverse(world, sub, dm))
            assert np.array_equal(inv, want_inv)
            assert np.array_equal(oracles.mat_mult(mat, inv, P),
                                  np.eye(n, dtype=np.int64))


def test_inverse_block_embedded_example():
    # [[1,1],[0,1]] inverted inside a block-diagonal 4x4 embedding
    mat = np.eye(4, dtype=np.int64)
    mat[0, 1] = 1
    world, sub, dm = world_with(mat)
    inv = mm.gather_matrix(world, detinv.inverse(world, sub, dm))
    want = np.eye(4, dtype=np.int64)
    want[0, 1] = P - 1
    assert np.array_equal(inv, want)


def test_inverse_forms_the_power_zero_term_locally(monkeypatch):
    # A^0 = I is never distributed: E_0 A^0 = E_0 is formed in `weights`, so
    # inverse's last batch holds E_1 A^1 .. E_(pc-1) A^(pc-1), pc = 4 at n = 16
    batches = []
    real = detinv.mm_multi

    def spy(world, subset, a_list, b_list, *args, **kwargs):
        batches.append(len(a_list))
        return real(world, subset, a_list, b_list, *args, **kwargs)

    monkeypatch.setattr(detinv, "mm_multi", spy)
    rng = random.Random(16)
    n = 16
    while True:
        mat = np.array([[rng.randrange(P) for _ in range(n)] for _ in range(n)])
        if oracles.det_mod(mat, P):
            break
    world, sub, dm = world_with(mat)
    inv = mm.gather_matrix(world, detinv.inverse(world, sub, dm))
    assert np.array_equal(inv, oracles.inverse_mod(mat, P))
    assert batches[-1] == 3
    det_world, det_sub, det_dm = world_with(mat)
    assert detinv.det(det_world, det_sub, det_dm) == oracles.det_mod(mat, P)
    for ledger in (world.ledger, det_world.ledger):
        assert "identity" not in [path.rsplit("/", 1)[-1] for path, _ in ledger.leaves()]


def test_detinv_oblivious_ledger():
    texts = set()
    rng = random.Random(0)
    n = 8
    for _ in range(10):
        while True:
            mat = np.array([[rng.randrange(P) for _ in range(n)] for _ in range(n)])
            if oracles.det_mod(mat, P):
                break
        world, sub, dm = world_with(mat)
        detinv.inverse(world, sub, dm)
        texts.add(world.ledger.to_text())
    assert len(texts) == 1


def test_det_and_inverse_exact_at_31_bit_prime():
    # the coefficient dot product and the weighted power sums overflowed int64
    p = (1 << 31) - 1
    rng = random.Random(3)
    n = 8
    for trial in range(3):
        mat = np.array([[rng.randrange(p) for _ in range(n)] for _ in range(n)])
        world, sub, dm = world_with(mat, p=p, seed=trial)
        assert detinv.det(world, sub, dm) == oracles.det_mod(mat, p)
        world, sub, dm = world_with(mat, p=p, seed=trial)
        inv = mm.gather_matrix(world, detinv.inverse(world, sub, dm))
        assert np.array_equal(inv, oracles.inverse_mod(mat, p))
