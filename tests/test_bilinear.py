import random

import numpy as np
import pytest

from cliquealg import bilinear
from cliquealg.ff import matmul_mod


def apply_algorithm(alg, a, b, p):
    """Evaluate the coefficient identity directly on scalar matrices."""
    if a.shape != (alg.d, alg.e) or b.shape != (alg.e, alg.d):
        raise ValueError("shape mismatch with the algorithm dimensions")
    alpha = alg.alpha % p
    beta = alg.beta % p
    lam = alg.lam % p
    s = np.einsum("mij,ij->m", alpha, a % p) % p
    t = np.einsum("mij,ji->m", beta, b % p) % p
    prods = s * t % p
    return np.einsum("mij,m->ij", lam, prods) % p


def verify_identity(alg, p=101, trials=50):
    """Check the identity on all basis pairs when d*e <= 16, else on `trials`
    seeded random pairs."""
    if alg.d * alg.e <= 16:
        for a_pos in range(alg.d * alg.e):
            for b_pos in range(alg.e * alg.d):
                a = np.zeros((alg.d, alg.e), dtype=np.int64)
                b = np.zeros((alg.e, alg.d), dtype=np.int64)
                a[a_pos // alg.e, a_pos % alg.e] = 1
                b[b_pos // alg.d, b_pos % alg.d] = 1
                if not np.array_equal(apply_algorithm(alg, a, b, p),
                                      matmul_mod(a, b, p)):
                    return False
        return True
    rng = random.Random(0)
    for _ in range(trials):
        a = np.array([[rng.randrange(p) for _ in range(alg.e)] for _ in range(alg.d)],
                     dtype=np.int64)
        b = np.array([[rng.randrange(p) for _ in range(alg.d)] for _ in range(alg.e)],
                     dtype=np.int64)
        if not np.array_equal(apply_algorithm(alg, a, b, p), matmul_mod(a, b, p)):
            return False
    return True


def test_trivial_ranks():
    assert bilinear.trivial_algorithm(1, 1).t == 1
    assert bilinear.trivial_algorithm(2, 2).t == 8
    assert bilinear.trivial_algorithm(2, 3).t == 12


@pytest.mark.parametrize("d,e", [(1, 1), (2, 2), (2, 3), (3, 2), (4, 4), (1, 5)])
def test_trivial_identity_exhaustive(d, e):
    assert verify_identity(bilinear.trivial_algorithm(d, e), p=101)


def test_strassen_identity_and_random_products():
    alg = bilinear.strassen()
    assert alg.t == 7
    assert verify_identity(alg, p=101)
    rng = random.Random(0)
    for p in (101, 5):
        for _ in range(50):
            a = np.array([[rng.randrange(p) for _ in range(2)] for _ in range(2)])
            b = np.array([[rng.randrange(p) for _ in range(2)] for _ in range(2)])
            assert np.array_equal(apply_algorithm(alg, a, b, p),
                                  matmul_mod(a, b, p))


def test_tensor_power_dimensions_and_identity():
    sq = bilinear.tensor_power(bilinear.strassen(), 2)
    assert (sq.d, sq.e, sq.t) == (4, 4, 49)
    rng = random.Random(1)
    p = 101
    for _ in range(50):
        a = np.array([[rng.randrange(p) for _ in range(4)] for _ in range(4)])
        b = np.array([[rng.randrange(p) for _ in range(4)] for _ in range(4)])
        assert np.array_equal(apply_algorithm(sq, a, b, p),
                              matmul_mod(a, b, p))
    cube = bilinear.tensor_power(bilinear.strassen(), 3)
    assert (cube.d, cube.t) == (8, 343)
    assert verify_identity(cube, p=101, trials=25)


def test_tensor_power_rank_multiplicative():
    base = bilinear.trivial_algorithm(2, 2)
    for k in range(4):
        assert bilinear.tensor_power(base, k).t == base.t ** k


def test_tensor_power_of_trivial_is_trivial():
    one = bilinear.tensor_power(bilinear.trivial_algorithm(2, 2), 1)
    ref = bilinear.trivial_algorithm(2, 2)
    # same rank and same evaluation on basis pairs
    assert one.t == ref.t
    assert verify_identity(one, p=101)


def test_dimensions_examples():
    assert bilinear.dimensions("trivial", 64, 1.0) == (4, 4, 64)
    assert bilinear.dimensions("trivial", 100, 1.0) == (4, 4, 64)
    assert bilinear.dimensions("strassen", 49, 1.0) == (4, 4, 49)
    assert bilinear.dimensions("trivial", 1, 0.0) == (1, 1, 1)
    assert bilinear.dimensions("trivial", 100, 0.0) == (10, 1, 100)


def test_dimensions_huge_gamma_gives_d_one():
    # just below the column-block threshold the balancing gamma is in the
    # thousands, and 2.0 ** gamma is no float
    assert bilinear.dimensions("trivial", 255, 2123.0) == (1, 1, 1)
    assert bilinear.dimensions("trivial", 10 ** 6, 1e9) == (1, 1, 1)


def test_dimensions_strassen_gamma_restriction():
    with pytest.raises(ValueError):
        bilinear.dimensions("strassen", 49, 0.5)


def test_algorithm_for_families():
    assert bilinear.dimensions("trivial", 18, 0.5) == (3, 2, 18)
    alg = bilinear.algorithm_for("trivial", 3, 2)
    assert (alg.d, alg.e, alg.t) == (3, 2, 18)
    st = bilinear.algorithm_for("strassen", 4, 4)
    assert st.t == 49
    for d, e in ((3, 3), (4, 2)):
        with pytest.raises(ValueError):
            bilinear.algorithm_for("strassen", d, e)
    with pytest.raises(ValueError):
        bilinear.algorithm_for("nope", 2, 2)
