import math
import random

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from cliquealg import ff
from polytools import divides, poly_divmod, poly_mul


def test_least_prime_congruent_examples():
    assert ff.least_prime_congruent(1, 2) == 3
    assert ff.least_prime_congruent(2, 2) == 5
    assert ff.least_prime_congruent(4, 2) == 17


def test_least_prime_congruent_lower_bound():
    p = ff.least_prime_congruent(3, 50)
    assert p >= 50 and p % 6 == 1 and ff.is_prime(p)
    # nothing smaller works
    for cand in range(50, p):
        assert not (ff.is_prime(cand) and cand % 6 == 1)


def test_is_prime_against_sieve():
    limit = 2000
    sieve = [True] * limit
    sieve[0] = sieve[1] = False
    for i in range(2, limit):
        if sieve[i]:
            for j in range(i * i, limit, i):
                sieve[j] = False
    for n in range(limit):
        assert ff.is_prime(n) == sieve[n], n


def test_primitive_root_examples():
    assert ff.primitive_root_of_unity(5, 4) == 2
    w = ff.primitive_root_of_unity(17, 8)
    # exhaustive order check
    assert pow(w, 8, 17) == 1
    for j in range(1, 8):
        assert pow(w, j, 17) != 1
    assert ff.primitive_root_of_unity(5, 1) == 1


def test_primitive_root_invalid_order():
    with pytest.raises(ff.InvalidOrderError):
        ff.primitive_root_of_unity(7, 4)


def test_modulus_must_be_a_word_sized_prime():
    big = (1 << 64) - 59
    assert ff.is_prime(big) and big > ff.WORD_BOUND
    for p in (10, 3037000507, big):  # 3037000507: the least prime above FLOAT_PRIME_MAX
        with pytest.raises(ValueError):
            ff.check_prime(p)
        with pytest.raises(ValueError):
            ff.primitive_root_of_unity(p, 1)
        with pytest.raises(ValueError):
            ff.generating_polynomial([1, 1, 1, 1], p)


def _transform(vec, omega, p):
    """Forward DFT of one sequence through the transform matrix dist_prod_dft uses."""
    column = np.array(vec).reshape(-1, 1)
    return ff.matmul_mod(ff.dft_matrix(omega, len(vec), p), column, p).ravel()


def _inverse_transform(vec, omega, p):
    length = len(vec)
    return _transform(vec, pow(omega, -1, p), p) * pow(length, -1, p) % p


@pytest.mark.parametrize("length", [2, 4, 6, 8, 16])
def test_dft_roundtrip_lengths(length):
    p = ff.least_prime_congruent(length // 2, max(length + 1, 17))
    omega = ff.primitive_root_of_unity(p, length)
    rng = random.Random(length)
    for _ in range(100):
        vec = [rng.randrange(p) for _ in range(length)]
        assert list(_inverse_transform(_transform(vec, omega, p), omega, p)) == vec


def test_dft_delta_gives_constant():
    omega = ff.primitive_root_of_unity(17, 8)
    out = _transform([1] + [0] * 7, omega, 17)
    assert list(out) == [1] * 8


def test_dft_convolution_theorem():
    length = 8
    p = ff.least_prime_congruent(length // 2, 101)
    omega = ff.primitive_root_of_unity(p, length)
    rng = random.Random(0)
    for _ in range(50):
        a = [rng.randrange(p) for _ in range(length)]
        b = [rng.randrange(p) for _ in range(length)]
        direct = [0] * length
        for i in range(length):
            for j in range(length):
                direct[(i + j) % length] = (direct[(i + j) % length] + a[i] * b[j]) % p
        pointwise = (_transform(a, omega, p) * _transform(b, omega, p)) % p
        assert list(_inverse_transform(pointwise, omega, p)) == direct


def test_generating_polynomial_examples():
    assert ff.generating_polynomial([1, 1, 1, 1], 101).coeffs == (100, 1)
    fib = ff.generating_polynomial([0, 1, 1, 2, 3, 5, 8, 13], 101)
    assert fib.coeffs == (100, 100, 1)  # x^2 - x - 1
    assert ff.generating_polynomial([0, 0, 0, 0], 101).coeffs == (1,)
    with pytest.raises(ValueError):
        ff.generating_polynomial([], 101)


def test_generating_polynomial_annihilates():
    p = 101
    rng = random.Random(1)
    for _ in range(50):
        deg = rng.randrange(1, 5)
        init = [rng.randrange(p) for _ in range(deg)]
        rec = [rng.randrange(p) for _ in range(deg)]
        seq = list(init)
        for _ in range(4 * deg):
            seq.append(sum(r * s for r, s in zip(rec, seq[-deg:])) % p)
        g = ff.generating_polynomial(seq, p)
        e = g.degree
        assert 2 * e <= len(seq)
        assert g.coeffs[-1] == 1  # monic
        for i in range(len(seq) - e):
            acc = sum(g.coeffs[j] * seq[i + j] for j in range(e + 1)) % p
            assert acc == 0


def test_polynomial_normalization_and_ops():
    p = 101
    poly = ff.Polynomial([1, 2, 0, 0], p)
    assert poly.coeffs == (1, 2) and poly.degree == 1
    zero = ff.Polynomial([0, 0], p)
    assert zero.coeffs == () and zero.degree == -1
    a = ff.Polynomial([2, 1], p)      # x + 2
    b = ff.Polynomial([3, 1], p)      # x + 3
    prod = poly_mul(a, b)
    assert prod.coeffs == (6, 5, 1)
    q, r = poly_divmod(prod, a)
    assert q == b and r.coeffs == ()
    assert divides(a, prod) and not divides(ff.Polynomial([5, 1], p), prod)


def test_matmul_mod_chunking():
    p = (1 << 31) - 1  # int64 holds one product at a time: the float path, in limbs
    rng = random.Random(2)
    a = np.array([[rng.randrange(p) for _ in range(20)] for _ in range(4)])
    b = np.array([[rng.randrange(p) for _ in range(4)] for _ in range(20)])
    got = ff.matmul_mod(a, b, p)
    want = np.array([[sum(int(a[i, s]) * int(b[s, j]) for s in range(20)) % p
                      for j in range(4)] for i in range(4)])
    assert np.array_equal(got, want)


def test_matmul_mod_refuses_what_it_cannot_compute_exactly():
    ones = np.ones((2, 2), dtype=np.int64)
    with pytest.raises(ValueError):
        ff.matmul_mod(ones, ones, 3037000507)  # the least prime above FLOAT_PRIME_MAX
    p = ff.FLOAT_PRIME_MAX
    inner = -(-(1 << 53) // (p - 1))  # least inner with inner * (p - 1) >= 2^53
    with pytest.raises(ValueError):
        ff.matmul_mod(np.ones((1, inner), dtype=np.int64), np.ones((inner, 1), dtype=np.int64), p)
    row = np.ones((1, inner - 1), dtype=np.int64)
    assert ff.matmul_mod(row, row.T, p)[0, 0] == inner - 1


def _prime_at_most(x):
    while not ff.is_prime(x):
        x -= 1
    return x


@st.composite
def matmul_cases(draw):
    """(a, b, p) with entries in (-p, p); p or inner is often drawn from a
    band around where inner * (p - 1)^2 or inner * (p - 1) * (2^L - 1)
    crosses 2^53."""
    edge = draw(st.sampled_from(["any", "one-product", "limb-width"]))
    if edge == "any":
        p = _prime_at_most(draw(st.integers(2, ff.FLOAT_PRIME_MAX)))
        inner = draw(st.integers(0, 48))
    elif edge == "one-product":
        inner = draw(st.integers(1, 64))
        q = math.isqrt(((1 << 53) - 1) // inner) + 1  # least q with inner*(q-1)^2 >= 2^53
        p = _prime_at_most(draw(st.integers(q // 2, 2 * q)))
    else:
        p = _prime_at_most(draw(st.integers(1 << 27, ff.FLOAT_PRIME_MAX)))
        width = draw(st.integers(14, 26))
        top = ((1 << 53) - 1) // ((p - 1) * ((1 << width) - 1))  # largest inner for width
        assume(1 <= top <= 64)
        inner = draw(st.integers(max(1, top // 2), 2 * top))
    rows = draw(st.integers(1, 24))
    cols = draw(st.integers(1, 24))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        # the largest sums: a near p - 1 (odd and even) and b one value of
        # one sign, either near p - 1 or all ones below its top bit
        a = draw(st.sampled_from([-1, 1])) * rng.choice([p - 1, max(p - 2, 1)], size=(rows, inner))
        value = draw(st.sampled_from([p - 1, max(p - 2, 1),
                                      max((1 << ((p - 1).bit_length() - 1)) - 1, 1)]))
        b = np.full((inner, cols), draw(st.sampled_from([-1, 1])) * value, dtype=np.int64)
    else:
        a = rng.integers(-p + 1, p, size=(rows, inner))
        b = rng.integers(-p + 1, p, size=(inner, cols))
    return a, b, p


@settings(max_examples=1000, deadline=None)
@given(matmul_cases())
@example((np.full((24, 24), 3037000492), np.full((24, 24), -3037000492), 3037000493))
@example((np.ones((3, 5), dtype=np.int64), np.ones((5, 2), dtype=np.int64), 2))
def test_matmul_mod_matches_python_ints(case):
    a, b, p = case
    want = (a.astype(object) @ b.astype(object)) % p
    got = ff.matmul_mod(a, b, p)
    assert got.dtype == np.int64
    assert np.array_equal(got, want.astype(np.int64))
