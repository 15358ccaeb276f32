"""Arithmetic mod a word-sized prime p, prime search, and the DFT matrix mod p.

Everything here is node-local math.  A field is its modulus, a plain int p,
and values are int64 arrays reduced mod p.  The module holds the prime checks
and searches, roots of unity and the transform matrix, modular matrix
products, polynomials with coefficients mod p, and Berlekamp-Massey recovery
of the minimal linear recurrence of a sequence.

FLOAT_PRIME_MAX, the largest prime with (p - 1)^2 < 2^63, bounds the modulus:
`check_prime` admits no larger prime, and `matmul_mod`, which every modular
matrix product goes through, is exact up to it and refuses larger ones.  Small
shapes use numpy's int64 product; the rest runs on float64 BLAS, with the
right operand split into limbs so that no partial sum reaches 2^53, where
float64 stops representing every integer.  Sums of integers below 2^53 are
exact, so the order BLAS adds them in cannot change the result.
"""

from __future__ import annotations

import warnings
from typing import Iterable, Sequence

import numpy as np

# Search limit for prime hunting; a search may pass FLOAT_PRIME_MAX, arithmetic may not.
WORD_BOUND = 1 << 62

_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

# Largest prime with (p - 1)^2 < 2^63: every product of two entries in
# (-p, p) fits int64.  check_prime and matmul_mod admit no larger p.
FLOAT_PRIME_MAX = 3037000493
# Below this many multiply-adds (rows * inner * cols) per product squared,
# numpy's int64 product is faster than matmul_mod's float64 path, which does
# one BLAS product per limb of b: measured crossovers on one core were about
# 16^3-24^3 with one limb and 40^3 with two.
INT64_MAX_OPS = 24 ** 3
# Every integer of magnitude below 2^53 is exact in float64.
_FLOAT_EXACT = 1 << 53


class InvalidOrderError(ValueError):
    pass


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact for all word-sized integers."""
    if n < 2:
        return False
    for q in _MR_WITNESSES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def next_prime_at_least(lower_bound: int) -> int:
    p = max(2, lower_bound)
    while not is_prime(p):
        p += 1
        if p > WORD_BOUND:
            raise OverflowError("prime search exceeded the machine-word bound")
    return p


def capped_prime(bound: int, what: str) -> int:
    """Least prime >= bound, the field size `what`'s failure bounds assume;
    FLOAT_PRIME_MAX, with a warning that those bounds do not apply, when
    bound exceeds it."""
    if bound > FLOAT_PRIME_MAX:
        warn_small_field(FLOAT_PRIME_MAX, bound, what)
        return FLOAT_PRIME_MAX
    return next_prime_at_least(bound)


def warn_small_field(p: int, bound: int, what: str) -> None:
    """Warn when p is below the field size `bound` that `what`'s failure
    bounds assume.  Callers sit two frames below the public function a user
    called, so the warning points at that user's line."""
    if p < bound:
        warnings.warn(f"{what}: field size {p} below {bound}; failure bounds do not apply",
                      stacklevel=4)


def least_prime_congruent(n_param: int, lower_bound: int) -> int:
    """Least prime p >= lower_bound with p congruent to 1 mod 2*n_param."""
    if n_param < 1 or lower_bound < 2:
        raise ValueError("need n_param >= 1 and lower_bound >= 2")
    step = 2 * n_param
    p = lower_bound + (1 - lower_bound) % step
    while True:
        if p > WORD_BOUND:
            raise OverflowError(
                f"no prime = 1 (mod {step}) below the machine-word bound {WORD_BOUND}"
            )
        if p >= 2 and is_prime(p):
            return p
        p += step


def check_prime(p: int) -> None:
    """Raise ValueError unless p is a prime no larger than FLOAT_PRIME_MAX."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if p > FLOAT_PRIME_MAX:
        raise ValueError(f"{p} exceeds {FLOAT_PRIME_MAX}, the largest prime with exact arithmetic")


def _prime_factors(n: int) -> list[int]:
    out, q = [], 2
    while q * q <= n:
        if n % q == 0:
            out.append(q)
            while n % q == 0:
                n //= q
        q += 1
    if n > 1:
        out.append(n)
    return out


def primitive_root_of_unity(p: int, order: int) -> int:
    """An element of multiplicative order exactly `order` in GF(p).

    Requires order | p - 1; search is deterministic (smallest base first).
    """
    check_prime(p)
    if order < 1:
        raise InvalidOrderError("order must be positive")
    if order == 1:
        return 1
    if (p - 1) % order != 0:
        raise InvalidOrderError(f"{order} does not divide p-1 = {p - 1}")
    factors = _prime_factors(order)
    for g in range(2, p):
        cand = pow(g, (p - 1) // order, p)
        if cand == 1:
            continue
        if all(pow(cand, order // q, p) != 1 for q in factors):
            return cand
    raise InvalidOrderError(f"no element of order {order} found in GF({p})")


def _power_table(base: int, count: int, p: int) -> np.ndarray:
    out = np.empty(count, dtype=np.int64)
    acc = 1
    for i in range(count):
        out[i] = acc
        acc = acc * base % p
    return out


def dft_matrix(omega: int, length: int, p: int) -> np.ndarray:
    """The full transform matrix, for batch transforms of many sequences."""
    powers = _power_table(omega % p, length, p)
    return powers[np.outer(np.arange(length), np.arange(length)) % length]


def matmul_mod(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """a @ b mod p, exact for entries in (-p, p) and every p <= FLOAT_PRIME_MAX.

    Two paths, chosen by p and shape:

    - int64: numpy's one-shot integer product, for fewer than
      INT64_MAX_OPS * limbs^2 multiply-adds when inner * (p - 1)^2 fits the
      int64 headroom (limbs: the float path's products, below).
    - float64 BLAS (delayed reduction, as in FFLAS-FFPACK): if
      inner * (p - 1)^2 < 2^53 it is one product; otherwise b is lifted
      into [0, p) and split into L-bit limbs, L the largest width with
      inner * (p - 1) * (2^L - 1) < 2^53, each limb is one product, and the
      reduced parts are recombined with the factors 2^shift mod p.  Every
      partial sum of every product is an integer below 2^53 in magnitude,
      so it is exact in float64 whatever order BLAS sums in, FMA included.

    Where neither is exact, p > FLOAT_PRIME_MAX or inner * (p - 1) >= 2^53
    (about 3 * 10^6 terms at the largest prime), it raises ValueError.
    """
    if p > FLOAT_PRIME_MAX:
        raise ValueError(f"matmul_mod is exact only for p <= {FLOAT_PRIME_MAX}, got {p}")
    a = np.asarray(a, dtype=np.int64)
    b = np.asarray(b, dtype=np.int64)
    inner = a.shape[-1]
    one_shot = inner <= max(1, (1 << 62) // max(1, (p - 1) * (p - 1)))
    if one_shot and a.size * b.size < INT64_MAX_OPS * inner:  # the common small case first
        return (a @ b) % p
    if inner * (p - 1) < _FLOAT_EXACT:  # limbs of >= 1 bit
        bits = (p - 1).bit_length()
        if inner * (p - 1) * (p - 1) < _FLOAT_EXACT:
            width = bits
        else:
            width = ((_FLOAT_EXACT - 1) // (inner * (p - 1)) + 1).bit_length() - 1
        limbs = -(-bits // width)
        if not one_shot or a.size * b.size >= INT64_MAX_OPS * limbs * limbs * inner:
            return _matmul_float(a, b, p, width)
    elif not one_shot:
        raise ValueError(f"matmul_mod: inner dimension {inner} too long for exact products mod {p}")
    return (a @ b) % p


def _matmul_float(a: np.ndarray, b: np.ndarray, p: int, width: int) -> np.ndarray:
    """matmul_mod's float64 path with b split into limbs of `width` bits."""
    af = a.astype(np.float64)
    bits = (p - 1).bit_length()
    if width >= bits:
        return (af @ b.astype(np.float64)).astype(np.int64) % p
    mask = (1 << width) - 1
    b = b + ((b >> 63) & p)  # (-p, p) -> [0, p) without a division
    out = (af @ (b & mask).astype(np.float64)).astype(np.int64) % p
    for shift in range(width, bits, width):
        part = (af @ ((b >> shift) & mask).astype(np.float64)).astype(np.int64) % p
        out = (out + part * pow(2, shift, p)) % p  # < p^2 < 2^63
    return out


class Polynomial:
    """Coefficients lowest-degree first, stored canonically (no trailing zeros)."""

    __slots__ = ("coeffs", "p")

    def __init__(self, coeffs: Iterable, p: int):
        cs = [int(c) % p for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)
        self.p = p

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __call__(self, x: int) -> int:
        acc = 0
        for c in reversed(self.coeffs):
            acc = (acc * x + c) % self.p
        return acc

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Polynomial)
            and other.p == self.p
            and other.coeffs == self.coeffs
        )

    def __hash__(self) -> int:
        return hash((self.coeffs, self.p))

    def __repr__(self) -> str:
        return f"Polynomial({list(self.coeffs)} mod {self.p})"


def berlekamp_massey(seq: Sequence[int], p: int) -> Polynomial:
    """Monic minimal generator g (degree e) with sum_j g[j]*s[i+j] = 0, g[e] = 1.

    The all-zero sequence yields the constant polynomial 1.
    """
    s = [int(v) % p for v in seq]
    n = len(s)
    # Connection polynomial C(x) = 1 + c1 x + ... + cL x^L with
    # s[i] + sum_j c_j s[i-j] = 0 for all valid i.
    c = [1] + [0] * n
    b = [1] + [0] * n
    length, m, b_disc = 0, 1, 1
    for i in range(n):
        disc = s[i]
        for j in range(1, length + 1):
            disc = (disc + c[j] * s[i - j]) % p
        if disc == 0:
            m += 1
            continue
        coef = disc * pow(b_disc, -1, p) % p
        if 2 * length <= i:
            c_prev = c[:]
            for j in range(0, n + 1 - m):
                c[j + m] = (c[j + m] - coef * b[j]) % p
            b, b_disc = c_prev, disc
            length, m = i + 1 - length, 1
        else:
            for j in range(0, n + 1 - m):
                c[j + m] = (c[j + m] - coef * b[j]) % p
            m += 1
    # g(x) = x^L * C(1/x): reverse the connection polynomial.
    g = list(reversed(c[: length + 1]))
    return Polynomial(g, p)


def generating_polynomial(seq: Sequence, p: int) -> Polynomial:
    """Minimal-degree monic annihilator of a linearly generated sequence."""
    check_prime(p)
    if len(seq) == 0:
        raise ValueError("empty sequence")
    return berlekamp_massey([int(v) for v in seq], p)
