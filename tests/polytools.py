"""Polynomial arithmetic over GF(p) that only the tests need, as checkers."""

from cliquealg.ff import Polynomial


def poly_mul(a: Polynomial, b: Polynomial) -> Polynomial:
    out = [0] * max(0, len(a.coeffs) + len(b.coeffs) - 1)
    for i, x in enumerate(a.coeffs):
        for j, y in enumerate(b.coeffs):
            out[i + j] = (out[i + j] + x * y) % a.p
    return Polynomial(out, a.p)


def poly_divmod(a: Polynomial, b: Polynomial) -> tuple[Polynomial, Polynomial]:
    if not b.coeffs:
        raise ZeroDivisionError("polynomial division by zero")
    p = a.p
    rem = list(a.coeffs)
    d = b.degree
    lead_inv = pow(b.coeffs[-1], -1, p)
    quot = [0] * max(0, len(rem) - d)
    for i in range(len(rem) - 1, d - 1, -1):
        factor = rem[i] * lead_inv % p
        if factor:
            quot[i - d] = factor
            for j, c in enumerate(b.coeffs):
                rem[i - d + j] = (rem[i - d + j] - factor * c) % p
    return Polynomial(quot, p), Polynomial(rem, p)


def divides(d: Polynomial, a: Polynomial) -> bool:
    return not poly_divmod(a, d)[1].coeffs
