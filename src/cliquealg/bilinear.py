"""Coefficient-level descriptions of rank-t matrix-multiplication algorithms.

An algorithm for multiplying a d x e block matrix by an e x d block matrix is
given by coefficient tables alpha, beta, lambda: the t scalar products are

    S_mu = sum_ij alpha[mu,i,j] * A[i,j]      T_mu = sum_ij beta[mu,i,j] * B[j,i]
    C[i,j] = sum_mu lambda[mu,i,j] * S_mu * T_mu

with everything lifting verbatim to blocks.  Coefficients are small signed
integers, reduced mod p at the point of use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class BilinearAlgorithm:
    d: int          # outer dimension
    e: int          # inner dimension
    t: int          # rank
    alpha: np.ndarray   # (t, d, e)
    beta: np.ndarray    # (t, d, e)  — beta[mu,i,j] multiplies B[j,i]
    lam: np.ndarray     # (t, d, d)

    def __post_init__(self):
        assert self.alpha.shape == (self.t, self.d, self.e)
        assert self.beta.shape == (self.t, self.d, self.e)
        assert self.lam.shape == (self.t, self.d, self.d)


def trivial_algorithm(d: int, e: int) -> BilinearAlgorithm:
    """The rank d*d*e schoolbook algorithm; valid over any semiring."""
    if d < 1 or e < 1:
        raise ValueError("dimensions must be positive")
    t = d * d * e
    alpha = np.zeros((t, d, e), dtype=np.int64)
    beta = np.zeros((t, d, e), dtype=np.int64)
    lam = np.zeros((t, d, d), dtype=np.int64)
    mu = 0
    for i in range(d):
        for j in range(d):
            for s in range(e):
                alpha[mu, i, s] = 1
                beta[mu, j, s] = 1
                lam[mu, i, j] = 1
                mu += 1
    return BilinearAlgorithm(d, e, t, alpha, beta, lam)


def strassen() -> BilinearAlgorithm:
    """The classical rank-7 algorithm for 2x2 blocks."""
    alpha = np.zeros((7, 2, 2), dtype=np.int64)
    beta = np.zeros((7, 2, 2), dtype=np.int64)
    lam = np.zeros((7, 2, 2), dtype=np.int64)
    # products: S_mu from A, T_mu from B (beta[mu,i,j] multiplies B[j,i])
    alpha[0, 0, 0] = alpha[0, 1, 1] = 1          # A11+A22
    beta[0, 0, 0] = beta[0, 1, 1] = 1            # B11+B22
    alpha[1, 1, 0] = alpha[1, 1, 1] = 1          # A21+A22
    beta[1, 0, 0] = 1                            # B11
    alpha[2, 0, 0] = 1                           # A11
    beta[2, 1, 0] = 1                            # B12
    beta[2, 1, 1] = -1                           # -B22
    alpha[3, 1, 1] = 1                           # A22
    beta[3, 0, 1] = 1                            # B21
    beta[3, 0, 0] = -1                           # -B11
    alpha[4, 0, 0] = alpha[4, 0, 1] = 1          # A11+A12
    beta[4, 1, 1] = 1                            # B22
    alpha[5, 1, 0] = 1                           # A21
    alpha[5, 0, 0] = -1                          # -A11
    beta[5, 0, 0] = 1                            # B11
    beta[5, 1, 0] = 1                            # B12
    alpha[6, 0, 1] = 1                           # A12
    alpha[6, 1, 1] = -1                          # -A22
    beta[6, 0, 1] = 1                            # B21
    beta[6, 1, 1] = 1                            # B22
    lam[0, 0, 0] = lam[3, 0, 0] = 1
    lam[4, 0, 0] = -1
    lam[6, 0, 0] = 1
    lam[2, 0, 1] = lam[4, 0, 1] = 1
    lam[1, 1, 0] = lam[3, 1, 0] = 1
    lam[0, 1, 1] = 1
    lam[1, 1, 1] = -1
    lam[2, 1, 1] = lam[5, 1, 1] = 1
    return BilinearAlgorithm(2, 2, 7, alpha, beta, lam)


def tensor_power(alg: BilinearAlgorithm, k: int) -> BilinearAlgorithm:
    """k-fold Kronecker power; rank multiplies, dimensions exponentiate."""
    if k < 0:
        raise ValueError("power must be nonnegative")
    out = trivial_algorithm(1, 1)
    for _ in range(k):
        out = _tensor(out, alg)
    return out


def _tensor(a: BilinearAlgorithm, b: BilinearAlgorithm) -> BilinearAlgorithm:
    def kron(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        t1, d1, e1 = x.shape
        t2, d2, e2 = y.shape
        out = np.einsum("mij,nkl->mnikjl", x, y)
        return out.reshape(t1 * t2, d1 * d2, e1 * e2)

    return BilinearAlgorithm(
        a.d * b.d, a.e * b.e, a.t * b.t,
        kron(a.alpha, b.alpha), kron(a.beta, b.beta), kron(a.lam, b.lam),
    )


def dimensions(family: str, budget: int, gamma: float) -> tuple[int, int, int]:
    """(d, e, t) of the largest `family` kernel of rank t <= budget.

    Strassen powers: d = e = 2^j, t = 7^j, for gamma = 1 only.  Schoolbook:
    e = ceil(d^gamma), less 1e-6 of slack for the gamma-solver's tolerance,
    and t = d*d*e; d stops growing once (d+1)^gamma exceeds the budget,
    compared in log space so that a huge gamma never overflows a float power.
    """
    if budget < 1:
        raise ValueError("budget must be positive")
    if family == "strassen":
        if abs(gamma - 1.0) > 1e-9:
            raise ValueError("strassen powers support gamma = 1 only")
        j = 0
        while 7 ** (j + 1) <= budget:
            j += 1
        return 2 ** j, 2 ** j, 7 ** j
    if family == "trivial":
        d, e = 1, 1
        while gamma * math.log(d + 1) <= math.log(budget):
            e_next = max(1, math.ceil((d + 1) ** gamma - 1e-6))
            if (d + 1) ** 2 * e_next > budget:
                break
            d, e = d + 1, e_next
        return d, e, d * d * e
    raise ValueError(f"unknown kernel family {family!r}")


def algorithm_for(family: str, d: int, e: int) -> BilinearAlgorithm:
    """The `family` kernel of outer size d and inner size e, as `dimensions` sizes it."""
    if family == "trivial":
        return trivial_algorithm(d, e)
    if family == "strassen":
        alg = tensor_power(strassen(), d.bit_length() - 1)
        if (alg.d, alg.e) != (d, e):
            raise ValueError("strassen powers exist only for d = e a power of two")
        return alg
    raise ValueError(f"unknown kernel family {family!r}")
