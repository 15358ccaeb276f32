"""Distributed min-plus (distance) products, by two interchangeable strategies.

DFT batching: an entry a with |a| <= M becomes the monomial x^(M - a) and
infinity becomes 0, so entry (i, j) of the product of the encodings is the
exponent polynomial sum_k x^(2M - A_ik - B_kj), of degree at most 4M with
coefficients counting summands, at most m.  One transform of length 4M + 2
over a prime field with p = 1 (mod 4M + 2) and p > m recovers it exactly; each
transform coordinate is one ordinary matrix product, so the whole distance
product reduces to one batched multi-product call of 4M + 2 products, and the
answer is 2M minus the highest degree with a nonzero coefficient.

Semiring blocking: the schoolbook kernel contains no subtractions, so the
four-step multi-product pattern runs directly over (min, +); wide entries are
charged by the bit-width rule of the engine.

The default entry point predicts both strategies' round costs from the shape
alone and runs the cheaper one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .ff import dft_matrix, least_prime_congruent, matmul_mod, primitive_root_of_unity
from .mm import (DMat, MediumPlan, RowColMatrix, choose_plan, four_step, make_medium_plan,
                 mm_multi, predict_rounds)
from .minplus import INF, INF_THRESHOLD, clamp, entry_bits
from .sim import CliqueWorld, wide_value_units


class StrategyUnsupportedError(ValueError):
    pass


@dataclass
class MinPlusMatrix(RowColMatrix):
    """Row/column distributed matrix with entries in [-M, M] or infinity."""

    name: str
    rows: int
    cols: int
    bound: int
    subset: tuple[int, ...]
    has_rows: bool = True
    has_cols: bool = True


def scatter_minplus(world: CliqueWorld, subset: Sequence[int], mat: np.ndarray,
                    bound: int, has_rows: bool = True,
                    has_cols: bool = True) -> MinPlusMatrix:
    mat = clamp(np.asarray(mat, dtype=np.int64))
    return MinPlusMatrix(world.fresh_name("MP"), *mat.shape, bound, tuple(subset), has_rows,
                         has_cols).place(world, mat)


def gather_minplus(world: CliqueWorld, dm: MinPlusMatrix) -> np.ndarray:
    return dm.read(world, INF)


# ------------------------------------------------------------- DFT strategy

def dist_prod_dft(world: CliqueWorld, subset: Sequence[int], a: MinPlusMatrix,
                  b: MinPlusMatrix, bound: Optional[int] = None,
                  kernel: str = "trivial", phase: Optional[str] = None) -> MinPlusMatrix:
    """Exact distance product via one transform of the exponent polynomial;
    needs m <= n and M <= n."""
    subset = tuple(subset)
    n = len(subset)
    m = a.cols
    bound = a.bound if bound is None else bound
    if m > n:
        raise StrategyUnsupportedError("DFT strategy requires m <= n")
    if bound > n:
        raise StrategyUnsupportedError("DFT strategy requires M <= n")
    # degree <= 4M and coefficients <= m < p, so length 4M + 2 recovers it
    length = 4 * bound + 2
    p = least_prime_congruent(2 * bound + 1, m + 1)
    omega = primitive_root_of_unity(p, length)
    w_mat = dft_matrix(omega, length, p)  # row e: the coordinates of x^e
    w_inv = dft_matrix(pow(omega, -1, p), length, p) * pow(length, -1, p) % p
    phase = phase or world.fresh_name("distdft")

    def transform(values: np.ndarray) -> np.ndarray:
        """Min-plus entries -> (len, L) coordinates of x^(M - value), 0 for infinity."""
        coords = np.zeros((values.size, length), dtype=np.int64)
        finite = values < INF_THRESHOLD
        if finite.any():
            if int(np.abs(values[finite]).max()) > bound:
                raise ValueError(f"entry exceeds the declared bound {bound}; encoding undefined")
            coords[finite] = w_mat[bound - values[finite]]
        return coords

    with world.ledger.group(phase):
        a_parts = [DMat(world.fresh_name("Fa"), n, m, p, subset, has_cols=False)
                   for _ in range(length)]
        b_parts = [DMat(world.fresh_name("Fb"), m, n, p, subset, has_rows=False)
                   for _ in range(length)]

        def encode(view):
            pos = view.pos
            coords = transform(np.asarray(view.get(a.row_key(pos))))
            for s0 in range(length):
                view.put(a_parts[s0].row_key(pos), coords[:, s0].copy())
            coords_b = transform(np.asarray(view.get(b.col_key(pos))))
            for s0 in range(length):
                view.put(b_parts[s0].col_key(pos), coords_b[:, s0].copy())

        world.run_local(subset, "encode", encode)
        prods = mm_multi(world, subset, a_parts, b_parts, kernel, phase="batch")
        out = MinPlusMatrix(world.fresh_name("MP"), n, n, 2 * bound, subset)

        def decode_vector(stack: np.ndarray) -> np.ndarray:
            # stack: (L, n) transform coordinates; coefficient d of an entry
            # counts the k with A_ik + B_kj = 2M - d
            coeffs = matmul_mod(w_inv, stack, p)
            assert int(coeffs.max(initial=0)) <= m, \
                "convolution coefficient exceeded the exactness bound"
            nonzero = coeffs != 0
            top = length - 1 - np.argmax(nonzero[::-1], axis=0)
            return np.where(nonzero.any(axis=0), 2 * bound - top, INF).astype(np.int64)

        def decode(view):
            pos = view.pos
            row_stack = np.stack([view.get(pr.row_key(pos)) for pr in prods])
            col_stack = np.stack([view.get(pr.col_key(pos)) for pr in prods])
            view.put(out.row_key(pos), decode_vector(row_stack))
            view.put(out.col_key(pos), decode_vector(col_stack))

        world.run_local(subset, "decode", decode)
    return out


# -------------------------------------------------------- semiring strategy

class MinPlusAlgebra:
    """The node-local steps of the four-step pattern over (min, +) with the
    schoolbook kernel, which selects blocks rather than combining them:
    product mu = (i*d + j)*e + s takes A block (i, s) and B block (s, j)."""

    zero = INF
    form_phase = "form-local"

    def __init__(self, plan: MediumPlan):
        self.d, self.e = plan.d, plan.e
        self.i, self.j, self.s = np.unravel_index(np.arange(plan.t), (plan.d, plan.d, plan.e))

    def form(self, ablk: np.ndarray, bblk: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return ablk[self.i, :, self.s, :], bblk[self.j, :, self.s, :].transpose(0, 2, 1)

    def multiply(self, s_mat: np.ndarray, t_mat: np.ndarray) -> np.ndarray:
        return clamp((s_mat[:, None, :] + t_mat.T[None, :, :]).min(axis=2))

    def combine(self, prods: np.ndarray) -> np.ndarray:
        _, c, _ = prods.shape
        best = prods.reshape(self.d, self.d, self.e, c, c).min(axis=2)
        return clamp(best.transpose(0, 2, 1, 3))


def _semiring_plan(n: int, m: int, bound: int) -> tuple[MediumPlan, int]:
    """The semiring strategy's four-step plan, and the units each entry of a
    product bounded by 2 * bound is charged."""
    width = wide_value_units(entry_bits(2 * bound), n)
    seed = make_medium_plan(n, m, 1, "trivial", 1.0)
    return choose_plan(n, m, 1, "trivial", seed, width, blocks=False), width


def dist_prod_semiring(world: CliqueWorld, subset: Sequence[int], a: MinPlusMatrix,
                       b: MinPlusMatrix, bound: Optional[int] = None,
                       phase: Optional[str] = None) -> MinPlusMatrix:
    """Exact distance product by the four-step pattern over (min, +).

    The schoolbook kernel selects blocks rather than combining them, so every
    step is a partition/gather of min-plus values; entries are charged
    ceil(bits / ceil(2 log2 n)) units each, with bits from the declared bound.
    """
    subset = tuple(subset)
    n = len(subset)
    m = a.cols
    bound = a.bound if bound is None else bound
    plan, width = world.plan((n, m, 1, ("min-plus", bound)), lambda: _semiring_plan(n, m, bound))
    phase = phase or world.fresh_name("distsemi")
    with world.ledger.group(phase):
        out = MinPlusMatrix(world.fresh_name("MP"), n, n, 2 * bound, subset)
        four_step(world, subset, plan, MinPlusAlgebra(plan), [a], [b], [out], width)
    return out


# ------------------------------------------------------------- cost model

def predict_dft_rounds(n: int, m: int, bound: int, kernel: str = "trivial") -> int:
    """Shape-only round prediction for the DFT strategy: its one batched call
    of 4M + 2 products."""
    return predict_rounds(n, m, 4 * bound + 2, kernel)


def predict_semiring_rounds(n: int, m: int, bound: int) -> int:
    """Shape-only round prediction for the semiring strategy: the four-step
    loads of its plan, each element charged at the entry width."""
    plan, width = _semiring_plan(n, m, bound)
    return plan.rounds(width)


def dist_prod(world: CliqueWorld, subset: Sequence[int], a: MinPlusMatrix,
              b: MinPlusMatrix, bound: Optional[int] = None,
              kernel: str = "trivial", phase: Optional[str] = None) -> MinPlusMatrix:
    """Strategy selector: runs whichever strategy the cost model predicts
    cheaper for this shape; the choice is recorded as a ledger phase."""
    subset = tuple(subset)
    n = len(subset)
    m = a.cols
    bound = a.bound if bound is None else bound
    phase = phase or world.fresh_name("distprod")
    dft_feasible = m <= n and bound <= n
    semi_cost = predict_semiring_rounds(n, m, bound)
    dft_cost = predict_dft_rounds(n, m, bound, kernel) if dft_feasible else None
    use_dft = dft_feasible and dft_cost < semi_cost
    with world.ledger.group(phase):
        choice = "dft" if use_dft else "semiring"
        world.ledger.phase(f"select-{choice}", n, 0, 0)
        if use_dft:
            return dist_prod_dft(world, subset, a, b, bound, kernel, phase="run")
        return dist_prod_semiring(world, subset, a, b, bound, phase="run")
