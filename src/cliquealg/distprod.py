"""Distributed min-plus (distance) products, by two interchangeable strategies.

DFT batching: entries with absolute value at most M are encoded as the powers
(m+1)^(M - value), those integers as bit-polynomials of N bits, and each of
the 2N transform coordinates becomes one ordinary matrix product over a prime
field with p = 1 (mod 2N) and p > m*N, so the whole distance product reduces
to one batched multi-product call; the answer is decoded entrywise from the
exact integer reconstruction.

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

from .ff import (PrimeField, dft_matrix, least_prime_congruent,
                 primitive_root_of_unity)
from .mm import (DMat, MediumPlan, four_step, make_medium_plan, mm_multi,
                 predict_rounds)
from .minplus import INF, INF_THRESHOLD, clamp, entry_bits
from .sim import CliqueWorld, wide_value_units


class StrategyUnsupportedError(ValueError):
    pass


@dataclass
class MinPlusMatrix:
    """Row/column distributed matrix with entries in [-M, M] or infinity."""

    name: str
    rows: int
    cols: int
    bound: int
    subset: tuple[int, ...]
    has_rows: bool = True
    has_cols: bool = True

    def row_key(self, i0: int) -> str:
        return f"{self.name}:r{i0}"

    def col_key(self, j0: int) -> str:
        return f"{self.name}:c{j0}"


def scatter_minplus(world: CliqueWorld, subset: Sequence[int], mat: np.ndarray,
                    bound: int, name: Optional[str] = None, has_rows: bool = True,
                    has_cols: bool = True) -> MinPlusMatrix:
    mat = clamp(np.asarray(mat, dtype=np.int64))
    rows, cols = mat.shape
    name = name or world.fresh_name("MP")
    dm = MinPlusMatrix(name, rows, cols, bound, tuple(subset), has_rows, has_cols)
    for i0 in range(rows):
        if has_rows and i0 < len(subset):
            world.stores[subset[i0]][dm.row_key(i0)] = mat[i0].copy()
    for j0 in range(cols):
        if has_cols and j0 < len(subset):
            world.stores[subset[j0]][dm.col_key(j0)] = mat[:, j0].copy()
    return dm


def gather_minplus(world: CliqueWorld, dm: MinPlusMatrix) -> np.ndarray:
    out = np.full((dm.rows, dm.cols), INF, dtype=np.int64)
    if dm.has_rows:
        for i0 in range(dm.rows):
            out[i0] = world.stores[dm.subset[i0]][dm.row_key(i0)]
    else:
        for j0 in range(dm.cols):
            out[:, j0] = world.stores[dm.subset[j0]][dm.col_key(j0)]
    return out


# ------------------------------------------------------------- DFT strategy

@dataclass(frozen=True)
class DftBatchPlan:
    m: int              # inner dimension (number of summands)
    bound: int          # declared entry bound M
    n_bits: int         # N: bits per encoded integer
    p: int              # prime with p = 1 (mod 2N), p > m*N
    omega: int          # 2N-th primitive root of unity mod p

    @property
    def batch(self) -> int:
        return 2 * self.n_bits


def make_dft_plan(m: int, bound: int) -> DftBatchPlan:
    n_bits = max(1, ((m + 1) ** (2 * bound) + 1).bit_length() - 1)
    if 2 ** n_bits < (m + 1) ** (2 * bound) + 1:
        n_bits += 1
    p = least_prime_congruent(n_bits, max(2, m * n_bits + 1))
    omega = int(primitive_root_of_unity(PrimeField(p), 2 * n_bits))
    return DftBatchPlan(m, bound, n_bits, p, omega)


def _encode_table(plan: DftBatchPlan) -> np.ndarray:
    """(2M+1) x 2N bit table: row e holds the bits of (m+1)^e."""
    rows = []
    for e in range(2 * plan.bound + 1):
        value = (plan.m + 1) ** e
        rows.append([(value >> i) & 1 for i in range(2 * plan.n_bits)])
    return np.array(rows, dtype=np.int64)


def _transform_entries(values: np.ndarray, plan: DftBatchPlan, table: np.ndarray,
                       w_mat: np.ndarray) -> np.ndarray:
    """Min-plus entries -> (len, 2N) field coordinates of the encodings."""
    enc = np.zeros((values.size, 2 * plan.n_bits), dtype=np.int64)
    finite = values < INF_THRESHOLD
    if finite.any():
        if int(np.abs(values[finite]).max()) > plan.bound:
            raise ValueError(
                f"entry exceeds the declared bound {plan.bound}; encoding undefined")
        exps = plan.bound - values[finite]
        enc[finite] = table[exps]
    return enc @ w_mat % plan.p  # bits are 0/1, no overflow concern


def dist_prod_dft(world: CliqueWorld, subset: Sequence[int], a: MinPlusMatrix,
                  b: MinPlusMatrix, bound: Optional[int] = None,
                  kernel: str = "trivial", phase: Optional[str] = None) -> MinPlusMatrix:
    """Exact distance product via DFT batching; needs m <= n and M <= n."""
    subset = tuple(subset)
    n = len(subset)
    m = a.cols
    bound = a.bound if bound is None else bound
    if m > n:
        raise StrategyUnsupportedError("DFT strategy requires m <= n")
    if bound > n:
        raise StrategyUnsupportedError("DFT strategy requires M <= n")
    plan = make_dft_plan(m, bound)
    phase = phase or world.fresh_name("distdft")
    table = _encode_table(plan)
    w_mat = dft_matrix(plan.omega, plan.batch, plan.p)
    w_inv = dft_matrix(pow(plan.omega, -1, plan.p), plan.batch, plan.p)
    scale = pow(plan.batch % plan.p, -1, plan.p)
    with world.ledger.group(phase):
        a_parts = [DMat(world.fresh_name("Fa"), n, m, plan.p, subset, has_cols=False)
                   for _ in range(plan.batch)]
        b_parts = [DMat(world.fresh_name("Fb"), m, n, plan.p, subset, has_rows=False)
                   for _ in range(plan.batch)]

        def encode(view):
            pos = view.pos
            row = view.get(a.row_key(pos))
            coords = _transform_entries(np.asarray(row), plan, table, w_mat)
            for s0 in range(plan.batch):
                view.put(a_parts[s0].row_key(pos), coords[:, s0].copy())
            col = view.get(b.col_key(pos))
            coords_b = _transform_entries(np.asarray(col), plan, table, w_mat)
            for s0 in range(plan.batch):
                view.put(b_parts[s0].col_key(pos), coords_b[:, s0].copy())

        world.run_local(subset, "encode", encode)
        prods = mm_multi(world, subset, a_parts, b_parts, kernel, phase="batch")
        out = MinPlusMatrix(world.fresh_name("MP"), n, n, 2 * bound, subset)
        base = plan.m + 1
        log_table = [base ** e for e in range(4 * bound + 2)]

        def decode_vector(stack: np.ndarray) -> np.ndarray:
            # stack: (batch, n) transform coordinates of each entry
            coeffs = (w_inv @ (stack % plan.p)) % plan.p * scale % plan.p
            out_vec = np.empty(stack.shape[1], dtype=np.int64)
            for idx in range(stack.shape[1]):
                cs = coeffs[:, idx]
                assert int(cs.max(initial=0)) <= plan.m * plan.n_bits, \
                    "convolution coefficient exceeded the exactness bound"
                value = 0
                for i0 in range(plan.batch - 1, -1, -1):
                    value = (value << 1) + int(cs[i0])
                if value == 0:
                    out_vec[idx] = INF
                    continue
                # floor(log_base(value)) by table scan, no floating point
                e = 0
                while e + 1 < len(log_table) and log_table[e + 1] <= value:
                    e += 1
                out_vec[idx] = 2 * bound - e
            return out_vec

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
    plan = make_medium_plan(n, m, 1, "trivial", 1.0)
    width = wide_value_units(entry_bits(2 * bound), n)
    phase = phase or world.fresh_name("distsemi")
    with world.ledger.group(phase):
        out = MinPlusMatrix(world.fresh_name("MP"), n, n, 2 * bound, subset)
        four_step(world, subset, plan, MinPlusAlgebra(plan), [a], [b], [out], width)
    return out


# ------------------------------------------------------------- cost model

def predict_dft_rounds(n: int, m: int, bound: int, kernel: str = "trivial") -> int:
    """Shape-only round prediction for the DFT strategy: its one batched call."""
    return predict_rounds(n, m, make_dft_plan(m, bound).batch, kernel)


def predict_semiring_rounds(n: int, m: int, bound: int) -> int:
    """Shape-only round prediction for the semiring strategy: the four-step
    loads of its plan, each element charged at the entry width."""
    plan = make_medium_plan(n, m, 1, "trivial", 1.0)
    width = wide_value_units(entry_bits(2 * bound), n)
    return sum(CliqueWorld.route_rounds(width * load, n)
               for load in plan.phase_loads().values())


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
