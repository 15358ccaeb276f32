"""Deterministic distributed determinant and inverse.

Pipeline: batched computation of the powers A^1..A^p and (A^p)^0..(A^p)^(p-1)
for p = ceil(sqrt(n)); local p x p trace tableaus whose entries are diagonal
elements of A^k; Newton's identities solved through a recursive triangular
inversion; and reassembly of the inverse from p coefficient-weighted products.

Requires a field of characteristic greater than n (the triangular Newton
system has diagonal 1..n).
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .collective import allgather_scalars
from .ff import matmul_mod
from .mm import DMat, identity_dmat, mm_multi
from .sim import CliqueWorld


class SingularMatrixError(ValueError):
    pass


class UnsupportedFieldError(ValueError):
    pass


def tri_inverse(world: CliqueWorld, subset: Sequence[int], a: DMat,
                kernel: str = "trivial") -> DMat:
    """Exact inverse of an invertible lower-triangular matrix.

    Recursion on halves of the node subset; the two sub-inversions run on
    disjoint groups and are charged in parallel.
    """
    subset = tuple(subset)
    n = len(subset)
    if a.rows != n or a.cols != n:
        raise ValueError("triangular inversion needs |subset| = matrix dimension")
    with world.ledger.group(world.fresh_name("triinv")):
        return _tri_inverse_inner(world, subset, a, kernel)


def _tri_inverse_inner(world: CliqueWorld, subset: tuple[int, ...], a: DMat,
                       kernel: str) -> DMat:
    n = len(subset)
    p = a.p
    if n == 1:
        out = DMat(world.fresh_name("Tinv"), 1, 1, p, subset)

        def base(view):
            value = int(view.get(a.row_key(0))[0])
            if value % p == 0:
                raise SingularMatrixError("zero diagonal entry at index 1")
            inv = pow(value, -1, p)
            view.put(out.row_key(0), np.array([inv], dtype=np.int64))
            view.put(out.col_key(0), np.array([inv], dtype=np.int64))

        world.run_local(subset, "base", base)
        return out

    h = (n + 1) // 2
    nh2 = n - h
    sub1, sub2 = subset[:h], subset[h:]
    nodes = np.array(subset)
    a11 = DMat(world.fresh_name("A11"), h, h, p, sub1)
    a22 = DMat(world.fresh_name("A22"), nh2, nh2, p, sub2)

    def split(view):
        pos = view.pos
        row = view.get(a.row_key(pos))
        col = view.get(a.col_key(pos))
        if pos < h:
            view.put(a11.row_key(pos), row[:h])
            view.put(a11.col_key(pos), col[:h])
        else:
            view.put(a22.row_key(pos - h), row[h:])
            view.put(a22.col_key(pos - h), col[h:])

    world.run_local(subset, "split", split)

    inv11, inv22 = world.parallel_phases("halves", [
        (sub1, lambda: _tri_inverse_inner(world, sub1, a11, kernel)),
        (sub2, lambda: _tri_inverse_inner(world, sub2, a22, kernel)),
    ])

    # group 2 hands its inverse rows to group 1 (zero-padded to size h)
    lhs22 = DMat(world.fresh_name("L22"), h, h, p, sub1, has_cols=False)

    def hand_over(view):
        pos = view.pos
        if pos < h:
            return
        j = pos - h
        yield nodes[j:j + 1], lhs22.row_key(j), view.get(inv22.row_key(j))[None]

    world.route(subset, "handover", hand_over)

    a21 = DMat(world.fresh_name("A21"), h, h, p, sub1, has_rows=False)

    def pad(view):  # L22's rows and A21's columns, zero-padded to size h
        pos = view.pos
        row = np.zeros(h, dtype=np.int64)
        if pos < nh2:
            row[:nh2] = view.get(lhs22.row_key(pos))[0]
        view.put(lhs22.row_key(pos), row)
        col = np.zeros(h, dtype=np.int64)
        col[:nh2] = view.get(a.col_key(pos))[h:]
        view.put(a21.col_key(pos), col)

    world.run_local(sub1, "pad", pad)

    x = mm_multi(world, sub1, [lhs22], [a21], kernel, phase="prod1")[0]
    y = mm_multi(world, sub1, [x], [inv11], kernel, phase="prod2")[0]

    # the inverse's lower-left block is -y
    def hand_back(view):
        pos = view.pos
        if pos >= h or pos >= nh2:
            return
        yield nodes[h + pos:h + pos + 1], ("yrow",), (-view.get(y.row_key(pos)))[None] % p

    world.route(subset, "handback", hand_back)

    out = DMat(world.fresh_name("Tinv"), n, n, p, subset)

    def assemble(view):
        pos = view.pos
        row = np.zeros(n, dtype=np.int64)
        col = np.zeros(n, dtype=np.int64)
        if pos < h:
            row[:h] = view.get(inv11.row_key(pos))
            col[:h] = view.get(inv11.col_key(pos))
            col[h:] = (-view.get(y.col_key(pos))[:nh2]) % p
        else:
            j = pos - h
            row[:h] = view.pop(("yrow",))[0]
            row[h:] = view.get(inv22.row_key(j))
            col[h:] = view.get(inv22.col_key(j))
        view.put(out.row_key(pos), row)
        view.put(out.col_key(pos), col)

    world.run_local(subset, "assemble", assemble)
    return out


def power_batch(world: CliqueWorld, subset: Sequence[int], a: DMat,
                kernel: str = "trivial") -> tuple[list[DMat], list[DMat]]:
    """All powers A^1..A^p and (A^p)^1..(A^p)^(p-1), p = ceil(sqrt(n)).

    Doubling schedule: given A^1..A^j, one batched product call yields
    A^(j+1)..A^(2j), so O(log p) product calls suffice for each family.
    """
    subset = tuple(subset)
    n = len(subset)
    pc = math.isqrt(n)
    if pc * pc < n:
        pc += 1
    with world.ledger.group(world.fresh_name("powers")):
        lows = _doubling_powers(world, subset, a, pc, kernel)
        if pc >= 2:
            strides = _doubling_powers(world, subset, lows[-1], pc - 1, kernel)
        else:
            strides = []
    return lows, strides


def _doubling_powers(world: CliqueWorld, subset: tuple[int, ...], base: DMat,
                     count: int, kernel: str) -> list[DMat]:
    powers = [base]
    while len(powers) < count:
        j = len(powers)
        take = min(j, count - j)
        new = mm_multi(world, subset, powers[:take], [powers[-1]] * take, kernel)
        powers.extend(new)
    return powers[:count]


class CharPolyState:
    """Everything char_poly leaves behind that the inverse step reuses."""

    def __init__(self, coeffs: np.ndarray, pc: int, lows: list[DMat],
                 strides: list[DMat], identity: DMat):
        self.coeffs = coeffs          # c_1..c_n, known at every node
        self.pc = pc
        self.lows = lows              # A^1..A^pc
        self.strides = strides        # (A^pc)^1..(A^pc)^(pc-1)
        self.identity = identity


def char_poly(world: CliqueWorld, subset: Sequence[int], a: DMat,
              kernel: str = "trivial") -> CharPolyState:
    """Coefficients c with det(xI - A) = x^n + c_1 x^(n-1) + ... + c_n."""
    subset = tuple(subset)
    n = len(subset)
    p = a.p
    if p <= n:
        raise UnsupportedFieldError(
            f"characteristic {p} must exceed the dimension {n}")
    with world.ledger.group(world.fresh_name("charpoly")):
        lows, strides = power_batch(world, subset, a, kernel)
        pc = len(lows)
        ident = identity_dmat(world, subset, n, p)
        stride_mats = [ident] + strides  # exponents 0, pc, 2*pc, ...

        def tableau(view):
            pos = view.pos
            r_mat = np.stack([view.get(dm.row_key(pos)) for dm in stride_mats])
            c_mat = np.stack([view.get(dm.col_key(pos)) for dm in lows], axis=1)
            view.put("trU", matmul_mod(r_mat, c_mat, p))

        world.run_local(subset, "tableau", tableau)

        nodes = np.array(subset)
        traced = min(n, pc * pc)

        def scatter_traces(view):
            # entry (a1, a2) is this node's part of the trace of A^(a1*pc + a2 + 1)
            yield nodes[:traced], "trpart", view.pop("trU").ravel()[:traced]

        world.route(subset, "traces", scatter_traces)

        def sum_traces(view):  # one part from every node
            view.put("s_own", sum(view.pop("trpart").tolist()) % p)

        world.run_local(subset, "trace-sum", sum_traces)
        allgather_scalars(world, subset, "trace-share", "s_own", "s_all")

        s_dm = DMat(world.fresh_name("S"), n, n, p, subset)

        def newton_rows(view):
            pos = view.pos
            s = view.get("s_all")
            row = np.zeros(n, dtype=np.int64)
            row[pos] = pos + 1
            for j in range(pos):
                row[j] = s[pos - j - 1]
            col = np.zeros(n, dtype=np.int64)
            col[pos] = pos + 1
            for i in range(pos + 1, n):
                col[i] = s[i - pos - 1]
            view.put(s_dm.row_key(pos), row % p)
            view.put(s_dm.col_key(pos), col % p)

        world.run_local(subset, "newton", newton_rows)
        s_inv = tri_inverse(world, subset, s_dm, kernel)

        def coeff(view):
            pos = view.pos
            s = view.get("s_all")
            value = int(matmul_mod(view.get(s_inv.row_key(pos)) % p, s % p, p))
            view.put("c_own", (-value) % p)

        world.run_local(subset, "coeff", coeff)
        allgather_scalars(world, subset, "coeff-share", "c_own", "c_all")
        coeffs = world.stores[subset[0]]["c_all"].copy()
    return CharPolyState(coeffs, pc, lows, strides, ident)


def det(world: CliqueWorld, subset: Sequence[int], a: DMat,
        kernel: str = "trivial") -> int:
    """(-1)^n times the constant characteristic coefficient; held by all nodes.
    Beside A, the stores keep nothing."""
    with world.frame():
        state = char_poly(world, subset, a, kernel)
    n = len(subset)
    return int((-1) ** n * int(state.coeffs[n - 1])) % a.p


def inverse(world: CliqueWorld, subset: Sequence[int], a: DMat,
            kernel: str = "trivial") -> DMat:
    """Exact inverse via coefficient-weighted power sums; A must be invertible.
    Beside A, the stores keep only the inverse; every power is popped."""
    subset = tuple(subset)
    n = len(subset)
    p = a.p
    with world.frame() as keep:
        state = char_poly(world, subset, a, kernel)
        cn = int(state.coeffs[n - 1])
        if cn == 0:
            raise SingularMatrixError("matrix is not invertible (zero determinant)")
        pc = state.pc
        coeffs = state.coeffs

        def chat(j: int) -> int:
            if j == 0:
                return 1
            if 1 <= j <= n - 1:
                return int(coeffs[j - 1])
            return 0

        with world.ledger.group(world.fresh_name("inverse")):
            stride_mats = [state.identity] + state.strides
            e_mats = [DMat(world.fresh_name("E"), n, n, p, subset, has_cols=False)
                      for _ in range(pc)]

            # weights[a2, a1] multiplies A^(a1*pc) in the row of E_a2
            weights = np.array([[chat(n - 1 - (a1 * pc + a2)) for a1 in range(pc)]
                                for a2 in range(pc)], dtype=np.int64)

            def build_e(view):
                pos = view.pos
                rows = np.stack([view.get(dm.row_key(pos)) for dm in stride_mats])
                e_rows = matmul_mod(weights, rows, p)
                for a2 in range(pc):
                    view.put(e_mats[a2].row_key(pos), e_rows[a2])

            world.run_local(subset, "weights", build_e)
            rhs = [state.identity] + state.lows[:pc - 1]  # A^0 .. A^(pc-1)
            prods = mm_multi(world, subset, e_mats, rhs, kernel)
            out = DMat(world.fresh_name("Ainv"), n, n, p, subset)
            scale = (-pow(cn, -1, p)) % p

            def assemble(view):
                pos = view.pos
                row = np.zeros(n, dtype=np.int64)
                col = np.zeros(n, dtype=np.int64)
                for prod in prods:
                    row = (row + view.get(prod.row_key(pos))) % p
                    col = (col + view.get(prod.col_key(pos))) % p
                view.put(out.row_key(pos), row * scale % p)
                view.put(out.col_key(pos), col * scale % p)

            world.run_local(subset, "scale", assemble)
        keep(out)
    return out
