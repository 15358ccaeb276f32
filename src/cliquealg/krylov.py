"""Randomized distributed linear algebra: minimal polynomial, determinant,
linear-system solving, and rank.

All four are Monte Carlo.  The probe sequence w A^i v is built by doubling a
column band (band i holds A^0 u .. A^(2^i - 1) u) and squaring the power of A
alongside, so 2*log2(L) - 1 batched product calls generate L Krylov columns.
The sequence length is 2n: recovering a linear recurrence of degree up to n
needs 2n terms.

Guarantees assume |F| >= 4 n^2 ceil(log2 n); smaller fields only get a warning
so that toy instances remain runnable.
"""

from __future__ import annotations

import math
import warnings
from typing import Optional, Sequence

import numpy as np

from .collective import allgather_scalars, broadcast_scalar, broadcast_vector
from .ff import Polynomial, generating_polynomial, PrimeField
from .mm import DMat, WideMat, mm_multi, mm_square_times_wide
from .sim import CliqueWorld


class SolveFailedError(RuntimeError):
    pass


def _check_field_size(p: int, n: int, what: str) -> None:
    bound = 4 * n * n * max(1, math.ceil(math.log2(max(2, n))))
    if p < bound:
        warnings.warn(
            f"{what}: field size {p} below {bound}; failure bounds do not apply",
            stacklevel=3)


def _next_pow2(x: int) -> int:
    return 1 << max(0, (x - 1).bit_length())


def krylov_sequence(world: CliqueWorld, subset: Sequence[int], a: DMat,
                    u_key, length: int, kernel: str = "trivial",
                    phase: Optional[str] = None) -> WideMat:
    """Column j of the result is A^j u, for j < length (a power of two).

    Every node must hold the full start vector under u_key.  Column j lives
    at the node in position j mod n.
    """
    subset = tuple(subset)
    n = len(subset)
    p = a.p
    if length & (length - 1):
        raise ValueError("sequence length must be a power of two")
    phase = phase or world.fresh_name("krylov")
    wide = WideMat(world.fresh_name("K"), n, length, p, subset)
    with world.ledger.group(phase):

        def init(view):
            if view.node == subset[0]:
                vec = np.asarray(view.get(u_key), dtype=np.int64) % p
                view.put(wide.col_key(0), vec)

        world.run_local(subset, "seed", init)
        apow = a
        band = 1
        steps = int(math.log2(length))
        for i in range(steps):
            band_view = WideMat(wide.name, n, band, p, subset)
            prod = mm_square_times_wide(world, subset, apow, band_view, kernel,
                                        phase=f"apply{i}")
            _place_band(world, subset, wide, prod, offset=band)
            band *= 2
            if i != steps - 1:
                apow = mm_multi(world, subset, [apow], [apow], kernel,
                                phase=f"square{i}")[0]
    return wide


def _place_band(world: CliqueWorld, subset: tuple[int, ...], wide: WideMat,
                prod: WideMat, offset: int) -> None:
    n = len(subset)
    if offset % n == 0:
        def copy(view):
            pos = view.pos
            for j0 in range(pos, prod.cols, n):
                view.put(wide.col_key(offset + j0), view.get(prod.col_key(j0)))

        world.run_local(subset, "place", copy)
        return

    def shift(view):
        pos = view.pos
        for j0 in range(pos, prod.cols, n):
            dst = subset[(offset + j0) % n]
            yield dst, wide.col_key(offset + j0), view.get(prod.col_key(j0))

    world.route(subset, "place", shift)


def minpol_monte_carlo(world: CliqueWorld, subset: Sequence[int], a: DMat,
                       tag: str = "minpol", kernel: str = "trivial") -> Polynomial:
    """Generating polynomial of w A^i v for random v, w; equals minpol(A) whp.

    The polynomial ends up at the node in position 0 (and is returned).
    """
    subset = tuple(subset)
    n = len(subset)
    p = a.p
    _check_field_size(p, n, "minpol")
    with world.ledger.group(world.fresh_name("minpol")):

        def draw(view):
            if view.node != subset[0]:
                return
            rng = view.rng(f"{tag}-probe")
            vw = np.array([rng.randrange(p) for _ in range(2 * n)], dtype=np.int64)
            view.put("mp_vw", vw)

        world.run_local(subset, "draw", draw)
        broadcast_vector(world, subset, "share-probe", 0, "mp_vw", "mp_vw_all")

        def split(view):
            vw = view.get("mp_vw_all")
            view.put("mp_v", vw[:n].copy())
            view.put("mp_w", vw[n:].copy())

        world.run_local(subset, "split", split)
        length = _next_pow2(2 * n)
        wide = krylov_sequence(world, subset, a, "mp_v", length, kernel)

        def project(view):
            pos = view.pos
            w = view.get("mp_w")
            for j0 in range(pos, 2 * n, len(subset)):
                col = view.get(wide.col_key(j0))
                yield subset[0], ("mp_term", j0), int(np.dot(w, col) % p)

        world.route(subset, "project", project)

        poly_box: dict[str, Polynomial] = {}

        def recover(view):
            if view.node != subset[0]:
                return
            seq = [view.pop(("mp_term", j0)) for j0 in range(2 * n)]
            poly = generating_polynomial(seq, PrimeField(p))
            view.put("mp_poly", poly)
            poly_box["poly"] = poly

        world.run_local(subset, "recover", recover)
    return poly_box["poly"]


def det_rand(world: CliqueWorld, subset: Sequence[int], a: DMat,
             tag: str = "det", kernel: str = "trivial", retries: int = 3) -> int:
    """Monte Carlo determinant; broadcast to all nodes and returned.

    A degree-n generating polynomial, or one with zero constant term, is
    conclusive; anything else triggers a retry with fresh randomness.
    """
    subset = tuple(subset)
    n = len(subset)
    p = a.p
    _check_field_size(p, n, "det_rand")
    result = 0
    with world.ledger.group(world.fresh_name("detrand")):
        for attempt in range(retries):

            def draw(view):
                if view.node != subset[0]:
                    return
                rng = view.rng(f"{tag}-diag-{attempt}")
                d = np.array([1 + rng.randrange(p - 1) for _ in range(n)],
                             dtype=np.int64)
                view.put("dr_d", d)

            world.run_local(subset, "draw", draw)
            broadcast_vector(world, subset, f"share-diag{attempt}", 0, "dr_d", "dr_d_all")
            da = DMat(world.fresh_name("DA"), n, n, p, subset)

            def scale(view):
                pos = view.pos
                d = view.get("dr_d_all")
                view.put(da.row_key(pos), view.get(a.row_key(pos)) * int(d[pos]) % p)
                view.put(da.col_key(pos), view.get(a.col_key(pos)) * d % p)

            world.run_local(subset, "scale", scale)
            poly = minpol_monte_carlo(world, subset, da, f"{tag}-mp-{attempt}", kernel)

            def decide(view):
                if view.node != subset[0]:
                    return
                m0 = poly(0)
                d = view.get("dr_d_all")
                prod = 1
                for value in d:
                    prod = prod * int(value) % p
                if poly.degree == n:
                    value = (-1) ** n * m0 * pow(prod, -1, p) % p
                    view.put("dr_result", value % p)
                    view.put("dr_done", 1)
                elif poly.degree >= 1 and m0 == 0:
                    view.put("dr_result", 0)
                    view.put("dr_done", 1)
                else:
                    view.put("dr_result", (-1) ** n * m0 * pow(prod, -1, p) % p)
                    view.put("dr_done", 0)

            world.run_local(subset, "decide", decide)
            broadcast_scalar(world, subset, f"verdict{attempt}", 0, "dr_done", "dr_done_all")
            broadcast_scalar(world, subset, f"value{attempt}", 0, "dr_result", "dr_value_all")
            result = int(world.stores[subset[0]]["dr_value_all"])
            if int(world.stores[subset[0]]["dr_done_all"]):
                break
    return result


def solve(world: CliqueWorld, subset: Sequence[int], a: DMat, b: np.ndarray,
          tag: str = "solve", kernel: str = "trivial",
          retries: int = 3) -> np.ndarray:
    """x with Ax = b, coordinate ell at node ell; self-verifying.

    Raises SolveFailedError after the retry budget (singular system or
    repeated Monte Carlo failure); never returns an unverified answer.
    """
    subset = tuple(subset)
    nodes = np.array(subset)
    n = len(subset)
    p = a.p
    _check_field_size(p, n, "solve")
    b = np.asarray(b, dtype=np.int64) % p
    with world.ledger.group(world.fresh_name("solve")):

        def stage_b(view):
            view.put("sv_b", b.copy())

        world.run_local(subset, "stage", stage_b)
        for attempt in range(retries):
            poly = minpol_monte_carlo(world, subset, a, f"{tag}-mp-{attempt}", kernel)
            if poly(0) == 0:
                continue
            length = _next_pow2(n)
            wide = krylov_sequence(world, subset, a, "sv_b", length, kernel)

            def send_coeffs(view):
                if view.node != subset[0]:
                    return
                g = view.get("mp_poly")
                m0 = g(0)
                for j0 in range(min(length, n)):
                    coef = g.coeffs[j0 + 1] if j0 + 1 <= g.degree else 0
                    yield subset[j0 % n], ("sv_coef", j0), np.array(
                        [m0, coef], dtype=np.int64)

            world.route(subset, f"coeffs{attempt}", send_coeffs)

            def scatter_terms(view):
                pos = view.pos
                for j0 in range(pos, min(length, n), n):
                    pair = view.pop(("sv_coef", j0), None)
                    if pair is None:
                        continue
                    m0, coef = int(pair[0]), int(pair[1])
                    col = view.get(wide.col_key(j0))
                    term = (-coef * pow(m0, -1, p) % p) * col % p
                    yield nodes, ("sv_part", j0), term

            world.route(subset, f"terms{attempt}", scatter_terms)

            def accumulate(view):
                total = 0
                for j0 in range(min(length, n)):
                    total += int(view.pop(("sv_part", j0), 0))
                view.put("sv_x", total % p)

            world.run_local(subset, "sum", accumulate)
            allgather_scalars(world, subset, f"xshare{attempt}", "sv_x", "sv_x_all")

            def check(view):
                pos = view.pos
                x_all = view.get("sv_x_all")
                lhs = int(np.dot(view.get(a.row_key(pos)) % p, x_all) % p)
                view.put("sv_ok", 1 if lhs == int(b[pos]) else 0)

            world.run_local(subset, "verify", check)
            allgather_scalars(world, subset, f"okshare{attempt}", "sv_ok", "sv_ok_all")
            flags = world.stores[subset[0]]["sv_ok_all"]
            if int(flags.min()) == 1:
                return world.stores[subset[0]]["sv_x_all"].copy()
    raise SolveFailedError(
        "system unsolved: matrix singular or repeated Monte Carlo failure")


def build_unit_toeplitz(world: CliqueWorld, subset: Sequence[int], uv_key,
                        p: int, phase: str = "toeplitz") -> tuple[DMat, DMat]:
    """Unit upper/lower triangular Toeplitz pair from a shared coefficient vector.

    uv_key must hold, at every node, concat(u_2..u_n, v_2..v_n); both matrices
    are materialized locally with rows and columns.
    """
    subset = tuple(subset)
    n = len(subset)
    u_dm = DMat(world.fresh_name("U"), n, n, p, subset)
    v_dm = DMat(world.fresh_name("V"), n, n, p, subset)

    def build(view):
        pos = view.pos
        pre = view.get(uv_key)
        u, v = pre[:n - 1], pre[n - 1:2 * (n - 1)]
        urow = np.zeros(n, dtype=np.int64)
        urow[pos] = 1
        if pos + 1 < n:
            urow[pos + 1:] = u[:n - 1 - pos]
        ucol = np.zeros(n, dtype=np.int64)
        ucol[pos] = 1
        if pos > 0:
            # U[i, pos] = u_(pos - i + 1) for i < pos
            ucol[:pos] = u[pos - 1::-1][:pos]
        vcol = np.zeros(n, dtype=np.int64)
        vcol[pos] = 1
        if pos + 1 < n:
            vcol[pos + 1:] = v[:n - 1 - pos]
        vrow = np.zeros(n, dtype=np.int64)
        vrow[pos] = 1
        if pos > 0:
            vrow[:pos] = v[pos - 1::-1][:pos]
        view.put(u_dm.row_key(pos), urow % p)
        view.put(u_dm.col_key(pos), ucol % p)
        view.put(v_dm.row_key(pos), vrow % p)
        view.put(v_dm.col_key(pos), vcol % p)

    world.run_local(subset, phase, build)
    return u_dm, v_dm


def rank_rand(world: CliqueWorld, subset: Sequence[int], a: DMat,
              tag: str = "rank", kernel: str = "trivial", retries: int = 3) -> int:
    """Monte Carlo rank: n if the randomized determinant is nonzero, else one
    less than the degree of the minimal polynomial of the preconditioned matrix."""
    subset = tuple(subset)
    n = len(subset)
    p = a.p
    _check_field_size(p, n, "rank_rand")
    if det_rand(world, subset, a, f"{tag}-det", kernel) != 0:
        return n
    result = 0
    with world.ledger.group(world.fresh_name("rankrand")):
        for attempt in range(retries):

            def draw(view):
                if view.node != subset[0]:
                    return
                rng = view.rng(f"{tag}-pre-{attempt}")
                u = np.array([rng.randrange(p) for _ in range(n - 1)], dtype=np.int64)
                v = np.array([rng.randrange(p) for _ in range(n - 1)], dtype=np.int64)
                d = np.array([rng.randrange(p) for _ in range(n)], dtype=np.int64)
                view.put("rk_pre", np.concatenate([u, v, d]))

            world.run_local(subset, "draw", draw)
            broadcast_vector(world, subset, f"share-pre{attempt}", 0, "rk_pre", "rk_pre_all")
            u_dm, v_dm = build_unit_toeplitz(world, subset, "rk_pre_all", p,
                                             phase="precondition")
            d_dm = DMat(world.fresh_name("D"), n, n, p, subset, has_rows=False)

            def build_diag(view):
                pos = view.pos
                d = view.get("rk_pre_all")[2 * (n - 1):]
                dcol = np.zeros(n, dtype=np.int64)
                dcol[pos] = int(d[pos]) % p
                view.put(d_dm.col_key(pos), dcol)

            world.run_local(subset, "diagonal", build_diag)
            b1 = mm_multi(world, subset, [u_dm], [a], kernel, phase=f"ua{attempt}")[0]
            b2 = mm_multi(world, subset, [b1], [v_dm], kernel, phase=f"uav{attempt}")[0]
            b3 = mm_multi(world, subset, [b2], [d_dm], kernel, phase=f"uavd{attempt}")[0]
            poly = minpol_monte_carlo(world, subset, b3, f"{tag}-mp-{attempt}", kernel)
            r = poly.degree - 1
            if 0 <= r < n:
                result = r
                break
            result = max(0, min(n - 1, r))
    return result
