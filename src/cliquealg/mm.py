"""Distributed computation of k independent n x m by m x n matrix products.

Input convention: the node playing logical role ell holds row ell of every
left factor and column ell of every right factor.  Outputs are n x n with
both the row and the column of each product delivered to node ell.

Three routes, picked by shape:
  * k > n:            sequential batches of at most n products;
  * m >= n^2/k:       column-block partitioning, one block per worker node;
  * otherwise:        the four-step bilinear-kernel pattern (with the inner
                      dimension padded up to ceil(sqrt(k*n)) when m is small).

`predict_rounds` gives the rounds a call charges from its shape alone, by
closed-form per-node loads read from the plan of the route that runs.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import bilinear
from .ff import matmul_mod
from .planner import OmegaCurve, solve_maincond
from .sim import CliqueWorld


@dataclass
class DMat:
    """Descriptor of a matrix distributed over a node subset."""

    name: str
    rows: int
    cols: int
    p: int
    subset: tuple[int, ...]
    has_rows: bool = True
    has_cols: bool = True

    def row_key(self, i0: int) -> str:
        return f"{self.name}:r{i0}"

    def col_key(self, j0: int) -> str:
        return f"{self.name}:c{j0}"


@dataclass
class WideMat:
    """Column-distributed n x L matrix; column j lives at logical node j mod n."""

    name: str
    rows: int
    cols: int
    p: int
    subset: tuple[int, ...]

    def col_key(self, j0: int) -> str:
        return f"{self.name}:c{j0}"

    def owner_pos(self, j0: int) -> int:
        return j0 % len(self.subset)


def scatter_matrix(world: CliqueWorld, subset: Sequence[int], mat: np.ndarray, p: int,
                   name: Optional[str] = None, has_rows: bool = True,
                   has_cols: bool = True) -> DMat:
    """Driver-side initial placement (problem inputs start distributed; free)."""
    mat = np.asarray(mat, dtype=np.int64) % p
    rows, cols = mat.shape
    name = name or world.fresh_name("M")
    dm = DMat(name, rows, cols, p, tuple(subset), has_rows, has_cols)
    for i0 in range(rows):
        if has_rows and i0 < len(subset):
            world.stores[subset[i0]][dm.row_key(i0)] = mat[i0].copy()
    for j0 in range(cols):
        if has_cols and j0 < len(subset):
            world.stores[subset[j0]][dm.col_key(j0)] = mat[:, j0].copy()
    return dm


def gather_matrix(world: CliqueWorld, dm: DMat) -> np.ndarray:
    """Driver-side readout for verification; not part of the protocol."""
    out = np.zeros((dm.rows, dm.cols), dtype=np.int64)
    if dm.has_rows:
        for i0 in range(dm.rows):
            out[i0] = world.stores[dm.subset[i0]][dm.row_key(i0)]
    else:
        for j0 in range(dm.cols):
            out[:, j0] = world.stores[dm.subset[j0]][dm.col_key(j0)]
    return out


def identity_dmat(world: CliqueWorld, subset: Sequence[int], size: int, p: int) -> DMat:
    dm = DMat(world.fresh_name("I"), size, size, p, tuple(subset))

    def build(view):
        pos = view.pos
        if pos < size:
            e = np.zeros(size, dtype=np.int64)
            e[pos] = 1 % p
            view.put(dm.row_key(pos), e)
            view.put(dm.col_key(pos), e.copy())

    world.run_local(subset, "identity", build)
    return dm


@dataclass
class MediumPlan:
    """Dimensioning of the four-step pattern, all derived from shape only.

    The rank-t coefficient tensors (`alg`) are built on first use, so a plan
    made only to predict rounds stays cheap at any size.
    """

    n: int
    m: int
    k: int
    gamma: float
    family: str
    d: int
    e: int
    t: int
    q: int
    c: int
    r: int

    @functools.cached_property
    def alg(self) -> bilinear.BilinearAlgorithm:
        return bilinear.algorithm_for(self.family, self.d, self.gamma)

    @functools.cached_property
    def routes(self) -> "FourStepRoutes":
        return FourStepRoutes(self)

    @property
    def X(self) -> int:
        return self.q * self.c

    @property
    def Z(self) -> int:
        return self.q * self.r

    @property
    def n_hat(self) -> int:
        return self.d * self.X

    @property
    def m_hat(self) -> int:
        return self.e * self.Z

    def phase_loads(self) -> dict[str, int]:
        """Per-node load of each routed step of the four-step pattern, in elements.

        A step's load is the most any node sends or receives in it, counted as
        `CliqueWorld.route` counts it: masked padding never travels and data a
        node addresses to itself is free.  Closed forms in O(kq) time.

        Write N_u for the real slots in worker column u (of n) and a_v for the
        real inner positions in column v (of m).  In `form`, every node sends
        2km and worker (s, u, v) receives N_u a_v + N_v a_u; in `deliver`,
        the worker sends 2 N_u N_v and every node receives 2kn.  A worker
        whose own slot lies in column u keeps its a_v (form) or N_v (deliver)
        piece, and in column v its a_u or N_u piece; `gather` and `combine`
        keep one block when a worker is also one of its multiply nodes.
        """
        n, m, k, t = self.n, self.m, self.k, self.t
        q, c, r, X = self.q, self.c, self.r, self.X
        N = _real_counts(n, c, q)
        a = _real_counts(m, r, q)
        cuts = (np.flatnonzero((np.diff(N) != 0) | (np.diff(a) != 0)) + 1).tolist()
        runs = list(zip([0] + cuts, cuts + [q]))  # v-runs on which N_v and a_v are constant
        u = np.tile(np.arange(q), k)
        base = (np.repeat(np.arange(k), q) * q + u) * q  # worker w = base + v
        off = base % X
        # own slot in column v: needs off + v < X (no wrap) and v(c-1) <= off < v(c-1) + c
        if c == 1:
            fix = (np.zeros_like(off), np.where(off == 0, q, 0))
        else:
            fix = ((off - c) // (c - 1) + 1, np.minimum(off // (c - 1) + 1, X - off))
        never = np.iinfo(np.int64).max // 4

        def worst(value, alpha) -> int:
            """max over workers of value(u, v) - [own slot in u] alpha[v] - [in v] alpha[u]."""
            best = 0
            for lo, hi in runs:
                # own slot in column u: w mod X in [uc, uc + c); [lo, hi) meets two such windows
                first = (base + lo - u * c) // X * X + u * c - base
                in_u = [(first, first + c), (first + X, first + X + c)]
                n_u = sum(_overlap((lo, hi), win) for win in in_u)
                n_v = _overlap((lo, hi), fix)
                n_uv = sum(_overlap((lo, hi), win, fix) for win in in_u)
                n_none = (hi - lo) - n_u - n_v + n_uv
                kept = np.where(n_none > 0, 0, np.minimum.reduce([
                    np.where(n_u > n_uv, alpha[lo], never),
                    np.where(n_v > n_uv, alpha[u], never),
                    np.where(n_uv > 0, alpha[lo] + alpha[u], never)]))
                best = max(best, int((value(u, lo) - kept).max()))
            return best

        spare = k * q * q < n  # some node is no worker
        form = worst(lambda uu, v: np.maximum(2 * k * m, N[uu] * a[v] + N[v] * a[uu]), a)
        deliver = worst(lambda uu, v: np.maximum(2 * k * n, 2 * N[uu] * N[v]), N)
        workers_self = q * q <= t and (k == 1 or q * q == t)  # every worker multiplies too
        muls_self = t <= q * q and (k == 1 or t == q * q)     # every multiplier is a worker
        return {
            "form": max(form, 2 * k * m if spare else 0),
            "gather": max(2 * c * r * (t - workers_self), 2 * c * r * (q * q - muls_self)),
            "combine": max(c * c * (q * q - muls_self), c * c * (t - workers_self)),
            "deliver": max(deliver, 2 * k * n if spare else 0),
        }


class FourStepRoutes:
    """Destinations and selections of every routed step of a plan, in subset
    positions; the one place the four-step index arithmetic is written.

    Output slot s < n (the node at position s) lies in worker column
    u = (s mod X) // c, at row i*c + x' of its column's (d*c)-row block,
    where s = i*X + u*c + x'.  Inner index j < m lies in inner column
    v = (j mod Z) // r, at place a*r + r' of its column's (e*r)-long row,
    where j = a*Z + v*r + r'.  Both orders are increasing, so the real
    slots and inner indices of a column always come first.  Worker
    (s0, u, v) sits at position (s0*q + u)*q + v and multiply node (s0, mu)
    at s0*t + mu.
    """

    def __init__(self, plan: MediumPlan):
        n, m, k, q, c, r, t = plan.n, plan.m, plan.k, plan.q, plan.c, plan.r, plan.t
        outer = np.add.outer(np.arange(plan.d) * plan.X, np.arange(c)).ravel()
        inner = np.add.outer(np.arange(plan.e) * plan.Z, np.arange(r)).ravel()
        # real slots of each worker column, in block-row order
        self.slots = [outer[outer + u0 * c < n] + u0 * c for u0 in range(q)]
        inner_real = [inner[inner + v0 * r < m] + v0 * r for v0 in range(q)]
        self.inner_counts = [sel.size for sel in inner_real]
        self.workers = np.arange(k * q * q).reshape(k, q, q)
        self.mul_nodes = np.arange(k * t).reshape(k, t)
        # form sends: inner columns grouped by how many real indices they hold,
        # so that each group travels as one block of equally long rows
        self.inner_groups: list[tuple[np.ndarray, np.ndarray]] = []
        for size in sorted(set(self.inner_counts) - {0}):
            vs = [v0 for v0 in range(q) if self.inner_counts[v0] == size]
            self.inner_groups.append((np.array(vs), np.stack([inner_real[v0] for v0 in vs])))


def make_medium_plan(n: int, m: int, k: int, family: str, gamma: float) -> MediumPlan:
    budget = max(1, n // k)
    d = bilinear.max_d_for_budget(family, budget, gamma)
    e = bilinear.inner_of(family, d, gamma)
    t = bilinear.rank_of(family, d, gamma)
    q = math.isqrt(max(1, n // k))
    c = math.ceil(n / (d * q))
    r = math.ceil(m / (e * q))
    assert k * q * q <= n and k * t <= n
    return MediumPlan(n, m, k, gamma, family, d, e, t, q, c, r)


def _plan_for(n: int, m: int, k: int, kernel: str) -> Optional[MediumPlan]:
    """The four-step plan `mm_multi` runs for k <= n products of inner size m,
    or None when the shape takes the column-block route."""
    if m * k >= n * n:
        return None
    if m * m <= k * n:
        s = math.isqrt(k * n)
        m_eff = s if s * s == k * n else s + 1
        plan = make_medium_plan(n, m_eff, k, "trivial", 0.0)
        plan.m = m  # real inner size; pad lives in m_hat
        return plan
    if kernel == "strassen":
        gamma = 1.0
    else:
        gamma = solve_maincond(math.log(k) / math.log(n),
                               math.log(m) / math.log(n),
                               OmegaCurve.for_kernel(kernel))
    return make_medium_plan(n, m, k, kernel, gamma)


def mm_multi(world: CliqueWorld, subset: Sequence[int], a_list: Sequence[DMat],
             b_list: Sequence[DMat], kernel: str = "trivial",
             phase: Optional[str] = None) -> list[DMat]:
    """k independent products; dispatches on (n, m, k) and charges the ledger."""
    subset = tuple(subset)
    n = len(subset)
    k = len(a_list)
    if k == 0 or k != len(b_list):
        raise ValueError("need matching, nonempty factor lists")
    m = a_list[0].cols
    p = a_list[0].p
    for a, b in zip(a_list, b_list):
        if a.rows != n or a.cols != m or b.rows != m or b.cols != n:
            raise ValueError("dimension mismatch with the node subset")
        if a.p != p or b.p != p:
            raise ValueError("field mismatch between factors")
    phase = phase or world.fresh_name("mm")
    with world.ledger.group(phase):
        if k > n:
            out: list[DMat] = []
            for start in range(0, k, n):
                out.extend(
                    mm_multi(world, subset, a_list[start:start + n],
                             b_list[start:start + n], kernel,
                             phase=f"batch{start // n}"))
            return out
        plan = _plan_for(n, m, k, kernel)
        if plan is None:
            return _mm_large(world, subset, a_list, b_list)
        outs = [DMat(world.fresh_name("C"), n, n, p, subset) for _ in range(k)]
        four_step(world, subset, plan, FieldAlgebra(plan, p), a_list, b_list, outs)
        return outs


def _mm_large(world: CliqueWorld, subset: Sequence[int], a_list: Sequence[DMat],
              b_list: Sequence[DMat]) -> list[DMat]:
    n, k = len(subset), len(a_list)
    m = a_list[0].cols
    p = a_list[0].p
    nodes = np.array(subset)
    g = max(1, min(n // k, m))
    w = math.ceil(m / g)
    spans = [(t0 * w, min((t0 + 1) * w, m)) for t0 in range(g)]
    full = m // w  # the first `full` spans are w wide, then at most one narrower

    def build_gather(view):
        pos = view.pos
        for s0 in range(k):
            row = view.get(a_list[s0].row_key(pos))
            col = view.get(b_list[s0].col_key(pos))
            for vec, key in ((row, ("LA", s0, pos)), (col, ("LB", s0, pos))):
                if vec is not None:
                    yield nodes[s0 * g:s0 * g + full], key, vec[:full * w].reshape(full, w)
                    if m % w:
                        yield subset[s0 * g + full], key, vec[full * w:]

    world.route(subset, "blocks", build_gather)

    def compute(view):
        pos = view.pos
        if pos >= k * g:
            return
        s0, t0 = divmod(pos, g)
        lo, hi = spans[t0]
        width = hi - lo
        ablk = np.zeros((n, width), dtype=np.int64)
        bblk = np.zeros((width, n), dtype=np.int64)
        for ell in range(n):
            ablk[ell] = view.pop(("LA", s0, ell))
            bblk[:, ell] = view.pop(("LB", s0, ell))
        view.put(("LC", s0), matmul_mod(ablk, bblk, p))

    world.run_local(subset, "block-multiply", compute)

    outs = [DMat(world.fresh_name("C"), n, n, p, tuple(subset)) for _ in range(k)]

    def build_scatter(view):
        pos = view.pos
        if pos >= k * g:
            return
        s0, t0 = divmod(pos, g)
        prod = view.get(("LC", s0))
        yield nodes, ("LCr", s0, t0), prod
        yield nodes, ("LCc", s0, t0), prod.T

    world.route(subset, "assemble", build_scatter)

    def finish(view):
        pos = view.pos
        if pos < k * g:
            view.pop(("LC", pos // g))
        for s0 in range(k):
            # the first block's rows become the output, so a received block is
            # not kept alive beside a fresh copy of it
            row = view.pop(("LCr", s0, 0))
            col = view.pop(("LCc", s0, 0))
            for t0 in range(1, g):
                row = (row + view.pop(("LCr", s0, t0))) % p
                col = (col + view.pop(("LCc", s0, t0))) % p
            view.put(outs[s0].row_key(pos), row)
            view.put(outs[s0].col_key(pos), col)

    world.run_local(subset, "sum-blocks", finish)
    return outs


class FieldAlgebra:
    """The node-local arithmetic of the four-step pattern for a bilinear kernel
    over GF(p): the alpha/beta/lambda contractions and the block product, all
    through `matmul_mod`, so they are exact wherever it is."""

    zero = 0
    form_phase = "form-combine"

    def __init__(self, plan: MediumPlan, p: int):
        alg = plan.alg
        self.p = p
        self.d = alg.d
        self.alpha = (alg.alpha % p).reshape(alg.t, -1)
        self.beta = (alg.beta % p).reshape(alg.t, -1)
        self.lam = (alg.lam % p).reshape(alg.t, -1).T

    def form(self, ablk: np.ndarray, bblk: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(d, c, e, r) blocks of A and of B transposed -> the t left (c, r)
        and right (r, c) operands."""
        d, c, e, r = ablk.shape
        s_all = matmul_mod(self.alpha, ablk.transpose(0, 2, 1, 3).reshape(d * e, c * r), self.p)
        t_all = matmul_mod(self.beta, bblk.transpose(0, 2, 3, 1).reshape(d * e, r * c), self.p)
        return s_all.reshape(-1, c, r), t_all.reshape(-1, r, c)

    def multiply(self, s_mat: np.ndarray, t_mat: np.ndarray) -> np.ndarray:
        return matmul_mod(s_mat, t_mat, self.p)

    def combine(self, prods: np.ndarray) -> np.ndarray:
        """t products (c, c) -> the worker's (d, c, d, c) block of C."""
        t, c, _ = prods.shape
        out = matmul_mod(self.lam, prods.reshape(t, c * c), self.p)
        return out.reshape(self.d, self.d, c, c).transpose(0, 2, 1, 3)


def four_step(world: CliqueWorld, subset: Sequence[int], plan: MediumPlan, algebra,
              a_list: Sequence, b_list: Sequence, outs: Sequence, width: int = 1) -> None:
    """The four-step multi-product pattern of `plan` on the k factor pairs.

    Node i of the subset holds row i of each a_list[s] and column i of each
    b_list[s] (under their row_key/col_key) and receives row i and column i
    of the s-th product under outs[s]'s keys.  `algebra` supplies the zero
    element and the node-local steps (form, multiply, combine); every routed
    step moves blocks whose destinations come from `plan.routes`, and each
    element is charged `width` units.
    """
    subset = tuple(subset)
    nodes = np.array(subset)
    n, k, t, q = plan.n, plan.k, plan.t, plan.q
    d, e, c, r, X = plan.d, plan.e, plan.c, plan.r, plan.X
    routes = plan.routes
    zero = algebra.zero

    def build_form(view):
        pos = view.pos
        u_own = (pos % X) // c
        rows = np.stack([view.get(a.row_key(pos)) for a in a_list])
        cols = np.stack([view.get(b.col_key(pos)) for b in b_list])
        for vs, sel in routes.inner_groups:
            yield nodes[routes.workers[:, u_own, vs].ravel()], ("fA", pos), \
                rows[:, sel].reshape(-1, sel.shape[1])
            yield nodes[routes.workers[:, vs, u_own].ravel()], ("fB", pos), \
                cols[:, sel].reshape(-1, sel.shape[1])

    world.route(subset, "form", build_form, width)

    def local_form(view):
        label = _worker_label(plan, view.pos)
        if label is None:
            return
        _, u0, v0 = label
        ablk = np.full((d * c, e * r), zero, dtype=np.int64)
        bblk = np.full((d * c, e * r), zero, dtype=np.int64)
        for blk, key, w_out, w_in in ((ablk, "fA", u0, v0), (bblk, "fB", v0, u0)):
            width_in = routes.inner_counts[w_in]
            if routes.slots[w_out].size and width_in:
                pieces = view.pop_many((key, slot) for slot in routes.slots[w_out].tolist())
                blk[:len(pieces), :width_in] = np.concatenate(pieces).reshape(len(pieces), -1)
        view.put("fST", algebra.form(ablk.reshape(d, c, e, r), bblk.reshape(d, c, e, r)))

    world.run_local(subset, algebra.form_phase, local_form)

    def build_gather(view):
        label = _worker_label(plan, view.pos)
        if label is None:
            return
        s0, u0, v0 = label
        s_all, t_all = view.get("fST")
        yield nodes[routes.mul_nodes[s0]], ("fS", u0, v0), s_all
        yield nodes[routes.mul_nodes[s0]], ("fT", u0, v0), t_all

    world.route(subset, "gather", build_gather, width)

    pairs = [(u0, v0) for u0 in range(q) for v0 in range(q)]

    def local_multiply(view):
        view.pop("fST", None)
        if view.pos >= k * t:
            return
        s_mat = np.concatenate(view.pop_many(("fS",) + pair for pair in pairs))
        t_mat = np.concatenate(view.pop_many(("fT",) + pair for pair in pairs))
        s_mat = s_mat.reshape(q, q, c, r).transpose(0, 2, 1, 3).reshape(X, q * r)
        t_mat = t_mat.reshape(q, q, r, c).transpose(0, 2, 1, 3).reshape(q * r, X)
        view.put("fProd", algebra.multiply(s_mat, t_mat))

    world.run_local(subset, "multiply", local_multiply)

    def build_combine(view):
        if view.pos >= k * t:
            return
        s0, mu0 = divmod(view.pos, t)
        prod = view.get("fProd").reshape(q, c, q, c).transpose(0, 2, 1, 3)
        yield nodes[routes.workers[s0].ravel()], ("fP", mu0), prod.reshape(q * q, c, c)

    world.route(subset, "combine", build_combine, width)

    def local_combine(view):
        view.pop("fProd", None)
        if _worker_label(plan, view.pos) is None:
            return
        prods = np.concatenate(view.pop_many(("fP", mu0) for mu0 in range(t)))
        view.put("fC", algebra.combine(prods.reshape(t, c, c)))

    world.run_local(subset, "combine-local", local_combine)

    def build_deliver(view):
        label = _worker_label(plan, view.pos)
        if label is None:
            return
        s0, u0, v0 = label
        cblk = view.get("fC").reshape(d * c, d * c)[:len(routes.slots[u0]), :len(routes.slots[v0])]
        # the destination fixes the slot, so one key per sending worker suffices
        yield nodes[routes.slots[u0]], ("fR", s0, v0), cblk
        yield nodes[routes.slots[v0]], ("fK", s0, u0), cblk.T

    world.route(subset, "deliver", build_deliver, width)

    def local_deliver(view):
        view.pop("fC", None)
        for s0, out in enumerate(outs):
            row = np.full(n, zero, dtype=np.int64)
            col = np.full(n, zero, dtype=np.int64)
            for w0 in range(q):
                piece = view.pop(("fR", s0, w0), None)
                if piece is not None:
                    row[routes.slots[w0]] = piece
                piece = view.pop(("fK", s0, w0), None)
                if piece is not None:
                    col[routes.slots[w0]] = piece
            view.put(out.row_key(view.pos), row)
            view.put(out.col_key(view.pos), col)

    world.run_local(subset, "deliver-local", local_deliver)


def _worker_label(plan: MediumPlan, pos: int) -> Optional[tuple[int, int, int]]:
    if pos >= plan.k * plan.q * plan.q:
        return None
    s0, rest = divmod(pos, plan.q * plan.q)
    u0, v0 = divmod(rest, plan.q)
    return s0, u0, v0


def mm_square_times_wide(world: CliqueWorld, subset: Sequence[int], lhs: DMat,
                         wide: WideMat, kernel: str = "trivial",
                         phase: Optional[str] = None) -> WideMat:
    """lhs (n x n) times a column-distributed n x L matrix, by n-column chunks."""
    subset = tuple(subset)
    n = len(subset)
    p = lhs.p
    L = wide.cols
    chunks = math.ceil(L / n)
    phase = phase or world.fresh_name("wmm")
    rhs_list = []
    for g in range(chunks):
        rhs = DMat(world.fresh_name("W"), n, n, p, subset, has_rows=False)

        def stage(view, g=g, rhs=rhs):
            pos = view.pos
            base = g * n
            col = None
            j0 = base + pos
            if j0 < L:
                col = view.get(wide.col_key(j0))
            if col is None:
                col = np.zeros(n, dtype=np.int64)
            view.put(rhs.col_key(pos), col)

        world.run_local(subset, f"{phase}-stage{g}", stage)
        rhs_list.append(rhs)
    outs = mm_multi(world, subset, [lhs] * chunks, rhs_list, kernel, phase=phase)
    result = WideMat(world.fresh_name("WP"), n, L, p, subset)

    def collect(view):
        pos = view.pos
        for g in range(chunks):
            j0 = g * n + pos
            if j0 < L:
                view.put(result.col_key(j0), view.get(outs[g].col_key(pos)))

    world.run_local(subset, f"{phase}-collect", collect)
    return result


# ------------------------------------------------------------- cost model

def _real_counts(size: int, block: int, q: int) -> np.ndarray:
    """Entries below `size` in each of q columns of `block` consecutive
    positions, the columns repeating with period q * block."""
    period = q * block
    return (size // period) * block + np.clip(size % period - np.arange(q) * block, 0, block)


def _overlap(*intervals) -> np.ndarray:
    """Length of the intersection of half-open intervals (bounds may be arrays)."""
    lo = functools.reduce(np.maximum, (iv[0] for iv in intervals))
    hi = functools.reduce(np.minimum, (iv[1] for iv in intervals))
    return np.maximum(0, hi - lo)


def _block_loads(n: int, m: int, k: int) -> dict[str, int]:
    """Per-node loads of the column-block route, as `_mm_large` routes it."""
    g = max(1, min(n // k, m))
    w = math.ceil(m / g)
    last = min(w, max(0, m - (g - 1) * w))  # narrowest span
    spare = k * g < n  # some node multiplies no block
    return {
        "blocks": max(2 * k * m - (0 if spare else 2 * last), 2 * (n - 1) * w),
        "assemble": max(2 * n * (n - 1), 2 * n * (k * g - (0 if spare else 1))),
    }


def predict_rounds(n: int, m: int, k: int, kernel: str = "trivial") -> int:
    """Rounds `mm_multi` charges for k products of n x m by m x n matrices on
    n nodes, from the shape alone; reads the plan of the route that runs."""
    if k > n:
        full, rest = divmod(k, n)
        return (full * predict_rounds(n, m, n, kernel)
                + (predict_rounds(n, m, rest, kernel) if rest else 0))
    plan = _plan_for(n, m, k, kernel)
    loads = _block_loads(n, m, k) if plan is None else plan.phase_loads()
    return sum(CliqueWorld.route_rounds(load, n) for load in loads.values())
