"""Distributed computation of k independent n x m by m x n matrix products.

Input convention: the node playing logical role ell holds row ell of every
left factor and column ell of every right factor.  Outputs are n x n with
both the row and the column of each product delivered to node ell.

Three routes:
  * k > n:            sequential batches of at most n products;
  * otherwise, whichever of these two predicts fewer rounds:
      - column-block partitioning (`_mm_large`), one span of the inner
        dimension of one product per worker node: each node sends one
        block of its rows of every left factor and one of its columns of
        every right factor, plus one block of the narrower last spans when
        the span width does not divide m;
      - the four-step bilinear-kernel pattern, dimensioned by `choose_plan`.

`predict_rounds` gives the rounds a call charges from its shape alone, by
per-node loads read from the plan of the route that runs: each worker of a
four-step plan is counted as the router counts it, in O(kq^2) <= O(n) time.
Plans depend on the shape only, and `mm_multi` keeps the ones it makes on
its world (`CliqueWorld.plan`).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import bilinear
from .ff import matmul_mod
from .planner import OmegaCurve, RegimeError, solve_maincond
from .sim import CliqueWorld


class RowColMatrix:
    """Row i0 lives at node subset[i0], column j0 at node subset[j0].

    Subclasses are dataclasses with `name`, `rows`, `cols`, `subset`,
    `has_rows` and `has_cols`; they differ only in what an entry is.
    """

    def row_key(self, i0: int) -> str:
        return f"{self.name}:r{i0}"

    def col_key(self, j0: int) -> str:
        return f"{self.name}:c{j0}"

    def place(self, world: CliqueWorld, mat: np.ndarray):
        """Driver-side initial placement of the rows and columns this matrix holds."""
        subset = self.subset
        if self.has_rows:
            for i0 in range(min(self.rows, len(subset))):
                world.stores[subset[i0]][self.row_key(i0)] = mat[i0].copy()
        if self.has_cols:
            for j0 in range(min(self.cols, len(subset))):
                world.stores[subset[j0]][self.col_key(j0)] = mat[:, j0].copy()
        return self

    def read(self, world: CliqueWorld, fill: int) -> np.ndarray:
        """Driver-side readout, from the rows if held, else from the columns."""
        out = np.full((self.rows, self.cols), fill, dtype=np.int64)
        if self.has_rows:
            for i0 in range(self.rows):
                out[i0] = world.stores[self.subset[i0]][self.row_key(i0)]
        else:
            for j0 in range(self.cols):
                out[:, j0] = world.stores[self.subset[j0]][self.col_key(j0)]
        return out


@dataclass
class DMat(RowColMatrix):
    """Descriptor of a matrix over GF(p) distributed over a node subset."""

    name: str
    rows: int
    cols: int
    p: int
    subset: tuple[int, ...]
    has_rows: bool = True
    has_cols: bool = True


def scatter_matrix(world: CliqueWorld, subset: Sequence[int], mat: np.ndarray, p: int,
                   has_rows: bool = True, has_cols: bool = True) -> DMat:
    """Driver-side initial placement (problem inputs start distributed; free)."""
    mat = np.asarray(mat, dtype=np.int64) % p
    return DMat(world.fresh_name("M"), *mat.shape, p, tuple(subset), has_rows,
                has_cols).place(world, mat)


def gather_matrix(world: CliqueWorld, dm: DMat) -> np.ndarray:
    """Driver-side readout for verification; not part of the protocol."""
    return dm.read(world, 0)


@dataclass
class MediumPlan:
    """Dimensioning of the four-step pattern, all derived from shape only.

    The rank-t coefficient tensors (`alg`) are built on first use, so a plan
    made only to predict rounds stays cheap at any size.
    """

    n: int
    m: int
    k: int
    family: str
    d: int
    e: int
    t: int
    q: int
    c: int
    r: int

    @functools.cached_property
    def alg(self) -> bilinear.BilinearAlgorithm:
        return bilinear.algorithm_for(self.family, self.d, self.e)

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
        node addresses to itself is free.  Counted worker by worker, in
        O(kq^2) <= O(n) time.

        Write N_u for the real slots in worker column u (of n) and a_v for the
        real inner positions in column v (of m).  In `form`, every node sends
        2km and worker (s, u, v) receives N_u a_v + N_v a_u; in `deliver`,
        the worker sends 2 N_u N_v and every node receives 2kn.  A worker
        whose own slot lies in column u keeps its a_v (form) or N_v (deliver)
        piece, and in column v its a_u or N_u piece; `gather` and `combine`
        keep one row or block when a worker is also one of its multiply nodes.
        """
        n, m, k, t, q, c, r = self.n, self.m, self.k, self.t, self.q, self.c, self.r
        N = _real_counts(n, c, q)
        a = _real_counts(m, r, q)
        w = np.arange(k * q * q)  # worker (s, u, v) at position w = (s*q + u)*q + v
        u, v = w // q % q, w % q
        own = w % self.X // c  # worker column of the worker's own output slot
        in_u, in_v = own == u, own == v
        form = np.maximum(2 * k * m, N[u] * a[v] + N[v] * a[u]) - in_u * a[v] - in_v * a[u]
        deliver = np.maximum(2 * k * n, 2 * N[u] * N[v]) - in_u * N[v] - in_v * N[u]
        spare = k * q * q < n  # some node is no worker
        gather, combine = _gather_combine_loads(k, t, q, c, r)
        return {
            "form": max(int(form.max()), 2 * k * m if spare else 0),
            "gather": gather,
            "combine": combine,
            "deliver": max(int(deliver.max()), 2 * k * n if spare else 0),
        }

    def rounds(self, width: int = 1) -> int:
        """Predicted rounds, each element charged `width` units."""
        return _rounds(self.phase_loads().values(), self.n, width)

    def round_bounds(self, width: int = 1) -> tuple[int, int]:
        """Bounds on `rounds(width)` in O(1) time.

        gather and combine are exact.  The busiest form and deliver loads
        are those of worker (0, 0, 0), whose column pair holds the most real
        slots n0 and inner indices a0, less the pieces it keeps: at most a0
        twice in form and n0 twice in deliver.
        """
        n, m, k = self.n, self.m, self.k
        n0, a0 = _first_count(n, self.c, self.q), _first_count(m, self.r, self.q)
        gather, combine = _gather_combine_loads(k, self.t, self.q, self.c, self.r)
        form, deliver = max(2 * k * m, 2 * n0 * a0), max(2 * k * n, 2 * n0 * n0)
        return (_rounds((form - 2 * a0, gather, combine, deliver - 2 * n0), n, width),
                _rounds((form, gather, combine, deliver), n, width))


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

    Columns are grouped by how many real entries they hold, so that a group
    travels as one block of equally long rows:
      * `form_sends[u]` lists, for a node whose slot lies in worker column u,
        one (fA workers, fB workers, inner selection) triple per group of
        inner columns vs: its rows go to workers (s0, u, vs) and its columns
        to workers (s0, vs, u), in position order;
      * `width_groups` lists (width, slot positions) per group of worker
        columns, the positions of the group's columns concatenated in column
        order.  The groups partition range(n), since the slots do.
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
        inner_groups = [(vs, np.array([inner_real[v0] for v0 in vs]))
                        for _, vs in _by_size(inner_real)]
        self.form_sends = [[(self.workers[:, u0, vs].ravel(), self.workers[:, vs, u0].ravel(), sel)
                            for vs, sel in inner_groups] for u0 in range(q)]
        self.width_groups = [(width, np.concatenate([self.slots[u0] for u0 in us]))
                             for width, us in _by_size(self.slots)]


def _by_size(parts: Sequence[np.ndarray]) -> list[tuple[int, list[int]]]:
    """(size, indices) of the nonempty parts, grouped by size, smallest first."""
    sizes = [len(part) for part in parts]
    return [(size, [i for i, s in enumerate(sizes) if s == size])
            for size in sorted(set(sizes) - {0})]


def make_medium_plan(n: int, m: int, k: int, family: str, gamma: float) -> MediumPlan:
    budget = max(1, n // k)
    d, e, t = bilinear.dimensions(family, budget, gamma)
    q = math.isqrt(budget)
    c = math.ceil(n / (d * q))
    r = math.ceil(m / (e * q))
    assert k * q * q <= n and k * t <= n
    return MediumPlan(n, m, k, family, d, e, t, q, c, r)


def _seed_plan(n: int, m: int, k: int, kernel: str) -> Optional[MediumPlan]:
    """The greedily dimensioned plan for k <= n products of inner size m, or
    None for the column-block route when m*k >= n^2: the start of `_plan_for`."""
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
        try:
            gamma = solve_maincond(math.log(k) / math.log(n),
                                   math.log(m) / math.log(n),
                                   OmegaCurve.for_kernel(kernel))
        except RegimeError:  # m so close to n^2/k that no crossing is found
            return None
    return make_medium_plan(n, m, k, kernel, gamma)


def _plan_for(n: int, m: int, k: int, kernel: str) -> Optional[MediumPlan]:
    """The four-step plan `mm_multi` runs for k <= n products of inner size m,
    or None when the shape takes the column-block route."""
    return choose_plan(n, m, k, kernel, _seed_plan(n, m, k, kernel))


class _Option:
    """A route under comparison: its predicted rounds lie in [lo, hi] until
    `settle` counts them exactly.  `volume` breaks ties; the seed and the
    column-block route carry -1, so a lattice plan must be strictly cheaper
    to displace them."""

    def __init__(self, plan: Optional[MediumPlan], bounds: tuple[int, int], volume: int = -1,
                 width: int = 1):
        self.plan, (self.lo, self.hi), self.volume, self.width = plan, bounds, volume, width

    def settle(self) -> None:
        self.lo = self.hi = self.plan.rounds(self.width)

    def beats(self, other: "_Option") -> bool:
        """Whether this route is cheaper than `other`, settling either one
        only while their ranges cannot tell."""
        while True:
            if (self.lo, self.volume) >= (other.hi, other.volume):
                return False
            if (self.hi, self.volume) < (other.lo, other.volume):
                return True
            (other if other.lo < other.hi else self).settle()


def choose_plan(n: int, m: int, k: int, family: str, seed: Optional[MediumPlan],
                width: int = 1, blocks: bool = True) -> Optional[MediumPlan]:
    """The four-step plan of fewest predicted rounds for k <= n products of
    inner size m, each element charged `width` units, or None when the
    column-block route (open only if `blocks`) predicts fewer.

    `seed` is the greedily dimensioned plan (None: the column-block route)
    and is kept unless another route is strictly cheaper.  The search runs
    over the lattice k*q^2 <= n, k*t <= n of `family` kernels with the
    smallest c and r that cover n and m.  Candidates are compared by
    `MediumPlan.round_bounds` and counted worker by worker only where those
    bounds cannot separate them; equally cheap plans are ordered by the
    elements they gather and combine, k*q^2*t*c*(2r + c).
    """
    block = _Option(None, (_rounds(_block_loads(n, m, k).values(), n),) * 2)
    best = block if seed is None else _Option(seed, seed.round_bounds(width), width=width)
    if blocks and block.beats(best):
        best = block
    for lo, volume, dims, hi in sorted(_lattice(n, m, k, family, width, best.hi)):
        if (lo, volume) >= (best.hi, best.volume):
            break
        option = _Option(MediumPlan(n, m, k, family, *dims), (lo, hi), volume, width)
        if option.beats(best):
            best = option
    return best.plan


def _lattice(n: int, m: int, k: int, family: str, width: int,
             limit: int) -> list[tuple[int, int, tuple, int]]:
    """(lo, volume, (d, e, t, q, c, r), hi) of the lattice plans whose
    round bounds [lo, hi] may reach the least of `limit` and every hi seen.

    The scan closes its ranges of q, d and e with lower bounds that hold for
    every plan in them: in the first column pair, at least ceil(n/q) slots
    and ceil(m/q) inner indices, so form and deliver loads of about
    2(n/q)(m/q) and 2(n/q)^2; with c >= n/(dq), r >= m/(eq) and
    d*e <= max(t, q^2)/d, a schoolbook gather of 2cr(max(t, q^2) - 1) >= A*d
    and a combine of c^2(max(t, q^2) - 1) >= B/d^2.
    """
    budget = n // k
    strassen = {2 ** j: 7 ** j for j in range(budget.bit_length()) if 7 ** j <= budget}

    def rounds(load):
        return CliqueWorld.route_rounds(width * load, n)

    found = []
    for q in range(math.isqrt(budget), 0, -1):
        n_q, m_q = -(-n // q), -(-m // q)
        floor = rounds(2 * (n_q - 1) * m_q) + rounds(2 * (n_q - 1) * n_q)
        if floor > limit:
            break  # n_q and m_q only grow as q falls
        if family == "strassen":
            ds = list(strassen)
        else:
            qq = q * q
            a_coef, b_coef = 2 * n * m * (qq - 1) / qq ** 2, n * n * (qq - 1) / qq
            room = (limit - floor + 0.5) * n / (2 * width)  # gather + combine elements
            # gather >= 2c(max(d, q)^2 - 1) with r >= 1 keeps d near q
            d_lo = max(int(math.sqrt(b_coef / room)), min(q, int(2 * n * (qq - 1) / (q * room))))
            d_hi = min(math.isqrt(budget), max(q, int(room * q / (2 * n)) + 1),
                       int(room / a_coef) + 1 if a_coef else budget)
            ds = range(max(1, d_lo), d_hi + 1)
        for d in ds:
            if family != "strassen" and a_coef * d + b_coef / (d * d) > room:
                continue
            c = -(-n // (d * q))
            n0 = _first_count(n, c, q)
            fixed = rounds(max(2 * k * n, 2 * n0 * n0) - 2 * n0) + rounds(2 * (n0 - 1) * m_q)
            least = max(q * q, d * d) - 1  # at most max(t, q^2) - 1, whatever e is
            spare = limit - fixed - rounds(c * c * least)  # rounds left for gather
            if rounds(2 * c * least) > spare:
                continue  # gather >= 2cr * least with r >= 1
            if family == "strassen":
                pairs = [(d, strassen[d])]
            else:
                # gather >= 2c(m/(eq))(q^2 - 1) bounds e from below
                cap = spare // 2 * n // width
                e_lo = max(1, 2 * c * m * (qq - 1) // (q * cap)) if cap > 0 else 1
                pairs = ((e, d * d * e) for e in range(e_lo, budget // (d * d) + 1))
            for e, t in pairs:
                if fixed + rounds(c * c * (max(q * q, t) - 1)) > limit:
                    break  # combine only grows with e
                r = -(-m // (e * q))
                lo, hi = MediumPlan(n, m, k, family, d, e, t, q, c, r).round_bounds(width)
                limit = min(limit, hi)
                if lo <= limit:
                    found.append((lo, k * q * q * t * c * (2 * r + c), (d, e, t, q, c, r), hi))
    return [cand for cand in found if cand[0] <= limit]


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
        if not (a.has_rows and b.has_cols):
            raise ValueError("left factors must hold rows and right factors columns")
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
        plan = world.plan((n, m, k, kernel), lambda: _plan_for(n, m, k, kernel))
        if plan is None:
            return _mm_large(world, subset, a_list, b_list)
        outs = [DMat(world.fresh_name("C"), n, n, p, subset) for _ in range(k)]
        four_step(world, subset, plan, FieldAlgebra(plan, p), a_list, b_list, outs)
        return outs


def _block_split(n: int, m: int, k: int) -> tuple[int, int]:
    """Column-block route: each product's inner dimension is cut into g spans
    of w indices (the last may be narrower, none is empty), one per
    multiplying node."""
    w = math.ceil(m / max(1, min(n // k, m)))
    return math.ceil(m / w), w


def _mm_large(world: CliqueWorld, subset: Sequence[int], a_list: Sequence[DMat],
              b_list: Sequence[DMat]) -> list[DMat]:
    """Column-block route (Censor-Hillel et al., PODC'15), for k <= n.

    The inner dimension of each product is cut into g spans of w indices
    (`_block_split`), and worker (s0, t0), the node at position s0 * g + t0,
    multiplies span t0 of product s0: an (n, w) slice of A_s0 by a (w, n)
    slice of B_s0.  In `blocks`, every node sends one block per factor
    family, under the key "LA" or "LB": its row of every A_s0 (or column of
    every B_s0), cut into the w-wide spans, row (s0, t0) of the block to
    worker (s0, t0).  When w does not divide m, a second block under the same
    key carries the narrower last spans to the workers (s0, g - 1).
    Each worker receives its operands stacked, one row per node.  In
    `assemble`, every worker sends row i of its partial product to node i
    under "LCr" (and column i under "LCc"), so node i receives the k g
    partial rows stacked in worker order and `sum-blocks` is one sum over
    the g spans of each product.
    """
    n, k = len(subset), len(a_list)
    m = a_list[0].cols
    p = a_list[0].p
    nodes = np.array(subset)
    g, w = _block_split(n, m, k)
    full = m // w  # the first `full` spans are w wide, then at most one narrower
    cut = full * w
    workers = nodes[:k * g].reshape(k, g)  # workers[s0, t0] multiplies span t0 of product s0
    # destinations of the full and the narrower spans
    wide, narrow = workers[:, :full].reshape(-1), workers[:, full:].reshape(-1)

    def build_gather(view):
        pos = view.pos
        for family, rows in (("LA", [view.get(a.row_key(pos)) for a in a_list]),
                             ("LB", [view.get(b.col_key(pos)) for b in b_list])):
            rows = np.array(rows)
            yield wide, family, rows[:, :cut].reshape(-1, w)
            if cut < m:
                yield narrow, family, rows[:, cut:]

    world.route(subset, "blocks", build_gather)

    def compute(view):
        pos = view.pos
        if pos >= k * g:
            return
        view.put(("LC", pos // g), matmul_mod(view.pop("LA"), view.pop("LB").T, p))

    world.run_local(subset, "block-multiply", compute)

    outs = [DMat(world.fresh_name("C"), n, n, p, tuple(subset)) for _ in range(k)]

    def build_scatter(view):
        pos = view.pos
        if pos >= k * g:
            return
        prod = view.get(("LC", pos // g))
        yield nodes, "LCr", prod
        yield nodes, "LCc", prod.T

    world.route(subset, "assemble", build_scatter)

    def finish(view):
        pos = view.pos
        if pos < k * g:
            view.pop(("LC", pos // g))
        # g partial rows (and columns) per product, below g * p < 2^63
        rows = view.pop("LCr").reshape(k, g, n).sum(axis=1) % p
        cols = view.pop("LCc").reshape(k, g, n).sum(axis=1) % p
        for s0, out in enumerate(outs):
            view.put(out.row_key(pos), rows[s0])
            view.put(out.col_key(pos), cols[s0])

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
    element is charged `width` units.  Keys name a step, not a sender, so a
    receiver pops each step's input as one array stacked in sender order:
    a worker its slots' rows under "fA"/"fB"; a multiply node one row per
    worker of its product under "fG", the worker's left and right operands
    side by side; a worker its t products under "fP".  In `deliver`, a node
    receives one stack per slot width w of the sending workers' columns,
    under ("fR", w) and ("fK", w): one row per product and column of that
    width.
    """
    subset = tuple(subset)
    nodes = np.array(subset)
    n, k, t, q = plan.n, plan.k, plan.t, plan.q
    d, e, c, r, X = plan.d, plan.e, plan.c, plan.r, plan.X
    routes = plan.routes
    zero = algebra.zero
    # the plan's destinations as nodes of this subset
    workers, mul_nodes = nodes[routes.workers], nodes[routes.mul_nodes]
    slot_nodes = [nodes[slots] for slots in routes.slots]
    form_sends = [[(nodes[to_a], nodes[to_b], sel) for to_a, to_b, sel in column]
                  for column in routes.form_sends]

    def build_form(view):
        pos = view.pos
        rows = np.array([view.get(a.row_key(pos)) for a in a_list])
        cols = np.array([view.get(b.col_key(pos)) for b in b_list])
        for to_a, to_b, sel in form_sends[(pos % X) // c]:
            yield to_a, "fA", rows[:, sel].reshape(-1, sel.shape[1])
            yield to_b, "fB", cols[:, sel].reshape(-1, sel.shape[1])

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
                piece = view.pop(key)  # one row from each slot of w_out, in slot order
                blk[:len(piece), :width_in] = piece
        s_all, t_all = algebra.form(ablk.reshape(d, c, e, r), bblk.reshape(d, c, e, r))
        # row mu: the left (c, r) and the right (r, c) operand of product mu
        view.put("fST", np.concatenate((s_all.reshape(t, -1), t_all.reshape(t, -1)), axis=1))

    world.run_local(subset, algebra.form_phase, local_form)

    def build_gather(view):
        label = _worker_label(plan, view.pos)
        if label is None:
            return
        yield mul_nodes[label[0]], "fG", view.get("fST")

    world.route(subset, "gather", build_gather, width)

    def local_multiply(view):
        view.pop("fST", None)
        if view.pos >= k * t:
            return
        # one row from each worker (u0, v0) of this product, in worker order
        ops = view.pop("fG")
        s_mat = ops[:, :c * r].reshape(q, q, c, r).transpose(0, 2, 1, 3).reshape(X, q * r)
        t_mat = ops[:, c * r:].reshape(q, q, r, c).transpose(0, 2, 1, 3).reshape(q * r, X)
        view.put("fProd", algebra.multiply(s_mat, t_mat))

    world.run_local(subset, "multiply", local_multiply)

    def build_combine(view):
        if view.pos >= k * t:
            return
        s0 = view.pos // t
        prod = view.get("fProd").reshape(q, c, q, c).transpose(0, 2, 1, 3)
        yield workers[s0].ravel(), "fP", prod.reshape(q * q, c, c)

    world.route(subset, "combine", build_combine, width)

    def local_combine(view):
        view.pop("fProd", None)
        if _worker_label(plan, view.pos) is None:
            return
        view.put("fC", algebra.combine(view.pop("fP")))  # one block per multiply node

    world.run_local(subset, "combine-local", local_combine)

    def build_deliver(view):
        label = _worker_label(plan, view.pos)
        if label is None:
            return
        _, u0, v0 = label
        n_u, n_v = len(routes.slots[u0]), len(routes.slots[v0])
        cblk = view.get("fC").reshape(d * c, d * c)[:n_u, :n_v]
        # the destination fixes the slot, and the key the width of the row
        yield slot_nodes[u0], ("fR", n_v), cblk
        yield slot_nodes[v0], ("fK", n_u), cblk.T

    world.route(subset, "deliver", build_deliver, width)

    def local_deliver(view):
        view.pop("fC", None)
        rows = np.empty((k, n), dtype=np.int64)
        cols = np.empty((k, n), dtype=np.int64)
        for w, slots in routes.width_groups:
            # one row per product and column of width w, in (product, column) order
            rows[:, slots] = view.pop(("fR", w)).reshape(k, -1)
            cols[:, slots] = view.pop(("fK", w)).reshape(k, -1)
        for s0, out in enumerate(outs):
            view.put(out.row_key(view.pos), rows[s0])
            view.put(out.col_key(view.pos), cols[s0])

    world.run_local(subset, "deliver-local", local_deliver)


def _worker_label(plan: MediumPlan, pos: int) -> Optional[tuple[int, int, int]]:
    if pos >= plan.k * plan.q * plan.q:
        return None
    s0, rest = divmod(pos, plan.q * plan.q)
    u0, v0 = divmod(rest, plan.q)
    return s0, u0, v0


# ------------------------------------------------------------- cost model

def _real_counts(size: int, block: int, q: int) -> np.ndarray:
    """Entries below `size` in each of q columns of `block` consecutive
    positions, the columns repeating with period q * block."""
    period = q * block
    return (size // period) * block + np.clip(size % period - np.arange(q) * block, 0, block)


def _first_count(size: int, block: int, q: int) -> int:
    """`_real_counts(size, block, q)[0]`, the fullest column, in O(1)."""
    period = q * block
    return (size // period) * block + min(size % period, block)


def _gather_combine_loads(k: int, t: int, q: int, c: int, r: int) -> tuple[int, int]:
    """Per-node loads of the gather and combine steps of a four-step plan.

    In gather a worker sends t rows of 2cr elements, a left and a right
    operand, and a multiply node receives q^2 of them; combine moves q^2*t
    blocks of c*c elements back.  One row or block stays local when a worker
    is also one of its multiply nodes.
    """
    workers_self = q * q <= t and (k == 1 or q * q == t)  # every worker multiplies too
    muls_self = t <= q * q and (k == 1 or t == q * q)     # every multiplier is a worker
    return (max(2 * c * r * (t - workers_self), 2 * c * r * (q * q - muls_self)),
            max(c * c * (q * q - muls_self), c * c * (t - workers_self)))


def _rounds(loads, n: int, width: int = 1) -> int:
    """Rounds of routed steps with these per-node loads, `width` units an element."""
    return sum(CliqueWorld.route_rounds(width * load, n) for load in loads)


def _block_loads(n: int, m: int, k: int) -> dict[str, int]:
    """Per-node loads of the column-block route, as `_mm_large` routes it."""
    g, w = _block_split(n, m, k)
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
    return _rounds(_block_loads(n, m, k).values(), n) if plan is None else plan.rounds()
