"""Randomized distributed linear algebra: minimal polynomial, determinant,
linear-system solving, and rank.

All four are Monte Carlo and rest on the generator of the 2n terms w A^i u
for random u, w.  Node pos holds row and column pos of A, so A x or y A for a
vector every node knows is a local dot product and one allgather (2 rounds).
The terms come by baby and giant steps (Kaltofen, ISSAC 1992, after
Paterson-Stockmeyer, SIAM J. Comput. 1973): A^s by log2 s squarings through
`mm_multi`, baby steps y_r = w A^r (r < s) from A's columns, giant steps
x_j = A^(js) u (j < ceil(2n / s)) from the rows of A^s, and term js + r =
y_r x_j at every node.  s is the power of two of fewest rounds by
`predict_rounds`, which reads the schedule that minpol runs: Theta(sqrt(n))
rounds for large n, yet below the paper's Krylov doubling,
Theta(n^(1/3) log n), at every power of two up to 2^24.  Each node runs
Berlekamp-Massey, so every retry decision is known to all nodes.  solve
starts from u = b (Wiedemann, IEEE Trans. Inf. Theory 1986), so its giant
vectors A^(js) b are formed once per call and a retry redraws only w; it
evaluates x = -g(0)^-1 h(A) b, h(z) = (g(z) - g(0)) / z, from the sums
v_r = sum_j h_(js+r) A^(js) b at every node and Horner in A, s - 1
allgathers, so every node ends up holding x.  Its s is chosen by
`predict_solve_rounds` from the same schedule.  rank_rand reads the rank
from the generator of B = U A V D, formed around two transposes; the B of
one `rank_attempt` also gives Gallai-Edmonds null(A) = V D null(B).

Guarantees assume |F| >= 4 n^2 ceil(log2 n); smaller fields get a warning.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

from .collective import allgather_scalars, share_random
from .ff import Polynomial, generating_polynomial, matmul_mod, warn_small_field
from .mm import DMat, mm_multi, predict_rounds as product_rounds
from .sim import CliqueWorld

# Attempts, each with fresh randomness, that minpol_monte_carlo, det_rand,
# solve and rank_rand make before they give up.
RETRIES = 3


class InconclusiveError(RuntimeError):
    """A Monte Carlo routine spent its retries without a verified answer."""


class SolveFailedError(InconclusiveError):
    pass


def field_size_bound(n: int) -> int:
    """4 n^2 ceil(log2 n), the field size the failure bounds here assume."""
    return 4 * n * n * max(1, math.ceil(math.log2(max(2, n))))


def _schedule(n: int, s: int) -> tuple[int, int, int]:
    """The steps for giant step s: log2 s squarings, then s - 1 baby and
    ceil(2n / s) - 1 giant steps of one allgather each."""
    return s.bit_length() - 1, s - 1, -(-2 * n // s) - 1


def _giant_step(n: int, kernel: str, solve: bool = False) -> tuple[int, int]:
    """(rounds, s) for the power of two s <= 2n of fewest rounds (the smaller
    s on a tie) when the first probe succeeds, for minpol or, with solve, for
    `solve`."""
    square = product_rounds(n, n, 1, kernel)
    step = CliqueWorld.route_rounds(n - 1, n)  # one scalar to every other node
    probe = CliqueWorld.route_rounds(2 * (n - 1), n)  # 2n coins, each node allgathers two
    options = []
    for s in (1 << e for e in range((2 * n).bit_length())):
        squarings, babies, giants = _schedule(n, s)
        # solve allgathers b, n coins, s - 1 Horner steps and its verdict
        extra = (3 + babies) * step if solve else probe
        options.append((extra + squarings * square + (babies + giants) * step, s))
    return min(options)


def predict_rounds(n: int, kernel: str = "trivial") -> int:
    """Rounds of one `minpol_monte_carlo` on n nodes whose first probe succeeds."""
    return _giant_step(n, kernel)[0]


def predict_solve_rounds(n: int, kernel: str = "trivial") -> int:
    """Rounds of one `solve` on n nodes whose first attempt is verified."""
    return _giant_step(n, kernel, solve=True)[0]


def _power(world: CliqueWorld, subset: Sequence[int], a: DMat, s: int, kernel: str) -> DMat:
    """A^s by squarings; every power stays until the caller's frame ends."""
    apow = a
    for i in range(_schedule(len(subset), s)[0]):
        apow = mm_multi(world, subset, [apow], [apow], kernel, phase=f"square{i}")[0]
    return apow


def _allgather_dot(world: CliqueWorld, subset: Sequence[int], phase: str, out_key,
                   dot: Callable) -> None:
    """Node pos puts dot(view), entry pos of a vector, under out_key; one
    allgather (2 rounds, n(n - 1) messages) replaces it by the whole vector."""
    world.run_local(subset, phase, lambda view: view.put(out_key, dot(view)))
    allgather_scalars(world, subset, phase, out_key, out_key)


def _chain(world: CliqueWorld, subset: Sequence[int], phase: str, suffix: str, key,
           count: int, start: Callable, step: Callable) -> None:
    """Steps i = 1..count, one allgather each, leave vector i of a chain under
    (key, i) at every node: vector 0 is start(view), and entry pos of vector i
    is step(view, i, vector i - 1)."""
    for i in range(1, count + 1):
        _allgather_dot(world, subset, f"{phase}{i}{suffix}", (key, i), lambda view, i=i: int(
            step(view, i, view.get((key, i - 1)) if i > 1 else start(view))))


def _giants(world: CliqueWorld, subset: Sequence[int], apow: DMat, count: int,
            u: Callable, suffix: str = "") -> None:
    """Giant steps x_j = A^(js) u (0 < j <= count) under ("kr_x", j), from the
    rows of apow = A^s; u(view) is u."""
    _chain(world, subset, "giant", suffix, "kr_x", count, u, lambda view, j, x: matmul_mod(
        view.get(apow.row_key(view.pos)), x, apow.p))


def _terms(world: CliqueWorld, subset: Sequence[int], a: DMat, s: int, u: Callable,
           w: Callable, out_key, suffix: str = "", apow: DMat | None = None) -> None:
    """The 2n terms w A^i u under out_key at every node; u(view) and w(view)
    are u and w.

    Baby steps y_r = w A^r (0 < r < s) use A's columns.  With apow = A^s,
    the giant steps x_j = A^(js) u follow and are popped with the baby
    vectors; without it, every node already holds the x_j (j < ceil(2n / s))
    and keeps them.  Term js + r = y_r x_j is formed at every node.
    """
    n = len(subset)
    p = a.p
    _, babies, giants = _schedule(n, s)
    _chain(world, subset, "baby", suffix, "kr_y", babies, w, lambda view, r, y: matmul_mod(
        y, view.get(a.col_key(view.pos)), p))
    if apow is not None:
        _giants(world, subset, apow, giants, u, suffix)

    def form(view):
        ys = np.stack([w(view), *view.pop_many(("kr_y", r) for r in range(1, s))])
        keys = [("kr_x", j) for j in range(1, giants + 1)]
        vecs = view.pop_many(keys) if apow is not None else map(view.get, keys)
        xs = np.stack([u(view), *vecs])
        view.put(out_key, matmul_mod(xs, ys.T, p).ravel()[:2 * n])

    world.run_local(subset, f"terms{suffix}", form)


def _recover(world: CliqueWorld, subset: Sequence[int], p: int, terms_key,
             out_key) -> Polynomial:
    """Every node pops its terms and leaves their generator under out_key;
    returns it."""
    last = []  # (sequence, generator): Berlekamp-Massey runs once per phase

    def recover(view):
        seq = view.pop(terms_key)
        if not (last and np.array_equal(last[0], seq)):
            last[:] = seq, generating_polynomial(seq, p)
        view.put(out_key, last[1])

    world.run_local(subset, "recover", recover)
    return world.stores[subset[0]][out_key]


def minpol_monte_carlo(world: CliqueWorld, subset: Sequence[int], a: DMat,
                       tag: str = "minpol", kernel: str = "trivial") -> Polynomial:
    """Generating polynomial of w A^i u for random u, w; equals minpol(A) whp.

    The polynomial ends up under mp_poly at every node (and is returned),
    beside the last probe under mp_vw_all; the routine's frame pops all else,
    A^s included.  Every minimal polynomial has degree >= 1, so a degree-0
    generator (an all-zero sequence) redraws u and w; InconclusiveError once
    the retries are spent.  A^s is formed once, before the first probe.
    """
    subset = tuple(subset)
    n = len(subset)
    p = a.p
    warn_small_field(p, field_size_bound(n), "minpol")
    s = _giant_step(n, kernel)[1]

    def u(view):  # the probe is u, then w
        return view.get("mp_vw_all")[:n]

    def w(view):
        return view.get("mp_vw_all")[n:]

    with world.ledger.group(world.fresh_name("minpol")), world.frame() as keep:
        keep("mp_vw_all", "mp_poly")
        apow = _power(world, subset, a, s, kernel)
        for attempt in range(RETRIES):
            suffix = f"-{attempt}" if attempt else ""
            share_random(world, subset, f"share-probe{suffix}", f"{tag}-probe{suffix}",
                         "mp_vw_all", 2 * n, lambda rng, i: rng.randrange(p))
            _terms(world, subset, a, s, u, w, "mp_terms", suffix, apow)
            poly = _recover(world, subset, p, "mp_terms", "mp_poly")
            if poly.degree >= 1:
                return poly
    raise InconclusiveError(f"minpol: every probe sequence was zero in {RETRIES} attempts")


def det_rand(world: CliqueWorld, subset: Sequence[int], a: DMat,
             tag: str = "det", kernel: str = "trivial") -> int:
    """Monte Carlo determinant of A from the generator of D A for a random
    invertible diagonal D; known at every node and returned.

    A degree-n generator, or one with zero constant term, is conclusive;
    every node holds it and D, so every node reaches the value alone.
    Anything else retries with fresh randomness; InconclusiveError once the
    retries are spent.  D (dr_d_all) and minpol's probe and generator stay at
    every node; D A is popped.
    """
    subset = tuple(subset)
    n = len(subset)
    p = a.p
    warn_small_field(p, field_size_bound(n), "det_rand")
    with world.ledger.group(world.fresh_name("detrand")), world.frame() as keep:
        keep("dr_d_all", "mp_vw_all", "mp_poly")
        for attempt in range(RETRIES):
            share_random(world, subset, f"share-diag{attempt}", f"{tag}-diag-{attempt}",
                         "dr_d_all", n, lambda rng, i: 1 + rng.randrange(p - 1))
            da = DMat(world.fresh_name("DA"), n, n, p, subset)

            def scale(view):
                pos = view.pos
                d = view.get("dr_d_all")
                view.put(da.row_key(pos), view.get(a.row_key(pos)) * int(d[pos]) % p)
                view.put(da.col_key(pos), view.get(a.col_key(pos)) * d % p)

            world.run_local(subset, "scale", scale)
            poly = minpol_monte_carlo(world, subset, da, f"{tag}-mp-{attempt}", kernel)
            m0 = poly(0)
            if poly.degree == n or m0 == 0:
                d = world.stores[subset[0]]["dr_d_all"].tolist()
                return (-1) ** n * m0 * pow(math.prod(d), -1, p) % p
    raise InconclusiveError(f"det_rand: no conclusive attempt in {RETRIES}")


def solve(world: CliqueWorld, subset: Sequence[int], a: DMat, b: np.ndarray,
          tag: str = "solve", kernel: str = "trivial") -> np.ndarray:
    """x with Ax = b, known at every node; self-verifying.

    b is the start vector (Wiedemann): the generator g of w A^i b
    annihilates b whp, and when g(0) != 0, x = -g(0)^-1 h(A) b with
    h(z) = (g(z) - g(0)) / z solves Ax = b, singular A included.  So b is
    allgathered, its giant vectors A^(js) b are formed once per call, and A^s
    is popped before the first probe.  Each attempt draws w alone (n coins),
    runs the baby steps on it and recovers g; if g(0) != 0 (b = 0 gives
    g = 1 and x = 0), every node forms v_r = sum_j h_(js+r) A^(js) b, and
    x = v_0 + A(v_1 + A(... v_(s-1))) takes s - 1 allgathers.  Raises
    SolveFailedError after the retry budget (inconsistent system, g(0) = 0,
    or repeated Monte Carlo failure); never returns an unverified answer.
    The last attempt's w, g, x and verdicts (sv_w_all, sv_poly, sv_x_all,
    sv_ok, sv_ok_all) stay at every node; the routine's frame pops all else.
    """
    subset = tuple(subset)
    n = len(subset)
    p = a.p
    warn_small_field(p, field_size_bound(n), "solve")
    b = np.asarray(b, dtype=np.int64) % p
    s = _giant_step(n, kernel, solve=True)[1]
    giants = _schedule(n, s)[2]
    blocks = -(-n // s)  # h has at most n coefficients
    held = [("kr_x", j) for j in range(1, giants + 1)]

    def start(view):
        return view.get("sv_b")

    def sums(view):  # v_r = sum_j h_(js+r) x_j, h_i = -g_(i+1) / g(0)
        g = view.get("sv_poly")
        inv = pow(g(0), -1, p)
        h = [-coef * inv % p for coef in g.coeffs[1:]] + [0] * (blocks * s - g.degree)
        xs = np.stack([start(view), *map(view.get, held[:blocks - 1])])
        view.put("sv_v", matmul_mod(np.array(h).reshape(blocks, s).T, xs, p))

    def horner(view, i, acc):  # entry pos of A acc + v_(s-1-i)
        return (int(matmul_mod(view.get(a.row_key(view.pos)), acc, p))
                + int(view.get("sv_v")[s - 1 - i, view.pos])) % p

    def check(view):
        v = view.pop("sv_v")
        x = [v[-1], *view.pop_many(("sv_acc", i) for i in range(1, s))][-1]
        view.put("sv_x_all", x)
        lhs = int(matmul_mod(view.get(a.row_key(view.pos)), x, p))
        view.put("sv_ok", 1 if lhs == int(b[view.pos]) else 0)

    with world.ledger.group(world.fresh_name("solve")), world.frame() as keep:
        keep("sv_w_all", "sv_poly", "sv_x_all", "sv_ok", "sv_ok_all")
        _allgather_dot(world, subset, "share-b", "sv_b", lambda view: int(b[view.pos]))
        with world.frame() as keep_giants:  # A^s goes before the first probe
            keep_giants(*held)
            _giants(world, subset, _power(world, subset, a, s, kernel), giants, start)
        for attempt in range(RETRIES):
            suffix = f"-{attempt}" if attempt else ""
            share_random(world, subset, f"share-w{suffix}", f"{tag}-w{suffix}", "sv_w_all",
                         n, lambda rng, i: rng.randrange(p))
            _terms(world, subset, a, s, start, lambda view: view.get("sv_w_all"),
                   "sv_terms", suffix)
            if _recover(world, subset, p, "sv_terms", "sv_poly")(0) == 0:
                continue  # every node reads this from its own sv_poly
            world.run_local(subset, f"sums{suffix}", sums)
            _chain(world, subset, "horner", suffix, "sv_acc", s - 1,
                   lambda view: view.get("sv_v")[-1], horner)
            world.run_local(subset, f"verify{suffix}", check)
            allgather_scalars(world, subset, f"okshare{suffix}", "sv_ok", "sv_ok_all")
            if int(world.stores[subset[0]]["sv_ok_all"].min()) == 1:
                return world.stores[subset[0]]["sv_x_all"].copy()
    raise SolveFailedError(
        "system unsolved: inconsistent or singular system, or repeated Monte Carlo failure")


def unit_toeplitz(pre: np.ndarray, n: int, p: int) -> tuple[np.ndarray, np.ndarray]:
    """The unit upper triangular Toeplitz U with first row [1, u_2..u_n] and the
    unit lower triangular Toeplitz V with first column [1, v_2..v_n], from
    pre = u_2..u_n, v_2..v_n (later entries are ignored); node-local."""
    pre = np.asarray(pre, dtype=np.int64) % p
    lag = np.arange(n) - np.arange(n)[:, None]  # [i, k] = k - i

    def upper(seq):  # [i, k] = seq[k - i] on and above the diagonal
        return np.where(lag >= 0, seq[np.abs(lag)], 0)

    return (upper(np.concatenate(([1], pre[:n - 1]))),
            upper(np.concatenate(([1], pre[n - 1:2 * (n - 1)]))).T)


def transpose(world: CliqueWorld, subset: Sequence[int], phase: str, src_key, dst_key) -> None:
    """Node pos holds src_key(pos), row (or column) pos of an n x n matrix, and
    afterwards also dst_key(pos), its column (or row) pos.  Entry i of each
    vector goes to position i: one routed phase of 2 rounds and n(n - 1)
    messages."""
    subset = tuple(subset)
    nodes = np.array(subset)
    n = len(subset)

    def send(view):
        yield nodes, ("tr", view.pos), view.get(src_key(view.pos))

    world.route(subset, phase, send)

    def stack(view):
        view.put(dst_key(view.pos), np.array(view.pop_many(("tr", j0) for j0 in range(n))))

    world.run_local(subset, f"{phase}-stack", stack)


def rank_attempt(world: CliqueWorld, subset: Sequence[int], a: DMat, tag: str,
                 attempt: int, kernel: str = "trivial") -> tuple[int | None, DMat]:
    """One attempt of `rank_rand`: (rank, B) for B = U A V D, which has the
    rank of A, with (U, V) of `unit_toeplitz` and D = diag(d) from fresh
    coins u_2..u_n, v_2..v_n, d (d nonzero) under rk_pre_all at every node.

    No product is routed: node pos forms column pos of U A, a transpose gives
    the rows of U A, node pos multiplies its row by V D, and a second
    transpose gives the columns of B.  For the generator g of B:
    - deg g = n and g(0) != 0: B, hence A, is invertible; rank n, certified
      (g divides the minimal polynomial of B);
    - g(0) = 0: rank deg g - 1, a lower bound (a singular matrix has rank
      >= deg minpol - 1 >= deg g - 1) that equals it whp;
    - otherwise rank None.
    B, the coins and minpol's probe and generator stay at every node; the
    caller's frame pops them.
    """
    n = len(subset)
    p = a.p
    share_random(world, subset, f"share-pre{attempt}", f"{tag}-pre-{attempt}",
                 "rk_pre_all", 3 * n - 2,  # u, v, then the diagonal
                 lambda rng, i: rng.randrange(p) if i < 2 * (n - 1) else 1 + rng.randrange(p - 1))
    ua = DMat(world.fresh_name("UA"), n, n, p, subset)
    b = DMat(world.fresh_name("B"), n, n, p, subset)

    def left(view):
        u = unit_toeplitz(view.get("rk_pre_all"), n, p)[0]
        view.put(ua.col_key(view.pos), matmul_mod(u, view.get(a.col_key(view.pos)), p))

    world.run_local(subset, "ua", left)
    transpose(world, subset, "ua-rows", ua.col_key, ua.row_key)

    def right(view):
        pos = view.pos
        pre = view.get("rk_pre_all")
        view.pop(ua.col_key(pos))
        row = matmul_mod(view.pop(ua.row_key(pos)), unit_toeplitz(pre, n, p)[1], p)
        view.put(b.row_key(pos), row * pre[2 * (n - 1):] % p)

    world.run_local(subset, "uavd", right)
    transpose(world, subset, "uavd-cols", b.row_key, b.col_key)
    poly = minpol_monte_carlo(world, subset, b, f"{tag}-mp-{attempt}", kernel)
    if poly(0) == 0:
        return poly.degree - 1, b
    return (n if poly.degree == n else None), b


def rank_rand(world: CliqueWorld, subset: Sequence[int], a: DMat,
              tag: str = "rank", kernel: str = "trivial") -> int:
    """Monte Carlo rank of A: the first rank read by up to RETRIES
    `rank_attempt`s, each with fresh coins.  InconclusiveError once they are
    spent, or from minpol_monte_carlo.  The last attempt's coins
    (rk_pre_all) and minpol's probe and generator stay at every node; each
    B is popped.
    """
    subset = tuple(subset)
    warn_small_field(a.p, field_size_bound(len(subset)), "rank_rand")
    with world.ledger.group(world.fresh_name("rankrand")), world.frame() as keep:
        keep("rk_pre_all", "mp_vw_all", "mp_poly")
        for attempt in range(RETRIES):
            rank = rank_attempt(world, subset, a, tag, attempt, kernel)[0]
            if rank is not None:
                return rank
    raise InconclusiveError(f"rank_rand: no conclusive attempt in {RETRIES}")
