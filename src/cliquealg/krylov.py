"""Randomized distributed linear algebra: minimal polynomial, determinant,
linear-system solving, and rank.

All four are Monte Carlo.  The probe sequence w A^i v is built by doubling a
column band (band i holds A^0 u .. A^(2^i - 1) u) and squaring the power of A
alongside, so 2*log2(L) - 1 batched product calls generate L Krylov columns.
The L columns are held as a list of n x n column-held chunks, column j being
column j mod n of chunk j // n, so one `mm_multi` call multiplies a whole band.
The sequence length is 2n: recovering a linear recurrence of degree up to n
needs 2n terms.  Every node receives all 2n projected terms and runs
Berlekamp-Massey itself (node-local work is free), so every node holds the
generator, and every retry decision det_rand, solve and rank_rand read from
it is known to all nodes without a broadcast.

rank_rand needs one generator per attempt: that of B = U A V D for random
unit Toeplitz U, V and a random nonzero diagonal D, which every node knows,
so B is formed by two transposes and no routed product.  deg g = n with
g(0) != 0 certifies full rank; g(0) = 0 gives deg g - 1, a lower bound on
the rank that equals it whp; anything else retries.

Guarantees assume |F| >= 4 n^2 ceil(log2 n); smaller fields only get a warning
so that toy instances remain runnable.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .collective import allgather_scalars, share_random
from .ff import Polynomial, generating_polynomial, matmul_mod, warn_small_field
from .mm import DMat, mm_multi
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


def _check_field_size(p: int, n: int, what: str) -> None:
    warn_small_field(p, field_size_bound(n), what)


def _next_pow2(x: int) -> int:
    return 1 << max(0, (x - 1).bit_length())


def krylov_sequence(world: CliqueWorld, subset: Sequence[int], a: DMat,
                    u_key, length: int, kernel: str = "trivial") -> list[DMat]:
    """Column j of the n x length matrix [u, Au, ..., A^(length-1) u] for a
    power of two `length`, as n x n column-held chunks: column j is column
    j mod n of chunk j // n, at the node in position j mod n.

    Every node must hold the start vector as the first n entries of the
    vector under u_key; later entries are ignored.  Step i multiplies
    the chunks the band of 2^i columns occupies by A^(2^i) in one `mm_multi`
    call.  Once n divides the band, the products are the next chunks as they
    stand; before that, their columns are routed into chunks zero-filled by
    the seed step.
    """
    subset = tuple(subset)
    n = len(subset)
    p = a.p
    if length & (length - 1):
        raise ValueError("sequence length must be a power of two")
    # the chunks that routed steps write into: when n divides length, only chunk 0
    # (every band below n fits in it, and every later band is whole chunks)
    filled = 1 if length % n == 0 else -(-length // n)
    chunks = [DMat(world.fresh_name("K"), n, n, p, subset, has_rows=False)
              for _ in range(filled)]
    with world.ledger.group(world.fresh_name("krylov")):

        def init(view):
            for chunk in chunks:
                view.put(chunk.col_key(view.pos), np.zeros(n, dtype=np.int64))
            if view.pos == 0:
                view.put(chunks[0].col_key(0),
                         np.asarray(view.get(u_key)[:n], dtype=np.int64) % p)

        world.run_local(subset, "seed", init)
        apow = a
        band = 1
        steps = int(math.log2(length))
        for i in range(steps):
            used = -(-band // n)
            prods = mm_multi(world, subset, [apow] * used, chunks[:used], kernel,
                             phase=f"apply{i}")
            if band % n == 0:
                chunks[used:2 * used] = prods
            else:

                def shift(view):  # product column j0 is sequence column band + j0
                    for j0 in range(view.pos, band, n):
                        j1 = band + j0
                        yield (subset[j1 % n], chunks[j1 // n].col_key(j1 % n),
                               view.pop(prods[j0 // n].col_key(view.pos)))

                world.route(subset, "place", shift)
            band *= 2
            if i != steps - 1:
                apow = mm_multi(world, subset, [apow], [apow], kernel,
                                phase=f"square{i}")[0]
    return chunks


def minpol_monte_carlo(world: CliqueWorld, subset: Sequence[int], a: DMat,
                       tag: str = "minpol", kernel: str = "trivial") -> Polynomial:
    """Generating polynomial of w A^i v for random v, w; equals minpol(A) whp.

    Every node receives all 2n projected terms and recovers the generator
    itself, so the polynomial ends up under mp_poly at every node (and is
    returned), and every decision read from it is known to all nodes.  Every
    minimal polynomial has degree >= 1, so a degree-0 generator (an all-zero
    sequence) redraws v and w; InconclusiveError once the retries are spent.
    """
    subset = tuple(subset)
    nodes = np.array(subset)
    n = len(subset)
    p = a.p
    _check_field_size(p, n, "minpol")
    length = _next_pow2(2 * n)
    with world.ledger.group(world.fresh_name("minpol")):
        for attempt in range(RETRIES):
            suffix = f"-{attempt}" if attempt else ""
            share_random(world, subset, "draw", f"share-probe{suffix}", f"{tag}-probe{suffix}",
                         "mp_vw_all", lambda rng: [rng.randrange(p) for _ in range(2 * n)])
            chunks = krylov_sequence(world, subset, a, "mp_vw_all", length, kernel)

            def project(view):  # terms j0 = pos and pos + n; w is the probe's tail
                cols = np.stack([view.get(chunk.col_key(view.pos)) for chunk in chunks[:2]])
                terms = matmul_mod(cols, view.get("mp_vw_all")[n:], p)
                yield nodes, ("mp_term", view.node), np.broadcast_to(terms, (n, 2))

            world.route(subset, f"project{suffix}", project)
            last = []  # (sequence, generator): Berlekamp-Massey runs once per phase

            def recover(view):
                seq = np.stack(view.pop_many(("mp_term", node) for node in subset)).T.ravel()
                if not (last and np.array_equal(last[0], seq)):
                    last[:] = seq, generating_polynomial(seq, p)
                view.put("mp_poly", last[1])

            world.run_local(subset, "recover", recover)
            poly = world.stores[subset[0]]["mp_poly"]
            if poly.degree >= 1:
                return poly
    raise InconclusiveError(f"minpol: every probe sequence was zero in {RETRIES} attempts")


def det_rand(world: CliqueWorld, subset: Sequence[int], a: DMat,
             tag: str = "det", kernel: str = "trivial") -> int:
    """Monte Carlo determinant of A from the generator of D A for a random
    invertible diagonal D; known at every node and returned.

    A degree-n generating polynomial, or one with zero constant term, is
    conclusive.  Every node holds the generator and D, so every node reaches
    the verdict and the value without further communication.  Anything else
    triggers a retry with fresh randomness, and InconclusiveError once the
    retries are spent.
    """
    subset = tuple(subset)
    n = len(subset)
    p = a.p
    _check_field_size(p, n, "det_rand")
    with world.ledger.group(world.fresh_name("detrand")):
        for attempt in range(RETRIES):
            share_random(world, subset, "draw", f"share-diag{attempt}", f"{tag}-diag-{attempt}",
                         "dr_d_all", lambda rng: [1 + rng.randrange(p - 1) for _ in range(n)])
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

        def send_b(view):  # node pos holds b[pos]; the seed reads b at position 0
            yield subset[0], ("sv_b", view.pos), int(b[view.pos])

        world.route(subset, "gather-b", send_b)

        def stage_b(view):
            if view.pos == 0:
                view.put("sv_b", np.array(view.pop_many(("sv_b", j0) for j0 in range(n))))

        world.run_local(subset, "stage", stage_b)
        for attempt in range(RETRIES):
            poly = minpol_monte_carlo(world, subset, a, f"{tag}-mp-{attempt}", kernel)
            if poly(0) == 0:  # every node reads this from its own mp_poly
                continue
            length = _next_pow2(n)
            chunks = krylov_sequence(world, subset, a, "sv_b", length, kernel)

            def scatter_terms(view):  # length >= n, so column pos is in chunk 0
                g = view.get("mp_poly")
                coef = g.coeffs[view.pos + 1] if view.pos < g.degree else 0
                col = view.get(chunks[0].col_key(view.pos))
                term = (-coef * pow(g(0), -1, p) % p) * col % p
                yield nodes, ("sv_part", view.pos), term

            world.route(subset, f"terms{attempt}", scatter_terms)

            def accumulate(view):
                total = 0
                for j0 in range(n):
                    total += int(view.pop(("sv_part", j0), 0))
                view.put("sv_x", total % p)

            world.run_local(subset, "sum", accumulate)
            allgather_scalars(world, subset, f"xshare{attempt}", "sv_x", "sv_x_all")

            def check(view):
                pos = view.pos
                x_all = view.get("sv_x_all")
                lhs = int(matmul_mod(view.get(a.row_key(pos)) % p, x_all, p))
                view.put("sv_ok", 1 if lhs == int(b[pos]) else 0)

            world.run_local(subset, "verify", check)
            allgather_scalars(world, subset, f"okshare{attempt}", "sv_ok", "sv_ok_all")
            flags = world.stores[subset[0]]["sv_ok_all"]
            if int(flags.min()) == 1:
                return world.stores[subset[0]]["sv_x_all"].copy()
    raise SolveFailedError(
        "system unsolved: matrix singular or repeated Monte Carlo failure")


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


def precondition(world: CliqueWorld, subset: Sequence[int], a: DMat, pre_key) -> DMat:
    """B = U A V D, rows and columns, for the pair (U, V) of `unit_toeplitz` and
    D = diag(d).  Every node holds, under pre_key, u_2..u_n, v_2..v_n and then
    d (D = I when d is absent).

    Every node knows U, V and D, so no product is routed: node pos forms
    column pos of U A from column pos of A, a transpose gives the rows of U A,
    node pos multiplies its row by V D, and a second transpose gives the
    columns of B.  Two routed phases of 2 rounds and n(n - 1) messages each.
    """
    subset = tuple(subset)
    n = len(subset)
    p = a.p
    ua = DMat(world.fresh_name("UA"), n, n, p, subset)
    out = DMat(world.fresh_name("B"), n, n, p, subset)

    def left(view):
        u = unit_toeplitz(view.get(pre_key), n, p)[0]
        view.put(ua.col_key(view.pos), matmul_mod(u, view.get(a.col_key(view.pos)), p))

    world.run_local(subset, "ua", left)
    transpose(world, subset, "ua-rows", ua.col_key, ua.row_key)

    def right(view):
        pos = view.pos
        pre = view.get(pre_key)
        d = pre[2 * (n - 1):] if len(pre) > 2 * (n - 1) else 1
        view.pop(ua.col_key(pos))
        row = matmul_mod(view.pop(ua.row_key(pos)), unit_toeplitz(pre, n, p)[1], p)
        view.put(out.row_key(pos), row * d % p)

    world.run_local(subset, "uavd", right)
    transpose(world, subset, "uavd-cols", out.row_key, out.col_key)
    return out


def rank_rand(world: CliqueWorld, subset: Sequence[int], a: DMat,
              tag: str = "rank", kernel: str = "trivial") -> int:
    """Monte Carlo rank from the generator g of B = U A V D, for random unit
    Toeplitz U, V and a random diagonal D with nonzero entries, so that B has
    the rank of A.

    Each attempt draws fresh coins and runs one `minpol_monte_carlo` on B:
    - deg g = n and g(0) != 0: B, hence A, is invertible, and n is returned
      (certified: g divides the minimal polynomial of B);
    - g(0) = 0: deg g - 1 is returned, a lower bound on the rank (a singular
      matrix has rank >= deg minpol - 1 >= deg g - 1) that equals it whp;
    - anything else retries; InconclusiveError once RETRIES attempts are
      spent.  InconclusiveError from minpol_monte_carlo propagates.
    Every node holds g, so every node reaches the same decision.
    """
    subset = tuple(subset)
    n = len(subset)
    p = a.p
    _check_field_size(p, n, "rank_rand")
    with world.ledger.group(world.fresh_name("rankrand")):
        for attempt in range(RETRIES):
            share_random(world, subset, "draw", f"share-pre{attempt}", f"{tag}-pre-{attempt}",
                         "rk_pre_all",  # u, v, then the diagonal
                         lambda rng: ([rng.randrange(p) for _ in range(2 * (n - 1))]
                                      + [1 + rng.randrange(p - 1) for _ in range(n)]))
            b = precondition(world, subset, a, "rk_pre_all")
            poly = minpol_monte_carlo(world, subset, b, f"{tag}-mp-{attempt}", kernel)
            if poly(0) == 0:
                return poly.degree - 1
            if poly.degree == n:
                return n
    raise InconclusiveError(f"rank_rand: no conclusive attempt in {RETRIES}")
