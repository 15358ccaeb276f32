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
generator, and every retry decision det_rand and solve read from it is known
to all nodes without a broadcast.

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

# Attempts, each with fresh randomness, that minpol_monte_carlo, det_rand and
# solve make before they give up.
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
        pre = np.asarray(view.get(uv_key), dtype=np.int64) % p

        def upper(seq):  # row and column pos of the upper Toeplitz matrix of seq
            row = np.zeros(n, dtype=np.int64)
            col = np.zeros(n, dtype=np.int64)
            row[pos:] = seq[:n - pos]
            col[:pos + 1] = seq[pos::-1]
            return row, col

        urow, ucol = upper(np.concatenate(([1], pre[:n - 1])))
        vcol, vrow = upper(np.concatenate(([1], pre[n - 1:2 * (n - 1)])))  # V is lower
        view.put(u_dm.row_key(pos), urow)
        view.put(u_dm.col_key(pos), ucol)
        view.put(v_dm.row_key(pos), vrow)
        view.put(v_dm.col_key(pos), vcol)

    world.run_local(subset, phase, build)
    return u_dm, v_dm


def rank_rand(world: CliqueWorld, subset: Sequence[int], a: DMat,
              tag: str = "rank", kernel: str = "trivial") -> int:
    """Monte Carlo rank: n if the randomized determinant is nonzero, else one
    less than the degree of the minimal polynomial of the preconditioned matrix.

    The preconditioned matrix has minimal polynomial degree rank + 1 (whp),
    and the generator minpol_monte_carlo returns has degree 1..n, so the
    estimate is always in 0..n - 1.  InconclusiveError from det_rand or
    minpol_monte_carlo propagates."""
    subset = tuple(subset)
    n = len(subset)
    p = a.p
    _check_field_size(p, n, "rank_rand")
    if det_rand(world, subset, a, f"{tag}-det", kernel) != 0:
        return n
    with world.ledger.group(world.fresh_name("rankrand")):
        share_random(world, subset, "draw", "share-pre0", f"{tag}-pre-0",
                     "rk_pre_all",  # u, v, then the diagonal
                     lambda rng: [rng.randrange(p) for _ in range(3 * n - 2)])
        u_dm, v_dm = build_unit_toeplitz(world, subset, "rk_pre_all", p, phase="precondition")
        b1 = mm_multi(world, subset, [u_dm], [a], kernel, phase="ua0")[0]
        b2 = mm_multi(world, subset, [b1], [v_dm], kernel, phase="uav0")[0]
        b3 = DMat(world.fresh_name("BD"), n, n, p, subset)

        def diagonal(view):  # B D for D = diag(d): row pos times d, column pos times d[pos]
            pos = view.pos
            d = view.get("rk_pre_all")[2 * (n - 1):]
            view.put(b3.row_key(pos), view.get(b2.row_key(pos)) * d % p)
            view.put(b3.col_key(pos), view.get(b2.col_key(pos)) * int(d[pos]) % p)

        world.run_local(subset, "diagonal", diagonal)
        return minpol_monte_carlo(world, subset, b3, f"{tag}-mp-0", kernel).degree - 1
