"""Graph applications: shortest paths, diameter, matchings, and the
criticality decomposition of a simple graph.

Vertices are 1-based and coincide with node labels: node ell starts out
knowing row ell and column ell of the (min-plus) adjacency matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import detinv, krylov
from .collective import allgather_scalars, allgather_vectors, share_random
from .distprod import MinPlusMatrix, dist_prod, scatter_minplus
from .ff import capped_prime, matmul_mod
from .krylov import unit_toeplitz
from .mm import DMat
from .minplus import INF, INF_THRESHOLD, parse_fields, read_records
from .sim import CliqueWorld, message_bits

ZWICK_SAMPLE_C = 3.0  # the c of apsp_zwick's sample size
# Fresh substitutions matching_size tries, and gallai_edmonds' attempts,
# before they give up.
MATCHING_RETRIES = 3
GE_RETRIES = 5


class NoPerfectMatchingError(RuntimeError):
    pass


class DecompositionFailedError(krylov.InconclusiveError):
    pass


@dataclass
class WeightedGraph:
    """Simple graph with integer weights; adjacency in min-plus form."""

    n: int
    directed: bool
    bound: int                    # |weight| <= bound
    adj: np.ndarray               # n x n, INF for non-edges, zero diagonal

    @staticmethod
    def from_edges(n: int, edges: Sequence[tuple[int, int, int]], directed: bool,
                   bound: Optional[int] = None) -> "WeightedGraph":
        adj = np.full((n, n), INF, dtype=np.int64)
        np.fill_diagonal(adj, 0)
        largest = 0
        for u, v, w in edges:
            if u == v:
                raise ValueError("loops are not allowed")
            adj[u - 1, v - 1] = min(adj[u - 1, v - 1], w)
            if not directed:
                adj[v - 1, u - 1] = min(adj[v - 1, u - 1], w)
            largest = max(largest, abs(int(w)))
        return WeightedGraph(n, directed, bound if bound is not None else largest, adj)

    def edges(self) -> list[tuple[int, int, int]]:
        out = []
        for i in range(self.n):
            js = range(self.n) if self.directed else range(i + 1, self.n)
            for j in js:
                if i != j and self.adj[i, j] < INF_THRESHOLD:
                    out.append((i + 1, j + 1, int(self.adj[i, j])))
        return out

    @staticmethod
    def load(path) -> "WeightedGraph":
        """'n directed|undirected M' header, then edge lines 'u v w' with u != v
        in 1..n and |w| <= M; malformed input raises ValueError naming path:line."""
        header = "n directed|undirected M"
        (head, fields), body = read_records(path, header)
        n, bound = parse_fields(path, head, fields[::2])
        if n < 1 or bound < 0 or fields[1] not in ("directed", "undirected"):
            raise ValueError(f"{path}:{head}: expected header {header!r}, n >= 1, M >= 0")
        edges = []
        for num, line in body:
            if len(line) != 3:
                raise ValueError(f"{path}:{num}: expected an edge 'u v w'")
            u, v, w = parse_fields(path, num, line)
            if not (1 <= u <= n and 1 <= v <= n) or u == v:
                raise ValueError(f"{path}:{num}: need distinct vertices in 1..{n}, got {u} {v}")
            if abs(w) > bound:
                raise ValueError(f"{path}:{num}: weight {w} exceeds the bound M = {bound}")
            edges.append((u, v, w))
        return WeightedGraph.from_edges(n, edges, fields[1] == "directed", bound)


def distribute_graph(world: CliqueWorld, graph: WeightedGraph) -> MinPlusMatrix:
    if world.n != graph.n:
        raise ValueError("graph order must match the clique size")
    return scatter_minplus(world, world.all_nodes(), graph.adj, graph.bound)


# ------------------------------------------------------------------- APSP

def apsp_minplus_squaring(world: CliqueWorld, graph: WeightedGraph,
                          kernel: str = "trivial") -> MinPlusMatrix:
    """Exact distances by repeated distance-product squaring (deterministic);
    the distance matrix is all the stores keep.

    At most ceil(log2 n) squarings.  After squaring i, for 1 <= i <
    ceil(log2 n) - 1, every node compares its row with the one before the
    squaring (0 rounds) and one allgather of that bit (2 rounds) tells every
    node whether any row changed; if none did, D (x) D = D, so every later
    squaring would return D as it is and the loop ends.  The rounds depend on
    the input: about ceil(log2 h) + 1 squarings for shortest paths of at most
    h edges, and at most 2 (ceil(log2 n) - 2) rounds more than the full
    schedule when no row settles early (long paths, a negative cycle).
    """
    subset = world.all_nodes()
    n = graph.n
    reps = math.ceil(math.log2(n)) if n > 1 else 0
    with world.frame() as keep:
        dist = distribute_graph(world, graph)
        with world.ledger.group(world.fresh_name("apsp")):
            for i in range(reps):
                # entries after i squarings are min-weight walks of <= 2^i edges
                bound = min(2 ** i, n) * max(1, graph.bound)
                prev, dist = dist, dist_prod(world, subset, dist, dist, bound=bound,
                                             kernel=kernel, phase=f"square{i}")
                # no check after the last squaring, which skips nothing, nor
                # after the first, which stops only graphs whose shortest
                # paths are all single edges
                if not 1 <= i < reps - 1:
                    continue

                def changed(view):
                    pos = view.pos
                    view.put("apsp_changed", int(not np.array_equal(
                        view.get(prev.row_key(pos)), view.get(dist.row_key(pos)))))

                world.run_local(subset, f"changed{i}", changed)
                allgather_scalars(world, subset, f"fix{i}", "apsp_changed", "apsp_changed_all")
                if not world.stores[subset[0]]["apsp_changed_all"].any():
                    break
        keep(dist)
    return dist


def apsp_zwick(world: CliqueWorld, graph: WeightedGraph, kernel: str = "trivial",
               tag: str = "zwick") -> MinPlusMatrix:
    """Randomized directed APSP by sampled bridging sets (correct whp).

    Each iteration samples about c*n*ln(n)/s vertices, caps the connecting
    submatrices at s*M (overflowing entries become infinite), and relaxes
    through one rectangular distance product.  The distributed graph turns
    into the distance matrix in place; it is all the stores keep.
    """
    subset = world.all_nodes()
    n = graph.n
    bound_m = max(1, graph.bound)
    dist = distribute_graph(world, graph)
    iters = math.ceil(math.log(n) / math.log(1.5)) if n > 1 else 0
    with world.ledger.group(world.fresh_name("apspzwick")), world.frame():
        for it in range(1, iters + 1):
            s = 1.5 ** it
            size = min(n, math.ceil(ZWICK_SAMPLE_C * n * math.log(n) / s))
            share_sample(world, subset, f"sample{it}", f"{tag}-sample-{it}", "zw_sample_all", size)
            cap = math.ceil(s * bound_m)
            left = MinPlusMatrix(world.fresh_name("ZL"), n, size, cap, subset,
                                 has_cols=False)
            right = MinPlusMatrix(world.fresh_name("ZR"), size, n, cap, subset,
                                  has_rows=False)

            def build_sub(view):
                pos = view.pos
                ids = view.get("zw_sample_all")
                row = view.get(dist.row_key(pos))[ids]  # indexing by ids copies
                col = view.get(dist.col_key(pos))[ids]
                row[np.abs(row) > cap] = INF
                col[np.abs(col) > cap] = INF
                view.put(left.row_key(pos), row)
                view.put(right.col_key(pos), col)

            world.run_local(subset, f"submatrix{it}", build_sub)
            relaxed = dist_prod(world, subset, left, right, bound=cap,
                                kernel=kernel, phase=f"product{it}")

            def merge(view):
                pos = view.pos
                view.put(dist.row_key(pos),
                         np.minimum(view.get(dist.row_key(pos)),
                                    view.get(relaxed.row_key(pos))))
                view.put(dist.col_key(pos),
                         np.minimum(view.get(dist.col_key(pos)),
                                    view.get(relaxed.col_key(pos))))

            world.run_local(subset, f"merge{it}", merge)
    return dist


def share_sample(world: CliqueWorld, subset: Sequence[int], phase: str, label: str,
                 out_key, size: int) -> None:
    """`size` distinct positions drawn uniformly from range(n), sorted, under
    out_key at every node: coin i is uniform in [0, n - i), and every node runs
    the same partial Fisher-Yates shuffle on the shared coins."""
    n = len(subset)
    share_random(world, subset, phase, label, out_key, size,
                 lambda rng, i: rng.randrange(n - i))

    def shuffle(view):
        ids = list(range(n))
        for i, step in enumerate(view.get(out_key).tolist()):
            ids[i], ids[i + step] = ids[i + step], ids[i]
        view.put(out_key, np.array(sorted(ids[:size]), dtype=np.int64))

    world.run_local(subset, f"{phase}-shuffle", shuffle)


def diameter(world: CliqueWorld, graph: WeightedGraph,
             kernel: str = "trivial") -> int:
    """Largest pairwise distance; INF when some pair is unreachable.  The
    stores keep nothing.  Runs apsp_minplus_squaring, so its rounds depend
    on the input the same way, plus one 2-round allgather of row maxima."""
    subset = world.all_nodes()
    n = graph.n
    with world.frame():
        dist = apsp_minplus_squaring(world, graph, kernel)
        with world.ledger.group(world.fresh_name("diameter")):

            def local_max(view):
                pos = view.pos
                row = view.get(dist.row_key(pos))
                others = np.delete(row, pos)
                if others.size == 0:
                    view.put("diam_own", 0)
                elif bool((others >= INF_THRESHOLD).any()):
                    view.put("diam_own", INF)
                else:
                    view.put("diam_own", int(others.max()))

            world.run_local(subset, "row-max", local_max)
            allgather_scalars(world, subset, "diam", "diam_own", "diam_all")
        value = int(world.stores[subset[0]]["diam_all"].max(initial=0))
    return INF if value >= INF_THRESHOLD else value


# -------------------------------------------------------------- matchings

def matching_prime(n: int) -> int:
    """Least prime >= 4 n^4, the field size the matching algorithms' failure
    bounds assume, capped at FLOAT_PRIME_MAX with a warning (n >= 166)."""
    return capped_prime(max(4 * n ** 4, n + 1), "matching")


def build_tutte_instance(world: CliqueWorld, graph: WeightedGraph, p: int,
                         tag: str) -> DMat:
    """Random substitution of the skew-symmetric edge matrix, over GF(p).

    The lower-numbered endpoint of each edge draws the value and forwards it
    to the other endpoint; rows and columns then materialize locally (the
    column is the negated row).
    """
    subset = world.all_nodes()
    nodes = np.array(subset)
    n = graph.n
    out = DMat(world.fresh_name("Tutte"), n, n, p, subset)
    with world.ledger.group(world.fresh_name("tutte")):

        def draw_and_send(view):
            pos = view.pos
            adj_row = graph.adj[pos]
            rng = view.rng(f"{tag}-edge-{pos}")
            later = pos + 1 + np.flatnonzero(adj_row[pos + 1:] < INF_THRESHOLD)
            values = np.zeros(n, dtype=np.int64)
            values[later] = [rng.randrange(p) for _ in later]  # in increasing j
            view.put("tutte_vals", values)
            yield nodes[later], "tutte_x", values[later]

        world.route(subset, "exchange", draw_and_send)

        def build_rows(view):
            pos = view.pos
            adj_row = graph.adj[pos]
            # this node drew x_(pos,j) for j > pos; entry above the diagonal is -x
            row = -view.pop("tutte_vals") % p
            earlier = np.flatnonzero(adj_row[:pos] < INF_THRESHOLD)
            if earlier.size:  # x_(j,pos) from each earlier neighbour j, in order of j
                row[earlier] = view.pop("tutte_x") % p
            view.put(out.row_key(pos), row)
            view.put(out.col_key(pos), (-row) % p)

        world.run_local(subset, "assemble", build_rows)
    return out


def matching_size(world: CliqueWorld, graph: WeightedGraph, p: Optional[int] = None,
                  tag: str = "nu", kernel: str = "trivial") -> int:
    """Number of edges in a maximum matching (Monte Carlo).

    An odd rank estimate, or a rank_rand that raises InconclusiveError,
    signals failure (skew-symmetric matrices have even rank) and triggers a
    retry with a fresh substitution; InconclusiveError once they are spent.
    Each attempt runs in one frame, so the stores keep nothing.
    """
    n = graph.n
    p = p or matching_prime(n)
    subset = world.all_nodes()
    for attempt in range(MATCHING_RETRIES):
        with world.frame():
            tutte = build_tutte_instance(world, graph, p, f"{tag}-t{attempt}")
            try:
                rank = krylov.rank_rand(world, subset, tutte, f"{tag}-r{attempt}", kernel)
            except krylov.InconclusiveError:
                continue
        if rank % 2 == 0:
            return rank // 2
    raise krylov.InconclusiveError(
        f"matching_size: no even rank estimate in {MATCHING_RETRIES} attempts")


def allowed_edges(world: CliqueWorld, graph: WeightedGraph, tag: str = "allowed",
                  kernel: str = "trivial") -> set[frozenset[int]]:
    """Edges lying in at least one perfect matching (whp); 1-based endpoints.

    The inverse of one random Tutte substitution T is the certificate: T is
    nonsingular only if the graph has a perfect matching, and then edge
    {i, j} is allowed iff (T^-1)_ij != 0 (Rabin-Vazirani, J. Algorithms
    1989).  A graph with a perfect matching gets a singular T with
    probability at most n/p <= 1/(4n^3) (Schwartz-Zippel).  A singular T
    raises NoPerfectMatchingError, so an even-order graph without a perfect
    matching is refused after one char_poly; an odd order is refused before
    any phase.  The run is one frame, so the stores keep nothing.
    """
    n = graph.n
    if n % 2 != 0:
        raise NoPerfectMatchingError("graph has no perfect matching")
    with world.frame():
        tutte = build_tutte_instance(world, graph, matching_prime(n), f"{tag}-t")
        try:
            inv = detinv.inverse(world, world.all_nodes(), tutte, kernel)
        except detinv.SingularMatrixError:
            raise NoPerfectMatchingError(
                "substituted edge matrix is singular; no perfect matching (whp)") from None
        return _share_incidence(world, graph, inv, tag=f"{tag}-share")


def _share_incidence(world: CliqueWorld, graph: WeightedGraph, inv: DMat,
                     tag: str) -> set[frozenset[int]]:
    """All-to-all exchange of packed per-row allowed-edge bitmasks."""
    subset = world.all_nodes()
    n = graph.n
    word_bits = message_bits(n)
    words = math.ceil(n / word_bits)
    shifts = np.arange(word_bits, dtype=np.int64)  # bit j of a row: word j // word_bits

    def pack(view):
        pos = view.pos
        row = view.get(inv.row_key(pos))
        bits = np.zeros(words * word_bits, dtype=np.int64)
        bits[:n] = (np.asarray(row) % inv.p != 0) & (graph.adj[pos] < INF_THRESHOLD)
        return (bits.reshape(words, word_bits) << shifts).sum(axis=1)

    allgather_vectors(world, subset, tag, "ae_packed_all", [words] * n, pack)

    def unpack(view):
        bits = view.pop("ae_packed_all").reshape(n, words)[:, :, None] >> shifts & 1
        view.put("ae_all", bits.reshape(n, words * word_bits)[:, :n].astype(bool))

    world.run_local(subset, f"{tag}-unpack", unpack)
    allowed = world.stores[subset[0]]["ae_all"]
    pairs = np.argwhere(np.triu(allowed | allowed.T, 1)).tolist()  # i < j, either allowed
    return {frozenset((i + 1, j + 1)) for i, j in pairs}


# ------------------------------------------------- criticality decomposition

@dataclass(frozen=True)
class GEDecomposition:
    """Partition of the vertex set by matching criticality (1-based ids)."""

    d_set: frozenset[int]     # vertices missed by some maximum matching
    k_set: frozenset[int]     # their outside neighbors
    c_set: frozenset[int]     # everything else


def gallai_edmonds(world: CliqueWorld, graph: WeightedGraph, tag: str = "ge",
                   kernel: str = "trivial") -> GEDecomposition:
    """Criticality decomposition from one random null vector z of the edge
    matrix T: D is the support of z (Cheriyan, SIAM J. Comput. 1997), K the
    neighbors of D outside it, C the rest; correct whp at p >= 4 n^4.

    Each of the GE_RETRIES attempts is one ledger group: a fresh T and one
    `krylov.rank_attempt` on it, which leaves every node B = U T V D, its
    coins and its generator g.  Rank n gives D = K = {}, and rank 0 (T = 0)
    gives D = V with no vector.  At an even rank r in between, g(t) =
    t q(t); when g = minpol(B) and q(0) != 0, q(B) is q(0) times the
    projector onto null(B), so for n shared coins x, y = q(B) x is uniform on
    null(B) (Kaltofen-Saunders, AAECC 1991) and z = V D y is uniform on
    null(T).  Horner in B takes deg q = r allgathers; every node then forms
    z, checks z != 0 and its entry of T z, and one allgather of those flags
    decides.  An inconclusive or odd rank, q(0) = 0, z = 0 or T z != 0
    starts the next attempt.  A vertex v of D is missed only when z_v, a
    nonzero linear form in x, vanishes: probability 1/p, so at most
    |D|/p <= 1/(4 n^3) by the union bound.  Each attempt runs in one frame,
    so the stores keep nothing.
    """
    n = graph.n
    p = matching_prime(n)
    subset = world.all_nodes()
    for attempt in range(GE_RETRIES):
        with world.ledger.group(world.fresh_name("geattempt")), world.frame():
            tutte = build_tutte_instance(world, graph, p, f"{tag}-t{attempt}")
            try:
                rank, b = krylov.rank_attempt(world, subset, tutte, f"{tag}-r{attempt}", 0,
                                              kernel)
            except krylov.InconclusiveError:
                continue
            if rank is None or rank % 2 != 0:
                continue
            if rank == n:
                return GEDecomposition(frozenset(), frozenset(), frozenset(range(1, n + 1)))
            if rank == 0:
                return GEDecomposition(frozenset(range(1, n + 1)), frozenset(), frozenset())
            if _null_vector(world, subset, tutte, b, rank, f"{tag}-x{attempt}"):
                return _classify(world, graph)
    raise DecompositionFailedError("decomposition failed after retries")


def _null_vector(world: CliqueWorld, subset: tuple[int, ...], tutte: DMat, b: DMat,
                 rank: int, label: str) -> bool:
    """Whether z = V D q(B) x, for the B = U T V D, coins rk_pre_all and
    generator g = t q(t) of a `krylov.rank_attempt` of the given rank and n
    fresh coins x, is a nonzero null vector of T; if so, every node holds
    its support under ge_d_all.  q(0) = 0 draws no coins."""
    n = len(subset)
    p = b.p
    q = world.stores[subset[0]]["mp_poly"].coeffs[1:]  # every node holds g
    if q[0] == 0:
        return False
    share_random(world, subset, "share-x", label, "ge_x_all", n,
                 lambda rng, i: rng.randrange(p))

    def start(view):
        return q[rank] * view.get("ge_x_all") % p

    def horner(view, i, y):  # entry pos of B y + q_(r-i) x
        pos = view.pos
        return (int(matmul_mod(view.get(b.row_key(pos)), y, p))
                + q[rank - i] * int(view.get("ge_x_all")[pos])) % p

    krylov._chain(world, subset, "horner", "", "ge_y", rank, start, horner)

    def check(view):
        pos = view.pos
        pre = view.get("rk_pre_all")
        dy = view.get(("ge_y", rank)) * pre[2 * (n - 1):] % p
        z = matmul_mod(unit_toeplitz(pre, n, p)[1], dy, p)
        view.put("ge_d_all", z != 0)
        tz = int(matmul_mod(view.get(tutte.row_key(pos)), z, p))
        view.put("ge_ok", int(bool(z.any()) and tz == 0))

    world.run_local(subset, "check", check)
    allgather_scalars(world, subset, "okshare", "ge_ok", "ge_ok_all")
    return int(world.stores[subset[0]]["ge_ok_all"].min()) == 1


def _classify(world: CliqueWorld, graph: WeightedGraph) -> GEDecomposition:
    """D from ge_d_all at every node, K (the vertices outside D with a
    neighbor in D) from one allgather of flags, C the rest."""
    subset = world.all_nodes()

    def k_flag(view):
        pos = view.pos
        d_all = view.get("ge_d_all")
        nbrs = graph.adj[pos] < INF_THRESHOLD
        view.put("ge_k", int(not d_all[pos] and bool(d_all[nbrs].any())))

    world.run_local(subset, "kflag", k_flag)
    allgather_scalars(world, subset, "kshare", "ge_k", "ge_k_all")
    store = world.stores[subset[0]]
    d_set, k_set = (frozenset((np.flatnonzero(store[key]) + 1).tolist())
                    for key in ("ge_d_all", "ge_k_all"))
    return GEDecomposition(d_set, k_set, frozenset(range(1, graph.n + 1)) - d_set - k_set)
