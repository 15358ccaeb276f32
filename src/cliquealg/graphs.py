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
from .krylov import transpose, unit_toeplitz
from .mm import DMat, identity_dmat, mm_multi
from .minplus import INF, INF_THRESHOLD, parse_fields, read_records
from .sim import CliqueWorld, message_bits

ZWICK_SAMPLE_C = 3.0  # the c of apsp_zwick's sample size
# Fresh substitutions matching_size and allowed_edges try, and
# gallai_edmonds' attempts, before they give up.
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
    the distance matrix is all the stores keep."""
    subset = world.all_nodes()
    n = graph.n
    reps = math.ceil(math.log2(n)) if n > 1 else 0
    with world.frame() as keep:
        dist = distribute_graph(world, graph)
        with world.ledger.group(world.fresh_name("apsp")):
            for i in range(reps):
                # entries after i squarings are min-weight walks of <= 2^i edges
                bound = min(2 ** i, n) * max(1, graph.bound)
                dist = dist_prod(world, subset, dist, dist, bound=bound,
                                 kernel=kernel, phase=f"square{i}")
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
    stores keep nothing."""
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
            yield nodes[later], ("tutte_x", pos), values[later]

        world.route(subset, "exchange", draw_and_send)

        def build_rows(view):
            pos = view.pos
            adj_row = graph.adj[pos]
            row = np.zeros(n, dtype=np.int64)
            own = view.pop("tutte_vals")
            for j in range(n):
                if j == pos or adj_row[j] >= INF_THRESHOLD:
                    continue
                if j > pos:
                    # this node drew x_(pos,j); entry above the diagonal is -x
                    row[j] = (-int(own[j])) % p
                else:
                    row[j] = int(view.pop(("tutte_x", j))) % p
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

    Requires the graph to have a perfect matching; raises
    NoPerfectMatchingError otherwise.  Each attempt runs in one frame, so the
    stores keep nothing.
    """
    n = graph.n
    p = matching_prime(n)
    subset = world.all_nodes()
    if n % 2 != 0 or matching_size(world, graph, p, f"{tag}-nu", kernel) != n // 2:
        raise NoPerfectMatchingError("graph has no perfect matching")
    for attempt in range(MATCHING_RETRIES):
        with world.frame():
            tutte = build_tutte_instance(world, graph, p, f"{tag}-t{attempt}")
            try:
                inv = detinv.inverse(world, subset, tutte, kernel)
            except detinv.SingularMatrixError:
                continue
            return _share_incidence(world, graph, inv, tag=f"{tag}-share{attempt}")
    raise NoPerfectMatchingError(
        "substituted edge matrix stayed singular; no perfect matching (whp)")


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

    allgather_vectors(world, subset, tag, "ae_packed_all", pack)

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
    """Criticality decomposition via a null-space basis of the edge matrix T
    (Cheriyan, SIAM J. Comput. 1997); correct whp at p >= 4 n^4.

    Each of the GE_RETRIES attempts is one ledger group: a fresh T and one
    `krylov.rank_attempt` on it, whose B and coins give the basis at an even
    rank below n.  An inconclusive or odd rank, a singular leading block, or
    a basis that fails to annihilate T starts the next attempt.  Each attempt
    also runs in one frame, so the stores keep nothing.
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
            basis = _null_space_basis(world, subset, b, rank, kernel)
            if basis is not None and _verify_null_basis(world, subset, tutte, basis, rank,
                                                        kernel):
                return _classify(world, graph, basis, n - rank)
    raise DecompositionFailedError("decomposition failed after retries")


def _null_space_basis(world: CliqueWorld, subset: tuple[int, ...], b: DMat,
                      rank: int, kernel: str) -> Optional[DMat]:
    """n x (n - rank) matrix whose columns span null(T) = V D null(B) (whp),
    for the B = U T V D of a `krylov.rank_attempt` and its coins rk_pre_all
    at every node; padded to n columns, distributed rows+cols.

    None when the leading block N11 of B is singular.  Only the first rank
    nodes invert N11, so a routed `verdict` phase tells the others the
    outcome either way.  Column pos of the basis is V (d o y) for column pos
    y of Y = [[-X], [I]], X = N11^-1 N12, formed where y is and transposed
    for the rows; at rank 0 it is the identity.  N11, its inverse, N12 and
    X stay in the stores until the caller's frame ends.
    """
    n = len(subset)
    nodes = np.array(subset)
    p = b.p
    if rank == 0:
        return identity_dmat(world, subset, n, p)
    basis = DMat(world.fresh_name("basis"), n, n, p, subset)
    sub_r = subset[:rank]
    tail = n - rank
    n11 = DMat(world.fresh_name("N11"), rank, rank, p, sub_r)
    # column j0 of N12 is column j0 mod rank of chunk j0 // rank, zero-padded
    n12 = [DMat(world.fresh_name("N12"), rank, rank, p, sub_r, has_rows=False)
           for _ in range(math.ceil(tail / rank))]

    def slice_n11(view):
        pos = view.pos
        if pos >= rank:
            return
        view.put(n11.row_key(pos), view.get(b.row_key(pos))[:rank])
        view.put(n11.col_key(pos), view.get(b.col_key(pos))[:rank])
        for chunk in n12:
            view.put(chunk.col_key(pos), np.zeros(rank, dtype=np.int64))

    world.run_local(subset, "slice", slice_n11)
    try:
        inv11 = detinv.inverse(world, sub_r, n11, kernel)
    except detinv.SingularMatrixError:
        inv11 = None

    def send_verdict(view):  # only sub_r learned whether N11 is invertible
        if view.pos == 0:
            yield nodes[rank:], "ge_n11_ok", np.full(tail, int(inv11 is not None))

    world.route(subset, "verdict", send_verdict)
    if inv11 is None:
        return None

    def send_n12(view):
        pos = view.pos
        if pos < rank:
            return
        g, j0 = divmod(pos - rank, rank)
        yield sub_r[j0], n12[g].col_key(j0), view.get(b.col_key(pos))[:rank]

    world.route(subset, "moveN12", send_n12)
    x_chunks = mm_multi(world, sub_r, [inv11] * len(n12), n12, kernel, phase="solve-tail")

    def send_x(view):  # column j0 of X goes to position j0
        pos = view.pos  # sub_r is a prefix of subset
        if pos >= min(rank, tail):
            return
        dsts = nodes[pos:tail:rank]
        yield dsts, "ge_x", np.stack([view.get(x_chunks[g].col_key(pos))
                                      for g in range(len(dsts))])

    world.route(subset, "moveX", send_x)

    def build_basis(view):  # column pos of V (d o y)
        pos = view.pos
        y = np.zeros(n, dtype=np.int64)
        if pos < tail:
            y[:rank] = -view.pop("ge_x")
            y[rank + pos] = 1
        pre = view.get("rk_pre_all")
        v = unit_toeplitz(pre, n, p)[1]
        view.put(basis.col_key(pos), matmul_mod(v, y * pre[2 * (n - 1):] % p, p))

    world.run_local(subset, "basis", build_basis)
    transpose(world, subset, "basis-rows", basis.col_key, basis.row_key)
    return basis


def _verify_null_basis(world: CliqueWorld, subset: tuple[int, ...], tutte: DMat,
                       basis: DMat, rank: int, kernel: str) -> bool:
    n = len(subset)
    check = mm_multi(world, subset, [tutte], [basis], kernel, phase="check")[0]

    def flag(view):
        pos = view.pos
        row = view.get(check.row_key(pos))
        view.put("ge_ok", 1 if int((row[:max(1, n - rank)] % tutte.p).max(initial=0)) == 0
                 else 0)

    world.run_local(subset, "flag", flag)
    allgather_scalars(world, subset, "okshare", "ge_ok", "ge_ok_all")
    return int(world.stores[subset[0]]["ge_ok_all"].min()) == 1


def _classify(world: CliqueWorld, graph: WeightedGraph, basis: DMat,
              tail: int) -> GEDecomposition:
    subset = world.all_nodes()
    n = graph.n
    p = basis.p

    def d_flag(view):
        pos = view.pos
        row = view.get(basis.row_key(pos)) % p
        view.put("ge_d", 1 if int(row[:tail].max(initial=0)) != 0 else 0)

    world.run_local(subset, "dflag", d_flag)
    allgather_scalars(world, subset, "dshare", "ge_d", "ge_d_all")

    def k_flag(view):
        pos = view.pos
        d_all = view.get("ge_d_all")
        if d_all[pos]:
            view.put("ge_k", 0)
            return
        nbrs = graph.adj[pos] < INF_THRESHOLD
        nbrs[pos] = False
        view.put("ge_k", 1 if bool((d_all[np.where(nbrs)[0]] == 1).any()) else 0)

    world.run_local(subset, "kflag", k_flag)
    allgather_scalars(world, subset, "kshare", "ge_k", "ge_k_all")
    d_all = world.stores[subset[0]]["ge_d_all"]
    k_all = world.stores[subset[0]]["ge_k_all"]
    d_set = frozenset(i + 1 for i in range(n) if d_all[i])
    k_set = frozenset(i + 1 for i in range(n) if k_all[i])
    c_set = frozenset(range(1, n + 1)) - d_set - k_set
    return GEDecomposition(d_set, k_set, c_set)
