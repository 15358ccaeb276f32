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
from .collective import allgather_scalars, broadcast_vector
from .distprod import MinPlusMatrix, dist_prod, scatter_minplus
from .ff import next_prime_at_least
from .krylov import build_unit_toeplitz
from .mm import DMat, mm_multi
from .minplus import INF, INF_THRESHOLD
from .sim import CliqueWorld


class NoPerfectMatchingError(RuntimeError):
    pass


class DecompositionFailedError(RuntimeError):
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

    def save(self, path) -> None:
        kind = "directed" if self.directed else "undirected"
        with open(path, "w") as fh:
            fh.write(f"{self.n} {kind} {self.bound}\n")
            for u, v, w in self.edges():
                fh.write(f"{u} {v} {w}\n")

    @staticmethod
    def load(path) -> "WeightedGraph":
        with open(path) as fh:
            lines = [ln.strip() for ln in fh if ln.strip()]
        head = lines[0].split()
        if len(head) != 3 or head[1] not in ("directed", "undirected"):
            raise ValueError(f"{path}: expected header 'n directed|undirected M'")
        n, bound = int(head[0]), int(head[2])
        directed = head[1] == "directed"
        edges = []
        for ln in lines[1:]:
            u, v, w = ln.split()
            edges.append((int(u), int(v), int(w)))
        return WeightedGraph.from_edges(n, edges, directed, bound)


def distribute_graph(world: CliqueWorld, graph: WeightedGraph) -> MinPlusMatrix:
    if world.n != graph.n:
        raise ValueError("graph order must match the clique size")
    return scatter_minplus(world, world.all_nodes(), graph.adj, graph.bound)


# ------------------------------------------------------------------- APSP

def apsp_minplus_squaring(world: CliqueWorld, graph: WeightedGraph,
                          kernel: str = "trivial") -> MinPlusMatrix:
    """Exact distances by repeated distance-product squaring (deterministic)."""
    subset = world.all_nodes()
    n = graph.n
    dist = distribute_graph(world, graph)
    reps = math.ceil(math.log2(n)) if n > 1 else 0
    with world.ledger.group(world.fresh_name("apsp")):
        for i in range(reps):
            # entries after i squarings are min-weight walks of <= 2^i edges
            bound = min(2 ** i, n) * max(1, graph.bound)
            dist = dist_prod(world, subset, dist, dist, bound=bound,
                             kernel=kernel, phase=f"square{i}")
    return dist


def apsp_zwick(world: CliqueWorld, graph: WeightedGraph, sample_c: float = 3.0,
               kernel: str = "trivial", tag: str = "zwick") -> MinPlusMatrix:
    """Randomized directed APSP by sampled bridging sets (correct whp).

    Each iteration samples about c*n*ln(n)/s vertices, caps the connecting
    submatrices at s*M (overflowing entries become infinite), and relaxes
    through one rectangular distance product.
    """
    subset = world.all_nodes()
    n = graph.n
    bound_m = max(1, graph.bound)
    dist = distribute_graph(world, graph)
    iters = math.ceil(math.log(n) / math.log(1.5)) if n > 1 else 0
    with world.ledger.group(world.fresh_name("apspzwick")):
        for it in range(1, iters + 1):
            s = 1.5 ** it
            size = min(n, math.ceil(sample_c * n * math.log(n) / s))
            if size < 1:
                size = 1

            def draw(view):
                if view.node != subset[0]:
                    return
                rng = view.rng(f"{tag}-sample-{it}")
                ids = sorted(rng.sample(range(n), size))
                view.put("zw_sample", np.array(ids, dtype=np.int64))

            world.run_local(subset, f"draw{it}", draw)
            broadcast_vector(world, subset, f"sample{it}", 0, "zw_sample", "zw_sample_all")
            cap = math.ceil(s * bound_m)
            left = MinPlusMatrix(world.fresh_name("ZL"), n, size, cap, subset,
                                 has_cols=False)
            right = MinPlusMatrix(world.fresh_name("ZR"), size, n, cap, subset,
                                  has_rows=False)

            def build_sub(view):
                pos = view.pos
                ids = view.get("zw_sample_all")
                row = view.get(dist.row_key(pos))[ids]
                col = view.get(dist.col_key(pos))[ids]
                row = row.copy()
                col = col.copy()
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


def diameter(world: CliqueWorld, graph: WeightedGraph,
             kernel: str = "trivial") -> int:
    """Largest pairwise distance; INF when some pair is unreachable."""
    subset = world.all_nodes()
    n = graph.n
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
    return next_prime_at_least(max(4 * n ** 4, n + 1))


def build_tutte_instance(world: CliqueWorld, graph: WeightedGraph, p: int,
                         tag: str) -> DMat:
    """Random substitution of the skew-symmetric edge matrix, over GF(p).

    The lower-numbered endpoint of each edge draws the value and forwards it
    to the other endpoint; rows and columns then materialize locally (the
    column is the negated row).
    """
    subset = world.all_nodes()
    n = graph.n
    out = DMat(world.fresh_name("Tutte"), n, n, p, subset)
    with world.ledger.group(world.fresh_name("tutte")):

        def draw_and_send(view):
            pos = view.pos
            adj_row = view.get(f"tutte_adj:{pos}")
            if adj_row is None:
                raise AssertionError("adjacency row missing")
            rng = view.rng(f"{tag}-edge-{pos}")
            values = np.zeros(n, dtype=np.int64)
            for j in range(pos + 1, n):
                if adj_row[j] < INF_THRESHOLD:
                    values[j] = rng.randrange(p)
            view.put("tutte_vals", values)
            for j in range(pos + 1, n):
                if adj_row[j] < INF_THRESHOLD:
                    yield subset[j], ("tutte_x", pos), int(values[j])

        def stage_adj(view):
            pos = view.pos
            view.put(f"tutte_adj:{pos}", graph.adj[pos].copy())

        world.run_local(subset, "stage", stage_adj)
        world.route(subset, "exchange", draw_and_send)

        def build_rows(view):
            pos = view.pos
            adj_row = view.get(f"tutte_adj:{pos}")
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
                  tag: str = "nu", kernel: str = "trivial", retries: int = 3) -> int:
    """Number of edges in a maximum matching (Monte Carlo).

    An odd rank estimate signals failure (skew-symmetric matrices have even
    rank) and triggers a retry with a fresh substitution.
    """
    n = graph.n
    p = p or matching_prime(n)
    subset = world.all_nodes()
    rank = 0
    for attempt in range(retries):
        tutte = build_tutte_instance(world, graph, p, f"{tag}-t{attempt}")
        rank = krylov.rank_rand(world, subset, tutte, f"{tag}-r{attempt}", kernel)
        if rank % 2 == 0:
            break
    return rank // 2


def allowed_edges(world: CliqueWorld, graph: WeightedGraph, p: Optional[int] = None,
                  tag: str = "allowed", kernel: str = "trivial",
                  retries: int = 3) -> set[frozenset[int]]:
    """Edges lying in at least one perfect matching (whp); 1-based endpoints.

    Requires the graph to have a perfect matching; raises
    NoPerfectMatchingError otherwise.
    """
    n = graph.n
    p = p or matching_prime(n)
    subset = world.all_nodes()
    if n % 2 != 0 or matching_size(world, graph, p, f"{tag}-nu", kernel) != n // 2:
        raise NoPerfectMatchingError("graph has no perfect matching")
    for attempt in range(retries):
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
    word_bits = max(1, math.ceil(2 * math.log2(max(2, n))))
    words = math.ceil(n / word_bits)

    def pack(view):
        pos = view.pos
        row = view.get(inv.row_key(pos))
        bits = (np.asarray(row) % inv.p != 0) & (graph.adj[pos] < INF_THRESHOLD)
        packed = np.zeros(words, dtype=np.int64)
        for j in range(n):
            if bits[j]:
                packed[j // word_bits] |= 1 << (j % word_bits)
        view.put("ae_packed", packed)

    world.run_local(subset, f"{tag}-pack", pack)

    def spread(view):
        packed = view.get("ae_packed")
        for node in subset:
            yield node, ("ae_from", view.node), packed

    world.route(subset, f"{tag}-exchange", spread)

    def unpack(view):
        allowed = np.zeros((n, n), dtype=bool)
        for i, node in enumerate(subset):
            packed = view.pop(("ae_from", node))
            for j in range(n):
                if packed[j // word_bits] >> (j % word_bits) & 1:
                    allowed[i, j] = True
        view.put("ae_all", allowed)

    world.run_local(subset, f"{tag}-unpack", unpack)
    allowed = world.stores[subset[0]]["ae_all"]
    out: set[frozenset[int]] = set()
    for i in range(n):
        for j in range(i + 1, n):
            if allowed[i, j] or allowed[j, i]:
                out.add(frozenset((i + 1, j + 1)))
    return out


# ------------------------------------------------- criticality decomposition

@dataclass(frozen=True)
class GEDecomposition:
    """Partition of the vertex set by matching criticality (1-based ids)."""

    d_set: frozenset[int]     # vertices missed by some maximum matching
    k_set: frozenset[int]     # their outside neighbors
    c_set: frozenset[int]     # everything else


def gallai_edmonds(world: CliqueWorld, graph: WeightedGraph, p: Optional[int] = None,
                   tag: str = "ge", kernel: str = "trivial",
                   retries: int = 5) -> GEDecomposition:
    """Criticality decomposition via a null-space basis of the edge matrix.

    Self-checking: the candidate basis must annihilate the matrix, and the
    leading block inversion must succeed; failures retry with fresh
    randomness.  Correct with high probability at p >= 4 n^4.
    """
    n = graph.n
    p = p or matching_prime(n)
    subset = world.all_nodes()
    for attempt in range(retries):
        tutte = build_tutte_instance(world, graph, p, f"{tag}-t{attempt}")
        rank = krylov.rank_rand(world, subset, tutte, f"{tag}-r{attempt}", kernel)
        if rank % 2 != 0:
            continue
        if rank >= n:
            return GEDecomposition(frozenset(), frozenset(),
                                   frozenset(range(1, n + 1)))
        basis = _null_space_basis(world, subset, tutte, rank,
                                  f"{tag}-b{attempt}", kernel)
        if basis is None:
            continue
        if not _verify_null_basis(world, subset, tutte, basis, rank, kernel):
            continue
        return _classify(world, graph, basis, n - rank)
    raise DecompositionFailedError("decomposition failed after retries")


def _null_space_basis(world: CliqueWorld, subset: tuple[int, ...], tutte: DMat,
                      rank: int, tag: str, kernel: str) -> Optional[DMat]:
    """n x (n - rank) matrix whose columns span the right null space (whp).

    Returns the matrix padded to n columns, distributed rows+cols; None when
    the leading block of the preconditioned matrix is singular.
    """
    n = len(subset)
    p = tutte.p

    def draw(view):
        if view.node != subset[0]:
            return
        rng = view.rng(f"{tag}-uv")
        view.put("ge_uv", np.array([rng.randrange(p) for _ in range(2 * (n - 1))],
                                   dtype=np.int64))

    world.run_local(subset, "draw", draw)
    broadcast_vector(world, subset, f"{tag}-uv", 0, "ge_uv", "ge_uv_all")
    u_dm, v_dm = build_unit_toeplitz(world, subset, "ge_uv_all", p, phase="toeplitz")
    ua = mm_multi(world, subset, [u_dm], [tutte], kernel, phase="ua")[0]
    nmat = mm_multi(world, subset, [ua], [v_dm], kernel, phase="uav")[0]

    if rank == 0:
        # null space is everything; V itself is a basis
        return v_dm

    sub_r = subset[:rank]
    n11 = DMat(world.fresh_name("N11"), rank, rank, p, sub_r)

    def slice_n11(view):
        pos = view.pos
        if pos >= rank:
            return
        view.put(n11.row_key(pos), view.get(nmat.row_key(pos))[:rank])
        view.put(n11.col_key(pos), view.get(nmat.col_key(pos))[:rank])

    world.run_local(subset, "slice", slice_n11)
    try:
        inv11 = detinv.inverse(world, sub_r, n11, kernel)
    except detinv.SingularMatrixError:
        return None

    tail = n - rank

    def send_n12(view):
        pos = view.pos
        if pos < rank:
            return
        j0 = pos - rank
        col = view.get(nmat.col_key(pos))[:rank]
        yield sub_r[j0 % rank], ("ge_n12", j0), col

    world.route(subset, "moveN12", send_n12)

    chunks = math.ceil(tail / rank)
    rhs_list = []
    for g in range(chunks):
        rhs = DMat(world.fresh_name("N12"), rank, rank, p, sub_r, has_rows=False)

        def stage(view, g=g, rhs=rhs):
            pos = view.pos
            j0 = g * rank + pos
            col = view.get(("ge_n12", j0)) if j0 < tail else None
            if col is None:
                col = np.zeros(rank, dtype=np.int64)
            view.put(rhs.col_key(pos), col)

        world.run_local(sub_r, f"stageN12-{g}", stage)
        rhs_list.append(rhs)
    x_chunks = mm_multi(world, sub_r, [inv11] * chunks, rhs_list, kernel,
                        phase="solve-tail")

    # columns of [[ -X ], [ I ]] routed to their final owners, padded to n
    y_mat = DMat(world.fresh_name("Y"), n, n, p, subset, has_rows=False)

    def send_x(view):
        pos = view.pos  # sub_r is a prefix of subset
        if pos >= rank:
            return
        for g in range(chunks):
            j0 = g * rank + pos
            if j0 < tail:
                col = view.get(x_chunks[g].col_key(pos))
                yield subset[j0], ("ge_x", j0), col

    world.route(subset, "moveX", send_x)

    def build_y(view):
        pos = view.pos
        col = np.zeros(n, dtype=np.int64)
        if pos < tail:
            xcol = view.pop(("ge_x", pos))
            col[:rank] = (-xcol) % p
            col[rank + pos] = 1
        view.put(y_mat.col_key(pos), col)

    world.run_local(subset, "buildY", build_y)
    return mm_multi(world, subset, [v_dm], [y_mat], kernel, phase="basis")[0]


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
