"""Command-line harness: run algorithms on files or generated instances,
verify against the centralized oracles, benchmark round scaling, and query
the complexity planner.

Exit codes: 0 = pass, 1 = verification failure or no verified answer,
2 = usage error or an input the algorithm refuses.
"""

from __future__ import annotations

import argparse
import hashlib
import math
import random
import sys
from typing import Optional

import numpy as np

from . import __version__, detinv, distprod, graphs, krylov, mm, oracles, planner
from .ff import capped_prime, check_prime, matmul_mod
from .minplus import INF, INF_THRESHOLD, format_entry, parse_fields, read_pair_file, read_records
from .sim import CliqueWorld

ALGORITHMS = (
    "mm", "distprod", "det", "inverse", "minpol", "solve", "rank",
    "apsp", "apsp-zwick", "diameter", "matching-size", "allowed-edges",
    "gallai-edmonds",
)

ORACLE_SIZE_CAP = {
    "matching-size": 12, "allowed-edges": 12, "gallai-edmonds": 10,
}
DEFAULT_ORACLE_CAP = 64
# the algorithms that compute over GF(p) for a prime --field-prime may set
FIELD_ALGORITHMS = ("mm", "det", "inverse", "minpol", "rank", "solve")
MONTE_CARLO = {"minpol", "solve", "rank", "apsp-zwick", "matching-size",
               "allowed-edges", "gallai-edmonds"}


class UsageError(ValueError):
    pass


def default_prime(algorithm: str, n: int) -> int:
    if algorithm in ("matching-size", "allowed-edges", "gallai-edmonds"):
        return graphs.matching_prime(n)
    bound = 101  # the Krylov bound is below it for n <= 3
    if algorithm in ("minpol", "solve", "rank"):
        bound = max(bound, krylov.field_size_bound(n))
    return capped_prime(max(bound, n + 1), algorithm)


# ----------------------------------------------------------- instance model

class Instance:
    """One concrete problem instance plus its oracle hooks."""

    def __init__(self, algorithm: str, n: int, descriptor: str, payload: dict):
        self.algorithm = algorithm
        self.n = n
        self.descriptor = descriptor
        self.payload = payload


def parse_gen_spec(spec: str) -> dict:
    parts = spec.split(":")
    kind = parts[0]
    params = {}
    if len(parts) > 1 and parts[1]:
        for item in parts[1].split(","):
            key, _, value = item.partition("=")
            params[key] = value
    return {"kind": kind, **params}


def _number(raw, what: str, low, parse=int):
    """parse(raw) if it is at least `low`; otherwise a UsageError naming `what`."""
    try:
        value = parse(raw)
    except ValueError:
        raise UsageError(f"{what}: expected {parse.__name__}, got {raw!r}") from None
    if not value >= low:
        raise UsageError(f"{what}: must be at least {low}, got {raw}")
    return value


def _rand_matrix(rng: random.Random, rows: int, cols: int, p: int) -> np.ndarray:
    return np.array([[rng.randrange(p) for _ in range(cols)] for _ in range(rows)],
                    dtype=np.int64).reshape(rows, cols)  # also when rows == 0


def _rand_invertible(rng: random.Random, n: int, p: int) -> np.ndarray:
    while True:
        mat = _rand_matrix(rng, n, n, p)
        if oracles.det_mod(mat, p) != 0:
            return mat


def _rand_minplus(rng: random.Random, rows: int, cols: int, bound: int) -> np.ndarray:
    """Entries uniform in [-bound, bound] with probability 0.8, else INF."""
    out = np.full((rows, cols), INF, dtype=np.int64)
    for i in range(rows):
        for j in range(cols):
            if rng.random() < 0.8:
                out[i, j] = rng.randrange(-bound, bound + 1)
    return out


def _rand_graph(rng: random.Random, n: int, prob: float, bound: int,
                directed: bool) -> graphs.WeightedGraph:
    """Random graph; negative directed weights come from node potentials,
    which makes every cycle nonnegative by construction."""
    adj = np.full((n, n), INF, dtype=np.int64)
    np.fill_diagonal(adj, 0)
    if directed and bound >= 1:
        phi = [rng.randrange(bound) for _ in range(n)]
        for i in range(n):
            for j in range(n):
                if i != j and rng.random() < prob:
                    adj[i, j] = rng.randrange(0, 2) + phi[i] - phi[j]
    else:
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < prob:
                    w = rng.randrange(0, bound + 1)
                    adj[i, j] = adj[j, i] = w
    return graphs.WeightedGraph(n, directed, bound, adj)


def _check_input_prime(p: int, where: str) -> None:
    try:
        check_prime(p)
    except ValueError as exc:
        raise UsageError(f"{where}: {exc}") from None


def _matrix_prime(algorithm: str, n: int, p: int) -> int:
    """The deterministic det/inverse divide by 1..n, so they need p > n."""
    if algorithm in ("det", "inverse") and p <= n:
        raise UsageError(f"{algorithm} needs a prime above n = {n}, got {p}")
    return p


def build_instance(algorithm: str, gen: Optional[str], input_path: Optional[str],
                   seed: int, field_prime: Optional[int]) -> Instance:
    rng = random.Random(seed ^ 0x5EED)
    if field_prime is not None:
        if algorithm not in FIELD_ALGORITHMS:
            raise UsageError(f"--field-prime: {algorithm} takes no prime; "
                             f"only {', '.join(FIELD_ALGORITHMS)} do")
        _check_input_prime(field_prime, "--field-prime")
    if input_path is not None:
        return _instance_from_file(algorithm, input_path, field_prime)
    spec = parse_gen_spec(gen) if gen else {"kind": "default"}
    kind = spec.get("kind", "default")

    def field(key, default, low=1, parse=int):
        return _number(spec.get(key, default), f"--gen field {key}", low, parse)

    n = field("n", 8)
    if algorithm == "mm":
        m = field("m", n)
        k = field("k", 1)
        p = field_prime or default_prime(algorithm, n)
        mats_a = [_rand_matrix(rng, n, m, p) for _ in range(k)]
        mats_b = [_rand_matrix(rng, m, n, p) for _ in range(k)]
        return Instance(algorithm, n, f"gen:mm:n={n},m={m},k={k},p={p}",
                        {"a": mats_a, "b": mats_b, "p": p})
    if algorithm == "distprod":
        m = field("m", n)
        bound = field("M", 3, low=0)
        a = _rand_minplus(rng, n, m, bound)
        b = _rand_minplus(rng, m, n, bound)
        return Instance(algorithm, n, f"gen:minplus:n={n},m={m},M={bound}",
                        {"a": a, "b": b, "M": bound})
    if algorithm in ("det", "inverse", "minpol", "rank", "solve"):
        p = _matrix_prime(algorithm, n, field_prime or default_prime(algorithm, n))
        if algorithm == "inverse" or algorithm == "solve":
            mat = _rand_invertible(rng, n, p)
        elif algorithm == "rank" and kind == "lowrank":
            r = field("r", n // 2, low=0)
            mat = matmul_mod(_rand_matrix(rng, n, r, p), _rand_matrix(rng, r, n, p), p)
        else:
            mat = _rand_matrix(rng, n, n, p)
        payload = {"mat": mat, "p": p}
        if algorithm == "solve":
            payload["b"] = np.array([rng.randrange(p) for _ in range(n)])
        return Instance(algorithm, n, f"gen:{kind}:n={n},p={p}", payload)
    # graph algorithms
    bound = field("M", 1, low=0)
    directed = spec.get("directed", "0") not in ("0", "false", "no")
    if algorithm in ("apsp", "apsp-zwick", "diameter"):
        directed = directed or algorithm == "apsp-zwick"
    if kind == "path":
        graph = graphs.WeightedGraph.from_edges(
            n, [(i, i + 1, 1) for i in range(1, n)], directed=False, bound=1)
        desc = f"gen:path:n={n}"
    elif kind == "cycle":
        n = field("n", 8, low=2)  # n = 1 would be a loop
        edges = [(i, i + 1, 1) for i in range(1, n)] + [(n, 1, 1)]
        graph = graphs.WeightedGraph.from_edges(n, edges, directed=False, bound=1)
        desc = f"gen:cycle:n={n}"
    elif kind == "complete":
        edges = [(i, j, 1) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
        graph = graphs.WeightedGraph.from_edges(n, edges, directed=False, bound=1)
        desc = f"gen:complete:n={n}"
    else:
        prob = field("p", 0.5, low=0, parse=float)
        if prob > 1:
            raise UsageError(f"--gen field p: a probability is at most 1, got {prob}")
        graph = _rand_graph(rng, n, prob, bound, directed)
        desc = f"gen:gnp:n={n},p={prob},M={bound},directed={int(directed)}"
    return Instance(algorithm, n, desc, {"graph": graph})


def _instance_from_file(algorithm: str, path: str,
                        field_prime: Optional[int]) -> Instance:
    if algorithm in ("mm",):
        raise UsageError("mm accepts generated instances only")
    if algorithm == "distprod":
        a, b, bound = _as_usage(read_pair_file, path)
        return Instance(algorithm, a.shape[0], f"file:{path}",
                        {"a": a, "b": b, "M": bound})
    if algorithm in ("det", "inverse", "minpol", "rank", "solve"):
        rows, p, b_row = _as_usage(load_matrix_file, path)
        n = len(rows)
        p = _matrix_prime(algorithm, n, field_prime or p)
        payload = {"mat": np.array([[x % p for x in row] for row in rows], dtype=np.int64),
                   "p": p}
        if algorithm == "solve":
            if b_row is None:
                raise UsageError("solve input file needs a trailing b row")
            payload["b"] = np.array([x % p for x in b_row], dtype=np.int64)
        return Instance(algorithm, n, f"file:{path}", payload)
    graph = _as_usage(graphs.WeightedGraph.load, path)
    return Instance(algorithm, graph.n, f"file:{path}", {"graph": graph})


def _as_usage(fn, *args):
    """fn(*args), with its ValueError (a malformed file, or an exponent or
    curve the planner refuses) reported as a usage error."""
    try:
        return fn(*args)
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def load_matrix_file(path):
    """'n n p' header, n integer rows, optional extra row holding b.

    Returns (rows, p, b row or None) with the entries as unreduced ints, so
    the caller reduces them mod the prime it actually runs with.
    """
    (head, fields), body = read_records(path, "n n p")
    n, n2, p = parse_fields(path, head, fields)
    if n != n2 or n < 1:
        raise UsageError(f"{path}:{head}: expected a square matrix with n >= 1")
    _check_input_prime(p, f"{path}:{head}")
    if len(body) not in (n, n + 1):
        raise UsageError(f"{path}: expected {n} rows (plus optional b row)")
    rows = []
    for num, fields in body:
        if len(fields) != n:
            raise UsageError(f"{path}:{num}: expected {n} entries")
        rows.append(parse_fields(path, num, fields))
    return rows[:n], p, (rows[n] if len(rows) == n + 1 else None)


# --------------------------------------------------------------- execution

class RunReport:
    def __init__(self, algorithm: str, descriptor: str, seed: int,
                 output_text: str, verdict: str, world: CliqueWorld):
        self.algorithm = algorithm
        self.descriptor = descriptor
        self.seed = seed
        self.output_text = output_text
        self.verdict = verdict
        self.ledger_text = world.ledger.to_text()
        self.rounds = world.ledger.total_rounds
        self.messages = world.ledger.total_messages

    def digest(self) -> str:
        return hashlib.sha256(self.output_text.encode()).hexdigest()

    def render(self) -> str:
        lines = [
            f"algorithm: {self.algorithm}",
            f"input: {self.descriptor}",
            f"seed: {self.seed}",
            f"version: {__version__}",
            f"output-digest: sha256:{self.digest()}",
            f"verdict: {self.verdict}",
            f"rounds: {self.rounds}",
            f"messages: {self.messages}",
            "output:",
            self.output_text.rstrip("\n"),
            "ledger:",
            self.ledger_text.rstrip("\n"),
        ]
        return "\n".join(lines) + "\n"


def _matrix_text(mat: np.ndarray) -> str:
    return "\n".join(" ".join(str(int(v)) for v in row) for row in mat) + "\n"


def _minplus_text(mat: np.ndarray) -> str:
    return "\n".join(" ".join(format_entry(v) for v in row) for row in mat) + "\n"


def execute(instance: Instance, seed: int, kernel: str) -> tuple[str, str, CliqueWorld]:
    """Run one algorithm on a fresh world; returns (output text, verdict)."""
    algorithm = instance.algorithm
    pay = instance.payload
    n = instance.n
    cap = ORACLE_SIZE_CAP.get(algorithm, DEFAULT_ORACLE_CAP)
    world = CliqueWorld(n, seed=seed)
    sub = world.all_nodes()
    verdict = "unchecked"
    if algorithm == "mm":
        p = pay["p"]
        a_dms = [mm.scatter_matrix(world, sub, a, p, has_cols=False) for a in pay["a"]]
        b_dms = [mm.scatter_matrix(world, sub, b, p, has_rows=False) for b in pay["b"]]
        outs = mm.mm_multi(world, sub, a_dms, b_dms, kernel)
        res = [mm.gather_matrix(world, dm) for dm in outs]
        if n <= cap:
            want = [oracles.mat_mult(a, b, p) for a, b in zip(pay["a"], pay["b"])]
            verdict = "pass" if all(np.array_equal(x, y) for x, y in zip(res, want)) else "fail"
        text = "".join(_matrix_text(r) for r in res)
    elif algorithm == "distprod":
        a = distprod.scatter_minplus(world, sub, pay["a"], pay["M"], has_cols=False)
        b = distprod.scatter_minplus(world, sub, pay["b"], pay["M"], has_rows=False)
        strategy = pay.get("strategy", "auto")
        if strategy == "dft":
            out = distprod.dist_prod_dft(world, sub, a, b, kernel=kernel)
        elif strategy == "semiring":
            out = distprod.dist_prod_semiring(world, sub, a, b)
        else:
            out = distprod.dist_prod(world, sub, a, b, kernel=kernel)
        res = distprod.gather_minplus(world, out)
        if n <= cap:
            verdict = ("pass" if np.array_equal(
                res, oracles.minplus_product(pay["a"], pay["b"])) else "fail")
        text = _minplus_text(res)
    elif algorithm in ("det", "inverse", "minpol", "rank", "solve"):
        p = pay["p"]
        dm = mm.scatter_matrix(world, sub, pay["mat"], p)
        if algorithm == "det":
            value = detinv.det(world, sub, dm, kernel)
            if n <= cap:
                verdict = "pass" if value == oracles.det_mod(pay["mat"], p) else "fail"
            text = f"{value}\n"
        elif algorithm == "inverse":
            out = detinv.inverse(world, sub, dm, kernel)
            res = mm.gather_matrix(world, out)
            if n <= cap:
                verdict = ("pass" if np.array_equal(
                    res, oracles.inverse_mod(pay["mat"], p)) else "fail")
            text = _matrix_text(res)
        elif algorithm == "minpol":
            poly = krylov.minpol_monte_carlo(world, sub, dm, f"cli-{seed}", kernel)
            if n <= cap:
                verdict = ("pass" if list(poly.coeffs) ==
                           oracles.minpol_mod(pay["mat"], p) else "fail")
            text = " ".join(str(c) for c in poly.coeffs) + "\n"
        elif algorithm == "rank":
            value = krylov.rank_rand(world, sub, dm, f"cli-{seed}", kernel)
            if n <= cap:
                verdict = "pass" if value == oracles.rank_mod(pay["mat"], p) else "fail"
            text = f"{value}\n"
        else:
            x = krylov.solve(world, sub, dm, pay["b"], f"cli-{seed}", kernel)
            check = oracles.mat_mult(pay["mat"], x.reshape(-1, 1), p).ravel()
            verdict = "pass" if np.array_equal(check, pay["b"] % p) else "fail"
            text = " ".join(str(int(v)) for v in x) + "\n"
    elif algorithm in ("apsp", "apsp-zwick"):
        graph = pay["graph"]
        if algorithm == "apsp":
            out = graphs.apsp_minplus_squaring(world, graph, kernel)
        else:
            out = graphs.apsp_zwick(world, graph, kernel=kernel, tag=f"cli-{seed}")
        res = distprod.gather_minplus(world, out)
        if n <= cap:
            verdict = ("pass" if np.array_equal(
                res, oracles.floyd_warshall(graph.adj)) else "fail")
        text = _minplus_text(res)
    elif algorithm == "diameter":
        graph = pay["graph"]
        value = graphs.diameter(world, graph, kernel)
        if n <= cap:
            dist = oracles.floyd_warshall(graph.adj)
            off = dist[~np.eye(n, dtype=bool)]
            want = INF if off.size and bool((off >= INF_THRESHOLD).any()) \
                else (int(off.max()) if off.size else 0)
            verdict = "pass" if value == want else "fail"
        text = format_entry(value) + "\n"
    elif algorithm == "matching-size":
        graph = pay["graph"]
        value = graphs.matching_size(world, graph, tag=f"cli-{seed}", kernel=kernel)
        if n <= cap:
            pairs = [(u - 1, v - 1) for u, v, _ in graph.edges()]
            want = oracles.max_matching_size(oracles.graph_adj_sets(n, pairs))
            verdict = "pass" if value == want else "fail"
        text = f"{value}\n"
    elif algorithm == "allowed-edges":
        graph = pay["graph"]
        edges = graphs.allowed_edges(world, graph, tag=f"cli-{seed}", kernel=kernel)
        listing = sorted(tuple(sorted(e)) for e in edges)
        if n <= cap:
            pairs = [(u - 1, v - 1) for u, v, _ in graph.edges()]
            want = {tuple(sorted(x + 1 for x in e))
                    for e in oracles.allowed_edges_oracle(n, pairs)}
            verdict = "pass" if set(listing) == want else "fail"
        text = "".join(f"{u} {v}\n" for u, v in listing) or "(none)\n"
    elif algorithm == "gallai-edmonds":
        graph = pay["graph"]
        ge = graphs.gallai_edmonds(world, graph, tag=f"cli-{seed}", kernel=kernel)
        if n <= cap:
            pairs = [(u - 1, v - 1) for u, v, _ in graph.edges()]
            dw, kw, cw = oracles.gallai_edmonds_oracle(n, pairs)
            verdict = ("pass" if ge.d_set == frozenset(v + 1 for v in dw)
                       and ge.k_set == frozenset(v + 1 for v in kw) else "fail")
        text = ("D: " + " ".join(str(v) for v in sorted(ge.d_set)) + "\n"
                "K: " + " ".join(str(v) for v in sorted(ge.k_set)) + "\n"
                "C: " + " ".join(str(v) for v in sorted(ge.c_set)) + "\n")
    else:
        raise UsageError(f"unknown algorithm {algorithm!r}")
    return text, verdict, world


# -------------------------------------------------------------- subcommands

def cmd_run(args) -> int:
    if args.algorithm not in ALGORITHMS:
        raise UsageError(f"unknown algorithm {args.algorithm!r}")
    if args.strategy != "auto" and args.algorithm != "distprod":
        raise UsageError(f"--strategy: {args.algorithm} has one strategy; only distprod "
                         "takes dft or semiring")
    instance = build_instance(args.algorithm, args.gen, args.input, args.seed,
                              args.field_prime)
    if args.strategy != "auto":
        instance.payload["strategy"] = args.strategy
    text, verdict, world = execute(instance, args.seed, args.kernel)
    report = RunReport(args.algorithm, instance.descriptor, args.seed, text,
                       verdict, world)
    rendered = report.render()
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(rendered)
    sys.stdout.write(rendered)
    return 0 if verdict != "fail" else 1


def cmd_verify(args) -> int:
    if args.algorithm not in ALGORITHMS:
        raise UsageError(f"unknown algorithm {args.algorithm!r}")
    _number(args.trials, "--trials", 1)
    passes = 0
    for trial in range(args.trials):
        seed = args.seed + trial
        instance = build_instance(args.algorithm, args.gen, None, seed,
                                  args.field_prime)
        try:
            text, verdict, _ = execute(instance, seed, args.kernel)
        except krylov.InconclusiveError:  # no answer counts as a wrong one
            verdict = "fail"
        if verdict == "unchecked":
            raise UsageError("instance size exceeds the oracle capacity")
        ok = verdict == "pass"
        passes += int(ok)
        print(f"trial {trial}: {'ok' if ok else 'MISMATCH'}")
    threshold = 0.95 * args.trials if args.algorithm in MONTE_CARLO else args.trials
    print(f"{passes}/{args.trials} passed")
    return 0 if passes >= threshold else 1


BENCH_ALGOS = ("mm", "mm-k", "det-deterministic", "inverse-deterministic",
               "minpol", "det-rand", "solve", "distprod", "apsp")
PER_LOG = {"minpol", "det-rand", "solve"}


def _bench_once(name: str, n: int, k: int, seed: int, kernel: str) -> CliqueWorld:
    rng = random.Random(seed)
    world = CliqueWorld(n, seed=seed)
    sub = world.all_nodes()
    p = default_prime("minpol", n)
    if name in ("mm", "mm-k"):
        a_dms = [mm.scatter_matrix(world, sub, _rand_matrix(rng, n, n, 101), 101,
                                   has_cols=False) for _ in range(k)]
        b_dms = [mm.scatter_matrix(world, sub, _rand_matrix(rng, n, n, 101), 101,
                                   has_rows=False) for _ in range(k)]
        mm.mm_multi(world, sub, a_dms, b_dms, kernel)
    elif name in ("det-deterministic", "inverse-deterministic"):
        p_det = default_prime("det", n)
        mat = _rand_matrix(rng, n, n, p_det)
        dm = mm.scatter_matrix(world, sub, mat, p_det)
        if name == "det-deterministic":
            detinv.det(world, sub, dm, kernel)
        else:
            try:
                detinv.inverse(world, sub, dm, kernel)
            except detinv.SingularMatrixError:
                pass  # a singular draw is charged for its char_poly alone
    elif name in ("minpol", "det-rand", "solve"):
        dm = mm.scatter_matrix(world, sub, _rand_matrix(rng, n, n, p), p)
        # solve raises, with chance ~ 1/p, only if the draw is singular and b
        # outside its image, or b's annihilator has a zero constant term
        if name == "solve":
            b = np.array([rng.randrange(p) for _ in range(n)])
            krylov.solve(world, sub, dm, b, f"bench-{seed}", kernel)
        else:
            run = krylov.minpol_monte_carlo if name == "minpol" else krylov.det_rand
            run(world, sub, dm, f"bench-{seed}", kernel)
    elif name == "distprod":
        a = distprod.scatter_minplus(world, sub, _rand_minplus(rng, n, n, 3), 3,
                                     has_cols=False)
        b = distprod.scatter_minplus(world, sub, _rand_minplus(rng, n, n, 3), 3,
                                     has_rows=False)
        distprod.dist_prod(world, sub, a, b)
    elif name == "apsp":
        graph = _rand_graph(rng, n, 0.3, 3, False)
        graphs.apsp_minplus_squaring(world, graph, kernel)
    else:
        raise UsageError(f"unknown bench target {name!r}")
    return world


def fit_slope(xs, ys) -> float:
    lx = [math.log(x) for x in xs]
    ly = [math.log(max(y, 1e-9)) for y in ys]
    mx = sum(lx) / len(lx)
    my = sum(ly) / len(ly)
    num = sum((a - mx) * (b - my) for a, b in zip(lx, ly))
    den = sum((a - mx) ** 2 for a in lx)
    return num / den


def cmd_bench(args) -> int:
    if args.algorithm not in BENCH_ALGOS:
        raise UsageError(f"unknown bench target {args.algorithm!r}; "
                         f"choose from {', '.join(BENCH_ALGOS)}")
    if args.algorithm == "mm-k":
        size = _number(args.size, "--size", 2)
        xs = [_number(x, "--k-list", 1) for x in args.k_list.split(",")]
        shapes = [(size, k) for k in xs]
    else:
        xs = sorted(_number(x, "--sizes", 2) for x in args.sizes.split(","))
        shapes = [(n, 1) for n in xs]
    if len(shapes) < 4 or len(set(xs)) < 2:
        raise UsageError("need at least 4 sweep points, 2 of them distinct, for a slope fit")
    rows = ["n,k,m,kernel,phase,rounds,messages"]
    totals = []
    for n, k in shapes:
        world = _bench_once(args.algorithm, n, k, args.seed, args.kernel)
        for path, rec in world.ledger.leaves():
            rows.append(f"{n},{k},{n},{args.kernel},{path},{rec.rounds},{rec.messages}")
        total = world.ledger.total_rounds
        rows.append(f"{n},{k},{n},{args.kernel},total,{total},{world.ledger.total_messages}")
        totals.append(total)
        print(f"n={n} k={k}: rounds={total} messages={world.ledger.total_messages}")
    ys = [t / math.log2(n) if args.algorithm in PER_LOG else t
          for (n, _), t in zip(shapes, totals)]
    slope = fit_slope(xs, ys)
    label = "rounds/log2(n)" if args.algorithm in PER_LOG else "rounds"
    print(f"fitted log-log slope of {label}: {slope:.4f}")
    if args.out:
        with open(args.out, "w") as fh:
            fh.write("\n".join(rows) + "\n")
    return 0


def _load_curve(token: str) -> planner.OmegaCurve:
    if token in ("trivial", "strassen"):
        return planner.OmegaCurve.for_kernel(token)
    if token.startswith("omega:"):
        return planner.OmegaCurve.constant(float(token.split(":", 1)[1]))
    return planner.load_curve_file(token)


def cmd_plan(args) -> int:
    if args.query in ("theorem1", "dis"):
        curve = _as_usage(_load_curve, args.curve)
        est = _as_usage(planner.theorem1_exponent, args.a, args.b, curve)
        label = "products" if args.query == "theorem1" else "distance product"
        print(f"{label}: regime={est.regime} gamma={est.gamma:.6f} "
              f"exponent={est.exponent:.6f}")
    elif args.query == "zwick":
        if args.curves:
            paths = args.curves.split(",")
            if len(paths) != 2:
                raise UsageError(f"--curves: expected LEFT,RIGHT, got {args.curves!r}")
            arg = tuple(_as_usage(planner.load_cost_file, path) for path in paths)
        elif args.curve:
            arg = _as_usage(_load_curve, args.curve)
        else:
            arg = planner.bundled_zwick_curves()
        sigma, exponent = planner.zwick_exponent(arg)
        print(f"zwick: sigma*={sigma:.6f} exponent={exponent:.6f}")
    else:
        raise UsageError(f"unknown plan query {args.query!r}")
    return 0


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cliquealg",
        description="Congested-clique algebraic algorithm suite")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run one algorithm and emit a report")
    run.add_argument("algorithm")
    run.add_argument("--input", help="instance file")
    run.add_argument("--gen", help="generator spec, e.g. gnp:n=10,p=0.5")
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--field-prime", type=int)
    run.add_argument("--kernel", choices=("trivial", "strassen"), default="trivial")
    run.add_argument("--strategy", choices=("auto", "dft", "semiring"),
                     default="auto")
    run.add_argument("--out", help="report output path")
    run.set_defaults(func=cmd_run)

    verify = sub.add_parser("verify", help="compare against oracles over trials")
    verify.add_argument("algorithm")
    verify.add_argument("--trials", type=int, default=20)
    verify.add_argument("--seed", type=int, default=0)
    verify.add_argument("--gen")
    verify.add_argument("--field-prime", type=int)
    verify.add_argument("--kernel", choices=("trivial", "strassen"), default="trivial")
    verify.set_defaults(func=cmd_verify)

    bench = sub.add_parser("bench", help="round-complexity sweeps")
    bench.add_argument("algorithm")
    bench.add_argument("--sizes", default="16,32,64,128,256")
    bench.add_argument("--size", type=int, default=64, help="fixed n for mm-k")
    bench.add_argument("--k-list", default="1,2,4,8")
    bench.add_argument("--seed", type=int, default=0)
    bench.add_argument("--kernel", choices=("trivial", "strassen"), default="trivial")
    bench.add_argument("--out", help="CSV output path")
    bench.set_defaults(func=cmd_bench)

    plan = sub.add_parser("plan", help="evaluate complexity formulas")
    plan.add_argument("query", choices=("theorem1", "dis", "zwick"))
    plan.add_argument("--a", type=float, default=0.0)
    plan.add_argument("--b", type=float, default=1.0)
    plan.add_argument("--curve", help="trivial | strassen | omega:X | FILE")
    plan.add_argument("--curves", help="LEFT,RIGHT sampled cost files (zwick)")
    plan.set_defaults(func=cmd_plan)
    return parser


def main(argv=None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    if args.command == "plan" and args.query in ("theorem1", "dis") and not args.curve:
        args.curve = "trivial"
    try:
        if getattr(args, "gen", None) and getattr(args, "input", None):
            raise UsageError("--gen and --input are mutually exclusive")
        return args.func(args)
    except (UsageError, OSError,  # OSError: missing or unreadable input file
            detinv.SingularMatrixError, graphs.NoPerfectMatchingError,
            distprod.StrategyUnsupportedError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except krylov.InconclusiveError as exc:
        print(f"error: {exc}", file=sys.stderr)  # no verified answer exists
        return 1


if __name__ == "__main__":
    sys.exit(main())
