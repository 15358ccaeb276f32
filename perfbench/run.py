"""cliquealg benchmark: one workload per process, end-to-end or traced.

    python3 perfbench/run.py --workload four-step --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the program is imported from
./src.  The run prepares the workload's instances from the seed, then
repeats passes over them (one instance at a time, each in a fresh world)
until --seconds have elapsed.  Every output is checked against an exact
reference.  The last line of standard output is one JSON object with the
end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1); the
metric names and units come from BENCHMARK.json.

End-to-end times are in reference seconds: each measured interval is scaled
by REF_CAL_S over the duration of a fixed calibration kernel timed right
before and after it, so the host's speed, which can drift twofold between
runs on a shared machine, cancels out.  A traced run alternates
untraced and traced passes, writes the last traced pass's spans to
perfbench/out/, and exits with code 1 if a required layer recorded no
calls or the self times do not add up to the traced wall time.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"
IMPORT_SAMPLES = 5
# Duration of calibrate() that defines one reference second; the kernel ran
# in 7-13 ms on the 2-vCPU host this was tuned on.
REF_CAL_S = 0.010
PROGRAM_MODULES = ("cliquealg.sim", "cliquealg.mm", "cliquealg.distprod",
                   "cliquealg.detinv", "cliquealg.krylov", "cliquealg.graphs")
# Self times must add up to the traced wall time within this much: the
# remainder is the span bookkeeping of the entry call itself.
CLOSURE_TOL_S = 1e-3
CLOSURE_TOL_REL = 1e-3


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def import_program():
    """Import cliquealg from this checkout's src/ and nowhere else."""
    sys.path.insert(0, str(SRC))
    import cliquealg
    if not Path(cliquealg.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"cliquealg resolved outside {SRC}: {cliquealg.__file__}")


def calibrate() -> float:
    """Seconds for a fixed mix of dict stores, small array ops and int64 products.

    The mix resembles the simulator's own work, so it slows down with the
    host in the same proportion.
    """
    import numpy as np
    vec = np.arange(256, dtype=np.int64)
    mat = np.arange(64 * 64, dtype=np.int64).reshape(64, 64) % 101
    start = time.perf_counter()
    store = {}
    for i in range(3000):
        store[("k", i)] = vec[i % 128:i % 128 + 64] * 3 % 101
    total = sum(int(v[0]) for v in store.values())
    for _ in range(4):
        total += int((mat @ mat % 101)[0, 0])
    return time.perf_counter() - start


def time_imports() -> list[float]:
    """Reference seconds to import the program's modules, each sample in a
    fresh interpreter, scaled by calibrations around it."""
    code = (f"import sys, time\nsys.path.insert(0, {str(SRC)!r})\n"
            "t = time.perf_counter()\n"
            f"import {', '.join(PROGRAM_MODULES)}\n"
            "print(time.perf_counter() - t)\n")
    samples = []
    for _ in range(IMPORT_SAMPLES):
        cal = calibrate()
        done = subprocess.run([sys.executable, "-c", code], cwd=ROOT, capture_output=True,
                              text=True, timeout=120, check=True)
        cal = (cal + calibrate()) / 2
        samples.append(float(done.stdout.strip().splitlines()[-1]) * REF_CAL_S / cal)
    return samples


def canonical(output) -> bytes:
    import numpy as np
    if isinstance(output, np.ndarray):
        return f"{output.dtype}{output.shape}".encode() + output.tobytes()
    return repr(output).encode()


def run_pass(cases, seed: int, tracer=None) -> dict:
    """Run every case once; time set-up and entry calls separately.

    `wall` and `setup` are in reference seconds, `wall_raw` in host seconds.
    """
    from cliquealg.sim import CliqueWorld
    digest = hashlib.sha256()
    res = {"wall": 0.0, "wall_raw": 0.0, "setup": 0.0, "calib": [],
           "rounds": 0, "messages": 0, "phases": 0,
           "failed": [], "wrong_deterministic": [], "per_case": []}
    for idx, case in enumerate(cases):
        cal = calibrate()
        t0 = time.perf_counter()
        world = CliqueWorld(case.n, seed=seed)
        placed = case.place(world)
        t1 = time.perf_counter()
        error = None
        try:
            if tracer is None:
                result = case.call(world, placed)
            else:
                result = tracer.entry(idx, case.call, world, placed)
        except Exception as exc:  # a raising instance counts as failed, the run goes on
            error = exc
            traceback.print_exc(file=sys.stderr)
        t2 = time.perf_counter()
        cal = (cal + calibrate()) / 2
        res["calib"].append(cal)
        res["wall"] += (t2 - t1) * REF_CAL_S / cal
        res["wall_raw"] += t2 - t1
        res["setup"] += (t1 - t0) * REF_CAL_S / cal
        output = f"raised {type(error).__name__}" if error else case.read(world, result)
        ok = error is None and bool(case.check(output))
        if not ok:
            res["failed"].append(case.name)
            if not case.monte_carlo:
                res["wrong_deterministic"].append(case.name)
        ledger = world.ledger
        res["rounds"] += ledger.total_rounds
        res["messages"] += ledger.total_messages
        res["phases"] += len(ledger.leaves())
        res["per_case"].append((case.name, ledger.total_rounds, ledger.total_messages, ok))
        for part in (case.name.encode(), ledger.to_text().encode(), canonical(output)):
            digest.update(len(part).to_bytes(8, "big"))
            digest.update(part)
    res["digest"] = digest.hexdigest()
    return res


def _median(values):
    """Median of timings; counts repeat exactly, so they stay whole numbers."""
    if all(isinstance(v, int) for v in values):
        return statistics.median_low(values)
    return statistics.median(values)


def layer_checks(workload: str, tracer, wall: float) -> list[str]:
    """Coverage and self-time closure of one traced pass; returns the problems."""
    from bench_workloads import REQUIRED_LAYERS
    problems = [f"layer {prefix} recorded no calls"
                for prefix in REQUIRED_LAYERS[workload] if tracer.calls_of(prefix) == 0]
    negative = [name for name, value in tracer.self_s.items() if value < -1e-9]
    if negative:
        problems.append(f"negative self time in {negative}")
    attributed = sum(tracer.self_s.values())
    if abs(attributed - wall) > CLOSURE_TOL_S + CLOSURE_TOL_REL * wall:
        problems.append(f"self times sum to {attributed:.6f} s, traced wall is {wall:.6f} s")
    return problems


def write_spans(workload: str, seed: int, tracer) -> Path:
    from bench_trace import SPAN_FIELDS
    OUT.mkdir(exist_ok=True)
    path = OUT / f"spans-{workload}.json"
    t0 = tracer.spans[0][1] if tracer.spans else 0.0
    rows = [[name, round(start - t0, 9), round(end - t0, 9), parent, inst]
            for name, start, end, parent, inst in tracer.spans]
    with open(path, "w") as fh:
        json.dump({"workload": workload, "seed": seed, "fields": list(SPAN_FIELDS),
                   "spans": rows}, fh, separators=(",", ":"))
    return path


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    try:
        import_program()
    except ImportError as exc:
        print(f"run.py: cannot import cliquealg from {SRC}: {exc}", file=sys.stderr)
        return 2
    import bench_trace
    import bench_workloads
    if args.workload not in bench_workloads.WORKLOADS:
        print(f"run.py: unknown workload {args.workload!r}; choose from "
              f"{', '.join(bench_workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    cases = bench_workloads.prepare(args.workload, args.seed)
    plain, traced = [], []
    deadline = time.perf_counter() + args.seconds
    while True:
        plain.append(run_pass(cases, args.seed))
        if args.trace:
            tracer = bench_trace.Tracer()
            with bench_trace.installed(tracer):
                traced.append((run_pass(cases, args.seed, tracer), tracer))
        if time.perf_counter() >= deadline:
            break

    passes = plain + [res for res, _ in traced]
    first = plain[0]
    for name, rounds, messages, ok in first["per_case"]:
        print(f"{name}: rounds={rounds} messages={messages} {'ok' if ok else 'FAILED'}")
    print(f"digest {args.workload} {first['digest']}")
    repeatable = all((res["digest"], res["rounds"], res["messages"]) ==
                     (first["digest"], first["rounds"], first["messages"]) for res in passes)
    if not repeatable:
        print("passes disagree: ledgers or outputs changed between identical passes",
              file=sys.stderr)
    wrong = sorted({name for res in passes for name in res["wrong_deterministic"]})
    if wrong:
        print(f"deterministic instances answered wrongly: {wrong}", file=sys.stderr)
    attempted = len(cases) * len(passes)
    failed = sum(len(res["failed"]) for res in passes)

    if args.trace:
        problems = []
        for res, tracer in traced:
            problems += layer_checks(args.workload, tracer, res["wall_raw"])
        if problems:
            print("traced run failed its checks:\n  " + "\n  ".join(sorted(set(problems))),
                  file=sys.stderr)
            return 1
        per_pass = []
        for res, tracer in traced:
            values = tracer.layer_metrics()
            values["sim.ledger.phases"] = res["phases"]
            values["trace.wall_s"] = res["wall_raw"]
            values["bench.calib_s"] = statistics.median(res["calib"])
            per_pass.append(values)
        values = {name: _median([v[name] for v in per_pass]) for name in per_pass[0]}
        values["trace.overhead_s"] = (values["trace.wall_s"]
                                      - statistics.median(res["wall_raw"] for res in plain))
        path = write_spans(args.workload, args.seed, traced[-1][1])
        print(f"spans of the last traced pass: {path.relative_to(ROOT)}")
        declared = spec["per_layer"]
    else:
        values = {
            "wall_s": statistics.median(res["wall"] for res in plain),
            "setup_s": (statistics.median(time_imports())
                        + statistics.median(res["setup"] for res in plain)),
            "rounds": first["rounds"],
            "messages": first["messages"],
            "success_frac": (attempted - failed) / attempted,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        declared = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    print(f"{len(passes)} passes ({len(plain)} untraced, {len(traced)} traced) "
          f"of {len(cases)} instances; untraced pass walls "
          f"{[round(res['wall_raw'], 3) for res in plain]} host s, "
          f"{[round(res['wall'], 3) for res in plain]} reference s")
    for name, metric in metrics.items():
        print(f"  {name} = {metric['value']} {metric['unit']}")
    print(json.dumps({"correct": repeatable and not wrong, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
