"""Benchmark runner for nilwalk.

    python3 perfbench/run.py --workload heis-llt --seed 1 --seconds 24 --trace 0

Runs one workload from the root of a source checkout (the program is
imported from ./src, nothing is installed).  A run sets up, then repeats
whole rounds of the workload's operations until --seconds have passed
(at least MIN_ROUNDS rounds), checks the outputs, runs the negative
controls, and prints its provenance and, as the last line, one JSON
object: {"correct", "attempted", "failed", "metrics"}.

--trace 0 reports the end-to-end metrics; --trace 1 alternates untraced
and traced rounds and reports the per-layer metrics from the traced ones
plus the tracing overhead.  See README.md in this directory.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "out")
MIN_ROUNDS = 3
SETUP_PROBES = 4   # fresh processes that repeat the set-up, for the setup_s median
NAMES = ("heis-llt", "deep-clt", "exact-symbolic", "quotient-small-batch")

END_TO_END = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "s_to_1pct": "s"}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=24.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="set up, print the set-up time and exit (used for the setup_s median)")
    return p.parse_args(argv)


def import_program() -> dict:
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "nilwalk", "cli.py")):
        raise SystemExit(f"perfbench: no nilwalk sources under {src}")
    sys.path.insert(0, src)
    from nilwalk import (algebra, cli, config, filtration, freealg, limitlaw, measures,
                         nilmanifold, pathswap, walks)
    return {"algebra": algebra, "cli": cli, "config": config, "filtration": filtration,
            "freealg": freealg, "limitlaw": limitlaw, "measures": measures,
            "nilmanifold": nilmanifold, "pathswap": pathswap, "walks": walks}


def provenance(seed: int) -> dict:
    import ctypes
    import platform

    import numpy
    import scipy

    import nilwalk

    info = {"commit": _git_commit(), "nilwalk": getattr(nilwalk, "__version__", "?"),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "python": platform.python_version(), "nproc": len(os.sched_getaffinity(0)),
            "seed": seed}
    blas = numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    info["blas"] = f"{blas.get('name', '?')} {blas.get('version', '')}".strip()
    threads = None
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()
                           and line.split()[-1].startswith("/")})
        for lib in libs:
            handle = ctypes.CDLL(lib)
            for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                        "openblas_get_num_threads"):
                fn = getattr(handle, sym, None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    threads = fn()
                    break
            if threads is not None:
                break
    except OSError:
        pass
    info["blas_threads"] = threads if threads is not None else os.environ.get(
        "OPENBLAS_NUM_THREADS", "unknown")
    return info


def _git_commit() -> str:
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        path = os.path.join(ROOT, ".git", name)
        if os.path.isfile(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + name):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def source_digest() -> str:
    import hashlib

    h = hashlib.sha256()
    src = os.path.join(ROOT, "src", "nilwalk")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()[:16]


def setup_probes(args) -> list[float]:
    """Set-up times of fresh processes running the same set-up."""
    times = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run([sys.executable, os.path.abspath(__file__), "--workload",
                               args.workload, "--seed", str(args.seed), "--setup-only"],
                              cwd=ROOT, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr[-400:]}")
        times.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return times


def trimmed_mean(values) -> float:
    """Mean after dropping the fastest and slowest fifth (at least three kept)."""
    v = sorted(values)
    k = len(v) // 5 if len(v) >= 5 else 0
    return statistics.fmean(v[k:len(v) - k])


def run_rounds(workload, ops, seconds, tracer=None):
    """Repeat whole rounds until `seconds` have passed.  With a tracer,
    rounds alternate untraced / traced (tracing installed for odd rounds)."""
    times = {op.name: [] for op in ops}
    round_walls = {False: [], True: []}
    first = {}
    problems = []
    rounds = 0
    begin = time.perf_counter()
    while rounds < MIN_ROUNDS + (1 if tracer else 0) or time.perf_counter() - begin < seconds:
        traced = tracer is not None and rounds % 2 == 1
        if traced:
            tracer.install(workload.nw)
        r0 = time.perf_counter()
        for op in ops:
            if traced:
                tracer.scope += 1
            c0, t0 = time.process_time(), time.perf_counter()
            out = op.run()
            t1, c1 = time.perf_counter(), time.process_time()
            times[op.name].append((t1 - t0, c1 - c0))
            if rounds == 0:
                first[op.name] = out
            elif workload.signature(op.name, out) != workload.signature(op.name, first[op.name]):
                problems.append(f"round {rounds + 1}: {op.name} output differs from round 1")
        round_walls[traced].append(time.perf_counter() - r0)
        if traced:
            tracer.uninstall()
        rounds += 1
    return rounds, times, round_walls, first, problems


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        nw = import_program()
    except (SystemExit, ImportError) as e:
        print(f"perfbench: cannot import the program: {e}", file=sys.stderr)
        return 2

    sys.path.insert(0, HERE)
    import spans
    import workloads

    workdir = os.path.join(OUT_DIR, f"work-{args.workload}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        return _run(args, nw, workdir, spans, workloads)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _run(args, nw, workdir, spans, workloads) -> int:
    cls = workloads.WORKLOADS[args.workload]
    wl = cls(args.seed, workdir, nw)
    tracer = spans.Tracer() if args.trace else None
    missing = tracer.install(nw) if tracer else []
    wl.setup()
    if tracer:
        tracer.uninstall()
    setup_own = time.perf_counter() - T_START
    if args.setup_only:
        print(json.dumps({"setup_s": setup_own}))
        return 0

    ops = wl.ops()
    rounds, times, round_walls, first, problems = run_rounds(wl, ops, args.seconds, tracer)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    failed_per_round = sum(1 for op in ops if wl.failed(op.name, first[op.name]))
    problems += wl.check(first)
    problems += wl.controls(first)
    attempted = rounds * len(ops)
    failed = rounds * failed_per_round

    prov = provenance(args.seed)
    prov.update({"source_digest": source_digest(), "workload": args.workload,
                 "rounds": rounds, "ops_per_round": len(ops), "trace": args.trace})
    print("provenance: " + json.dumps(prov, sort_keys=True))
    for p in problems:
        print("check: " + p)

    if tracer:
        if missing:
            print("trace: not found (reported as 0): " + ", ".join(missing))
        metrics = layer_metrics(tracer, wl, first, round_walls, spans)
        os.makedirs(OUT_DIR, exist_ok=True)
        tracer.dump(os.path.join(OUT_DIR, f"trace-{args.workload}.jsonl"))
    else:
        walls = {name: trimmed_mean(w for w, _ in ts) for name, ts in times.items()}
        cpus = {name: trimmed_mean(c for _, c in ts) for name, ts in times.items()}
        wall_s = sum(walls.values())
        scored = wl.scored(first)
        s_to_1pct = (sum(walls[op] * share * (rse / 0.01) ** 2 for op, share, rse in scored)
                     if scored else wall_s)
        setup_s = statistics.median([setup_own] + setup_probes(args))
        values = {"setup_s": setup_s, "wall_s": wall_s, "cpu_s": sum(cpus.values()),
                  "peak_rss_mb": peak_rss_mb, "s_to_1pct": s_to_1pct}
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}
        for name in walls:
            print(f"op {name}: wall {walls[name]:.4f} s, cpu {cpus[name]:.4f} s (trimmed mean), "
                  f"n={len(times[name])}")

    result = {"correct": not problems, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    print(json.dumps(result))
    return 0


# -- per-layer metrics ---------------------------------------------------------------


def layer_metrics(tracer, wl, first, round_walls, spans) -> dict:
    traced_rounds = len(round_walls[True])
    main = tracer.main_thread
    idx = spans.SpanIndex([s for s in tracer.spans if s.scope > 0], main)
    setup_idx = spans.SpanIndex([s for s in tracer.spans if s.scope == 0], main)
    per_round = 1.0 / traced_rounds

    def per_row(prefix, scale):
        sec, _, rows, _ = idx.busy(prefix)
        return sec * scale / rows if rows else 0.0

    def per_call(prefix, scale):
        sec, calls, _, _ = idx.busy(prefix)
        return sec * scale / calls if calls else 0.0

    def seconds(prefix):
        return idx.busy(prefix)[0] * per_round

    def calls(prefix):
        return idx.busy(prefix)[1] * per_round

    _, _, fold_rows, _ = idx.busy("walks.fold")
    fold_wall = idx.wall("walks.fold")
    sim_s, sim_calls, sim_rows, _ = idx.busy("limitlaw.simulate")
    clip_s, _, clip_rows, clip_altered = idx.busy("walks.clip")
    cesaro_steps = idx.busy("nilmanifold.cesaro")[2]
    rse2 = 0.0
    if hasattr(wl, "rse2_seconds"):
        rse2 = wl.rse2_seconds(first, idx.top("walks.estimate.llt_box_experiment"), traced_rounds)
    untraced = statistics.median(round_walls[False])
    traced = statistics.median(round_walls[True])

    values = [
        ("measures.sample.ns_per_row", "ns", per_row("measures.sample", 1e9)),
        ("measures.sample.us_per_call", "us", per_call("measures.sample", 1e6)),
        ("filtration.to_adapted.ns_per_row", "ns", per_row("filtration.to_adapted", 1e9)),
        ("filtration.to_adapted.calls", "count", calls("filtration.to_adapted")),
        ("algebra.product.ns_per_row", "ns", per_row("algebra.product", 1e9)),
        ("algebra.product.us_per_call", "us", per_call("algebra.product", 1e6)),
        ("algebra.product.calls", "count", calls("algebra.product")),
        ("algebra.bch_exact.s", "s", seconds("algebra.bch_exact")),
        ("algebra.build.s", "s", setup_idx.busy("algebra.build")[0]),
        ("walks.fold.replica_steps", "count", fold_rows * per_round),
        ("walks.fold.replica_steps_per_s", "1/s", fold_rows / fold_wall if fold_wall else 0.0),
        ("walks.fold.self_ns_per_replica_step", "ns",
         idx.self_time("walks.fold") * 1e9 / fold_rows if fold_rows else 0.0),
        ("walks.clip.ns_per_row", "ns", clip_s * 1e9 / clip_rows if clip_rows else 0.0),
        ("walks.clip.altered_rows", "count", clip_altered * per_round),
        ("walks.estimate.s", "s", idx.self_time("walks.estimate") * per_round),
        ("walks.llt.rse2_s", "s", rse2),
        ("limitlaw.simulate.ns_per_sample_step", "ns", sim_s * 1e9 / sim_rows if sim_rows else 0.0),
        ("limitlaw.simulate.calls", "count", sim_calls * per_round),
        ("limitlaw.simulate.useful_frac", "frac", idx.useful_frac("limitlaw.simulate")),
        ("nilmanifold.fold.ns_per_row", "ns", per_row("nilmanifold.fold", 1e9)),
        ("nilmanifold.cell_index.ns_per_row", "ns", per_row("nilmanifold.cell_index", 1e9)),
        ("nilmanifold.cesaro.self_us_per_step", "us",
         idx.self_time("nilmanifold.cesaro") * 1e6 / cesaro_steps if cesaro_steps else 0.0),
        ("freealg.permute.s", "s", seconds("freealg.permute")),
        ("freealg.permute.calls", "count", calls("freealg.permute")),
        ("freealg.add.s", "s", seconds("freealg.add")),
        ("freealg.support_part.calls", "count", calls("freealg.support_part")),
        ("freealg.support_part.useful_frac", "frac", idx.useful_frac("freealg.support_part")),
        ("freealg.dynkin.s", "s", setup_idx.busy("freealg.dynkin")[0]),
        ("freealg.dynkin.round_s", "s", seconds("freealg.dynkin")),
        ("pathswap.apply_operator.s", "s", seconds("pathswap.apply_operator")),
        ("pathswap.apply_operator.calls", "count", calls("pathswap.apply_operator")),
        ("pathswap.fact1.s", "s", seconds("pathswap.fact1")),
        ("pathswap.fact2.s", "s", seconds("pathswap.fact2")),
        ("pathswap.fact3.s", "s", seconds("pathswap.fact3")),
        ("config.parse.s", "s", seconds("config.parse")),
        ("config.write.s", "s", seconds("config.write")),
        ("cli.main.self_s", "s", idx.self_time("cli.main") * per_round),
        ("trace.round_s", "s", traced),
        ("trace.untraced_round_s", "s", untraced),
        ("trace.overhead_pct", "%", 100.0 * (traced / untraced - 1.0)),
    ]
    return {name: {"value": v, "unit": unit} for name, unit, v in values}


if __name__ == "__main__":
    sys.exit(main())
