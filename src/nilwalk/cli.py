"""Command-line driver.

Subcommands mirror the library surface:

    nilwalk algebra check --builtin heisenberg3
    nilwalk filtration compute --algebra heisenberg3 --drift 1,0,0
    nilwalk pathswap verify --a 2 --k 2 --nprime 1 --step 3 [--emit-poly F]
    nilwalk walk {llt,clt,ratio,pixel,theta} --config FILE [--seed S] [--out F]
    nilwalk fourier scan --config FILE --gamma0 G [--xi-grid lo:hi:n]
    nilwalk limit {density,heisenberg-origin} ...
    nilwalk nilmanifold equid --config FILE --N 2000 --cells 8

Exit codes: 0 success (and all configured checks passed), 2 parse error,
3 validation error, 4 term-budget exceeded.  Identical config and seed
give byte-identical CSV bodies; the single '#' header line carries the
timestamp and is excluded from diffs.

``walk`` is driven by the ``WALK_MODES`` table: every mode runs one
experiment per N of the grid, each returning an ``ExperimentResult`` that
gives one CSV row and one summary entry, and a configured check
(``params.checks``: target, relative_tolerance) applies
``ExperimentResult.within`` to every run.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import random
import sys
from fractions import Fraction
from typing import Optional

import numpy as np

from . import freealg, pathswap
from .config import (
    CSV_COLUMNS,
    ConfigError,
    ExperimentConfig,
    load_json,
    parse_algebra,
    write_csv,
    write_summary,
)
from .filtration import WeightFiltration
from .fourier import log_frequency_grid, reduced_domain_scan, write_scan_csv
from .limitlaw import DiffusionSpec, kde_density, levy_area_reference, simulate_limit
from .nilmanifold import cesaro_equidistribution
from .walks import (
    ExperimentResult,
    WalkConfig,
    clt_experiment,
    job_pool,
    llt_box_experiment,
    pixel_experiment,
    ratio_experiment,
    run_plans,
    theta_experiment,
)

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_VALIDATION = 3
EXIT_BUDGET = 4


def _parse_coords(text: str) -> list[Fraction]:
    return [Fraction(t) for t in text.replace(" ", "").split(",") if t]


def cmd_algebra_check(args) -> int:
    spec = args.builtin if args.builtin else load_json(args.file)
    algebra = parse_algebra(spec)  # constructor validates antisymmetry/Jacobi/step
    report = {
        "name": algebra.name or "inline",
        "dim": algebra.dim,
        "step": algebra.step,
        "antisymmetry": "exact by construction",
        "jacobi": "verified exactly on all basis triples",
        "central_series_dims": [s.dim for s in algebra.descending_central_series()],
    }
    print(json.dumps(report, indent=2))
    return EXIT_OK


def cmd_filtration_compute(args) -> int:
    spec = args.algebra if not args.algebra.endswith(".json") else load_json(args.algebra)
    algebra = parse_algebra(spec)
    drift = _parse_coords(args.drift)
    if len(drift) != algebra.dim:
        raise ConfigError("drift length must match the algebra dimension")
    wf = WeightFiltration(algebra, drift)
    report = {
        "algebra": algebra.name or "inline",
        "drift": [str(c) for c in wf.xbar],
        "ideal_dims": [s.dim for s in wf.ideals],
        "weights": list(wf.weights),
        "hom_dim": wf.hom_dim,
        "adapted_basis": [[str(c) for c in row] for row in wf.adapted_rows],
        "supplement_choice": "echelon pivot complement, deterministic",
    }
    out = json.dumps(report, indent=2)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(out + "\n")
    print(out)
    return EXIT_OK


def cmd_pathswap_verify(args) -> int:
    # truncated below degree a the support piece is zero, and fact 2 would
    # compare zero with zero
    if args.step < args.a:
        raise ValueError(f"--step {args.step} is below --a {args.a}")
    pairs, piece, algebra, facts = pathswap.verify_system(
        pathswap.BlockSystem(args.a, args.k, args.nprime), args.step, args.pair_limit,
        random.Random(args.seed), args.budget)
    verdicts = ["PASS" if ok else "FAIL" for ok in facts]
    print(f"low-degree annihilation  [{pairs} sigma/tau pairs]: {verdicts[0]}")
    print(f"block decoupling         [support piece {len(piece)} terms]: {verdicts[1]}")
    print(f"block bracket identity   [evaluated on {algebra}]: {verdicts[2]}")
    if args.emit_poly:
        with open(args.emit_poly, "w") as fh:
            fh.write("\n".join(piece.dump_lines()) + "\n")
    return EXIT_OK if all(facts) else 1


def _box(params: dict, dim: int, half: float) -> list[tuple]:
    return [tuple(b) for b in params.get("box", [[-half, half]] * dim)]


# mode -> (needs the limit-law bank, plan); a plan maps (walk config, params,
# bank, digest) to the experiment's walks.Plan
WALK_MODES = {
    "llt": (False, lambda w, p, nu, d: llt_box_experiment.plan(
        w, _box(p, w.algebra.dim, 0.5), config_digest=d)),
    "clt": (False, lambda w, p, nu, d: clt_experiment.plan(
        w, histogram_bins=int(p.get("histogram_bins", 0)), config_digest=d)),
    "ratio": (True, lambda w, p, nu, d: ratio_experiment.plan(
        w, _box(p, w.algebra.dim, 2.0), nu, g=p.get("g"), h=p.get("h"), config_digest=d)),
    "pixel": (True, lambda w, p, nu, d: pixel_experiment.plan(w, nu, config_digest=d)),
    "theta": (False, lambda w, p, nu, d: theta_experiment.plan(
        w, float(p.get("gamma0", 0.2)), config_digest=d)),
}


def cmd_walk(args) -> int:
    cfg = ExperimentConfig.from_file(args.config, seed_override=args.seed)
    params = cfg.params
    needs_bank, plan = WALK_MODES[args.mode]
    wcfgs = [WalkConfig(cfg.filtration, cfg.measure, n, cfg.n_replicas, seed=cfg.seed,
                        recenter=params.get("recenter", "mean"),
                        variable_shift=params.get("Y"), workers=args.workers)
             for n in cfg.n_grid]
    with job_pool(args.workers) as pool:
        nu = None
        if needs_bank:
            # the limit-law bank does not depend on N: one bank, the first job, serves the grid
            spec = DiffusionSpec.from_measure(cfg.filtration, cfg.measure,
                                              n_time_steps=int(params.get("diffusion_steps", 512)))
            rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 7]))
            nu = pool.submit(simulate_limit, spec, rng,
                             int(params.get("nu_samples", cfg.n_replicas)))
        results = run_plans([plan(w, params, nu, cfg.digest) for w in wcfgs], pool)
    rows = [res.csv_row() for res in results]
    if args.out:
        write_csv(args.out, rows)
        write_summary(args.out.rsplit(".", 1)[0] + "_summary.json",
                      {"experiment": args.mode, "config_digest": cfg.digest,
                       "runs": [res.summary() for res in results]})
    else:
        for row in rows:
            print(",".join(str(row.get(c, "")) for c in CSV_COLUMNS))
    failed = _apply_checks(results, params.get("checks"))
    for line in failed:
        print(line, file=sys.stderr)
    return EXIT_OK if not failed else 1


def _apply_checks(results: list[ExperimentResult], checks: Optional[dict]) -> list[str]:
    """The configured target check, ExperimentResult.within, on every run."""
    if checks is None:
        return []
    tol, target = checks["relative_tolerance"], checks["target"]
    failed = []
    for res in results:
        res = dataclasses.replace(res, target=float(target))
        if not res.within(float(tol)):
            failed.append(f"check failed: estimate {res.estimate} vs target {target} "
                          f"(allow {res.allowance(float(tol)):.4g})")
    return failed


def cmd_fourier_scan(args) -> int:
    cfg = ExperimentConfig.from_file(args.config, seed_override=args.seed)
    if args.xi_grid:
        lo, hi, n = args.xi_grid
        xis = log_frequency_grid(cfg.filtration, per_layer=n, lo=lo, hi=hi)
    else:
        xis = log_frequency_grid(cfg.filtration)
    rep = reduced_domain_scan(
        cfg.filtration, cfg.measure, xis, cfg.n_grid, cfg.n_replicas,
        gamma0=args.gamma0, seed=cfg.seed, workers=args.workers,
    )
    if args.out:
        write_scan_csv(args.out, rep, cfg.n_replicas, cfg.seed, cfg.digest)
    else:
        print(json.dumps(rep["summary"], indent=2))
    return EXIT_OK if rep["summary"]["outside_decay_ok"] else 1


def cmd_limit(args) -> int:
    if args.mode == "heisenberg-origin":
        rng = np.random.default_rng(args.seed)
        samples = levy_area_reference(rng, args.samples, n_time_steps=2048)
        rep = kde_density(samples, [0.0, 0.0, 0.0], bandwidth_factor=0.6)
        rep["target"] = 0.25
        print(json.dumps(rep, indent=2))
        return EXIT_OK if abs(rep["density"] - 0.25) < 0.1 * 0.25 + 3 * rep["stderr"] else 1
    if args.config is None:
        raise ConfigError("limit density needs --config")
    cfg = ExperimentConfig.from_file(args.config, seed_override=args.seed)
    point = _parse_coords(args.point) if args.point else [0] * cfg.algebra.dim
    if len(point) != cfg.algebra.dim:
        raise ConfigError("--point length must match the algebra dimension")
    spec = DiffusionSpec.from_measure(cfg.filtration, cfg.measure,
                                      n_time_steps=int(cfg.params.get("diffusion_steps", 2048)))
    rng = np.random.default_rng(cfg.seed)
    samples = simulate_limit(spec, rng, cfg.n_replicas)
    point_ad = cfg.filtration.to_adapted_float(np.array([float(c) for c in point]))
    rep = kde_density(samples, point_ad, bandwidth_factor=args.bandwidth_factor)
    print(json.dumps(rep, indent=2))
    return EXIT_OK


def cmd_nilmanifold_equid(args) -> int:
    cfg = ExperimentConfig.from_file(args.config, seed_override=args.seed)
    checkpoints = [*cfg.params.get("checkpoints", []), args.N]  # sorted, once each, by the walk
    past = sorted(c for c in map(int, checkpoints) if c > args.N)
    if past:
        raise ValueError(f"checkpoints {past} are past --N {args.N}")
    rep = cesaro_equidistribution(
        cfg.measure, args.N, cfg.n_replicas, cells_per_axis=args.cells,
        seed=cfg.seed, checkpoints=checkpoints,
    )
    del rep["final_counts"]
    rep["product_kernel"] = "compiled" if cfg.measure.algebra.product_kernels[1] else "numpy"
    print(json.dumps(rep, indent=2))
    final = rep["checkpoints"][args.N]["discrepancy"]
    return EXIT_OK if final < float(cfg.params.get("discrepancy_bound", 0.1)) else 1


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _xi_grid(text: str) -> tuple[float, float, int]:
    try:
        lo, hi, n = text.split(":")
        return float(lo), float(hi), _positive_int(n)
    except (ValueError, argparse.ArgumentTypeError):
        raise argparse.ArgumentTypeError(
            f"want lo:hi:per_layer with per_layer at least 1, got {text!r}") from None


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="nilwalk",
                                description="nilpotent-group walk experiments")
    p.add_argument("--workers", type=_positive_int, default=1,
                   help="threads of the one job pool a command runs its folds on")
    p.add_argument("--budget", type=int, default=freealg.DEFAULT_TERM_BUDGET,
                   help="term budget for symbolic computations")
    sub = p.add_subparsers(dest="command", required=True)

    pa = sub.add_parser("algebra").add_subparsers(dest="mode", required=True)
    pc = pa.add_parser("check")
    g = pc.add_mutually_exclusive_group(required=True)
    g.add_argument("--builtin")
    g.add_argument("--file")
    pc.set_defaults(func=cmd_algebra_check)

    pf = sub.add_parser("filtration").add_subparsers(dest="mode", required=True)
    pfc = pf.add_parser("compute")
    pfc.add_argument("--algebra", required=True)
    pfc.add_argument("--drift", required=True)
    pfc.add_argument("--out")
    pfc.set_defaults(func=cmd_filtration_compute)

    ps = sub.add_parser("pathswap").add_subparsers(dest="mode", required=True)
    psv = ps.add_parser("verify")
    psv.add_argument("--a", type=int, required=True)
    psv.add_argument("--k", type=int, required=True)
    psv.add_argument("--nprime", type=int, required=True)
    psv.add_argument("--step", type=int, required=True)
    psv.add_argument("--pair-limit", type=_positive_int, default=36)
    psv.add_argument("--seed", type=int, default=0)
    psv.add_argument("--emit-poly")
    psv.set_defaults(func=cmd_pathswap_verify)

    pw = sub.add_parser("walk")
    pw.add_argument("mode", choices=list(WALK_MODES))
    pw.add_argument("--config", required=True)
    pw.add_argument("--seed", type=int)
    pw.add_argument("--out")
    pw.set_defaults(func=cmd_walk)

    pfo = sub.add_parser("fourier").add_subparsers(dest="mode", required=True)
    pfos = pfo.add_parser("scan")
    pfos.add_argument("--config", required=True)
    pfos.add_argument("--gamma0", type=float, default=0.1)
    pfos.add_argument("--xi-grid", type=_xi_grid, help="lo:hi:per_layer for the log grid")
    pfos.add_argument("--seed", type=int)
    pfos.add_argument("--out")
    pfos.set_defaults(func=cmd_fourier_scan)

    pl = sub.add_parser("limit")
    pl.add_argument("mode", choices=["density", "heisenberg-origin"])
    pl.add_argument("--config")
    pl.add_argument("--point")
    pl.add_argument("--samples", type=int, default=100_000)
    pl.add_argument("--seed", type=int, default=0)
    pl.add_argument("--bandwidth-factor", type=float, default=0.6)
    pl.set_defaults(func=cmd_limit)

    pn = sub.add_parser("nilmanifold").add_subparsers(dest="mode", required=True)
    pne = pn.add_parser("equid")
    pne.add_argument("--config", required=True)
    pne.add_argument("--N", type=int, default=2000)
    pne.add_argument("--cells", type=int, default=8)
    pne.add_argument("--seed", type=int)
    pne.set_defaults(func=cmd_nilmanifold_equid)

    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_PARSE
    except freealg.BudgetExceeded as e:
        print(f"budget exceeded: {e}", file=sys.stderr)
        return EXIT_BUDGET
    except (ValueError, KeyError) as e:
        print(f"validation error: {e}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
