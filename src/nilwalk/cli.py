"""Command-line driver.

Subcommands mirror the library surface:

    nilwalk algebra check --builtin heisenberg3
    nilwalk filtration compute --algebra heisenberg3 --drift 1,0,0
    nilwalk pathswap verify --a 2 --k 1 --nprime 1 --step 3 [--emit-poly F]
    nilwalk walk {llt,clt,ratio,pixel,theta} --config FILE [--seed S] [--out F]
    nilwalk fourier scan --config FILE --gamma0 G [--xi-grid lo:hi:n]
    nilwalk limit {density,heisenberg-origin} ...
    nilwalk nilmanifold equid --config FILE --N 2000 --cells 8

Exit codes: 0 success (and all configured checks passed), 2 parse error,
3 validation error, 4 term-budget exceeded.  Identical config and seed
give byte-identical CSV bodies; the single '#' header line carries the
timestamp and is excluded from diffs.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

import numpy as np

from . import freealg, pathswap
from .algebra import builtin_algebra
from .config import (
    CSV_COLUMNS,
    ConfigError,
    ExperimentConfig,
    canonical_digest,
    parse_algebra,
    write_csv,
    write_summary,
)
from .filtration import WeightFiltration
from .fourier import (
    FrequencyPoint,
    log_frequency_grid,
    reduced_domain_scan,
)
from .limitlaw import DiffusionSpec, kde_density, levy_area_reference, simulate_limit
from .nilmanifold import cesaro_equidistribution
from .walks import (
    WalkConfig,
    clt_experiment,
    llt_box_experiment,
    pixel_experiment,
    ratio_experiment,
    theta_experiment,
)

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_VALIDATION = 3
EXIT_BUDGET = 4


def _parse_coords(text: str) -> list[Fraction]:
    return [Fraction(t) for t in text.replace(" ", "").split(",") if t]


def _walk_config(cfg: ExperimentConfig, n_steps: int, args) -> WalkConfig:
    return WalkConfig(
        filtration=cfg.filtration,
        measure=cfg.measure,
        n_steps=n_steps,
        n_replicas=cfg.n_replicas,
        seed=cfg.seed,
        recenter=cfg.params.get("recenter", "mean"),
        variable_shift=cfg.params.get("Y"),
        workers=args.workers,
    )


def cmd_algebra_check(args) -> int:
    spec = args.builtin if args.builtin else json.load(open(args.file))
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
    spec = args.algebra if not args.algebra.endswith(".json") else json.load(open(args.algebra))
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
    system = pathswap.BlockSystem(args.a, args.k, args.nprime)
    budget = args.budget
    freealg.check_budget(system.n_indices, args.step, budget)
    pairs = pathswap.sample_pairs(system, limit=args.pair_limit)
    ok1 = all(
        pathswap.verify_low_degree_annihilation(system, s, t, args.step, budget)
        for s, t in pairs
    )
    piece = freealg.product_support_size_part(system.n_indices, args.a, args.step, budget)
    print(f"low-degree annihilation  [{len(pairs)} sigma/tau pairs]: "
          f"{'PASS' if ok1 else 'FAIL'}")
    ok2 = all(
        pathswap.verify_block_decoupling(system, s, t, args.step, budget)
        for s, t in pairs
    )
    print(f"block decoupling         [support piece {len(piece)} terms]: "
          f"{'PASS' if ok2 else 'FAIL'}")

    from .algebra import free_nilpotent, heisenberg3

    algebra = heisenberg3() if args.a == 2 else free_nilpotent(3, min(args.step, 3))
    import random

    rng = random.Random(args.seed)
    gens = system.swaps()
    sigma = pathswap.FElement(system, [g for g in gens if g[0] % 2 == 1])
    tau = pathswap.FElement(system, [g for g in gens if g[0] % 2 == 0])
    ok3 = True
    for j in range(system.n_prime):
        xs = []
        for p in range(system.n_indices):
            left = any(p in system.block_positions(j, -off) for off in range(1, system.a))
            if left:
                xs.append(algebra.zero_vector())
            else:
                xs.append(tuple(Fraction(rng.randint(-6, 6), 3) for _ in range(algebra.dim)))
        ok3 &= pathswap.verify_block_bracket_identity(system, sigma, tau, j, algebra, xs, budget)
    print(f"block bracket identity   [evaluated on {algebra.name}]: "
          f"{'PASS' if ok3 else 'FAIL'}")

    if args.emit_poly:
        with open(args.emit_poly, "w") as fh:
            fh.write("\n".join(piece.dump_lines()) + "\n")
    return EXIT_OK if (ok1 and ok2 and ok3) else 1


def cmd_walk(args) -> int:
    cfg = ExperimentConfig.from_file(args.config, seed_override=args.seed)
    params, dim = cfg.params, cfg.algebra.dim
    if args.mode in ("ratio", "pixel"):
        # the limit-law bank does not depend on N: one bank serves the whole grid
        spec = DiffusionSpec.from_measure(cfg.filtration, cfg.measure,
                                          n_time_steps=int(params.get("diffusion_steps", 512)))
        rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 7]))
        nu = simulate_limit(spec, rng, int(params.get("nu_samples", cfg.n_replicas)))
    rows = []
    summary: dict = {"experiment": args.mode, "config_digest": cfg.digest, "runs": []}
    for n in cfg.n_grid:
        wcfg = _walk_config(cfg, n, args)
        raw = WalkConfig(cfg.filtration, cfg.measure, n, cfg.n_replicas, seed=cfg.seed,
                         recenter="none", workers=args.workers)
        if args.mode in ("llt", "ratio"):
            if args.mode == "llt":
                box = [tuple(b) for b in params.get("box", [[-0.5, 0.5]] * dim)]
                res = llt_box_experiment(wcfg, box, config_digest=cfg.digest)
            else:
                box = [tuple(b) for b in params.get("box", [[-2.0, 2.0]] * dim)]
                res = ratio_experiment(raw, box, nu, g=params.get("g"), h=params.get("h"),
                                       config_digest=cfg.digest)
            rows.append(res.csv_row())
            summary["runs"].append(res.__dict__ | {"extra": res.extra})
            continue
        if args.mode == "clt":
            rep = clt_experiment(wcfg, histogram_bins=int(params.get("histogram_bins", 0)),
                                 config_digest=cfg.digest)
            est, se, target = rep["layer_cov"][1][0][0], rep["moment_stderr"], ""
        elif args.mode == "pixel":
            rep = pixel_experiment(raw, nu, config_digest=cfg.digest)
            est, se, target = rep["max_gap"], rep["noise_scale"], 0.0
        elif args.mode == "theta":
            rep = theta_experiment(raw, float(params.get("gamma0", 0.2)), config_digest=cfg.digest)
            est, se, target = rep["altered_fraction"], 0.0, ""
        else:
            raise ConfigError(f"unknown walk mode {args.mode}")
        rows.append({"experiment": args.mode, "N": n, "M": cfg.n_replicas, "estimate": est,
                     "stderr": se, "target": target, "seed": cfg.seed,
                     "config_digest": cfg.digest})
        summary["runs"].append(rep)
    if args.out:
        write_csv(args.out, rows)
        write_summary(args.out.rsplit(".", 1)[0] + "_summary.json", summary)
    else:
        for row in rows:
            print(",".join(str(row.get(c, "")) for c in CSV_COLUMNS))
    checks = cfg.params.get("checks", {})
    failed = _apply_checks(rows, checks)
    for line in failed:
        print(line, file=sys.stderr)
    return EXIT_OK if not failed else 1


def _apply_checks(rows: list[dict], checks: dict) -> list[str]:
    """Configured target checks on the CSV rows, which every mode writes."""
    failed = []
    tol = checks.get("relative_tolerance")
    target = checks.get("target")
    if tol is not None and target is not None:
        for row in rows:
            est, se = float(row["estimate"]), float(row["stderr"])
            allow = max(3.0 * se, float(tol) * abs(float(target)))
            if abs(est - float(target)) > allow:
                failed.append(
                    f"check failed: estimate {est} vs target {target} (allow {allow:.4g})"
                )
    return failed


def cmd_fourier_scan(args) -> int:
    cfg = ExperimentConfig.from_file(args.config, seed_override=args.seed)
    if args.xi_grid:
        lo, hi, n = args.xi_grid.split(":")
        xis = log_frequency_grid(cfg.filtration, per_layer=int(n), lo=float(lo), hi=float(hi))
    else:
        xis = log_frequency_grid(cfg.filtration)
    rep = reduced_domain_scan(
        cfg.filtration, cfg.measure, xis, cfg.n_grid, cfg.n_replicas,
        gamma0=args.gamma0, seed=cfg.seed, workers=args.workers,
    )
    rows = [
        {
            "experiment": "fourier_scan", "N": r["N"], "M": cfg.n_replicas,
            "estimate": r["modulus"], "stderr": r["stderr"],
            "target": "", "seed": cfg.seed, "config_digest": cfg.digest,
            "xi": "|".join(f"{v:.6g}" for v in r["xi"]), "inside": r["inside"],
        }
        for r in rep["rows"]
    ]
    if args.out:
        write_csv(args.out, rows, CSV_COLUMNS + ["xi", "inside"])
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
    cfg = ExperimentConfig.from_file(args.config, seed_override=args.seed)
    spec = DiffusionSpec.from_measure(cfg.filtration, cfg.measure,
                                      n_time_steps=int(cfg.params.get("diffusion_steps", 2048)))
    rng = np.random.default_rng(cfg.seed)
    samples = simulate_limit(spec, rng, cfg.n_replicas)
    point = _parse_coords(args.point) if args.point else [0] * cfg.algebra.dim
    point_ad = cfg.filtration.to_adapted_float(np.array([float(c) for c in point]))
    rep = kde_density(samples, point_ad, bandwidth_factor=args.bandwidth_factor)
    print(json.dumps(rep, indent=2))
    return EXIT_OK


def cmd_nilmanifold_equid(args) -> int:
    cfg = ExperimentConfig.from_file(args.config, seed_override=args.seed)
    checkpoints = cfg.params.get("checkpoints", [args.N])
    if args.N not in checkpoints:
        checkpoints = sorted(set(list(checkpoints) + [args.N]))
    rep = cesaro_equidistribution(
        cfg.measure, args.N, cfg.n_replicas, cells_per_axis=args.cells,
        seed=cfg.seed, checkpoints=checkpoints,
    )
    del rep["final_counts"]
    print(json.dumps(rep, indent=2))
    final = rep["checkpoints"][args.N]["discrepancy"]
    return EXIT_OK if final < float(cfg.params.get("discrepancy_bound", 0.1)) else 1


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="nilwalk",
                                description="nilpotent-group walk experiments")
    p.add_argument("--workers", type=int, default=1, help="worker threads per experiment")
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
    psv.add_argument("--pair-limit", type=int, default=36)
    psv.add_argument("--seed", type=int, default=0)
    psv.add_argument("--emit-poly")
    psv.set_defaults(func=cmd_pathswap_verify)

    pw = sub.add_parser("walk")
    pw.add_argument("mode", choices=["llt", "clt", "ratio", "pixel", "theta"])
    pw.add_argument("--config", required=True)
    pw.add_argument("--seed", type=int)
    pw.add_argument("--out")
    pw.set_defaults(func=cmd_walk)

    pfo = sub.add_parser("fourier").add_subparsers(dest="mode", required=True)
    pfos = pfo.add_parser("scan")
    pfos.add_argument("--config", required=True)
    pfos.add_argument("--gamma0", type=float, default=0.1)
    pfos.add_argument("--xi-grid", help="lo:hi:per_layer for the log grid")
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
