"""The four benchmark workloads.

Each workload writes its config files from the seed, names the timed
operations of one round, and checks the outputs against `oracles` or
against a property the method must have.  The program is driven only
through `nilwalk.cli.main` (in-process, on generated config files) and
through public functions of `algebra`, `freealg`, `pathswap` and
`nilmanifold`.

Every round runs the same operations on the same inputs, so later rounds
must reproduce the first round's outputs exactly; the full checks run on
the first round's outputs, outside the timed region.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import math
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable, Optional

import numpy as np

import oracles


def derived_seed(seed: int, label: str) -> int:
    digest = hashlib.sha256(f"{seed}:{label}".encode()).digest()
    return int.from_bytes(digest[:4], "big") % (2**31 - 1)


def run_cli(cli, argv: list[str]) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return rc, out.getvalue()


def _strip_times(obj):
    if isinstance(obj, dict):
        return {k: _strip_times(v) for k, v in obj.items() if k != "wall_time"}
    if isinstance(obj, list):
        return [_strip_times(v) for v in obj]
    return obj


@dataclass
class WalkOutput:
    rc: int
    csv_body: str
    summary: dict

    def signature(self) -> str:
        return self.csv_body + json.dumps(_strip_times(self.summary), sort_keys=True)


@dataclass
class Op:
    name: str
    run: Callable[[], Any]


class Workload:
    name = ""
    workers = 1  # --workers passed to the walk commands

    def __init__(self, seed: int, workdir: str, nw: dict):
        self.seed = seed
        self.workdir = workdir
        self.nw = nw
        self.cli = nw["cli"]

    # -- helpers ------------------------------------------------------------

    def path(self, name: str) -> str:
        return os.path.join(self.workdir, name)

    def write_config(self, name: str, cfg: dict) -> str:
        p = self.path(name)
        with open(p, "w") as fh:
            json.dump(cfg, fh, indent=1)
        return p

    def walk(self, mode: str, config: str, out: str, workers: Optional[int] = None) -> WalkOutput:
        w = self.workers if workers is None else workers
        rc, _ = run_cli(self.cli, ["--workers", str(w), "walk", mode, "--config", config,
                                   "--out", self.path(out)])
        with open(self.path(out)) as fh:
            body = "".join(line for line in fh if not line.startswith("#"))
        with open(self.path(out).rsplit(".", 1)[0] + "_summary.json") as fh:
            summary = json.load(fh)
        return WalkOutput(rc, body, summary)

    def build_filtration(self, algebra: str, drift) -> dict:
        rc, text = run_cli(self.cli, ["filtration", "compute", "--algebra", algebra,
                                      "--drift", ",".join(str(c) for c in drift)])
        if rc != 0:
            raise RuntimeError(f"filtration compute failed for {algebra}")
        return json.loads(text)

    # -- interface --------------------------------------------------------------

    def setup(self) -> None:
        raise NotImplementedError

    def ops(self) -> list[Op]:
        raise NotImplementedError

    def signature(self, op: str, output) -> str:
        return output.signature() if isinstance(output, WalkOutput) else json.dumps(output)

    def failed(self, op: str, output) -> bool:
        """True when the operation hit the known fault it is counted for."""
        return False

    def check(self, outputs: dict) -> list[str]:
        """Problems found in the first round's outputs (empty when correct)."""
        raise NotImplementedError

    def controls(self, outputs: dict) -> list[str]:
        """Problems: each negative control that was NOT rejected."""
        return []

    def scored(self, outputs: dict) -> list[tuple[str, float, float]]:
        """(op, share of the op's time, relative stderr) of scored estimates."""
        return []


# -- heis-llt ---------------------------------------------------------------------


class HeisLLT(Workload):
    name = "heis-llt"
    workers = 2
    M_LLT = 500_000        # two chunks of 250k, so two workers both fold
    M_RATIO = 250_000
    N_GRID = [16, 32]
    BOX = [[-2.0, 2.0], [-2.0, 2.0], [-2.0, 2.0]]
    RATIO_BOX = [[-3.0, 3.0], [-3.0, 3.0], [-3.0, 3.0]]  # more bank hits at N = 32
    DIFFUSION_STEPS = 64
    NU_SAMPLES = 100_000
    BIAS = 3.0             # allowance K/N for the O(1/N) discretisation bias
    SIGMAS = 4.0

    def _config(self, label: str, m: int, grid, box, scale: float = 1.0) -> dict:
        v = scale * scale
        return {
            "algebra": "heisenberg3", "drift": [0, 0, 0],
            "measure": {"kind": "gaussian_layers", "cov": [v, v, 0.0]},
            "seed": derived_seed(self.seed, label), "M": m, "N_grid": list(grid),
            "params": {"recenter": "none", "box": box,
                       "diffusion_steps": self.DIFFUSION_STEPS, "nu_samples": self.NU_SAMPLES},
        }

    def setup(self):
        n_last = [self.N_GRID[-1]]
        self.cfg_llt = self.write_config(
            "llt.json", self._config("llt", self.M_LLT, self.N_GRID, self.BOX))
        self.cfg_ratio = self.write_config(
            "ratio.json", self._config("ratio", self.M_RATIO, self.N_GRID, self.RATIO_BOX))
        self.cfg_small = self.write_config(
            "small.json", self._config("small", 260_000, [4], self.BOX))
        self.cfg_ctrl = self.write_config(
            "control_llt.json", self._config("control", 125_000, n_last, self.BOX, 1.1))
        self.cfg_ctrl_ratio = self.write_config(
            "control_ratio.json", self._config("control", 2_000, n_last, self.RATIO_BOX, 1.1))
        self.filtration = self.build_filtration("heisenberg3", [0, 0, 0])
        self.nw["algebra"].builtin_algebra("heisenberg3").product_map()

    def ops(self):
        return [Op("walk-llt", lambda: self.walk("llt", self.cfg_llt, "llt.csv")),
                Op("walk-ratio", lambda: self.walk("ratio", self.cfg_ratio, "ratio.csv"))]

    # checks ------------------------------------------------------------------

    def _llt_problems(self, out: WalkOutput, label: str, rate_only: bool = False) -> list[str]:
        probs = []
        for run in out.summary["runs"]:
            n = run["n_steps"]
            ex = run["extra"]
            limit = oracles.levy_per_volume(self.BOX, n)
            rel = ex["per_volume"] / limit - 1.0
            rse = ex["per_volume_stderr"] / ex["per_volume"]
            allow = self.SIGMAS * rse + self.BIAS / n
            if abs(rel) > allow:
                probs.append(f"{label} N={n}: per-volume rate {ex['per_volume']:.4f} vs Levy "
                             f"limit {limit:.4f} ({rel:+.2%}, allowed {allow:.2%})")
            if ex["hits"] < 1000 and not rate_only:
                probs.append(f"{label} N={n}: only {ex['hits']} hits")
        return probs

    def _ratio_problems(self, out: WalkOutput, label: str) -> list[str]:
        probs = []
        k = self.DIFFUSION_STEPS
        for run in out.summary["runs"]:
            n = run["n_steps"]
            ex = run["extra"]
            small = oracles.rescaled_heisenberg_box(self.RATIO_BOX, n)
            p_limit = oracles.levy_box_probability(small)
            rel = ex["p_nu"] / p_limit - 1.0
            rse = math.sqrt(max(1.0 - ex["p_nu"], 0.0) / max(ex["hits_nu"], 1))
            allow = self.SIGMAS * rse + self.BIAS / k
            if abs(rel) > allow:
                probs.append(f"{label} N={n}: limit-bank hit rate {ex['p_nu']:.5f} vs Levy "
                             f"{p_limit:.5f} ({rel:+.2%}, allowed {allow:.2%})")
            if label == "ratio":
                allow_r = (self.SIGMAS * run["stderr"] / run["estimate"]
                           + self.BIAS / n + self.BIAS / k)
                if abs(run["estimate"] - 1.0) > allow_r:
                    probs.append(f"ratio N={n}: {run['estimate']:.4f} vs 1 "
                                 f"(allowed {allow_r:.2%})")
        return probs

    def check(self, outputs):
        probs = []
        llt, ratio = outputs["walk-llt"], outputs["walk-ratio"]
        if llt.rc != 0 or ratio.rc != 0:
            probs.append(f"walk exit codes {llt.rc}, {ratio.rc}")
        probs += self._llt_problems(llt, "llt")
        probs += self._ratio_problems(ratio, "ratio")
        probs += self._determinism()
        return probs

    def _determinism(self) -> list[str]:
        """Same CSV body with 1 and 2 workers, and with tracing on and off."""
        import spans

        one = self.walk("llt", self.cfg_small, "small1.csv", workers=1).csv_body
        two = self.walk("llt", self.cfg_small, "small2.csv", workers=2).csv_body
        tracer = spans.Tracer()
        tracer.install(self.nw)
        try:
            traced = self.walk("llt", self.cfg_small, "small3.csv", workers=2).csv_body
        finally:
            tracer.uninstall()
        probs = []
        if one != two:
            probs.append("small llt: CSV body differs between 1 and 2 workers")
        if two != traced:
            probs.append("small llt: CSV body differs with tracing on")
        return probs

    def controls(self, outputs):
        probs = []
        if not self._llt_problems(self.walk("llt", self.cfg_ctrl, "control_llt.csv"), "control",
                                  rate_only=True):
            probs.append("control: llt with increments scaled by 1.1 passed the Levy check")
        ctrl = self.walk("ratio", self.cfg_ctrl_ratio, "control_ratio.csv")
        if not self._ratio_problems(ctrl, "control"):
            probs.append("control: limit bank of increments scaled by 1.1 passed the Levy check")
        return probs

    def rse2_seconds(self, outputs, llt_spans, traced_rounds: int) -> float:
        """rse^2 x seconds of the LLT estimates, per traced round."""
        runs = outputs["walk-llt"].summary["runs"]
        rse2 = [(r["stderr"] / r["estimate"]) ** 2 for r in runs]
        spans = sorted(llt_spans, key=lambda s: s.start)
        total = sum(rse2[i % len(runs)] * (s.end - s.start) for i, s in enumerate(spans))
        return total / traced_rounds

    def scored(self, outputs):
        out = []
        for op in ("walk-llt", "walk-ratio"):
            runs = outputs[op].summary["runs"]
            times = [float(r.get("wall_time", 0.0)) for r in runs]
            total = sum(times)
            for r, t in zip(runs, times):
                share = t / total if total > 0 else 1.0 / len(runs)
                out.append((op, share, r["stderr"] / r["estimate"]))
        return out


# -- deep-clt ----------------------------------------------------------------------


class DeepCLT(Workload):
    name = "deep-clt"
    ALGEBRA = "free-nilpotent(2,3)"
    DRIFT = [1, 0, 0, 0, 0]
    FACTORS = [(Fraction(1, 2), Fraction(3, 2))] + [(Fraction(-1), Fraction(1))] * 4
    M = 24_000
    N = 64
    THETA_SEED = 20240618  # fixed: the theta run fails on every seed (known fault)
    SIGMAS = 5.0

    def _config(self, seed: int) -> dict:
        return {
            "algebra": self.ALGEBRA, "drift": self.DRIFT,
            "measure": {"kind": "product", "factors": [
                {"kind": "uniform", "lo": float(lo), "hi": float(hi)} for lo, hi in self.FACTORS]},
            "seed": seed, "M": self.M, "N": self.N,
            "params": {"recenter": "none", "gamma0": 0.2},
        }

    def setup(self):
        self.cfg_clt = self.write_config("clt.json", self._config(derived_seed(self.seed, "clt")))
        self.cfg_theta = self.write_config("theta.json", self._config(self.THETA_SEED))
        self.filtration = self.build_filtration(self.ALGEBRA, self.DRIFT)
        self.algebra = self.nw["algebra"].builtin_algebra(self.ALGEBRA)
        self.algebra.product_map()

    def ops(self):
        return [Op("walk-clt", lambda: self.walk("clt", self.cfg_clt, "clt.csv")),
                Op("walk-theta", lambda: self.walk("theta", self.cfg_theta, "theta.csv"))]

    def _theta_mismatch(self, theta: dict, plain: dict) -> Optional[str]:
        """theta's mean and variance must equal the plain walk's on the same
        seed when the clip alters nothing (compactly supported law)."""
        scale = [self.N ** (-w / 2.0) for w in self.filtration["weights"]]
        mean = [m * s for m, s in zip(theta["mean_adapted"], scale)]
        var = [v * s * s for v, s in zip(theta["var_adapted"], scale)]
        ref_mean = plain["mean_adapted"]
        ref_var = [plain["cov_adapted"][i][i] for i in range(len(scale))]
        for i, (a, b, u, v) in enumerate(zip(mean, ref_mean, var, ref_var)):
            if abs(a - b) > 1e-9 * (abs(a) + abs(b)) + 1e-12 or abs(u - v) > 1e-7 * (u + v):
                return (f"coordinate {i + 1}: theta mean {a:.6g} var {u:.6g} vs plain walk "
                        f"mean {b:.6g} var {v:.6g}")
        return None

    def failed(self, op, output):
        if op != "walk-theta":
            return False
        plain = self.walk("clt", self.cfg_theta, "theta_plain.csv").summary["runs"][0]
        return self._theta_mismatch(output.summary["runs"][0], plain) is not None

    def _moment_problems(self, run: dict, targets) -> list[str]:
        probs = []
        m = run["M"]
        root_n = math.sqrt(self.N)
        cov = run["layer_cov"]["1"]
        for i, (mu, var) in enumerate(targets):
            mean = run["mean_adapted"][i]
            if abs(mean - root_n * mu) > self.SIGMAS * math.sqrt(var / m):
                probs.append(f"layer-1 mean {i + 1}: {mean:.5f} vs {root_n * mu:.5f}")
            if abs(cov[i][i] / var - 1.0) > self.SIGMAS * math.sqrt(2.0 / m):
                probs.append(f"layer-1 variance {i + 1}: {cov[i][i]:.5f} vs {var:.5f}")
        off = self.SIGMAS * math.sqrt(targets[0][1] * targets[1][1] / m)
        if abs(cov[0][1]) > off:
            probs.append(f"layer-1 covariance: {cov[0][1]:.5f} vs 0")
        return probs

    def _exact_targets(self):
        return [tuple(float(x) for x in oracles.uniform_moments(lo, hi)) for lo, hi in self.FACTORS[:2]]

    def check(self, outputs):
        probs = []
        clt = outputs["walk-clt"]
        if clt.rc != 0:
            probs.append(f"walk clt exit code {clt.rc}")
        if self.filtration["weights"][:2] != [1, 1]:
            probs.append(f"unexpected weights {self.filtration['weights']}")
        probs += self._moment_problems(clt.summary["runs"][0], self._exact_targets())
        theta = outputs["walk-theta"].summary["runs"][0]
        if theta["altered_fraction"] != 0.0:
            probs.append(f"theta clipped {theta['altered_fraction']} of the increments")
        probs += self._float_vs_exact()
        return probs

    def _float_vs_exact(self, replicas: int = 6, steps: int = 24) -> list[str]:
        """The float product folded over rational increments equals bch_exact."""
        rng = random.Random(derived_seed(self.seed, "exact-fold"))
        alg = self.algebra
        product = alg.product_map()
        worst = 0.0
        for _ in range(replicas):
            incs = [tuple(Fraction(rng.randint(-8, 8), 8) for _ in range(alg.dim))
                    for _ in range(steps)]
            exact = incs[0]
            s = np.array([[float(c) for c in incs[0]]])
            for x in incs[1:]:
                exact = alg.bch_exact(exact, x)
                s = product(s, np.array([[float(c) for c in x]]))
            for a, b in zip(s[0], exact):
                worst = max(worst, abs(a - float(b)) / max(1.0, abs(float(b))))
        return [] if worst <= 1e-12 else [f"float fold vs bch_exact: relative error {worst:.3g}"]

    def controls(self, outputs):
        # the moment check must reject the moments of U(-1, 1) for e1
        wrong = [(1.0, 1.0 / 3.0), self._exact_targets()[1]]
        clt = outputs["walk-clt"].summary["runs"][0]
        return [] if self._moment_problems(clt, wrong) else [
            "control: layer-1 moment check accepted the variance of U(-1,1) for e1"]


# -- exact-symbolic ----------------------------------------------------------------------


class ExactSymbolic(Workload):
    name = "exact-symbolic"
    TRIPLES = 30
    TRIPLES_PER_OP = 3
    PERIOD_N = range(2, 7)
    SYSTEMS = [(2, 1, 1, 3, 16), (2, 1, 2, 3, 16), (2, 2, 1, 3, 16),
               (3, 1, 1, 3, 16), (3, 1, 2, 3, 4), (3, 2, 1, 3, 4)]
    FREE = [(2, 2), (2, 3), (2, 4), (3, 2), (3, 3)]

    def setup(self):
        alg = self.nw["algebra"]
        self.free = {gs: alg.free_nilpotent(*gs) for gs in self.FREE}
        self.alg4 = self.free[(2, 4)]
        self.alg4.product_map()
        rng = random.Random(derived_seed(self.seed, "triples"))
        self.triples = [tuple(tuple(Fraction(rng.randint(-6, 6), 3) for _ in range(self.alg4.dim))
                              for _ in range(3)) for _ in range(self.TRIPLES)]
        self.swap_seed = derived_seed(self.seed, "pathswap") % 10_000

    def _assoc(self, triples):
        bch = self.alg4.bch_exact
        return [bch(bch(x, y), z) == bch(x, bch(y, z)) for x, y, z in triples]

    def _periodization(self, n, t):
        return [self.nw["freealg"].verify_periodization_identity(n, t, 4)]

    def _pathswap(self, a, k, nprime, step, limit):
        rc, text = run_cli(self.cli, ["pathswap", "verify", "--a", str(a), "--k", str(k),
                                      "--nprime", str(nprime), "--step", str(step),
                                      "--pair-limit", str(limit), "--seed", str(self.swap_seed)])
        return [rc] + [line.rsplit(" ", 1)[-1] for line in text.splitlines() if line.strip()]

    def ops(self):
        step = self.TRIPLES_PER_OP
        ops = [Op(f"bch-assoc-{i // step + 1}", lambda i=i: self._assoc(self.triples[i:i + step]))
               for i in range(0, self.TRIPLES, step)]
        ops += [Op(f"periodization-n{n}-t{t}", lambda n=n, t=t: self._periodization(n, t))
                for n in self.PERIOD_N for t in range(1, min(n, 4) + 1)]
        ops += [Op("pathswap-a{}-k{}-n{}-s{}".format(*s[:4]), lambda s=s: self._pathswap(*s))
                for s in self.SYSTEMS]
        return ops

    def check(self, outputs):
        probs = []
        for name, out in outputs.items():
            if name.startswith("pathswap"):
                if out != [0, "PASS", "PASS", "PASS"]:
                    probs.append(f"{name}: {out}")
            elif not all(out):
                probs.append(f"{name}: identity failed {out}")
        for (g, s), a in self.free.items():
            if a.dim != oracles.witt_dimension(g, s):
                probs.append(f"free-nilpotent({g},{s}) has dim {a.dim}, Witt gives "
                             f"{oracles.witt_dimension(g, s)}")
        return probs

    def _annihilates(self, op, n, a, max_len) -> bool:
        """Fact 1 on the product pieces, for an operator given as signed permutations."""
        fa, ps = self.nw["freealg"], self.nw["pathswap"]
        for t in range(1, a):
            for piece in (fa.product_support_size_part(n, t, max_len),
                          fa.product_degree_part(n, t, max_len)):
                if not ps.apply_operator(op, piece).is_zero():
                    return False
        return True

    def controls(self, outputs):
        """A swap operator with the sign of its tau_1 terms flipped must fail fact 1."""
        ps = self.nw["pathswap"]
        probs = []
        for a, k, nprime in ((2, 1, 1), (3, 1, 1)):
            system = ps.BlockSystem(a, k, nprime)
            gens = system.swaps()
            sigma = ps.FElement(system, gens)
            tau = ps.FElement(system)
            true_op, flipped = [], []
            for choice in itertools.product((0, 1), repeat=a - 1):
                active = frozenset().union(*[
                    (sigma if c == 0 else tau).component(i + 1) for i, c in enumerate(choice)])
                sign = (-1) ** sum(choice)
                perm = system.permutation(active)
                true_op.append((sign, perm))
                flipped.append((-sign if choice[0] == 1 else sign, perm))
            if not self._annihilates(true_op, system.n_indices, a, 3):
                probs.append(f"control a={a}: the true swap operator failed fact 1")
            if self._annihilates(flipped, system.n_indices, a, 3):
                probs.append(f"control a={a}: sign-flipped swap operator passed fact 1")
        return probs


# -- quotient-small-batch ----------------------------------------------------------------


class QuotientSmallBatch(Workload):
    name = "quotient-small-batch"
    N = 8000
    CHECKPOINTS = [500, 2000, 8000]
    CONTROL_CHECKPOINTS = [100, 500]
    REPLICAS = 100
    CELLS = 8
    ATOMS = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    WEIGHTS = ["2/5", "3/10", "3/10"]
    MATRIX = [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [math.sqrt(2.0), math.sqrt(3.0), 0.0]]

    def _config(self, seed: int, checkpoints, affine: bool = True) -> dict:
        base = {"kind": "atoms", "points": self.ATOMS, "weights": self.WEIGHTS}
        measure = ({"kind": "affine", "base": base, "matrix": self.MATRIX, "shift": [0, 0, 0]}
                   if affine else base)
        return {"algebra": "heisenberg3", "measure": measure, "seed": seed,
                "M": self.REPLICAS, "params": {"checkpoints": checkpoints}}

    def setup(self):
        self.cfg = self.write_config("equid.json", self._config(derived_seed(self.seed, "equid"),
                                                                  self.CHECKPOINTS))
        self.cfg_ctrl = self.write_config("control.json",
                                          self._config(derived_seed(self.seed, "ctrl"),
                                                       self.CONTROL_CHECKPOINTS, False))
        self.heis = self.nw["algebra"].builtin_algebra("heisenberg3")
        self.heis.product_map()

    def _equid(self, config: str, n: int):
        rc, text = run_cli(self.cli, ["nilmanifold", "equid", "--config", config,
                                      "--N", str(n), "--cells", str(self.CELLS)])
        return {"rc": rc, "report": json.loads(text)}

    def ops(self):
        return [Op("nilmanifold-equid", lambda: self._equid(self.cfg, self.N))]

    def _discrepancies(self, out) -> list[float]:
        cps = out["report"]["checkpoints"]
        return [cps[str(c)]["discrepancy"] for c in sorted(int(k) for k in cps)]

    def check(self, outputs):
        out = outputs["nilmanifold-equid"]
        d = self._discrepancies(out)
        probs = []
        if out["rc"] != 0:
            probs.append(f"equid exit code {out['rc']} (final discrepancy {d[-1]:.4f})")
        if len(d) != len(self.CHECKPOINTS) or any(b >= a for a, b in zip(d, d[1:])):
            probs.append(f"discrepancy does not fall across checkpoints: {d}")
        probs += self._fold_invariance()
        return probs

    def _fold_invariance(self, steps: int = 300) -> list[str]:
        """fold(x * lam) = fold(x) on the walk's positions, lam in the lattice."""
        nm = self.nw["nilmanifold"]
        rng = np.random.default_rng(derived_seed(self.seed, "fold"))
        product = self.heis.product_map()
        atoms = np.array(self.ATOMS, dtype=float) @ np.array(self.MATRIX)
        weights = np.array([float(Fraction(w)) for w in self.WEIGHTS])
        s = np.zeros((self.REPLICAS, 3))
        worst = 0.0
        for _ in range(steps):
            s = product(s, atoms[rng.choice(3, size=self.REPLICAS, p=weights)])
            a, b, c = (int(v) for v in rng.integers(-3, 4, size=3))
            lam = np.broadcast_to(nm.lattice_element(a, b, c), s.shape)
            diff = nm.fold_second_kind(product(s, lam)) - nm.fold_second_kind(s)
            worst = max(worst, float(np.abs(diff - np.round(diff)).max()))
        return [] if worst < 1e-7 else [f"fold is not lattice invariant (gap {worst:.3g})"]

    def controls(self, outputs):
        out = self._equid(self.cfg_ctrl, self.CONTROL_CHECKPOINTS[-1])
        final = self._discrepancies(out)[-1]
        return [] if out["rc"] != 0 and final > 0.1 else [
            f"control: a law on lattice points equidistributed (discrepancy {final:.4f})"]


WORKLOADS = {w.name: w for w in (HeisLLT, DeepCLT, ExactSymbolic, QuotientSmallBatch)}
