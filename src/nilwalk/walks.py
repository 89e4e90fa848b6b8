"""Monte Carlo engine for N-step products and the limit-theorem experiments.

All product folding happens in the weight-adapted basis in double
precision, chunked over replicas.  Each experiment is a ``Plan``: a
per-chunk reduction that runs inside the chunk's fold job and hands back
a small partial (hit counts, sums), and a finish that merges the partials.
Plans that differ only in N or recentering share every chunk's stream, so
one fold job per chunk folds to their largest N and reduces each plan as it
passes that plan's N; theta clips by an N-dependent schedule, so its plans
fold alone.  One command runs its fold jobs, and the limit-law bank it
needs, on one ``job_pool`` of ``workers`` threads; at one worker the jobs
run inline.  A fold job draws its increments in place into a (dim, m)
buffer and folds them in place into another, one row per coordinate.

Reproducibility contract: the master seed is split into one child stream
per chunk through numpy's SeedSequence spawn mechanism, chunk boundaries
are fixed by the config (never by the worker count), each N's partials
merge in chunk order, so float sums add in one order, and the limit-law
bank draws from its own stream.  Identical configs therefore give
bit-identical estimates no matter how many workers run.

Recentering modes: none, right translation by -N*X (mean recentering), or
the variable version -N*X * -D_sqrt(N) Y that aims the window at density
point Y.  ``centring`` decides this once for every experiment: it gives the
walk's translation r and the translation t = N X * r of the dilated limit
sample, so ratio and pixel compare the two laws at the same place.  The
gradually truncated walk differs from the plain one only in that each
increment first passes the clip that ``measures.truncate`` builds for its
schedule level, lifted to the drift extension; chunk plan, streams, workers
and recentering are shared, so for compactly supported laws and large N the
two coincide bit for bit.

Every experiment returns one ``ExperimentResult``: an estimate, its
standard error and an optional target, with the experiment's own values
in ``extra``.  ``csv_row`` and ``summary`` write it out, and ``within``
holds the noise-aware acceptance rule.
"""

from __future__ import annotations

import functools
import math
import time
from concurrent.futures import Future, ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Optional, Sequence

import numpy as np

from .filtration import WeightFiltration
from .measures import Measure, TruncatedMeasure, truncate

# -- results -------------------------------------------------------------------


@dataclass
class ExperimentResult:
    """One Monte Carlo estimate with its standard error and target; the
    experiment's own values (moments, hit counts, gaps) go in ``extra``.
    ``wall_time`` is the run's own fold segments, reduces and finish, so the
    runs of one command sum to its busy time."""

    experiment: str
    n_steps: int
    n_replicas: int
    estimate: float
    stderr: float
    target: Optional[float] = None
    seed: int = 0
    config_digest: str = ""
    wall_time: float = 0.0
    extra: dict = field(default_factory=dict)

    def csv_row(self) -> dict:
        return {
            "experiment": self.experiment,
            "N": self.n_steps,
            "M": self.n_replicas,
            "estimate": repr(self.estimate),
            "stderr": repr(self.stderr),
            "target": "" if self.target is None else repr(self.target),
            "seed": self.seed,
            "config_digest": self.config_digest,
        }

    def summary(self) -> dict:
        """The run's summary-JSON entry: the record's fields, ``N`` and ``M``,
        and ``extra`` both nested and spread at the top level."""
        return self.extra | vars(self) | {"N": self.n_steps, "M": self.n_replicas}

    def allowance(self, rel_tol: float) -> float:
        """max(3 * stderr, rel_tol * |target|)."""
        return max(3.0 * self.stderr, rel_tol * abs(self.target))

    def within(self, rel_tol: float) -> bool:
        """Noise-aware acceptance rule: |estimate - target| <= allowance.

        A non-finite estimate or stderr (a ratio whose limit bank has no hit)
        measures nothing, so it never passes.
        """
        if self.target is None:
            raise ValueError("no target recorded")
        if not (math.isfinite(self.estimate) and math.isfinite(self.stderr)):
            return False
        return abs(self.estimate - self.target) <= self.allowance(rel_tol)


# -- configuration ----------------------------------------------------------------


@dataclass
class WalkConfig:
    filtration: WeightFiltration
    measure: Measure
    n_steps: int
    n_replicas: int
    seed: int = 0
    recenter: str = "none"  # none | mean | variable
    variable_shift: Optional[Sequence[float]] = None  # Y, original coordinates
    chunk_size: int = 250_000
    workers: int = 1

    def __post_init__(self):
        if self.n_steps < 1 or self.n_replicas < 1:
            raise ValueError("n_steps and n_replicas must be >= 1")
        if self.recenter not in ("none", "mean", "variable"):
            raise ValueError(f"unknown recentering mode {self.recenter!r}")
        if self.recenter == "variable" and self.variable_shift is None:
            raise ValueError("variable recentering needs a shift point Y")

    @property
    def algebra(self):
        return self.filtration.algebra

    def chunk_plan(self) -> list[int]:
        sizes = []
        left = self.n_replicas
        while left > 0:
            m = min(self.chunk_size, left)
            sizes.append(m)
            left -= m
        return sizes

    def chunk_streams(self) -> list[np.random.Generator]:
        ss = np.random.SeedSequence(self.seed)
        return [np.random.default_rng(child) for child in ss.spawn(len(self.chunk_plan()))]


def drift_vector_adapted(cfg: WalkConfig) -> np.ndarray:
    """X = E[x^(1)] in adapted coordinates (the layer-1 mean)."""
    wf = cfg.filtration
    mean_ad = wf.to_adapted_float(cfg.measure.mean_float())
    return np.where(wf.layer_mask(1), mean_ad, 0.0)


def centring(cfg: WalkConfig) -> tuple[np.ndarray, np.ndarray]:
    """The right translations (r, t), adapted coordinates, of the walk's
    product and of the dilated limit sample, with t = N X * r: none gives
    (0, N X), mean (-N X, 0), variable (-N X * -D_sqrt(N) Y, -D_sqrt(N) Y).
    Each t is built on its own, so mean's is exactly zero."""
    wf = cfg.filtration
    nx = cfg.n_steps * drift_vector_adapted(cfg)
    if cfg.recenter == "none":
        return np.zeros(wf.algebra.dim), nx
    if cfg.recenter == "mean":
        return -nx, np.zeros(wf.algebra.dim)
    y_ad = wf.to_adapted_float(np.asarray(cfg.variable_shift, dtype=float))
    t = -np.power(float(cfg.n_steps), wf.weights_array / 2.0) * y_ad
    return wf.adapted_algebra.product_map()(-nx, t), t


# -- the fold engine -----------------------------------------------------------------


@dataclass
class Plan:
    """The folds of one walk config: ``reduce`` maps a chunk's (adapted
    products, clipped increments) to a small partial inside its fold job, and
    ``finish`` maps the partials, in chunk order, to the result.  The
    products are the job's scratch, so a partial must not keep them.
    ``truncs`` clips step k by truncs[k]."""

    cfg: WalkConfig
    reduce: Callable[[np.ndarray, int], Any]
    finish: Callable[[list], Any]
    truncs: Optional[Sequence[TruncatedMeasure]] = None


class _Inline:
    """The one-worker pool: a job runs as it is submitted (a one-thread
    pool made deep-clt wall 0.117 -> 0.138 s and peak RSS 49.4 -> 52.2 MB)."""

    def submit(self, fn, *args) -> Future:
        future = Future()
        future.set_result(fn(*args))
        return future


@contextmanager
def job_pool(workers: int):
    """``workers`` threads for every job of one command; inline at one worker."""
    if workers <= 1:
        yield _Inline()
        return
    pool = ThreadPoolExecutor(max_workers=workers)
    try:
        yield pool
    finally:
        pool.shutdown(cancel_futures=True)


def _fold_job(plans: Sequence[Plan], m: int, rng: np.random.Generator) -> list[tuple[Any, float]]:
    """Each plan's (reduced partial, busy seconds) from one chunk folded on
    its own stream.  The plans differ only in N and recentering and come in
    N order: the fold runs to the last N, and a plan reduces as the fold
    passes its N.  Its seconds are its own fold segment and its reduce.

    On a permutation basis the draws' rows are gathered into a second
    (dim, m) buffer and reach the product coordinate-major; any other
    non-identity basis takes ``to_adapted_float``'s C-contiguous matmul."""
    t0 = time.perf_counter()
    cfg, wf, truncs = plans[0].cfg, plans[0].cfg.filtration, plans[0].truncs
    product = wf.adapted_algebra.product_map()
    perm = wf.adapted_perm
    buf = np.empty((wf.algebra.dim, m))  # one row per coordinate: the draws land in place
    rows = None if perm is None else np.empty_like(buf)
    s = np.zeros((wf.algebra.dim, m))  # the products, coordinate-major, folded in place
    clipped, k, done = 0, 0, []
    for plan in plans:
        while k < plan.cfg.n_steps:
            x = cfg.measure.sample(rng, m, out=buf.T)
            # mode="clip" lets take write into rows without a buffered copy
            x = wf.to_adapted_float(x) if perm is None else \
                np.take(buf, perm, axis=0, out=rows, mode="clip").T
            if truncs is not None:
                x, altered = truncs[k].clip(x)
                clipped += int(altered.sum())
            product(s.T, x, out=s.T)
            k += 1
        # the draws are spent, so their buffer takes a row-major copy of the
        # products: the reduce sums in its usual order, and no array is added
        z = buf.reshape(m, -1)
        np.copyto(z, s.T)
        shift = centring(plan.cfg)[0]
        if np.any(shift):
            product(z, shift[None, :], out=z)
        done.append((plan.reduce(z, clipped), time.perf_counter() - t0))
        t0 = time.perf_counter()
    return done


def run_plans(plans: Sequence[Plan], pool) -> list:
    """Every plan's result.  Plans that differ only in N or recentering
    share one fold job per chunk; all jobs go to the pool first, then each
    plan finishes.  An ``ExperimentResult`` gets the busy seconds of its
    segments of those jobs and of its finish as ``wall_time``."""
    groups: dict[Any, list[int]] = {}
    for i in sorted(range(len(plans)), key=lambda i: plans[i].cfg.n_steps):
        c = plans[i].cfg  # a clip schedule depends on N, so a clipped plan folds alone
        groups.setdefault(i if plans[i].truncs is not None else (
            id(c.filtration), id(c.measure), c.seed, c.n_replicas, c.chunk_size), []).append(i)
    jobs = [(g, [pool.submit(_fold_job, [plans[i] for i in g], m, rng) for m, rng in
                 zip(plans[g[0]].cfg.chunk_plan(), plans[g[0]].cfg.chunk_streams())])
            for g in groups.values()]
    results = [None] * len(plans)
    for group, futures in jobs:
        done = [f.result() for f in futures]  # done[chunk][j]: plan group[j]'s (partial, busy)
        for j, i in enumerate(group):
            t0 = time.perf_counter()
            res = plans[i].finish([chunk[j][0] for chunk in done])
            if isinstance(res, ExperimentResult):
                res.wall_time = sum(chunk[j][1] for chunk in done) + time.perf_counter() - t0
            results[i] = res
    return results


def totals(partials: list[tuple]) -> list:
    """Component-wise sums of tuple partials, added in chunk order from 0."""
    return [sum(column) for column in zip(*partials)]


def experiment(build: Callable[..., Plan]) -> Callable:
    """The experiment of a plan builder, on a pool of ``cfg.workers``; the
    builder stays reachable as ``.plan`` for callers that share one pool."""

    @functools.wraps(build)
    def run(cfg: WalkConfig, *args, **kwargs):
        with job_pool(cfg.workers) as pool:
            return run_plans([build(cfg, *args, **kwargs)], pool)[0]

    run.plan = build
    return run


# -- gradual truncation ----------------------------------------------------------------


def truncation_schedule(n_steps: int, gamma0: float, step: int) -> list[tuple[int, int]]:
    """[(level_a, count_a)] with exponents gamma_a = gamma0/(32 s)^a, vanishing
    at a = s so that the last level is exactly N."""
    if not 0 < gamma0 < 1:
        raise ValueError("gamma0 must lie in (0, 1)")
    levels = []
    prev_edge = 0
    for a in range(1, step + 1):
        gamma_a = gamma0 * (32 * step) ** (-a) if a < step else 0.0
        edge = int(math.floor(n_steps ** (1.0 - gamma_a)))
        count = edge - prev_edge
        if count > 0:
            levels.append((edge, count))
        prev_edge = edge
    total = sum(c for _, c in levels)
    if total != n_steps:
        raise RuntimeError("schedule does not cover all steps")
    return levels


def gradual_truncation(cfg: WalkConfig, gamma0: float) -> list[TruncatedMeasure]:
    """The clip of each step: ``measures.truncate`` at its schedule level,
    lifted by the layer-1 drift X; zero drift gives the plain rule."""
    x1 = drift_vector_adapted(cfg)[cfg.filtration.layer_indices(1)]
    truncs: list[TruncatedMeasure] = []
    for level, count in truncation_schedule(cfg.n_steps, gamma0, cfg.algebra.step):
        # salt 977 keeps the recentering draws apart from the chunk streams
        rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 977, level]))
        truncs += [truncate(cfg.measure, cfg.filtration, level, rng,
                            x1 if np.any(x1) else None)] * count
    return truncs


# -- deviation sets -----------------------------------------------------------------


def loglaw_boundary_point(filtration: WeightFiltration, n_steps: int, c: float,
                          layers: Optional[Iterable[int]] = None) -> np.ndarray:
    """A point on the boundary of the loglaw window, original coordinates.

    Each requested layer gets norm exactly c (N log N)^(i/2) along its first
    adapted direction.
    """
    wf = filtration
    base = n_steps * math.log(n_steps)
    coords = np.zeros(wf.algebra.dim)
    wanted = set(layers) if layers is not None else {b for b in range(1, wf.max_weight + 1)}
    for b in sorted(wanted):
        idx = wf.layer_indices(b)
        if idx:
            coords[idx[0]] = c * base ** (b / 2.0)
    return wf.from_adapted_float(coords)


# -- experiments ------------------------------------------------------------------------


def box_indicator(box: Sequence[tuple[float, float]]) -> Callable[[np.ndarray], np.ndarray]:
    lo = np.array([b[0] for b in box])
    hi = np.array([b[1] for b in box])

    def inside(x: np.ndarray) -> np.ndarray:
        return ((x >= lo) & (x <= hi)).all(axis=-1)

    return inside


def box_volume(box: Sequence[tuple[float, float]]) -> float:
    v = 1.0
    for lo, hi in box:
        v *= hi - lo
    return v


@experiment
def llt_box_experiment(cfg: WalkConfig, box: Sequence[tuple[float, float]],
                       config_digest: str = "") -> Plan:
    """N^(hom_dim/2) times the box hit-rate of the recentered product.

    The box lives in original coordinates.  Zero hits are flagged as a
    low-power result, not an error, and the stderr counts them as one hit.
    """
    wf = cfg.filtration
    inside = box_indicator(box)

    def finish(hits_per_chunk: list[int]) -> ExperimentResult:
        hits = sum(hits_per_chunk)
        m = cfg.n_replicas
        scale = float(cfg.n_steps) ** (wf.hom_dim / 2.0)
        est = scale * (hits / m)
        p_floor = max(hits, 1) / m
        se = scale * math.sqrt(p_floor * (1 - p_floor) / m)
        return ExperimentResult(
            experiment="llt_box", n_steps=cfg.n_steps, n_replicas=m,
            estimate=est, stderr=se, seed=cfg.seed, config_digest=config_digest,
            extra={
                "hits": hits,
                "box_volume": box_volume(box),
                "low_power": hits < 10,
                "per_volume": est / box_volume(box),
                "per_volume_stderr": se / box_volume(box),
            },
        )

    return Plan(cfg, lambda s, _: int(inside(wf.from_adapted_float(s)).sum()), finish)


@experiment
def clt_experiment(cfg: WalkConfig, histogram_bins: int = 0,
                   config_digest: str = "") -> Plan:
    """Rescale products by D_(1/sqrt N) and report per-layer moments.

    The estimate is the first layer-1 variance, with stderr 1/sqrt(M).
    ``extra`` holds the empirical mean and covariance in adapted
    coordinates, the per-layer covariance blocks, and optional
    per-coordinate histograms.
    """
    wf = cfg.filtration
    d = wf.algebra.dim
    scale = np.power(float(cfg.n_steps), -wf.weights_array / 2.0)
    edges = np.linspace(-5.0, 5.0, histogram_bins + 1) if histogram_bins else None

    def reduce(s: np.ndarray, _) -> tuple:
        z = s * scale
        hists = [np.histogram(z[:, j], bins=edges)[0] for j in range(d)] if histogram_bins else []
        return z.sum(axis=0), z.T @ z, z.shape[0], np.array(hists)

    def finish(parts: list[tuple]) -> ExperimentResult:
        total, total2, count, hists = totals(parts)
        mean = total / count
        cov = total2 / count - np.outer(mean, mean)
        layers = {}
        for b in range(1, wf.max_weight + 1):
            idx = wf.layer_indices(b)
            if idx:
                layers[b] = cov[np.ix_(idx, idx)].tolist()
        se = 1.0 / math.sqrt(count)
        extra = {"mean_adapted": mean.tolist(), "cov_adapted": cov.tolist(),
                 "layer_cov": layers, "moment_stderr": se}
        if histogram_bins:
            extra["histogram_edges"] = edges.tolist()
            extra["histograms"] = hists.tolist()
        return ExperimentResult(
            experiment="clt", n_steps=cfg.n_steps, n_replicas=cfg.n_replicas,
            estimate=layers[1][0][0], stderr=se, seed=cfg.seed, config_digest=config_digest,
            extra=extra,
        )

    return Plan(cfg, reduce, finish)


def limit_sample(cfg: WalkConfig, nu_samples_adapted: np.ndarray | Future) -> np.ndarray:
    """D_sqrt(N) of the limit-law bank, right-translated by the centring's t,
    so that it sits where the walk's translated product does.  The bank may
    be the future of the job that builds it; a zero t runs no product."""
    wf = cfg.filtration
    bank = nu_samples_adapted.result() if isinstance(nu_samples_adapted, Future) \
        else nu_samples_adapted
    z = bank * np.power(float(cfg.n_steps), wf.weights_array / 2.0)
    t = centring(cfg)[1]
    if np.any(t):
        wf.adapted_algebra.product_map()(z, t[None, :], out=z)
    return z


@experiment
def ratio_experiment(cfg: WalkConfig, box: Sequence[tuple[float, float]],
                     nu_samples_adapted: np.ndarray | Future,
                     g: Optional[Sequence[float]] = None,
                     h: Optional[Sequence[float]] = None,
                     config_digest: str = "") -> Plan:
    """Ratio of walk and limit-law masses of a common translated box.

    Numerator: P(g * S_N r * h in box) from the walk.  Denominator: the
    same probability with S_N r replaced by ``limit_sample``'s D_sqrt(N) of
    a limit sample times t; (r, t) is the config's ``centring``.  The
    standard error combines both sides by the delta method and, as in llt,
    counts a walk side with no hit as one hit.  The bank may be the future
    of the job that builds it; it is read after the walk.  With recenter
    none on a drifted law both sides sit at N X, far out in the limit's
    tail for a box near the origin, and the ratio has little power.
    """
    wf = cfg.filtration
    prod = wf.adapted_algebra.product_map()
    inside = box_indicator(box)
    g_ad = None if g is None else wf.to_adapted_float(np.asarray(g, dtype=float))[None, :]
    h_ad = None if h is None else wf.to_adapted_float(np.asarray(h, dtype=float))[None, :]

    def hits(z: np.ndarray) -> int:
        """Box hits of g * z * h, translated in place: z is scratch."""
        if g_ad is not None:
            prod(g_ad, z, out=z)
        if h_ad is not None:
            prod(z, h_ad, out=z)
        return int(inside(wf.from_adapted_float(z)).sum())

    def finish(hits_per_chunk: list[int]) -> ExperimentResult:
        hits_walk = sum(hits_per_chunk)
        m_walk = cfg.n_replicas
        p_walk = hits_walk / m_walk
        scaled = limit_sample(cfg, nu_samples_adapted)
        hits_nu = hits(scaled)
        m_nu = scaled.shape[0]
        p_nu = hits_nu / m_nu
        if hits_nu == 0:
            ratio, se = math.inf, math.inf
        else:
            ratio = p_walk / p_nu
            rel = math.sqrt(
                max(1 - p_walk, 0.0) / max(hits_walk, 1) + max(1 - p_nu, 0.0) / hits_nu
            )
            se = max(hits_walk, 1) / m_walk / p_nu * rel
        return ExperimentResult(
            experiment="ratio", n_steps=cfg.n_steps, n_replicas=m_walk,
            estimate=ratio, stderr=se, target=1.0, seed=cfg.seed,
            config_digest=config_digest,
            extra={"hits_walk": hits_walk, "hits_nu": hits_nu, "nu_samples": m_nu,
                   "p_walk": p_walk, "p_nu": p_nu},
        )

    return Plan(cfg, lambda s, _: hits(s), finish)


def lipschitz_family(filtration: WeightFiltration, count: int, seed: int) -> list[tuple[str, Callable]]:
    """Bounded 1-Lipschitz test functions: clamped distances and sinusoids."""
    rng = np.random.default_rng(seed)
    d = filtration.algebra.dim
    fams: list[tuple[str, Callable]] = []
    for i in range(count):
        if i % 2 == 0:
            p = rng.uniform(-2, 2, d)

            def f(x, p=p):
                return np.minimum(1.0, np.linalg.norm(x - p, axis=-1))

            fams.append((f"clamp_dist_{i}", f))
        else:
            theta = rng.standard_normal(d)
            theta /= np.linalg.norm(theta)

            def f(x, theta=theta):
                return np.sin(2 * np.pi * (x @ theta)) / (2 * np.pi)

            fams.append((f"sinusoid_{i}", f))
    return fams


@experiment
def pixel_experiment(cfg: WalkConfig, nu_samples_adapted: np.ndarray | Future,
                     tests: Optional[list[tuple[str, Callable]]] = None,
                     config_digest: str = "") -> Plan:
    """Gap between walk and dilated-limit expectations of Lipschitz tests.

    The walk side evaluates F on the recentered product S_N r, the limit
    side on ``limit_sample``'s D_sqrt(N)(limit sample) * t, with (r, t) the
    config's ``centring``.  The estimate is the largest gap, against
    target 0, with the noise scale 1/sqrt(M) + 1/sqrt(bank size) as stderr.
    """
    wf = cfg.filtration
    if tests is None:
        tests = lipschitz_family(wf, 6, seed=cfg.seed + 101)

    def reduce(s: np.ndarray, _) -> tuple[np.ndarray, int]:
        x = wf.from_adapted_float(s)
        return np.array([float(f(x).sum()) for _, f in tests]), s.shape[0]

    def finish(parts: list[tuple[np.ndarray, int]]) -> ExperimentResult:
        sums, count = totals(parts)
        walk_means = sums / count
        z = limit_sample(cfg, nu_samples_adapted)
        znat = wf.from_adapted_float(z)
        nu_means = np.array([float(f(znat).mean()) for _, f in tests])

        gaps = np.abs(walk_means - nu_means)
        noise = 1.0 / math.sqrt(count) + 1.0 / math.sqrt(z.shape[0])
        max_gap = float(gaps.max())
        return ExperimentResult(
            experiment="pixel", n_steps=cfg.n_steps, n_replicas=cfg.n_replicas,
            estimate=max_gap, stderr=noise, target=0.0, seed=cfg.seed,
            config_digest=config_digest,
            extra={"tests": [name for name, _ in tests], "walk_means": walk_means.tolist(),
                   "limit_means": nu_means.tolist(), "gaps": gaps.tolist(),
                   "max_gap": max_gap, "noise_scale": noise},
        )

    return Plan(cfg, reduce, finish)


@experiment
def theta_experiment(cfg: WalkConfig, gamma0: float,
                     config_digest: str = "") -> Plan:
    """Sample the gradually truncated product and report the clip rate.

    The estimate is the fraction p of the M*N increments that the clip
    altered, with the pooled binomial stderr sqrt(p(1-p)/(M*N)).  Increments
    clip independently and p(1-p) is concave, so this bounds the per-level
    binomial stderr from above.  ``extra`` holds the schedule and the
    adapted-coordinate moments of the truncated product.
    """
    wf = cfg.filtration

    def finish(parts: list[tuple]) -> ExperimentResult:
        total, total2, altered, count = totals(parts)
        mean = total / count
        var = total2 / count - mean**2
        increments = count * cfg.n_steps
        p = altered / increments
        return ExperimentResult(
            experiment="theta", n_steps=cfg.n_steps, n_replicas=cfg.n_replicas,
            estimate=p, stderr=math.sqrt(p * (1 - p) / increments), seed=cfg.seed,
            config_digest=config_digest,
            extra={"gamma0": gamma0,
                   "schedule": truncation_schedule(cfg.n_steps, gamma0, wf.algebra.step),
                   "altered_fraction": p, "mean_adapted": mean.tolist(),
                   "var_adapted": var.tolist()},
        )

    # samples are adapted coordinates
    return Plan(cfg, lambda s, clipped: (s.sum(axis=0), (s**2).sum(axis=0), clipped, s.shape[0]),
                finish, gradual_truncation(cfg, gamma0))
