"""Experiment configuration: JSON schema, digesting, and CSV emission.

A config file is a JSON object with the fields

    algebra   builtin name ("heisenberg3", "abelian(3)", "filiform4",
              "free-nilpotent(2,3)") or an inline table
              {"dim": d, "step": s, "brackets": [[i, j, [c_1..c_d]], ...]}
              with 1-based indices and rational strings allowed;
    drift     coordinate list of the drift class (defaults to the
              measure's mean when omitted);
    measure   {"kind": "atoms", "points": [...], "weights": [...]}
              or {"kind": "gaussian_layers", "cov": [...]}         (diagonal)
              or {"kind": "product", "factors": [{"kind": ...}, ...]}
              or {"kind": "affine", "base": {...}, "matrix": [...], "shift": [...]};
    seed, M, N or N_grid, and per-experiment parameters, among them the
    optional check {"target": t, "relative_tolerance": r} as params.checks.
    Other keys (an "experiment" name, say) are not read, but they enter the
    digest.

The digest is a SHA-256 over the canonical (sorted-keys) JSON encoding, so
key order in the file never changes identity.  CSV output starts with a
'#'-prefixed timestamp line that diff tooling is expected to skip.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Optional, Sequence

import numpy as np

from .algebra import NilpotentAlgebra, builtin_algebra
from .filtration import WeightFiltration
from .measures import (
    AffineImage,
    AtomicMeasure,
    Atoms1D,
    Dirac1D,
    Gaussian1D,
    Measure,
    ProductMeasure,
    TwoPoint1D,
    Uniform1D,
)


class ConfigError(Exception):
    """Raised when a config file fails to parse (structure, not values).

    Value-level failures (Jacobi violations, bad ranges) surface as
    ValueError so the command line can distinguish exit code 2 from 3.
    """


def load_json(path: str) -> Any:
    """The JSON document in ``path``; a missing or malformed file is a ConfigError."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as e:
        raise ConfigError(f"cannot parse {path}: {e}") from e


def canonical_digest(obj: Any) -> str:
    blob = json.dumps(obj, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def parse_algebra(spec) -> NilpotentAlgebra:
    if isinstance(spec, str):
        try:
            return builtin_algebra(spec)
        except ValueError as e:
            raise ConfigError(str(e)) from e
    if not isinstance(spec, dict):
        raise ConfigError("algebra must be a builtin name or an inline table")
    try:
        dim = int(spec["dim"])
        step = int(spec["step"])
        brackets: dict[tuple[int, int], dict[int, Fraction]] = {}
        for entry in spec.get("brackets", []):
            i, j, coeffs = entry
            i, j = int(i) - 1, int(j) - 1
            if i > j:
                i, j = j, i
                coeffs = [-Fraction(str(c)) for c in coeffs]
            brackets[(i, j)] = {
                k: Fraction(str(c)) for k, c in enumerate(coeffs) if Fraction(str(c)) != 0
            }
    except (KeyError, TypeError, IndexError) as e:
        raise ConfigError(f"bad algebra table structure: {e}") from e
    # constructor validation errors (Jacobi, step) propagate as ValueError
    return NilpotentAlgebra(dim, step, brackets)


_FACTORS = {
    "gaussian": lambda f: Gaussian1D(float(f.get("mean", 0.0)), float(f.get("std", 1.0))),
    "uniform": lambda f: Uniform1D(float(f["lo"]), float(f["hi"])),
    "two_point": lambda f: TwoPoint1D(float(f["a"]), float(f["b"]), float(f.get("p", 0.5))),
    "dirac": lambda f: Dirac1D(float(f.get("value", 0.0))),
    "atoms1d": lambda f: Atoms1D(tuple(float(x) for x in f["points"]),
                                 tuple(float(w) for w in f["weights"])),
}


def parse_measure(spec: dict, algebra: NilpotentAlgebra) -> Measure:
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ConfigError("measure must be an object with a 'kind'")
    kind = spec["kind"]
    try:
        if kind == "atoms":
            return AtomicMeasure(
                algebra,
                [[Fraction(str(c)) for c in p] for p in spec["points"]],
                [Fraction(str(w)) for w in spec["weights"]],
            )
        if kind == "gaussian_layers":
            cov = [float(c) for c in spec["cov"]]
            if len(cov) != algebra.dim:
                raise ValueError("gaussian_layers wants one variance per coordinate")
            factors = [Gaussian1D(0.0, v ** 0.5) if v > 0 else Dirac1D(0.0) for v in cov]
            return ProductMeasure(algebra, factors)
        if kind == "product":
            factors = []
            for f in spec["factors"]:
                maker = _FACTORS.get(f.get("kind"))
                if maker is None:
                    raise ConfigError(f"unknown factor kind {f.get('kind')!r}")
                factors.append(maker(f))
            return ProductMeasure(algebra, factors)
        if kind == "affine":
            base = parse_measure(spec["base"], algebra)
            return AffineImage(base, np.array(spec["matrix"], dtype=float),
                               np.array(spec.get("shift", [0.0] * algebra.dim), dtype=float))
    except (KeyError, TypeError, AttributeError) as e:
        raise ConfigError(f"bad measure structure: {e}") from e
    raise ConfigError(f"unknown measure kind {kind!r}")


@dataclass
class ExperimentConfig:
    raw: dict
    algebra: NilpotentAlgebra
    filtration: WeightFiltration
    measure: Measure
    seed: int
    n_replicas: int
    n_grid: list[int]
    params: dict = field(default_factory=dict)

    @property
    def digest(self) -> str:
        return canonical_digest(self.raw)

    @classmethod
    def from_dict(cls, raw: dict, seed_override: Optional[int] = None) -> "ExperimentConfig":
        if not isinstance(raw, dict):
            raise ConfigError("top-level config must be an object")
        algebra = parse_algebra(raw.get("algebra", "heisenberg3"))
        measure = parse_measure(raw.get("measure", {"kind": "gaussian_layers",
                                                    "cov": [1.0] * algebra.dim}), algebra)
        params = raw.get("params", {})
        if not isinstance(params, dict):
            raise ConfigError("params must be an object")
        checks = params.get("checks")
        if checks is not None:
            if not (isinstance(checks, dict) and set(checks) == {"target", "relative_tolerance"}
                    and all(type(v) in (int, float) for v in checks.values())):
                raise ConfigError("params.checks must be an object of two numbers, "
                                  "target and relative_tolerance")
            if not checks["relative_tolerance"] >= 0:
                raise ValueError("params.checks relative_tolerance must not be negative")
        try:
            if "drift" in raw:
                drift = [Fraction(str(c)) for c in raw["drift"]]
            else:
                drift = [Fraction(x).limit_denominator(10**6) for x in measure.mean_float()]
            seed = int(raw.get("seed", 0)) if seed_override is None else seed_override
            if "N_grid" in raw:
                grid = [int(n) for n in raw["N_grid"]]
            else:
                grid = [int(raw.get("N", 64))]
            m = int(raw.get("M", 10_000))
            # coordinate inputs broadcast silently when short, so their length is checked
            coords = {"drift": drift} | {k: params[k] for k in ("Y", "g", "h", "box")
                                         if k in params}
            short = [k for k, v in coords.items() if len(v) != algebra.dim]
            ordered = all(len(b) == 2 and float(b[0]) <= float(b[1])
                          for b in params.get("box", ()))
        except TypeError as e:
            raise ConfigError(f"bad config field: {e}") from e
        if short:
            raise ValueError(f"{', '.join(short)} length must match the algebra dimension")
        if not ordered:
            raise ValueError("each box entry must be a pair [lo, hi] with lo <= hi")
        filtration = WeightFiltration(algebra, drift)
        if not grid:
            raise ValueError("N_grid must list at least one N")
        if any(n < 1 for n in grid):
            raise ValueError("N values must be positive")
        if m < 1:
            raise ValueError("M must be positive")
        return cls(
            raw=raw, algebra=algebra, filtration=filtration, measure=measure, seed=seed,
            n_replicas=m, n_grid=grid, params=dict(params),
        )

    @classmethod
    def from_file(cls, path: str, seed_override: Optional[int] = None) -> "ExperimentConfig":
        return cls.from_dict(load_json(path), seed_override)


CSV_COLUMNS = ["experiment", "N", "M", "estimate", "stderr", "target", "seed", "config_digest"]


def write_csv(path: str, rows: Sequence[dict], columns: Sequence[str] = CSV_COLUMNS) -> None:
    """Write rows with a '#' timestamp header; body is byte-stable per config+seed."""
    lines = [f"# written {time.strftime('%Y-%m-%dT%H:%M:%S')}"]
    lines.append(",".join(columns))
    for row in rows:
        lines.append(",".join(str(row.get(c, "")) for c in columns))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def write_summary(path: str, summary: dict) -> None:
    with open(path, "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True, default=str)
        fh.write("\n")
