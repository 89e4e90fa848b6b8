import functools
import hashlib
import json
import math
import sys
import threading

import numpy as np
import pytest

from nilwalk import walks
from nilwalk.cli import WALK_MODES, main
from nilwalk.config import ConfigError, ExperimentConfig, canonical_digest


@pytest.fixture
def heis_config(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({
        "algebra": "heisenberg3",
        "drift": [0, 0, 0],
        "measure": {"kind": "gaussian_layers", "cov": [1.0, 1.0, 0.0]},
        "seed": 5,
        "M": 20_000,
        "N": 16,
        "params": {"recenter": "mean", "box": [[-1, 1], [-1, 1], [-1, 1]]},
    }))
    return path


def read_body(path):
    """CSV body without the timestamp comment line."""
    lines = path.read_text().splitlines()
    assert lines[0].startswith("#")
    return lines[1:]


def test_algebra_check_builtin(capsys):
    assert main(["algebra", "check", "--builtin", "heisenberg3"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["step"] == 2


def test_algebra_check_rejects_unknown():
    assert main(["algebra", "check", "--builtin", "not-an-algebra"]) == 2


def test_algebra_check_inline_file(tmp_path, capsys):
    path = tmp_path / "alg.json"
    path.write_text(json.dumps({
        "dim": 3, "step": 2,
        "brackets": [[1, 2, [0, 0, 1]]],
    }))
    assert main(["algebra", "check", "--file", str(path)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["central_series_dims"] == [3, 1, 0]


def test_algebra_check_invalid_table(tmp_path):
    # structurally fine but fails the Jacobi/step validation: exit 3
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({
        "dim": 3, "step": 2,
        "brackets": [[1, 2, [0, 0, 1]], [1, 3, [0, 1, 0]]],
    }))
    assert main(["algebra", "check", "--file", str(path)]) == 3


def test_filtration_compute(capsys):
    assert main(["filtration", "compute", "--algebra", "heisenberg3",
                 "--drift", "1,0,0"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["hom_dim"] == 5
    assert out["ideal_dims"][:3] == [3, 1, 1]


def test_pathswap_verify(capsys):
    assert main(["pathswap", "verify", "--a", "2", "--k", "1",
                 "--nprime", "1", "--step", "3"]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 3


def test_pathswap_verify_a4_evaluates_fact3_on_class_4(capsys):
    assert main(["pathswap", "verify", "--a", "4", "--k", "1", "--nprime", "1",
                 "--step", "4", "--pair-limit", "4"]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 3
    assert "evaluated on free_nilpotent(2,4)" in out


def test_pathswap_fact3_fails_when_the_bracket_side_vanishes(capsys, monkeypatch):
    """On an algebra of class 2 < a = 3 every 3-fold bracket is zero, so
    fact 3 compares zero with zero and must not pass."""
    from nilwalk import algebra

    monkeypatch.setattr(algebra, "free_nilpotent", lambda g, s: algebra.heisenberg3())
    assert main(["pathswap", "verify", "--a", "3", "--k", "1", "--nprime", "1",
                 "--step", "3", "--pair-limit", "4"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1].endswith("FAIL") and lines[0].endswith("PASS")


def test_pathswap_budget_exceeded():
    assert main(["--budget", "100", "pathswap", "verify", "--a", "3",
                 "--k", "2", "--nprime", "2", "--step", "4"]) == 4


def test_pathswap_emit_poly(tmp_path):
    out = tmp_path / "poly.tsv"
    assert main(["pathswap", "verify", "--a", "2", "--k", "1", "--nprime", "1",
                 "--step", "3", "--emit-poly", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert all("\t" in line and "/" in line for line in lines)
    assert lines == sorted(lines, key=lambda l: (len(l.split("\t")[0].split(".")),
                                                 l.split("\t")[0]))


def test_walk_llt_csv_determinism(tmp_path, heis_config):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["walk", "llt", "--config", str(heis_config), "--out", str(out1)]) == 0
    assert main(["walk", "llt", "--config", str(heis_config), "--out", str(out2)]) == 0
    assert read_body(out1) == read_body(out2)


def test_walk_seed_override_changes_estimate(tmp_path, heis_config):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    main(["walk", "llt", "--config", str(heis_config), "--out", str(out1)])
    main(["walk", "llt", "--config", str(heis_config), "--seed", "99",
          "--out", str(out2)])
    assert read_body(out1) != read_body(out2)


def test_walk_theta(tmp_path, heis_config, capsys):
    assert main(["walk", "theta", "--config", str(heis_config)]) == 0


def test_walk_theta_worker_count_does_not_change_output(tmp_path, heis_config):
    """260 000 replicas make two chunks of the fixed 250 000-row plan."""
    cfg = json.loads(heis_config.read_text()) | {"M": 260_000, "N": 4}
    heis_config.write_text(json.dumps(cfg))
    bodies, runs = [], []
    for workers in ("1", "2"):
        out = tmp_path / f"theta{workers}.csv"
        assert main(["--workers", workers, "walk", "theta", "--config", str(heis_config),
                     "--out", str(out)]) == 0
        bodies.append(read_body(out))
        run = json.loads((tmp_path / f"theta{workers}_summary.json").read_text())["runs"][0]
        runs.append((run["altered_fraction"], run["mean_adapted"], run["var_adapted"]))
    assert bodies[0] == bodies[1]
    assert runs[0] == runs[1] and runs[0][0] > 0


def test_every_walk_mode_gives_the_same_csv_at_one_two_and_three_workers(tmp_path, heis_config):
    """260 000 replicas make two chunks per N of the fixed 250 000-row plan, so
    with the bank there are up to five jobs for three threads; a short switch
    interval makes the threads interleave often."""
    cfg = json.loads(heis_config.read_text()) | {"M": 260_000, "N_grid": [2, 4]}
    cfg.pop("N")
    cfg["params"] |= {"diffusion_steps": 8, "nu_samples": 2_000}
    heis_config.write_text(json.dumps(cfg))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for mode in WALK_MODES:
            bodies = []
            for workers in ("1", "2", "3"):
                out = tmp_path / f"{mode}{workers}.csv"
                assert main(["--workers", workers, "walk", mode, "--config", str(heis_config),
                             "--out", str(out)]) == 0
                bodies.append(read_body(out))
            assert bodies[0] == bodies[1] == bodies[2], mode
            assert len(bodies[0]) == 1 + 2
    finally:
        sys.setswitchinterval(interval)


GRID_WALKS = {
    "heisenberg3": {"algebra": "heisenberg3", "drift": [0, 0, 0],
                    "measure": {"kind": "gaussian_layers", "cov": [1.0, 1.0, 0.0]},
                    "params": {"Y": [0.5, -0.5, 0.25], "box": [[-2, 2]] * 3}},
    "free-nilpotent(2,3)+e1": {
        "algebra": "free-nilpotent(2,3)", "drift": [1, 0, 0, 0, 0],
        "measure": {"kind": "product", "factors": [
            {"kind": "uniform", "lo": 0.5, "hi": 1.5}, {"kind": "gaussian", "std": 1.0},
            {"kind": "uniform", "lo": -1.0, "hi": 1.0}, {"kind": "gaussian", "mean": 0.2},
            {"kind": "uniform", "lo": -0.5, "hi": 0.5}]},
        "params": {"Y": [0.5, -0.5, 0.25, 0.1, -0.1], "box": [[-8, 8]] * 5}},
}


@pytest.mark.parametrize("mode", list(WALK_MODES))
@pytest.mark.parametrize("algebra", list(GRID_WALKS))
def test_a_grid_walk_gives_the_rows_of_its_one_n_walks(tmp_path, monkeypatch, algebra, mode):
    """The N of a grid share one fold per chunk; each N run on its own gives
    the same CSV row, but for the config digest.  Chunks of 700 rows cut
    M = 1500 into three, and the grid is out of order."""
    from nilwalk import cli

    monkeypatch.setattr(cli, "WalkConfig", functools.partial(walks.WalkConfig, chunk_size=700))
    path, grid = tmp_path / "cfg.json", [4, 2, 6]

    def rows(cfg: dict, workers: str) -> list[list[str]]:
        path.write_text(json.dumps(cfg))
        out = tmp_path / "out.csv"
        assert main(["--workers", workers, "walk", mode, "--config", str(path),
                     "--out", str(out)]) == 0
        header, *body = read_body(out)
        keep = [c != "config_digest" for c in header.split(",")]
        return [[v for v, k in zip(line.split(","), keep) if k] for line in body]

    base = GRID_WALKS[algebra]
    for recenter in ("none", "mean", "variable"):
        cfg = base | {"seed": 31, "M": 1_500, "params": base["params"] | {
            "recenter": recenter, "diffusion_steps": 8, "nu_samples": 2_000}}
        alone = [row for n in grid for row in rows(cfg | {"N": n}, "1")]
        assert len(alone) == len(grid)
        for workers in ("1", "2"):
            assert rows(cfg | {"N_grid": grid}, workers) == alone, (recenter, workers)


# SHA-256 of each walk mode's CSV body (the lines after the '#' timestamp) on
# the GRID_WALKS configs with mean recentering, seed 47, M = 1500 in chunks of
# 700 rows and N_grid [6, 3], recorded before the small-M stream helpers of
# walks were deleted; the drifted config's ratio, pixel and ratio-gh were
# recorded again when every mode began to run the configured recentering and
# the limit sample to follow the walk's centring
WALK_DIGESTS = {
    "heisenberg3": {
        "llt": "0a45a6eff1ef3c536b207b9bfdbd0e849c3752d3602d25b607f2f30aac717de7",
        "clt": "f670f070dd7bbe599c1d3f25c5940ba83f5318dbe129742ef80a39531f79a286",
        "ratio": "9ab87aaed3f9f96ca245cb0cf4121b13c7d85275821a98a5bcb93ba813ae175a",
        "pixel": "a71e7649ce9e333a9ca8ed717d8c10ab801afce460ef5cbbbfc28cb377a248a7",
        "theta": "8ed7704fe752f883ea486be38d17030b2a1b29c9fffabd91c5d0a9aa755da28c",
        "ratio-gh": "ee3e3f4f7ea89d9aef92afcdd2e65e137793340bd3123d6b1ffd076b14f10b1d",
    },
    "free-nilpotent(2,3)+e1": {
        "llt": "a19144c0d89b23b532d3fe61e1b2d9d5422400e5c7b6c0d9f70c44d183e7e34d",
        "clt": "1daf2e9ab072af73225b442fe6193cc2729c114c19a3604459ad669f44cff822",
        "ratio": "88fa77b7e6bf9599d6e7afa98382f787c0cefd4b36822fb215b923d06bfc7318",
        "pixel": "7562681cc6dcfc42c0589e4e7d46e699c205f17c38b7cddf762cc36a50f70c8d",
        "theta": "30e1daa8d649e231fc3d44fdbfd670ae0a6ac5fd959d818446a7848d1e1404da",
        "ratio-gh": "dd1fa219da81bbc9e3937821afad7ae0442b2d2256365c04dcca254be31cd191",
    },
}
# the g and h that "ratio-gh", walk ratio with translations, adds to each
# config; its digests were recorded before the translations were written in place
RATIO_TRANSLATIONS = {
    "heisenberg3": ([0.3, -0.2, 0.1], [-0.4, 0.5, 0.2]),
    "free-nilpotent(2,3)+e1": ([0.3, -0.2, 0.1, 0.05, -0.15], [-0.4, 0.5, 0.2, -0.1, 0.25]),
}


@pytest.mark.parametrize("mode", list(WALK_DIGESTS["heisenberg3"]))
@pytest.mark.parametrize("algebra", list(GRID_WALKS))
def test_walk_csv_bodies_are_pinned(tmp_path, monkeypatch, algebra, mode):
    from nilwalk import cli

    monkeypatch.setattr(cli, "WalkConfig", functools.partial(walks.WalkConfig, chunk_size=700))
    base, digest = GRID_WALKS[algebra], WALK_DIGESTS[algebra][mode]
    params = base["params"] | {"recenter": "mean", "diffusion_steps": 8, "nu_samples": 2_000}
    if mode == "ratio-gh":
        mode, (params["g"], params["h"]) = "ratio", RATIO_TRANSLATIONS[algebra]
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(base | {"seed": 47, "M": 1_500, "N_grid": [6, 3], "params": params}))
    for workers in ("1", "2"):
        out = tmp_path / f"out{workers}.csv"
        assert main(["--workers", workers, "walk", mode, "--config", str(path),
                     "--out", str(out)]) == 0
        body = out.read_bytes().split(b"\n", 1)[1]
        assert hashlib.sha256(body).hexdigest() == digest, workers


def pinned_on_the_numpy_kernel(tmp_path, monkeypatch, algebra, mode):
    from nilwalk.algebra import NilpotentAlgebra

    compiled = []
    product_map = NilpotentAlgebra.product_map
    monkeypatch.setattr(NilpotentAlgebra, "product_map", lambda self: (
        compiled.append(self.product_kernels[1]), product_map(self))[1])
    test_walk_csv_bodies_are_pinned(tmp_path, monkeypatch, algebra, mode)
    assert compiled and not any(compiled)


@pytest.mark.parametrize("algebra", list(GRID_WALKS))
def test_walk_clt_keeps_its_pinned_body_on_the_numpy_kernel(tmp_path, monkeypatch,
                                                            numpy_fallback, algebra):
    pinned_on_the_numpy_kernel(tmp_path, monkeypatch, algebra, "clt")


@pytest.mark.parametrize("algebra", list(GRID_WALKS))
def test_walk_ratio_translations_keep_their_pinned_body_on_the_numpy_kernel(
        tmp_path, monkeypatch, numpy_fallback, algebra):
    pinned_on_the_numpy_kernel(tmp_path, monkeypatch, algebra, "ratio-gh")


# SHA-256 of each summary's "runs" without "wall_time", as sorted-key JSON, on
# the configs of WALK_DIGESTS, recorded before theta's truncations came from
# measures.truncate; the drifted config's ratio, pixel and theta were recorded
# again when every mode began to run the configured recentering
SUMMARY_DIGESTS = {
    "heisenberg3": {
        "llt": "66a301e897fede18d54ff6f5d6e0ecca47865b36e8d7e1dbc011943fa8a4144e",
        "clt": "a031f80cc05638ae704bc985b51d41eed9b6c63f13967c796e3ea923aa1105b3",
        "ratio": "4c3fd44b96b902fe928c4e323546b7aa48414102fe3da833b68606de7cd6ed20",
        "pixel": "3daaf0b3993e25c8efae61257094e25fbc0f518d8e49233515d2a7f4e43108ef",
        "theta": "9a1bfef914d28fe095438d2ee52e710937fbff149279c9a2bb4176e39a499a99",
    },
    "free-nilpotent(2,3)+e1": {
        "llt": "058a013b034a4a0f182d063996d245a4a6c665497c9d652b1a2e59fdc7b1d08c",
        "clt": "b5c1f2a811c783167af67030a7f6ae3d03aa0f8c7bd741c575e9bd6c08284a0d",
        "ratio": "f2fd7d9a8bce3a668081c81ccb03bb9af43d35244775f8b51ee4659c9de6344a",
        "pixel": "b72bfbfe07fa5da011dc893a5c6cad7915122c5ff84446f953febdb17f2e97b8",
        "theta": "4ff6012bdf1ae15a08c2c1483d86be360d8c82f6f1cf2af4773f8c17f3f27faa",
    },
}


@pytest.mark.parametrize("mode", list(WALK_MODES))
@pytest.mark.parametrize("algebra", list(GRID_WALKS))
def test_walk_summary_runs_are_pinned(tmp_path, monkeypatch, algebra, mode):
    from nilwalk import cli

    monkeypatch.setattr(cli, "WalkConfig", functools.partial(walks.WalkConfig, chunk_size=700))
    base = GRID_WALKS[algebra]
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(base | {"seed": 47, "M": 1_500, "N_grid": [6, 3], "params": (
        base["params"] | {"recenter": "mean", "diffusion_steps": 8, "nu_samples": 2_000})}))
    for workers in ("1", "2"):
        out = tmp_path / f"out{workers}.csv"
        assert main(["--workers", workers, "walk", mode, "--config", str(path),
                     "--out", str(out)]) == 0
        runs = json.loads((tmp_path / f"out{workers}_summary.json").read_text())["runs"]
        for run in runs:
            del run["wall_time"]
        blob = json.dumps(runs, sort_keys=True).encode()
        assert hashlib.sha256(blob).hexdigest() == SUMMARY_DIGESTS[algebra][mode], workers


@pytest.mark.parametrize("workers", ["0", "-1"])
def test_workers_below_one_is_a_parse_error(heis_config, workers, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--workers", workers, "walk", "llt", "--config", str(heis_config)])
    assert exc.value.code == 2
    assert "--workers" in capsys.readouterr().err


@pytest.mark.parametrize("flag,value", [
    ("--pair-limit", "0"), ("--pair-limit", "-5"),
    ("--xi-grid", "0.01:2:0"), ("--xi-grid", "0.01:2"), ("--xi-grid", "0.01:2:1.5"),
    ("--xi-grid", "lo:2:3"),
])
def test_malformed_flag_value_is_a_parse_error(heis_config, flag, value, capsys):
    command = {"--pair-limit": ["pathswap", "verify", "--a", "2", "--k", "1", "--nprime", "1",
                                "--step", "3"],
               "--xi-grid": ["fourier", "scan", "--config", str(heis_config)]}[flag]
    with pytest.raises(SystemExit) as exc:
        main(command + [flag, value])
    assert exc.value.code == 2
    assert flag in capsys.readouterr().err


@pytest.mark.parametrize("command", [["walk", "llt"], ["walk", "clt"], ["fourier", "scan"]])
def test_empty_n_grid_is_a_validation_error(heis_config, command, capsys):
    """An empty grid would run nothing, and so pass any configured check."""
    cfg = json.loads(heis_config.read_text())
    cfg.pop("N")
    cfg["N_grid"] = []
    cfg["params"]["checks"] = {"target": 1000, "relative_tolerance": 0.01}
    heis_config.write_text(json.dumps(cfg))
    assert main(command + ["--config", str(heis_config)]) == 3
    assert "N_grid" in capsys.readouterr().err


@pytest.mark.parametrize("checks,code", [
    ({"target": 1000}, 2),
    ({"target": 1000, "rel_tol": 0.01}, 2),
    ({"target": 1000, "relative_tolerance": 0.01, "extra": 1}, 2),
    ({"target": "1000", "relative_tolerance": 0.01}, 2),
    ({"target": 1000, "relative_tolerance": True}, 2),
    ("yes", 2),
    ({"target": 1000, "relative_tolerance": -0.01}, 3),
])
def test_malformed_check_is_rejected(heis_config, checks, code, capsys):
    """A half-specified check would run no check and pass."""
    cfg = json.loads(heis_config.read_text())
    cfg["params"]["checks"] = checks
    heis_config.write_text(json.dumps(cfg))
    assert main(["walk", "llt", "--config", str(heis_config)]) == code
    assert "checks" in capsys.readouterr().err


@pytest.mark.parametrize("mode", ["llt", "clt", "theta"])
def test_configured_check_fails_in_every_mode(tmp_path, heis_config, mode):
    cfg = json.loads(heis_config.read_text())
    cfg["params"]["checks"] = {"target": 1000, "relative_tolerance": 0.01}
    heis_config.write_text(json.dumps(cfg))
    assert main(["walk", mode, "--config", str(heis_config),
                 "--out", str(tmp_path / "out.csv")]) == 1


def test_ratio_check_without_limit_hits_fails(tmp_path, heis_config):
    """A box the limit bank never hits gives estimate and stderr inf, whose
    3-sigma allowance would pass any target."""
    cfg = json.loads(heis_config.read_text())
    cfg["M"] = 2000
    cfg["params"] |= {"recenter": "none", "box": [[40, 41], [40, 41], [0, 1]],
                      "checks": {"target": 1, "relative_tolerance": 0.05}}
    heis_config.write_text(json.dumps(cfg))
    out = tmp_path / "ratio.csv"
    assert main(["walk", "ratio", "--config", str(heis_config), "--out", str(out)]) == 1
    row = read_body(out)[1].split(",")
    assert row[3:5] == ["inf", "inf"]


def test_configured_check_passes_on_clt_variance(tmp_path, heis_config):
    cfg = json.loads(heis_config.read_text())
    cfg["params"]["checks"] = {"target": 1.0, "relative_tolerance": 0.1}
    heis_config.write_text(json.dumps(cfg))
    assert main(["walk", "clt", "--config", str(heis_config),
                 "--out", str(tmp_path / "out.csv")]) == 0


def test_walk_ratio_builds_one_limit_bank(tmp_path, heis_config, monkeypatch):
    from nilwalk import cli

    cfg = json.loads(heis_config.read_text())
    cfg.pop("N")
    cfg |= {"M": 2_000, "N_grid": [4, 8, 16]}
    cfg["params"] |= {"recenter": "none", "diffusion_steps": 16, "nu_samples": 2_000}
    heis_config.write_text(json.dumps(cfg))
    calls = []
    real = cli.simulate_limit
    monkeypatch.setattr(cli, "simulate_limit", lambda *a, **k: calls.append(1) or real(*a, **k))
    assert main(["walk", "ratio", "--config", str(heis_config),
                 "--out", str(tmp_path / "ratio.csv")]) == 0
    assert len(calls) == 1
    assert len(read_body(tmp_path / "ratio.csv")) == 1 + 3


def test_walk_theta_reports_binomial_stderr(tmp_path, heis_config):
    """Layer 1 is a standard Gaussian and layer 2 is zero, so an increment at
    level l clips with probability exp(-l/2) and the true fraction is known."""
    out = tmp_path / "theta.csv"
    assert main(["walk", "theta", "--config", str(heis_config), "--out", str(out)]) == 0
    row = dict(zip(*(line.split(",") for line in read_body(out))))
    p, increments = float(row["estimate"]), 20_000 * 16
    assert p > 0
    assert float(row["stderr"]) == math.sqrt(p * (1 - p) / increments)
    schedule = walks.truncation_schedule(16, 0.2, 2)
    true = sum(count * math.exp(-level / 2) for level, count in schedule) / 16
    cfg = json.loads(heis_config.read_text())
    cfg["params"]["checks"] = {"target": true, "relative_tolerance": 1e-9}
    heis_config.write_text(json.dumps(cfg))
    assert main(["walk", "theta", "--config", str(heis_config), "--out", str(out)]) == 0


def _leaves(obj):
    if isinstance(obj, (tuple, list)):
        for item in obj:
            yield from _leaves(item)
    else:
        yield obj


def _count_walk_ratio_jobs(tmp_path, heis_config, monkeypatch, grid: dict) -> dict:
    """Runs `walk ratio` at one and at two workers with M = 1 000 000, four
    chunks of the fixed 250 000-row plan, and counts the jobs of the second
    run: how many started, how many ran at once, and the largest array in
    any partial that a fold job handed back."""
    from nilwalk import cli

    cfg = json.loads(heis_config.read_text()) | {"M": 1_000_000} | grid
    if "N_grid" in grid:
        cfg.pop("N")
    cfg["params"] |= {"diffusion_steps": 16, "nu_samples": 2_000}
    heis_config.write_text(json.dumps(cfg))
    out1, out2 = tmp_path / "one.csv", tmp_path / "two.csv"
    assert main(["walk", "ratio", "--config", str(heis_config), "--out", str(out1)]) == 0

    lock = threading.Lock()
    count = {"started": 0, "running": 0, "peak": 0, "largest": 0}

    def counted(job):
        def run(*args, **kwargs):
            with lock:
                count["started"] += 1
                count["running"] += 1
                count["peak"] = max(count["peak"], count["running"])
            try:
                return job(*args, **kwargs)
            finally:
                with lock:
                    count["running"] -= 1
        return run

    fold = counted(walks._fold_job)

    def counted_fold(*args):
        done = fold(*args)  # one (partial, busy seconds) per plan of the job
        with lock:
            count["largest"] = max([count["largest"]] + [np.size(x) for partial, _ in done
                                                         for x in _leaves(partial)])
        return done

    monkeypatch.setattr(walks, "_fold_job", counted_fold)
    monkeypatch.setattr(cli, "simulate_limit", counted(cli.simulate_limit))
    assert main(["--workers", "2", "walk", "ratio", "--config", str(heis_config),
                 "--out", str(out2)]) == 0
    return count | {"bodies": (read_body(out1), read_body(out2))}


def test_workers_keep_at_most_workers_chunks_in_flight(tmp_path, heis_config, monkeypatch):
    """A chunk is in flight while its fold job runs, and the job hands back
    only its reduced partials, never the chunk's (m, d) products; the limit
    bank of `walk ratio` counts as one more job."""
    count = _count_walk_ratio_jobs(tmp_path, heis_config, monkeypatch, {"N": 2})
    assert count["started"] == 4 + 1
    assert count["peak"] <= 2
    assert count["largest"] < 250_000
    assert count["bodies"][0] == count["bodies"][1]


def test_a_grid_folds_each_chunk_once(tmp_path, heis_config, monkeypatch):
    """N = 2 and N = 4 share the seed, so one fold job per chunk serves both:
    four jobs and the bank, not eight and the bank."""
    count = _count_walk_ratio_jobs(tmp_path, heis_config, monkeypatch, {"N_grid": [2, 4]})
    assert count["started"] == 4 + 1
    assert count["peak"] <= 2
    assert count["largest"] < 250_000
    assert count["bodies"][0] == count["bodies"][1]
    assert len(count["bodies"][0]) == 1 + 2


@pytest.mark.parametrize("mode, nested, top", [
    ("llt", ["hits", "per_volume", "per_volume_stderr"], []),
    ("clt", [], ["mean_adapted", "cov_adapted"]),
    ("ratio", ["p_nu", "hits_nu"], []),
    ("pixel", [], []),
    ("theta", [], ["altered_fraction", "mean_adapted", "var_adapted"]),
])
def test_walk_summary_entry_shape(tmp_path, heis_config, mode, nested, top):
    """The summary keys that downstream readers of the JSON rely on."""
    assert mode in WALK_MODES
    cfg = json.loads(heis_config.read_text()) | {"M": 2_000, "N": 4}
    cfg["params"] |= {"diffusion_steps": 16, "nu_samples": 2_000}
    heis_config.write_text(json.dumps(cfg))
    assert main(["walk", mode, "--config", str(heis_config),
                 "--out", str(tmp_path / "out.csv")]) == 0
    summary = json.loads((tmp_path / "out_summary.json").read_text())
    assert summary["experiment"] == mode
    (run,) = summary["runs"]
    for key in ("estimate", "stderr"):
        assert isinstance(run[key], (int, float)) and not isinstance(run[key], bool)
    assert (run["n_steps"], run["N"], run["M"]) == (4, 4, 2_000)
    assert "wall_time" in run and isinstance(run["extra"], dict)
    assert all(key in run["extra"] for key in nested)
    assert all(key in run for key in top)
    if mode == "clt":
        assert "1" in run["layer_cov"]


@pytest.mark.parametrize("mode", list(WALK_MODES))
def test_bad_recentering_is_a_validation_error_in_every_mode(tmp_path, heis_config, mode):
    cfg = json.loads(heis_config.read_text()) | {"M": 500}
    cfg["params"] |= {"recenter": "sideways", "diffusion_steps": 4}
    heis_config.write_text(json.dumps(cfg))
    assert main(["walk", mode, "--config", str(heis_config)]) == 3


@pytest.mark.parametrize("mode", list(WALK_MODES))
def test_mean_recentering_of_a_centred_law_changes_no_row(tmp_path, heis_config, mode):
    """Every mode runs the configured recentering; on a centred law mean
    recentering translates neither the walk nor the limit sample, so the rows
    equal those of recenter none but for the config digest."""
    bodies = []
    for recenter in ("none", "mean"):
        cfg = json.loads(heis_config.read_text()) | {"M": 2_000}
        cfg["params"] |= {"recenter": recenter, "diffusion_steps": 8, "nu_samples": 2_000}
        heis_config.write_text(json.dumps(cfg))
        out = tmp_path / f"{recenter}.csv"
        assert main(["walk", mode, "--config", str(heis_config), "--out", str(out)]) == 0
        bodies.append([line.rsplit(",", 1)[0] for line in read_body(out)])
    assert bodies[0] == bodies[1]


@pytest.mark.parametrize("command, params", [
    (["walk", "ratio"], {"diffusion_steps": 0}),
    (["walk", "pixel"], {"diffusion_steps": 0}),
    (["limit", "density"], {"diffusion_steps": 0}),
    (["walk", "ratio"], {"nu_samples": 0}),
    (["walk", "pixel"], {"nu_samples": 0}),
    (["walk", "ratio"], {"diffusion_steps": -4}),
])
def test_empty_limit_grid_or_bank_is_a_validation_error(heis_config, command, params):
    # enough replicas for the density estimate, so only the grid or bank can fail
    cfg = json.loads(heis_config.read_text()) | {"M": 10_000}
    cfg["params"] |= {"recenter": "none", "diffusion_steps": 4, "nu_samples": 500} | params
    heis_config.write_text(json.dumps(cfg))
    assert main(command + ["--config", str(heis_config)]) == 3


@pytest.mark.parametrize("mode, params", [
    ("llt", {"recenter": "variable", "Y": [0.5]}),
    ("llt", {"box": [[-1, 1]]}),
    ("ratio", {"g": [1.0]}),
    ("ratio", {"h": [1.0]}),
])
def test_coordinate_input_of_the_wrong_length_is_a_validation_error(heis_config, mode, params):
    cfg = json.loads(heis_config.read_text()) | {"M": 500}
    cfg["params"] |= {"diffusion_steps": 4, "nu_samples": 500} | params
    heis_config.write_text(json.dumps(cfg))
    assert main(["walk", mode, "--config", str(heis_config)]) == 3


@pytest.mark.parametrize("box", [
    [[-1], [-1], [-1]],
    [[-1, 0, 1]] * 3,
    [[-1, 1], [1, -1], [-1, 1]],
], ids=["one-bound", "three-bounds", "lo-above-hi"])
def test_box_entry_that_is_not_an_ordered_pair_is_a_validation_error(heis_config, box, capsys):
    cfg = json.loads(heis_config.read_text()) | {"M": 500}
    cfg["params"] |= {"box": box}
    heis_config.write_text(json.dumps(cfg))
    assert main(["walk", "llt", "--config", str(heis_config)]) == 3
    assert "box entry" in capsys.readouterr().err


def test_limit_density_point_of_the_wrong_length_is_a_parse_error(heis_config, capsys):
    assert main(["limit", "density", "--config", str(heis_config), "--point", "0"]) == 2
    assert "--point" in capsys.readouterr().err


@pytest.mark.parametrize("field", [
    {"seed": [1]},
    {"M": [5]},
    {"N_grid": 5},
    {"params": 5},
    {"measure": {"kind": "product", "factors": [1, 2, 3]}},
])
def test_malformed_config_field_is_a_parse_error(heis_config, field, capsys):
    heis_config.write_text(json.dumps(json.loads(heis_config.read_text()) | field))
    assert main(["walk", "llt", "--config", str(heis_config)]) == 2
    assert "config error" in capsys.readouterr().err


def test_walk_parse_error(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["walk", "llt", "--config", str(bad)]) == 2


@pytest.mark.parametrize("command", [
    ["algebra", "check", "--file"],
    ["filtration", "compute", "--drift", "1,0,0", "--algebra"],
    ["walk", "llt", "--config"],
])
def test_missing_input_file_is_a_parse_error(tmp_path, command, capsys):
    assert main(command + [str(tmp_path / "missing.json")]) == 2
    assert "config error" in capsys.readouterr().err


def test_limit_density_without_config_is_a_parse_error(capsys):
    assert main(["limit", "density"]) == 2
    assert "config error" in capsys.readouterr().err


def test_walk_validation_error(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"algebra": "heisenberg3", "M": -5}))
    assert main(["walk", "llt", "--config", str(bad)]) == 3


def test_fourier_scan_runs(tmp_path, heis_config):
    out = tmp_path / "scan.csv"
    code = main(["fourier", "scan", "--config", str(heis_config),
                 "--gamma0", "0.1", "--xi-grid", "0.05:0.8:2", "--out", str(out)])
    assert code == 0
    body = read_body(out)
    assert body[0].startswith("experiment,")
    assert len(body) > 1


def test_limit_heisenberg_origin(capsys):
    assert main(["limit", "heisenberg-origin", "--samples", "40000"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert abs(rep["density"] - 0.25) < 0.05


def equid_config(tmp_path, params=None):
    cfg = tmp_path / "equid.json"
    cfg.write_text(json.dumps({
        "algebra": "heisenberg3",
        "measure": {
            "kind": "affine",
            "base": {"kind": "atoms",
                     "points": [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
                     "weights": ["2/5", "3/10", "3/10"]},
            "matrix": [[1, 0, 0], [0, 1, 0],
                       [1.4142135623730951, 1.7320508075688772, 0]],
            "shift": [0, 0, 0],
        },
        "M": 40,
        "seed": 2,
        "params": params or {},
    }))
    return str(cfg)


def test_nilmanifold_equid(tmp_path, capsys):
    assert main(["nilmanifold", "equid", "--config", equid_config(tmp_path), "--N", "600"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["checkpoints"]["600"]["discrepancy"] < 0.1


def test_nilmanifold_equid_rejects_zero_cells(tmp_path, capsys):
    assert main(["nilmanifold", "equid", "--config", equid_config(tmp_path),
                 "--N", "50", "--cells", "0"]) == 3
    assert capsys.readouterr().out == ""


def test_nilmanifold_equid_rejects_checkpoint_zero(tmp_path, capsys):
    cfg = equid_config(tmp_path, {"checkpoints": [0, 50]})
    assert main(["nilmanifold", "equid", "--config", cfg, "--N", "50"]) == 3
    assert capsys.readouterr().out == ""


def test_nilmanifold_equid_names_the_checkpoints_past_n(tmp_path, capsys):
    cfg = equid_config(tmp_path, {"checkpoints": [50, 200, 300]})
    assert main(["nilmanifold", "equid", "--config", cfg, "--N", "100"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "checkpoints [200, 300] are past --N 100" in captured.err


def test_nilmanifold_equid_names_the_product_kernel(tmp_path, capsys):
    from nilwalk.algebra import c_compiler

    assert main(["nilmanifold", "equid", "--config", equid_config(tmp_path), "--N", "50"]) == 0
    want = "compiled" if c_compiler() is not None else "numpy"
    assert json.loads(capsys.readouterr().out)["product_kernel"] == want


def test_nilmanifold_equid_on_the_numpy_kernel_says_so(tmp_path, capsys, numpy_fallback):
    assert main(["nilmanifold", "equid", "--config", equid_config(tmp_path), "--N", "50"]) == 0
    assert json.loads(capsys.readouterr().out)["product_kernel"] == "numpy"


def test_pathswap_verify_rejects_step_below_a(capsys):
    assert main(["pathswap", "verify", "--a", "3", "--k", "1", "--nprime", "1",
                 "--step", "2"]) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and "--step 2" in captured.err


def test_digest_stable_under_key_order():
    a = {"b": 1, "a": {"y": 2, "x": 3}}
    b = {"a": {"x": 3, "y": 2}, "b": 1}
    assert canonical_digest(a) == canonical_digest(b)
    assert canonical_digest(a) != canonical_digest({"b": 2, "a": {"y": 2, "x": 3}})


def test_config_roundtrip(tmp_path, heis_config):
    cfg = ExperimentConfig.from_file(str(heis_config))
    assert cfg.algebra.name == "heisenberg3"
    assert cfg.n_grid == [16]
    assert cfg.n_replicas == 20_000
    # digest reflects the raw dict, not parse order
    again = ExperimentConfig.from_file(str(heis_config))
    assert cfg.digest == again.digest


def test_config_rejects_bad_measure():
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict({"algebra": "heisenberg3",
                                    "measure": {"kind": "mystery"}})
