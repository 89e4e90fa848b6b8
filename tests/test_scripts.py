"""Smoke tests of the experiment scripts in scripts/, run as subprocesses at tiny
sizes, of the committed configs that replaced some of them, and of scripts/bench.py."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
HEADER = "experiment,N,M,estimate,stderr,target,seed,config_digest"

SCRIPTS = {
    "fourier_decay.py": ["--n-grid", "4", "8", "--replicas", "2000"],
    "lazy_walk_bound.py": ["--min-exp", "4", "--max-exp", "6"],
    "levy_area_density.py": ["--samples", "10000", "--time-steps", "16"],
    "nilmanifold_equid.py": ["--steps", "200", "--replicas", "10", "--cells", "4"],
}
# the CSV header each --out script writes; fourier_decay's xi and inside tell
# the rows of one N apart
WRITES_CSV = {"fourier_decay.py": HEADER + ",xi,inside"}


def run_python(args, cwd):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, *args],
                          cwd=cwd, env=env, capture_output=True, text=True, timeout=120)


def run_script(script, args, cwd):
    return run_python([str(ROOT / "scripts" / script), *args], cwd)


@pytest.mark.parametrize("script", sorted(SCRIPTS))
def test_script_runs(script, tmp_path):
    args = list(SCRIPTS[script])
    out = tmp_path / "out.csv"
    if script in WRITES_CSV:
        args += ["--out", str(out)]
    proc = run_script(script, args, tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
    if script in WRITES_CSV:
        lines = out.read_text().splitlines()
        assert lines[0].startswith("#")
        assert lines[1] == WRITES_CSV[script]
        assert len(lines) > 2
        columns = lines[1].split(",")
        rows = [dict(zip(columns, line.split(","))) for line in lines[2:]]
        assert len({(r["N"], r["xi"]) for r in rows}) == len(rows)


def test_levy_area_density_rejects_too_few_samples(tmp_path):
    proc = run_script("levy_area_density.py", ["--samples", "2000"], tmp_path)
    assert proc.returncode == 2
    assert "--samples must be at least 10000" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_heisenberg_llt_config_runs(tmp_path):
    """configs/heisenberg_llt.json, shrunk and without its check, through `walk llt`."""
    cfg = json.loads((ROOT / "configs" / "heisenberg_llt.json").read_text())
    cfg.update(M=2000, N_grid=[4, 8])
    del cfg["params"]["checks"]
    (tmp_path / "cfg.json").write_text(json.dumps(cfg))
    proc = run_python(["-m", "nilwalk.cli", "walk", "llt", "--config", "cfg.json",
                       "--out", "llt.csv"], tmp_path)
    assert proc.returncode == 0, proc.stderr
    lines = (tmp_path / "llt.csv").read_text().splitlines()
    assert lines[1] == HEADER
    assert [line.split(",")[:2] for line in lines[2:]] == [["llt_box", "4"], ["llt_box", "8"]]


def test_heisenberg_drift_ratio_config_passes_its_check(tmp_path):
    """configs/heisenberg_drift_ratio.json at full size through `walk ratio`:
    the non-centred walk and the limit sample sit at one place, so each
    ratio passes its configured check."""
    proc = run_python(["-m", "nilwalk.cli", "walk", "ratio", "--config",
                       str(ROOT / "configs" / "heisenberg_drift_ratio.json"),
                       "--out", "ratio.csv"], tmp_path)
    assert proc.returncode == 0, proc.stderr
    lines = (tmp_path / "ratio.csv").read_text().splitlines()
    assert [line.split(",")[:2] for line in lines[2:]] == [["ratio", "16"], ["ratio", "32"]]


def load_bench():
    spec = importlib.util.spec_from_file_location("bench", ROOT / "scripts" / "bench.py")
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    return bench


def test_bench_worker_times_the_kernel(tmp_path):
    proc = run_script("bench.py", ["kernel", "--case", "heisenberg3"], tmp_path)
    assert proc.returncode == 0, proc.stderr
    metrics, output = json.loads(proc.stdout.splitlines()[-1])
    assert metrics["ns_per_replica_step"] > 0 and metrics["in_place_ns_per_replica_step"] > 0
    assert len(output) == 64
    assert list(tmp_path.iterdir()) == []


def test_bench_worker_times_a_walk(tmp_path):
    proc = run_script("bench.py", ["walk", "--case", "clt"], tmp_path)
    assert proc.returncode == 0, proc.stderr
    metrics, output = json.loads(proc.stdout.splitlines()[-1])
    assert metrics["wall_s"] > 0 and metrics["cpu_s"] > 0 and metrics["peak_rss_mb"] > 0
    rc, digest = output.split(":")
    assert rc == "0" and len(digest) == 64
    assert list(tmp_path.iterdir()) == []


def test_bench_pair_summary():
    parent = [5.0, 1.0, 4.0, 2.0, 3.0]
    change = [4.0, 2.0, 4.0, 1.0, 1.5]
    s = load_bench().summarize(parent, change)
    assert (s["parent"]["q1"], s["parent"]["median"], s["parent"]["q3"]) == (2.0, 3.0, 4.0)
    assert (s["change"]["q1"], s["change"]["median"], s["change"]["q3"]) == (1.5, 2.0, 4.0)
    assert s["parent"]["values"] == parent
    # pairs 0, 3 and 4 go to the change, pair 1 to the parent, pair 2 is a tie
    assert (s["change_wins"], s["parent_wins"]) == (3, 1)
    assert s["ratio_parent_over_change"] == 1.5
