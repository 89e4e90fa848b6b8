"""Smoke tests of the experiment scripts in scripts/, run as subprocesses at tiny sizes."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
HEADER = "experiment,N,M,estimate,stderr,target,seed,config_digest"

SCRIPTS = {
    "fourier_decay.py": ["--n-grid", "4", "8", "--replicas", "2000"],
    "heisenberg_llt.py": ["--n-grid", "4", "8", "--replicas", "2000"],
    "lazy_walk_bound.py": ["--min-exp", "4", "--max-exp", "6"],
    "levy_area_density.py": ["--samples", "10000", "--time-steps", "16"],
    "nilmanifold_equid.py": ["--steps", "200", "--replicas", "10", "--cells", "4"],
}
WRITES_CSV = {"fourier_decay.py", "heisenberg_llt.py"}


def run_script(script, args, cwd):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, str(ROOT / "scripts" / script), *args],
                          cwd=cwd, env=env, capture_output=True, text=True, timeout=120)


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
        assert lines[1] == HEADER
        assert len(lines) > 2


def test_levy_area_density_rejects_too_few_samples(tmp_path):
    proc = run_script("levy_area_density.py", ["--samples", "2000"], tmp_path)
    assert proc.returncode == 2
    assert "--samples must be at least 10000" in proc.stderr
    assert "Traceback" not in proc.stderr
