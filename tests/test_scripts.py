"""Smoke runs of the experiment scripts on tiny corpora."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SMALL = ["--train-sentences", "20", "--test-sentences", "20"]


def _run(script: str, args: list, cwd: Path) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), SRLCOMB_JOBS="1")
    return subprocess.run([sys.executable, str(ROOT / "scripts" / script), *args],
                          cwd=cwd, env=env, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("script", ["run_synthetic_experiment.py", "ablate_features.py",
                                    "scale_systems.py"])
def test_script_runs(script, tmp_path):
    proc = _run(script, SMALL, tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert "F1" in proc.stdout


def test_sweep_bias_runs(tmp_path):
    out = tmp_path / "sweep.csv"
    proc = _run("sweep_bias.py", ["--sentences", "20", "--out", str(out)], tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert out.read_text().startswith("O,precision,recall,f1\n")
