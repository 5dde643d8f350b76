"""Smoke runs of the experiment scripts, and of the README's sweep CLI pair, on tiny corpora."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SMALL = ["--train-sentences", "20", "--test-sentences", "20"]


def _run(script: str, args: list, cwd: Path) -> subprocess.CompletedProcess:
    """Run a script by its path from ``cwd``; it finds ``src/`` on its own."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    return subprocess.run([sys.executable, str(ROOT / "scripts" / script), *args],
                          cwd=cwd, env=env, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("script", ["run_synthetic_experiment.py", "ablate_features.py",
                                    "scale_systems.py"])
def test_script_runs(script, tmp_path):
    proc = _run(script, SMALL, tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert "F1" in proc.stdout


def _srlcomb(args: list, cwd: Path) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    code = "import sys; from srlcomb.cli import main; sys.exit(main(sys.argv[1:]))"
    return subprocess.run([sys.executable, "-c", code, *args],
                          cwd=cwd, env=env, capture_output=True, text=True, timeout=300)


def test_sweep_bias_runs(tmp_path):
    """`srlcomb synth` then `srlcomb sweep`, as the README gives them, write the O grid CSV."""
    proc = _srlcomb(["synth", "--out", "corpus", "--sentences", "20", "--seed", "0"], tmp_path)
    assert proc.returncode == 0, proc.stderr
    systems = [a for i in (1, 2, 3)
               for a in ("--system", f"corpus/sys{i}.props:corpus/sys{i}.scores")]
    proc = _srlcomb(["sweep", "--gold", "corpus/gold.props", "--out", "sweep.csv", *systems],
                    tmp_path)
    assert proc.returncode == 0, proc.stderr
    lines = (tmp_path / "sweep.csv").read_text().splitlines()
    assert lines[0] == "O,precision,recall,f1"
    assert len(lines) == 22
