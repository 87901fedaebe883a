"""Smoke runs of the experiment scripts at tiny sizes."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("script,args", [
    ("collapse_experiment.py", ["--steps", "400", "--burn-in", "200"]),
    ("partition_pole_experiment.py", ["--samples", "1000"]),
    ("random_ensembles.py", ["--n", "4", "--trials", "2"]),
])
def test_script_runs(tmp_path, script, args):
    out = tmp_path / "out"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, str(ROOT / "scripts" / script), *args,
                             "--out", str(out)],
                            cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert out.stat().st_size > 0
