"""The demo scripts run end to end on small grids and write what they report."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from vortexlab import cli

SRC_DIR = str(Path(cli.__file__).resolve().parents[1])
SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def _run_script(tmp_path, script, nodes, out):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (SRC_DIR, os.environ.get("PYTHONPATH", "")) if p))
    return subprocess.run(
        [sys.executable, str(SCRIPTS / script), "--nodes", str(nodes), "--out", str(out)],
        env=env, cwd=tmp_path, capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("script, nodes, files", [
    pytest.param("dichotomy_demo.py", 41, ("w_complete.csv", "w_incomplete.csv", "rays.csv"),
                 id="dichotomy"),
    pytest.param("affine_sphere_demo.py", 41, ("affine_sphere.obj",), id="affine_sphere"),
    pytest.param("cmc_gauss_demo.py", 129, ("cmc_surface.obj", "gauss.csv"), id="cmc_gauss"),
])
def test_demo_script_runs(tmp_path, script, nodes, files):
    out = tmp_path / "out"
    proc = _run_script(tmp_path, script, nodes, out)
    assert proc.returncode == 0, proc.stderr
    assert "wrote" in proc.stdout
    for name in files:
        assert (out / name).is_file(), name


def test_cmc_demo_refuses_a_coarse_grid(tmp_path):
    # at --nodes 65 (and 81) the spacing is too coarse for the frame
    # development and the Gauss map leaves the hyperboloid: the demo says so
    # in one line and exits 2, like `vortexlab run` refusing a precondition
    out = tmp_path / "out"
    proc = _run_script(tmp_path, "cmc_gauss_demo.py", 65, out)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stderr.splitlines() == [proc.stderr.strip()]
    assert proc.stderr.startswith("cmc_gauss_demo: Gauss map left the hyperboloid")
    assert not out.exists()
