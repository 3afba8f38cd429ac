"""The example configs under configs/ run end to end as shipped."""

import json
from pathlib import Path

import numpy as np
import pytest

from vortexlab import cli

CONFIGS = Path(__file__).resolve().parents[1] / "configs"

# what each config writes: its fields, the rays and the two reports, and the
# mesh (plus the Gauss map's normals for the CMC surface) when it exports
ARTIFACTS = {
    "dichotomy": {"w_complete.csv", "w_incomplete.csv"},
    "affine_sphere": {"w_incomplete.csv", "surface.obj"},
    "cmc_gauss": {"w_complete.csv", "surface.obj", "gauss.csv"},
    "uniqueness": {"w_complete.csv", "w_incomplete.csv"},
}


@pytest.mark.parametrize("name", sorted(ARTIFACTS))
def test_example_config_runs(tmp_path, name):
    assert sorted(p.stem for p in CONFIGS.glob("*.json")) == sorted(ARTIFACTS)
    cfg = json.loads((CONFIGS / ("%s.json" % name)).read_text())
    out = tmp_path / "out"
    cfg["output_dir"] = str(out)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert cli.main(["run", str(path)]) == cli.EXIT_OK
    written = {p.name for p in out.iterdir()}
    assert written == ARTIFACTS[name] | {"rays.csv", "invariants.json", "report.json"}
    report = json.loads((out / "report.json").read_text())
    assert report["invariants"]["failures"] == []
    if "develop" in cfg["pipeline"]:
        dev = report["develop"]
        assert np.isfinite([dev["holonomy_defect"], dev["metric_roundtrip_error"]]).all()
