"""Config validation, pipeline runs, artifact layout, field comparison."""

import ast
import contextlib
import importlib
import io
import json
import os
import signal
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from vortexlab import cli, grid
from vortexlab.grid import GridDomain
from vortexlab import invariants as verify
from vortexlab import solve as solver
from vortexlab import surfaces as develop

from conftest import ring_values

SRC_DIR = str(Path(cli.__file__).resolve().parents[1])
# the environment of a child interpreter that imports this checkout's package
CHILD_ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(
    p for p in (SRC_DIR, os.environ.get("PYTHONPATH", "")) if p))


def make_cfg(tmp_path, name="cfg.json", *, p=((2.0, 0.0),), q=None, k=2, R=4.0,
             n=41, mode="EQ1", pipeline=("solve-complete", "verify"), out="out",
             tol=None, extra=None):
    cfg = {
        "phi": {"p": [list(c) for c in p]},
        "k": k,
        "R": R,
        "n": n,
        "mode": mode,
        "pipeline": list(pipeline),
        "output_dir": str(tmp_path / out),
    }
    if q is not None:
        cfg["phi"]["q"] = [list(c) for c in q]
    if tol is not None:
        cfg["tolerances"] = tol
    if extra:
        cfg.update(extra)
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


EXP_Z_KW = dict(p=((1.0, 0.0),), q=((0.0, 0.0), (1.0, 0.0)), k=3, mode="EQ1")
# a polynomial phi, whose two branches coincide as R grows
Z2_MINUS_1_KW = dict(p=((-1.0, 0.0), (0.0, 0.0), (1.0, 0.0)), k=3, mode="EQ1")
# a value make_cfg writes where a refusal case puts raw JSON text instead
RAW = 0.123456789
HUGE = "9" * 401  # an integer past the range of a double, as JSON text


def test_config_requires_phi(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"k": 2, "R": 4.0, "n": 41, "mode": "EQ1",
                                "pipeline": ["solve-complete"],
                                "output_dir": str(tmp_path)}))
    with pytest.raises(cli.ConfigError):
        cli.load_config(str(path))


def test_config_rejects_even_n(tmp_path):
    with pytest.raises(cli.ConfigError):
        cli.load_config(make_cfg(tmp_path, n=40))


def test_config_rejects_mode_k_mismatch(tmp_path):
    with pytest.raises(cli.ConfigError):
        cli.load_config(make_cfg(tmp_path, mode="WANG_K3", k=2,
                                 pipeline=("solve-complete",)))


def test_config_rejects_develop_without_geometry(tmp_path):
    with pytest.raises(cli.ConfigError):
        cli.load_config(make_cfg(tmp_path, pipeline=("solve-complete", "develop")))


def test_config_rejects_verify_before_solve(tmp_path):
    with pytest.raises(cli.ConfigError):
        cli.load_config(make_cfg(tmp_path, pipeline=("verify",)))


def test_config_rejects_export_without_develop(tmp_path):
    with pytest.raises(cli.ConfigError):
        cli.load_config(make_cfg(tmp_path, mode="HARMONIC_K2", k=2,
                                 pipeline=("solve-complete", "export")))


def test_config_rejects_unknown_stage(tmp_path, capsys):
    with pytest.raises(cli.ConfigError):
        cli.load_config(make_cfg(tmp_path, pipeline=("solve-complete", "plot")))
    # a repeated stage would list its checks twice, or rerun a whole solve
    with pytest.raises(cli.ConfigError, match="'verify' appears twice"):
        cli.load_config(make_cfg(tmp_path, p=((0.0, 0.0), (1.0, 0.0)),
                                 pipeline=("solve-complete", "verify", "verify")))
    # so would a branch that two solve stages both solve
    for pipeline, branch in ((("two-solutions", "solve-complete"), "complete"),
                             (("solve-incomplete", "two-solutions"), "incomplete")):
        cfg = make_cfg(tmp_path, **EXP_Z_KW, pipeline=pipeline + ("verify",))
        assert cli.main(["run", cfg]) == cli.EXIT_CONFIG
        out, err = capsys.readouterr()
        assert out == "" and "branch %r is solved twice in the pipeline" % branch in err
        assert not (tmp_path / "out").exists()


def test_config_rejects_unknown_key(tmp_path, capsys):
    # a misspelled key would otherwise be ignored and its default used
    assert cli.main(["run", make_cfg(tmp_path, extra={"ouput_dir": "x"})]) == cli.EXIT_CONFIG
    assert "unknown key 'ouput_dir' in config" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("cfg_kw, message", [
    (dict(p=()), "phi.p must be a non-empty list of [re, im] pairs"),
    (dict(p=((1.0,),)), "phi.p entries must be [re, im] pairs"),
    # json's true, and a string, are not numbers, though float() reads them
    (dict(p=((True, 0.0),)), "phi.p entries must be [re, im] pairs of numbers"),
    (dict(p=(("1", "0"),)), "phi.p entries must be [re, im] pairs of numbers"),
    (dict(q=((1.0, False),)), "phi.q entries must be [re, im] pairs of numbers"),
    (dict(p=((0.0, 0.0),)), "polynomial part must not be identically zero"),
    (None, "config must be a JSON object"),
    (dict(extra={"phi": {"q": [[0.0, 1.0]]}}), "phi must be an object with coefficient array p"),
    # a misspelled q would otherwise leave phi polynomial
    (dict(extra={"phi": {"p": [[1.0, 0.0]], "Q": [[0.0, 0.0], [1.0, 0.0]]}}),
     "unknown key 'Q' in phi"),
    ((dict(p=((RAW, 0.0),)), HUGE), "integer 999999999999... is past the range of a double"),
    ((dict(q=((0.0, 0.0), (0.0, RAW))), "-" + HUGE), "integer -99999999999... is past the range"),
    ((dict(R=RAW), HUGE), "integer 999999999999... is past the range of a double"),
    ((dict(EXP_Z_KW, n=RAW, pipeline=("two-solutions",)), "1" + HUGE),
     "integer 199999999999... is past the range of a double"),
    ((dict(k=RAW), HUGE), "integer 999999999999... is past the range of a double"),
    # an (n, n) array of doubles past numpy's largest array size
    (dict(n=1000000000000001), "n is too large"),
    (dict(k=1), "k must be an integer >= 2"),
    (dict(R=-1.0), "R must be a positive number"),
    # json reads Infinity, and 1e400, as inf; a bool is not a number
    (dict(R=float("inf")), "R must be a positive number"),
    ((dict(R=RAW), "1e400"), "R must be a positive number"),
    (dict(R=True), "R must be a positive number"),
    # the stencil's h^2 overflows, or 1/h^2 does
    (dict(EXP_Z_KW, R=1e160, n=21, pipeline=("two-solutions", "verify")),
     "R = 1e+160 with n = 21 gives h = 1e+159, whose h^2 or 1/h^2 is not a finite double"),
    (dict(p=((1.0, 0.0),), k=3, R=1e-300, n=21, pipeline=("two-solutions", "verify")),
     "R = 1e-300 with n = 21 gives h = 1e-301, whose h^2 or 1/h^2 is not a finite double"),
    (dict(extra={"output_dir": 5}), "output_dir must be a string"),
    (dict(mode="EQ2"), "mode must be one of"),
    (dict(pipeline=()), "pipeline must be a non-empty list of stages"),
    (dict(tol=[0]), "tolerances must be an object"),
], ids=["p-empty", "p-not-pairs", "p-true", "p-string", "q-false", "p-zero", "not-object",
        "phi-without-p", "phi-unknown-key", "p-huge-int", "q-huge-int", "R-huge-int",
        "n-huge-int", "k-huge-int", "n-too-large", "k", "R", "R-infinity", "R-1e400", "R-true",
        "R-h2-overflow", "R-h2-underflow", "output-dir", "mode", "pipeline-empty", "tolerances"])
def test_config_refusals_exit_before_any_output(tmp_path, capsys, cfg_kw, message):
    if cfg_kw is None:
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps([make_cfg(tmp_path)]))
        cfg = str(path)
    elif isinstance(cfg_kw, tuple):  # raw text in place of RAW, which json.dumps would not write
        cfg_kw, raw = cfg_kw
        cfg = make_cfg(tmp_path, **cfg_kw)
        text = Path(cfg).read_text()
        Path(cfg).write_text(text.replace(json.dumps(RAW), raw))
        assert raw in Path(cfg).read_text()
    else:
        cfg = make_cfg(tmp_path, **cfg_kw)
    assert cli.main(["run", cfg]) == cli.EXIT_CONFIG
    assert "vortexlab: " + message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_main_returns_config_exit_for_missing_file(tmp_path, capsys):
    rc = cli.main(["run", str(tmp_path / "nope.json")])
    assert rc == cli.EXIT_CONFIG
    assert "vortexlab:" in capsys.readouterr().err


def test_constant_run_produces_artifacts(tmp_path):
    cfg = make_cfg(tmp_path)
    assert cli.main(["run", cfg]) == cli.EXIT_OK
    out = tmp_path / "out"
    for fname in ("report.json", "invariants.json", "w_complete.csv", "rays.csv"):
        assert (out / fname).exists(), fname
    report = json.loads((out / "report.json").read_text())
    assert report["exit_status"] == 0
    assert report["error"] is None
    assert report["versions"]["vortexlab"]
    solve_rep = report["reports"]["complete"]
    assert solve_rep["final_residual"] <= 1e-10
    assert solve_rep["boundary_kind"] == "COMPLETE_APPROX"
    # every Newton step costs at least one PCG iteration (one V-cycle)
    assert solve_rep["cg_iterations"] >= solve_rep["iterations"] > 0
    assert solve_rep["backtracks"] >= 0
    for rung in solve_rep["continuation_trace"]:
        assert rung["cg_iterations"] >= rung["newton_iterations"] > 0
        assert rung["backtracks"] >= 0
    inv = json.loads((out / "invariants.json").read_text())
    assert inv["failures"] == []
    names = {c["name"] for c in inv["checks"]}
    assert "subunity_complete" in names and "no_gap" in names


def test_dichotomy_run_reports_divergent_ray(tmp_path):
    cfg = make_cfg(tmp_path, n=81, pipeline=("two-solutions", "verify"),
                   **EXP_Z_KW)
    assert cli.main(["run", cfg]) == cli.EXIT_OK
    inv = json.loads((tmp_path / "out" / "invariants.json").read_text())
    names = {c["name"]: c for c in inv["checks"]}
    assert names["ordering"]["passed"] is True
    assert names["ordering"]["tolerance"] == 0.0  # strict for a non-polynomial phi
    assert [r["verdict"] for r in inv["rays"]["complete"]] == ["DIVERGENT"] * 4
    left = [r for r in inv["rays"]["incomplete"] if abs(r["theta"] - np.pi) < 1e-9]
    assert left[0]["verdict"] == "CONVERGENT"
    assert abs(left[0]["limit_estimate"] - 3.0) <= 0.02


def test_polynomial_branches_that_meet_at_round_off_pass_ordering(tmp_path):
    # z^2 - 1 at R = 10: the two branches coincide on the inner square, and
    # their gap rounds to either sign, so a polynomial phi is ordered within
    # TOL_ORDERING
    cfg = make_cfg(tmp_path, **Z2_MINUS_1_KW, R=10.0, n=301,
                   pipeline=("two-solutions", "verify"))
    assert cli.main(["run", cfg]) == cli.EXIT_OK
    inv = json.loads((tmp_path / "out" / "invariants.json").read_text())
    ordering = {c["name"]: c for c in inv["checks"]}["ordering"]
    assert ordering["passed"] is True and ordering["tolerance"] == 1e-12
    assert abs(ordering["margin"]) <= 1e-12


def test_verify_evaluates_each_branch_residual_once(tmp_path, monkeypatch):
    # the curvature check and the identity both read the one residual that
    # verify forms per branch
    calls, stage, residual = [], cli._Run.verify, grid.VortexProblem.residual

    def counted_verify(run):
        monkeypatch.setattr(grid.VortexProblem, "residual",
                            lambda prob, w: calls.append(1) or residual(prob, w))
        try:
            stage(run)
        finally:
            monkeypatch.setattr(grid.VortexProblem, "residual", residual)

    monkeypatch.setattr(cli._Run, "verify", counted_verify)
    cfg = make_cfg(tmp_path, n=41, pipeline=("two-solutions", "verify"), **EXP_Z_KW)
    assert cli.main(["run", cfg]) == cli.EXIT_OK
    assert len(calls) == 2


def test_verify_writes_an_overflowing_ray_length_as_null(tmp_path):
    # a ray whose length overflows to +inf is written as null, so the rays
    # are strict JSON; the other checks of such a field are not asserted here
    cfg = cli.load_config(make_cfg(tmp_path, R=2.0, n=41))
    os.makedirs(cfg.output_dir)
    state = cli._Run(cfg)
    state.problem = grid.VortexProblem(cfg.phi, cfg.k, cfg.domain)
    state.fields["complete"] = np.full((41, 41), 1500.0)
    with np.errstate(over="ignore", invalid="ignore"):
        state.verify()
    rays = json.loads(json.dumps(state.rays, allow_nan=False))["complete"]
    assert [(ray["length"], ray["verdict"], ray["limit_estimate"]) for ray in rays] == \
        [(None, "DIVERGENT", None)] * 4


def test_report_counts_residual_evaluations(tmp_path):
    # a Newton solve evaluates the residual at its start and once per trial
    # point: each accepted step and each backtrack
    cfg = make_cfg(tmp_path, R=6.0, pipeline=("two-solutions",), **EXP_Z_KW)
    assert cli.main(["run", cfg]) == cli.EXIT_OK
    reports = json.loads((tmp_path / "out" / "report.json").read_text())["reports"]
    rungs = reports["complete"]["continuation_trace"]
    assert len(rungs) > 1
    for rep in rungs:
        assert rep["residual_evaluations"] == 1 + rep["newton_iterations"] + rep["backtracks"]
    for rep in (reports["complete"], reports["incomplete"]):
        assert rep["residual_evaluations"] == 1 + rep["iterations"] + rep["backtracks"]
    # the ladder's own counts are those of the rung it returned, here the
    # last one: the e^z ladder does not stabilize
    assert reports["complete"]["residual_evaluations"] == rungs[-1]["residual_evaluations"]


def test_ladder_totals_sum_the_rungs(tmp_path):
    # the top-level counts of a ladder are its returned rung's; "totals"
    # adds up every rung of continuation_trace
    cfg = make_cfg(tmp_path, R=6.0, pipeline=("solve-complete",), **EXP_Z_KW)
    assert cli.main(["run", cfg]) == cli.EXIT_OK
    complete = json.loads((tmp_path / "out" / "report.json").read_text())["reports"]["complete"]
    rungs = complete["continuation_trace"]
    assert len(rungs) > 1
    assert complete["totals"] == {
        "iterations": sum(rung["newton_iterations"] for rung in rungs),
        "cg_iterations": sum(rung["cg_iterations"] for rung in rungs),
        "backtracks": sum(rung["backtracks"] for rung in rungs),
        "residual_evaluations": sum(rung["residual_evaluations"] for rung in rungs),
    }
    assert complete["totals"]["iterations"] > complete["iterations"]


@pytest.mark.parametrize("tol, message, n", [
    pytest.param({"develop_restrict": -1}, "develop_restrict must be", 41, id="restrict-negative"),
    pytest.param({"develop_restrict": 1.0}, "develop_restrict must be", 41, id="restrict-float"),
    pytest.param({"develop_restrict": True}, "develop_restrict must be", 41, id="restrict-bool"),
    # 41 -> 21 -> 11 nodes, and 11 - 1 is not divisible by 4
    pytest.param({"develop_restrict": 3}, "cannot be halved", 41, id="restrict-indivisible"),
    # 9 -> 5 -> 3 nodes, below the smallest grid
    pytest.param({"develop_restrict": 2}, "cannot be halved", 9, id="restrict-below-5"),
    # the no-gap bound is the constant invariants.NO_GAP_DELTA, not a setting:
    # the key is refused whatever its value, the old default 0.5 included
    pytest.param({"no_gap_delta": 0.0}, "unknown key 'no_gap_delta' in tolerances", 41,
                 id="delta-zero"),
    pytest.param({"no_gap_delta": 1.0}, "unknown key 'no_gap_delta' in tolerances", 41,
                 id="delta-one"),
    pytest.param({"no_gap_delta": -0.5}, "unknown key 'no_gap_delta' in tolerances", 41,
                 id="delta-negative"),
    pytest.param({"no_gap_delta": "0.5"}, "unknown key 'no_gap_delta' in tolerances", 41,
                 id="delta-string"),
    pytest.param({"no_gap_delta": 0.5}, "unknown key 'no_gap_delta' in tolerances", 41,
                 id="delta-unknown"),
    pytest.param({"develop_restict": 2}, "unknown key 'develop_restict' in tolerances", 41,
                 id="restrict-misspelled"),
])
def test_bad_tolerances_refused_before_any_artifact(tmp_path, capsys, tol, message, n):
    kw = dict(p=((1.0, 0.0),), k=3, R=2.0, mode="WANG_K3",
              pipeline=("solve-complete", "verify", "develop"))
    assert cli.main(["run", make_cfg(tmp_path, tol=tol, n=n, **kw)]) == cli.EXIT_CONFIG
    assert not (tmp_path / "out").exists()
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err
    good = cli.load_config(make_cfg(tmp_path, "good.json", n=41, **kw,
                                    tol={"develop_restrict": 2}))
    assert good.develop_domain == GridDomain(0.5, 11)
    default = cli.load_config(make_cfg(tmp_path, "default.json", n=41, **kw))
    assert default.develop_domain == default.domain


def test_branch_order_does_not_follow_the_pipeline(tmp_path):
    # the incomplete branch solved first is still checked, probed and
    # compared second, as two-solutions has it; for a polynomial too
    for i, kw in enumerate((EXP_Z_KW, Z2_MINUS_1_KW)):
        files = []
        for j, pipeline in enumerate([("solve-incomplete", "solve-complete", "verify"),
                                      ("two-solutions", "verify")]):
            out = tmp_path / ("out%d%d" % (i, j))
            cfg = make_cfg(tmp_path, **kw, pipeline=pipeline, out=out.name)
            assert cli.main(["run", cfg]) == cli.EXIT_OK, (kw, pipeline)
            files.append({name: (out / name).read_bytes() for name in (
                "invariants.json", "rays.csv", "w_complete.csv", "w_incomplete.csv")})
        assert files[0] == files[1], kw


def test_unresolvable_roots_exit_config_without_traceback(tmp_path):
    # Wilkinson's prod_{j=1..20} (z - j): even its exact roots miss the
    # residual target, and refusing it must not overflow on the way
    wilkinson = np.polynomial.polynomial.polyfromroots(np.arange(1.0, 21.0))
    cfg = make_cfg(tmp_path, p=[(c, 0.0) for c in wilkinson], q=((0.0, 0.0), (1.0, 0.0)),
                   k=3, R=24.0, n=41, pipeline=("solve-incomplete",))
    proc = subprocess.run([sys.executable, "-m", "vortexlab.cli", "run", cfg],
                          env=CHILD_ENV, capture_output=True, text=True, timeout=120)
    assert proc.returncode == cli.EXIT_CONFIG, proc.stderr
    assert "Traceback" not in proc.stderr
    assert "residual target" in proc.stderr
    assert "RuntimeWarning" not in proc.stderr
    # refused at load, before any artifact
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("pipeline, hs, loads", [
    pytest.param(("solve-incomplete",), 1, False, id="incomplete-1h"),
    pytest.param(("solve-incomplete",), 3, False, id="incomplete-3h"),
    # a zero at 3.95, a quarter h inside the ring
    pytest.param(("solve-incomplete",), 0.25, False, id="zero-on-ring"),
    pytest.param(("two-solutions",), 1, False, id="two-solutions-1h"),
    pytest.param(("two-solutions",), 3, False, id="two-solutions-3h"),
    pytest.param(("solve-incomplete",), 5, True, id="incomplete-5h-loads"),
    # zeros outside the square: h outside the ring is refused, 5h loads
    pytest.param(("solve-incomplete",), -1, False, id="incomplete-1h-outside"),
    pytest.param(("solve-incomplete",), -5, True, id="incomplete-5h-outside-loads"),
    pytest.param(("two-solutions",), 5, True, id="two-solutions-5h-loads"),
    # the complete branch's ring data max(profile, 0) + M stay finite
    pytest.param(("solve-complete",), 1, True, id="complete-1h-loads"),
])
def test_zero_near_the_ring_is_refused_at_load(tmp_path, capsys, pipeline, hs, loads):
    # phi = (z - (R - hs h)) e^z: the incomplete branch's ring data
    # (2/k) log|phi| are -inf at the zero, so a zero within 4h of the ring,
    # on either side, is refused with exit 2 before any artifact is written
    dom = GridDomain(4.0, 41)
    cfg = make_cfg(tmp_path, p=((-(dom.R - hs * dom.h), 0.0), (1.0, 0.0)),
                   q=((0.0, 0.0), (1.0, 0.0)), k=3, R=dom.R, n=dom.n, pipeline=pipeline)
    if loads:
        assert cli.load_config(cfg).stages == pipeline
        return
    assert cli.main(["run", cfg]) == cli.EXIT_CONFIG
    assert "within 4h of the boundary ring" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("cfg_kw", [
    pytest.param(dict(mode="WANG_K3", pipeline=("solve-incomplete", "verify")), id="wang-z-10"),
    pytest.param(dict(q=((0.0, 0.0), (1.0, 0.0)), pipeline=("two-solutions", "verify")),
                 id="eq1-z-10-exp"),
])
def test_a_zero_far_outside_the_square_runs(tmp_path, cfg_kw):
    # U = z - 10 and phi = (z - 10) e^z on [-2, 2]^2: the zero lies 40h
    # outside the ring, so the profile is finite and gentle on the grid
    cfg = make_cfg(tmp_path, p=((-10.0, 0.0), (1.0, 0.0)), k=3, R=2.0, n=21, **cfg_kw)
    assert cli.main(["run", cfg]) == cli.EXIT_OK


def test_a_zero_past_the_double_range_loads_without_a_warning(tmp_path):
    # p = 1e300 + z: its zero -1e300 lies far outside the square, and neither
    # the roots' acceptance nor the load's distance test overflows.  The
    # incomplete branch then meets double precision's limit at large w
    # (its line search stalls), which the run reports as a solver failure
    cfg = make_cfg(tmp_path, p=((1e300, 0.0), (1.0, 0.0)), k=3, R=2.0, n=21, mode="WANG_K3",
                   pipeline=("solve-incomplete",))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert cli.main(["run", cfg]) in (cli.EXIT_OK, cli.EXIT_SOLVER)
    assert (tmp_path / "out" / "report.json").exists()


def test_a_right_hand_side_past_the_square_root_of_the_double_range(tmp_path, capsys):
    # e^z at R = 1000: Newton's right-hand side reaches |g| ~ 1e218, whose
    # square no double holds.  PCG scales it by a power of two first, so no
    # dot product overflows, and the run ends in the line search's stall
    cfg = make_cfg(tmp_path, **dict(EXP_Z_KW, R=1000.0, n=21, pipeline=("two-solutions",)))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert cli.main(["run", cfg]) == cli.EXIT_SOLVER
    assert "Newton line search stalled at residual 4.785e+218" in capsys.readouterr().err


def test_unwritable_artifact_exits_config_with_report(tmp_path):
    # a directory where the field file goes: the run ends as exit 2 with both
    # JSON files, like an output directory that cannot be created, not in a
    # traceback
    (tmp_path / "out" / "w_complete.csv").mkdir(parents=True)
    cfg = make_cfg(tmp_path)
    proc = subprocess.run([sys.executable, "-m", "vortexlab.cli", "run", cfg],
                          env=CHILD_ENV, capture_output=True, text=True, timeout=120)
    assert proc.returncode == cli.EXIT_CONFIG, proc.stderr
    assert "Traceback" not in proc.stderr
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["exit_status"] == cli.EXIT_CONFIG
    assert "w_complete.csv" in report["error"]
    assert (tmp_path / "out" / "invariants.json").exists()


@pytest.mark.parametrize("name", ["report.json", "invariants.json"])
def test_unwritable_report_exits_config_without_traceback(tmp_path, name):
    # a directory where a JSON report goes: nothing is left to write the
    # failure into, so the run says so on stderr and exits 2
    (tmp_path / "out" / name).mkdir(parents=True)
    cfg = make_cfg(tmp_path, p=((1.0, 0.0),), R=2.0, n=21, pipeline=("solve-incomplete",))
    proc = subprocess.run([sys.executable, "-m", "vortexlab.cli", "run", cfg],
                          env=CHILD_ENV, capture_output=True, text=True, timeout=120)
    assert proc.returncode == cli.EXIT_CONFIG, proc.stderr
    assert "Traceback" not in proc.stderr
    assert "vortexlab: cannot write %s: " % (tmp_path / "out" / name) in proc.stderr


def test_failed_invariants_exit_with_the_failed_checks(tmp_path, monkeypatch, capsys):
    # with no tolerance left, the curvature cross-check and the identity of
    # the complete branch of p = z fail; the failures are the failed checks,
    # named in both JSON files and in the error
    monkeypatch.setattr(verify, "TOL_IDENTITY", 0.0)
    monkeypatch.setattr(verify, "TOL_SOLVE", 0.0)
    cfg = make_cfg(tmp_path, p=((0.0, 0.0), (1.0, 0.0)))
    assert cli.main(["run", cfg]) == cli.EXIT_INVARIANT
    failed = ["curvature_complete", "identity_complete"]
    error = "invariant checks failed: curvature_complete, identity_complete"
    out = tmp_path / "out"
    inv = json.loads((out / "invariants.json").read_text())
    assert inv["failures"] == failed
    assert sorted(c["name"] for c in inv["checks"] if not c["passed"]) == failed
    report = json.loads((out / "report.json").read_text())
    assert report["invariants"]["failures"] == failed
    assert (report["exit_status"], report["error"]) == (cli.EXIT_INVARIANT, error)
    assert error in capsys.readouterr().err


def test_compare_identical_runs(tmp_path, capsys):
    a = make_cfg(tmp_path, name="a.json", out="a")
    b = make_cfg(tmp_path, name="b.json", out="b")
    assert cli.main(["compare", a, b]) == cli.EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["max_difference"] == 0.0


def test_compare_separates_the_two_branches(tmp_path, capsys):
    a = make_cfg(tmp_path, name="a.json", out="a", n=81,
                 pipeline=("solve-complete",), **EXP_Z_KW)
    b = make_cfg(tmp_path, name="b.json", out="b", n=81,
                 pipeline=("solve-incomplete",), **EXP_Z_KW)
    assert cli.main(["compare", a, b]) == cli.EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["max_difference"] > 0.01


def test_compare_requires_matching_spacing(tmp_path, capsys):
    # the spacings come from the two configs, so compare refuses before either run
    a = make_cfg(tmp_path, name="a.json", out="a", n=41)
    b = make_cfg(tmp_path, name="b.json", out="b", n=81)
    assert cli.main(["compare", a, b]) == cli.EXIT_CONFIG
    assert "matching grid spacing" in capsys.readouterr().err
    assert not (tmp_path / "a").exists() and not (tmp_path / "b").exists()


def test_compare_requires_matching_phi(tmp_path):
    a = make_cfg(tmp_path, name="a.json", out="a")
    b = make_cfg(tmp_path, name="b.json", out="b", p=((3.0, 0.0),))
    assert cli.main(["compare", a, b]) == cli.EXIT_CONFIG


def test_compare_requires_matching_mode(tmp_path, capsys):
    # phi = 1 in EQ1 and U = 1 in WANG_K3 (the base equation with phi = 4)
    # are different equations, whose constant solutions on the plane differ
    # by (2/3) log 4: compare refuses them before running either
    kw = dict(p=((1.0, 0.0),), k=3, R=2.0, n=41, pipeline=("solve-complete",))
    a = make_cfg(tmp_path, name="a.json", out="a", mode="EQ1", **kw)
    b = make_cfg(tmp_path, name="b.json", out="b", mode="WANG_K3", **kw)
    assert cli.main(["compare", a, b]) == cli.EXIT_CONFIG
    assert "mode" in capsys.readouterr().err
    assert not (tmp_path / "a").exists() and not (tmp_path / "b").exists()


def test_compare_returns_the_failed_run_status(tmp_path, capsys):
    # constant q = 2 at n = 21 loads, but its develop measures overflow (a
    # precondition failure after load): compare stops at that run and
    # returns its status
    kw = dict(k=2, R=2.0, n=21, mode="HARMONIC_K2", pipeline=("solve-complete", "develop"))
    a = make_cfg(tmp_path, name="a.json", out="a", **kw)
    b = make_cfg(tmp_path, name="b.json", out="b", **kw)
    assert cli.main(["compare", a, b]) == cli.EXIT_CONFIG
    assert capsys.readouterr().out == ""
    assert (tmp_path / "a" / "report.json").exists()
    assert not (tmp_path / "b").exists()


def test_ladder_report_states_whether_it_stabilized(tmp_path):
    # e^z leaks through the weakly screened left side of a small square, so
    # the ladder ends still moving; report.json says so next to each branch's
    # boundary data, and only the ladder carries the stabilization keys
    cfg = make_cfg(tmp_path, R=4.0, n=41, pipeline=("two-solutions",), **EXP_Z_KW)
    assert cli.main(["run", cfg]) == cli.EXIT_OK
    reports = json.loads((tmp_path / "out" / "report.json").read_text())["reports"]
    complete, incomplete = reports["complete"], reports["incomplete"]
    assert complete["boundary_kind"] == "COMPLETE_APPROX"
    assert complete["stabilized"] is False
    assert "still moving" in complete["warning"]
    assert incomplete["boundary_kind"] == "SUBSOLUTION_PROFILE"
    assert "stabilized" not in incomplete and "warning" not in incomplete
    # phi = 100 screens strongly enough for the ladder to settle by M = 12
    cfg = make_cfg(tmp_path, "settled.json", p=((100.0, 0.0),), k=3, out="settled",
                   pipeline=("solve-complete",))
    assert cli.main(["run", cfg]) == cli.EXIT_OK
    complete = json.loads((tmp_path / "settled" / "report.json").read_text())["reports"]["complete"]
    assert complete["stabilized"] is True and complete["warning"] is None


WANG_DEVELOP_KW = dict(p=((1.0, 0.0),), k=3, R=2.0, n=41, mode="WANG_K3",
                       pipeline=("solve-incomplete", "develop"))


@pytest.mark.parametrize("module, name, cfg_kw, detail", [
    pytest.param(GridDomain, "zz", {}, "cannot allocate the grid", id="problem"),
    pytest.param(solver, "_Multigrid", {}, "cannot allocate the hierarchy", id="solve"),
    pytest.param(solver, "_Multigrid", {}, "", id="solve-bare"),
    pytest.param(develop, "_transfers", WANG_DEVELOP_KW, "cannot allocate the transfers",
                 id="develop"),
    pytest.param(develop, "_transfers", WANG_DEVELOP_KW, "", id="develop-bare"),
])
def test_out_of_memory_is_a_solver_failure(tmp_path, monkeypatch, module, name, cfg_kw, detail):
    # running out of memory in any stage, or while building the problem,
    # ends the run as exit 3 with a report
    # that names the error, by its type when it carries no message
    def no_memory(*args, **kwargs):
        raise MemoryError(detail)

    monkeypatch.setattr(module, name, no_memory)
    assert cli.main(["run", make_cfg(tmp_path, **cfg_kw)]) == cli.EXIT_SOLVER
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["exit_status"] == cli.EXIT_SOLVER
    assert report["error"] == (detail or "MemoryError")


def test_grid_past_memory_is_a_solver_failure(tmp_path):
    # numpy can index a grid of 100000001 nodes a side, so load takes it;
    # its 71 PiB cannot be allocated, which is exit 3, as out of memory
    assert cli.main(["run", make_cfg(tmp_path, n=100000001)]) == cli.EXIT_SOLVER
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert "Unable to allocate" in report["error"]


@pytest.mark.parametrize("cfg_kw, message", [
    # the cmc-qz config at n = 65: the 9-node developed grid is too coarse
    pytest.param(dict(p=((0.0, 0.0), (1.0, 0.0)), k=2, R=6.0, n=65, mode="HARMONIC_K2",
                      pipeline=("solve-complete", "verify", "develop", "export"),
                      tol={"develop_restrict": 3}),
                 "left the hyperboloid", id="gauss-map"),
    # constant q = 2 at n = 21: the frames grow until the metric
    # reconstruction overflows to NaN, with no NaN among the frames themselves
    pytest.param(dict(k=2, R=2.0, n=21, mode="HARMONIC_K2",
                      pipeline=("solve-complete", "develop")),
                 "develop measures are not finite", id="develop-overflow"),
    # the affine-ez-develop workload at R = 4, n = 81: |Im f| = 1.2e-2
    pytest.param(dict(p=((1.0, 0.0),), q=((0.0, 0.0), (1.0, 0.0)), k=3, R=4.0, n=81,
                      mode="WANG_K3", pipeline=("solve-incomplete", "develop")),
                 "lost reality", id="reality"),
    # starts whose e^w overflows: phi = e^{1e300 z} on the ladder's rungs,
    # and e^z at R = 1e6 on both branches
    pytest.param(dict(p=((1.0, 0.0),), q=((0.0, 0.0), (1e300, 0.0)), k=3, R=2.0, n=21,
                      pipeline=("solve-complete",)),
                 "double precision cannot state this start: its residual is not finite at "
                 "(x, y) = (0.2, -1.8)", id="start-overflow-q"),
    pytest.param(dict(EXP_Z_KW, R=1e6, n=21, pipeline=("two-solutions",)),
                 "its residual is not finite at (x, y) = (100000, -900000)",
                 id="start-overflow-R"),
    pytest.param(dict(EXP_Z_KW, R=1e6, n=21, pipeline=("solve-incomplete",)),
                 "its residual is not finite at (x, y) = (", id="start-overflow-incomplete"),
])
def test_precondition_failure_after_load_writes_the_report(tmp_path, capsys, cfg_kw, message):
    # the stage refuses what a floating-point warning would flag, so none is
    # raised, and report.json stays strict JSON: no NaN or Infinity in it
    def reject(constant):
        raise ValueError("report.json holds %s" % constant)

    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert cli.main(["run", make_cfg(tmp_path, **cfg_kw)]) == cli.EXIT_CONFIG
    assert message in capsys.readouterr().err
    out = tmp_path / "out"
    report = json.loads((out / "report.json").read_text(), parse_constant=reject)
    assert report["exit_status"] == cli.EXIT_CONFIG
    assert message in report["error"]
    assert (out / "invariants.json").exists()


REPORT_KEYS = {"config", "versions", "reports", "invariants", "develop", "exit_status", "error",
               "timing"}


def test_timing_block_names_the_pipeline_stages(tmp_path):
    # seconds and the peak RSS live in "timing" only; the rest of the report
    # is the same from one run to the next
    pipeline = ("solve-incomplete", "verify", "develop", "export")
    cfg = make_cfg(tmp_path, **dict(WANG_DEVELOP_KW, pipeline=pipeline))
    reports = []
    for _ in range(2):
        assert cli.main(["run", cfg]) == cli.EXIT_OK
        reports.append(json.loads((tmp_path / "out" / "report.json").read_text()))
    timings = [rep.pop("timing") for rep in reports]
    assert reports[0] == reports[1]
    assert set(reports[0]) == REPORT_KEYS - {"timing"}
    assert "seconds" not in json.dumps(reports[0])
    for timing in timings:
        assert set(timing) == {"wall_seconds", "stages", "workers", "blas_threads",
                               "peak_rss_mb"}
        assert timing["blas_threads"] is None or timing["blas_threads"] >= 1
        assert [entry["stage"] for entry in timing["stages"]] == list(pipeline)
        assert all(set(entry) == {"stage", "seconds"} for entry in timing["stages"])
        assert 0.0 < sum(e["seconds"] for e in timing["stages"]) <= timing["wall_seconds"]
        assert timing["peak_rss_mb"] > 0.0


def test_peak_rss_is_the_runs_own(tmp_path):
    # a launcher that touches 300 MB and then execs the run: Linux carries
    # ru_maxrss across exec, so the run's own peak must be read elsewhere
    launcher = ("import os, sys\n"
                "ballast = b'\\x01' * (300 << 20)\n"
                "os.execv(sys.executable, [sys.executable, '-m', 'vortexlab.cli', 'run', %r])\n"
                % make_cfg(tmp_path))
    proc = subprocess.run([sys.executable, "-c", launcher], env=CHILD_ENV,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == cli.EXIT_OK, proc.stderr
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert 0.0 < report["timing"]["peak_rss_mb"] < 150.0


def _no_worker_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_artifacts_are_the_same_at_any_part_count(tmp_path, monkeypatch, use_parts):
    # develop in blocks of 8 rows, 6 blocks at n = 41, split over 1, 2 or 3
    # processes like the grid rows of every artifact writer, which here
    # forks a part for any number of entries
    monkeypatch.setattr(develop, "_ROWS", 8)
    monkeypatch.setattr(grid, "_PART_ENTRIES", 1)
    cfg_kw = dict(WANG_DEVELOP_KW, pipeline=("solve-incomplete", "verify", "develop", "export"))
    runs = []
    for count in (1, 2, 3):
        use_parts(count)
        out = "out%d" % count
        assert cli.main(["run", make_cfg(tmp_path, out=out, **cfg_kw)]) == cli.EXIT_OK
        _no_worker_left()
        files = {f.name: f.read_bytes() for f in (tmp_path / out).iterdir()}
        report = json.loads(files.pop("report.json"))
        assert report.pop("timing")["workers"] == count
        report["config"].pop("output_dir")
        runs.append((files, report))
    assert sorted(runs[0][0]) == ["invariants.json", "rays.csv", "surface.obj",
                                  "w_incomplete.csv"]
    assert runs[0] == runs[1] == runs[2]


# the degenerate exponential q = e^{2z}, whose profile is exact: a CMC
# development with no Newton step
CMC_DEVELOP_KW = dict(p=((1.0, 0.0),), q=((0.0, 0.0), (2.0, 0.0)), k=2, R=1.0, n=61,
                      mode="HARMONIC_K2", pipeline=("solve-incomplete", "develop", "export"))


@pytest.mark.parametrize("cfg_kw", [
    pytest.param(dict(WANG_DEVELOP_KW, pipeline=("solve-incomplete", "develop", "export")),
                 id="WANG_K3"),
    pytest.param(CMC_DEVELOP_KW, id="HARMONIC_K2"),
])
def test_develop_artifacts_are_the_same_at_any_blas_thread_and_part_count(tmp_path, cfg_kw):
    # a develop part computes the WANG_K3 metric with np.linalg.det, a
    # LAPACK call, in whichever process runs its block.  Each child sets
    # the BLAS threads before numpy loads and the parts as taskset would,
    # develops in blocks of 8 rows and forks a writer part for any number of
    # entries
    script = ("import os, sys\n"
              "count = int(sys.argv[1])\n"
              "os.sched_getaffinity = lambda pid: set(range(count))\n"
              "from vortexlab import cli, grid, surfaces\n"
              "surfaces._ROWS = 8\n"
              "grid._PART_ENTRIES = 1\n"
              "sys.exit(cli.main(['run', sys.argv[2]]))\n")
    runs = []
    for threads in ("1", "4"):
        env = dict(CHILD_ENV, OMP_NUM_THREADS=threads, OPENBLAS_NUM_THREADS=threads)
        for count in (1, 2, 3):
            out = "out_%s_%d" % (threads, count)
            cfg = make_cfg(tmp_path, name=out + ".json", out=out, **cfg_kw)
            proc = subprocess.run([sys.executable, "-c", script, str(count), cfg], env=env,
                                  capture_output=True, text=True, timeout=120)
            assert proc.returncode == cli.EXIT_OK, proc.stderr
            files = {f.name: f.read_bytes() for f in (tmp_path / out).iterdir()}
            report = json.loads(files.pop("report.json"))
            assert report.pop("timing")["workers"] == count
            report["config"].pop("output_dir")
            runs.append((files, report))
    assert "surface.obj" in runs[0][0]
    assert all(run == runs[0] for run in runs[1:])


@pytest.mark.parametrize("fault, status, error", [
    (MemoryError("cannot allocate the transfers"), cli.EXIT_SOLVER,
     "cannot allocate the transfers"),
    (OSError("no room for the transfers"), cli.EXIT_CONFIG, "no room for the transfers"),
    (None, cli.EXIT_SOLVER, "a worker process was killed by SIGKILL"),
], ids=["memory", "os", "killed"])
def test_a_failed_worker_ends_the_run_as_in_process(tmp_path, monkeypatch, use_parts, fault,
                                                    status, error):
    # the fault happens in the forked worker only; the run is classified by
    # its type, as if this process had raised it, and no worker is left
    use_parts(2)
    monkeypatch.setattr(develop, "_ROWS", 8)
    parent, real = os.getpid(), develop._transfers

    def worker_fails(*args, **kwargs):
        if os.getpid() != parent:
            if fault is None:
                os.kill(os.getpid(), signal.SIGKILL)
            raise fault
        return real(*args, **kwargs)

    monkeypatch.setattr(develop, "_transfers", worker_fails)
    assert cli.main(["run", make_cfg(tmp_path, **WANG_DEVELOP_KW)]) == status
    _no_worker_left()
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["exit_status"] == status and report["error"] == error


# phi = 100 at n = 41: a ladder that stabilizes at M = 12, so it solves the
# rungs 22 and 24, then 4 and 6, 8 and 10, 12 and 14
PHI_100_KW = dict(p=((100.0, 0.0),), k=3)


def _fail_rungs(monkeypatch, fails):
    """Make each Newton solve for which fails(M) holds stop after one V-cycle
    per step, which fails it, in whichever process it runs.  M is the height
    of the start's ring over the capped profile, None for ring data that are
    no rung's (the incomplete branch).  Returns the M of each solve made in
    this process."""
    real, limit = solver.solve_newton, solver.MAX_PCG
    calls = []

    def solve_newton(problem, w0):
        M = float(np.min(ring_values(w0 - np.maximum(problem.profile(), 0.0))))
        M = M if M in solver.DEFAULT_M_VALUES else None
        calls.append(M)
        monkeypatch.setattr(solver, "MAX_PCG", 1 if fails(M) else limit)
        return real(problem, w0)

    monkeypatch.setattr(solver, "solve_newton", solve_newton)
    return calls


def test_ladder_artifacts_are_the_same_at_any_part_count(tmp_path, monkeypatch, use_parts):
    # the rungs of a round are split over 1 or 2 processes (never 3, a round
    # has two rungs); an unstabilized two-solutions ladder, one that
    # stabilizes at M = 12, and that one with rung 10 failing write the same
    # bytes either way.  At 2 parts rung 10 fails in a worker, and its
    # report crosses the pipe
    runs = {"dichotomy": (dict(EXP_Z_KW, R=4.0, pipeline=("two-solutions", "verify")),
                          cli.EXIT_OK),
            "stabilizing": (dict(PHI_100_KW, pipeline=("solve-complete", "verify")), cli.EXIT_OK),
            "failing": (PHI_100_KW, cli.EXIT_SOLVER)}
    for name, (cfg_kw, status) in runs.items():
        if name == "failing":
            _fail_rungs(monkeypatch, lambda M: M == 10.0)
        outputs = []
        for count in (1, 2, 3):
            use_parts(count)
            out = "%s%d" % (name, count)
            assert cli.main(["run", make_cfg(tmp_path, out=out, **cfg_kw)]) == status
            _no_worker_left()
            files = {f.name: f.read_bytes() for f in (tmp_path / out).iterdir()}
            report = json.loads(files.pop("report.json"))
            report.pop("timing")
            report["config"].pop("output_dir")
            outputs.append((files, report))
        assert outputs[0] == outputs[1] == outputs[2]
        if name == "stabilizing":
            assert outputs[0][1]["reports"]["complete"]["stabilized"] is True
    trace = outputs[0][1]["reports"]["complete"]["continuation_trace"]
    assert [rung["M"] for rung in trace] == [4.0, 6.0, 8.0, 10.0, 22.0, 24.0]
    assert trace[3]["residual"] > solver.TOL_NEWTON


@pytest.mark.parametrize("kill", [False, True], ids=["fails", "killed"])
def test_a_rung_failing_in_a_worker_ends_the_run_as_in_process(tmp_path, monkeypatch,
                                                              use_parts, kill):
    # rung 10 is solved by the worker forked beside rung 8.  Its failed
    # solve exits 3 with the rungs tried, itself among them, and its own
    # history, as in this process; a worker killed while solving it exits 3
    # and names the signal
    use_parts(2)
    parent = os.getpid()

    def fails(M):
        if M == 10.0 and os.getpid() != parent:
            if kill:
                os.kill(os.getpid(), signal.SIGKILL)
            return True
        return False

    _fail_rungs(monkeypatch, fails)
    assert cli.main(["run", make_cfg(tmp_path, **PHI_100_KW)]) == cli.EXIT_SOLVER
    _no_worker_left()
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    if kill:
        assert report["error"] == "a worker process was killed by SIGKILL"
        return
    assert "PCG did not reach" in report["error"]
    complete = report["reports"]["complete"]
    assert [rung["M"] for rung in complete["continuation_trace"]] == [4.0, 6.0, 8.0, 10.0,
                                                                      22.0, 24.0]
    history = complete["residual_history"]
    assert len(history) == complete["iterations"] + 1 >= 2
    assert complete["final_residual"] == history[-1] > solver.TOL_NEWTON


def test_a_rung_refused_in_a_worker_ends_the_run_as_in_process(tmp_path, monkeypatch,
                                                               use_parts):
    # rung 10, solved by the worker forked beside rung 8, starts where double
    # precision cannot state its residual: the refusal comes back with its
    # type, so the run exits 2 with the report, as in this process
    use_parts(2)
    parent, real = os.getpid(), solver.solve_newton

    def solve_newton(problem, w0):
        M = float(np.min(ring_values(w0 - np.maximum(problem.profile(), 0.0))))
        if M == 10.0 and os.getpid() != parent:
            w0 = w0.copy()
            w0[1:-1, 1:-1] = np.inf
        return real(problem, w0)

    monkeypatch.setattr(solver, "solve_newton", solve_newton)
    assert cli.main(["run", make_cfg(tmp_path, **PHI_100_KW)]) == cli.EXIT_CONFIG
    _no_worker_left()
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["error"] == ("double precision cannot state this start: its residual is not "
                               "finite at (x, y) = (-3.8, -3.8)")


# q = z (the cmc-qz config) at n = 61: a ladder that settles only on its
# last rung, so it solves every rung, and M = 20 in a round of its own
QZ_61_KW = dict(p=((0.0, 0.0), (1.0, 0.0)), k=2, R=6.0, n=61, mode="HARMONIC_K2",
                pipeline=("solve-complete",))


@pytest.mark.parametrize("M, finished", [
    (20.0, [4.0, 6.0, 8.0, 10.0, 12.0, 14.0, 16.0, 18.0, 22.0, 24.0]),
    (22.0, [24.0]),
    (24.0, [22.0]),
], ids=["M20", "M22", "M24"])
def test_a_failing_upper_rung_reports_the_rungs_tried(tmp_path, monkeypatch, M, finished):
    # each rung finished is reported as the ladder without the failure
    # reports it, except that a rung whose M - 2 did not finish has no inner
    # change; rung 22's comes from rung 20, in the last round.  The failed
    # rung is listed too, with the failed solve's counts and last residual,
    # which the top level also reports, and no inner change
    assert cli.main(["run", make_cfg(tmp_path, out="ok", **QZ_61_KW)]) == cli.EXIT_OK
    ok = json.loads((tmp_path / "ok" / "report.json").read_text())["reports"]["complete"]
    rungs = {rung["M"]: rung for rung in ok["continuation_trace"]}
    _fail_rungs(monkeypatch, lambda m: m == M)
    assert cli.main(["run", make_cfg(tmp_path, **QZ_61_KW)]) == cli.EXIT_SOLVER
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert "PCG did not reach" in report["error"]
    complete = report["reports"]["complete"]
    failed = {"M": M, "newton_iterations": complete["iterations"],
              "cg_iterations": complete["cg_iterations"], "backtracks": complete["backtracks"],
              "residual_evaluations": complete["residual_evaluations"],
              "residual": complete["final_residual"], "inner_change": None}
    assert complete["continuation_trace"] == sorted(
        [dict(rungs[m], inner_change=None) if m - 2.0 not in finished else rungs[m]
         for m in finished] + [failed], key=lambda rung: rung["M"])
    assert complete["stabilized"] is False and complete["warning"] is None
    assert complete["totals"]["iterations"] == sum(rung["newton_iterations"]
                                                   for rung in complete["continuation_trace"])
    assert complete["final_residual"] == complete["residual_history"][-1] > solver.TOL_NEWTON


def test_timing_reads_the_blas_threads_in_effect(tmp_path):
    # a run started with one OpenBLAS thread reports one, read from the
    # library numpy loaded; a numpy built on another BLAS reports null
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    cfg = make_cfg(tmp_path, n=21, pipeline=("solve-incomplete",))
    main = "import sys; from vortexlab.cli import main; sys.exit(main(sys.argv[1:]))"
    proc = subprocess.run([sys.executable, "-c", main, "run", cfg],
                          env=dict(CHILD_ENV, OPENBLAS_NUM_THREADS="1"),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == cli.EXIT_OK, proc.stderr
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["timing"]["blas_threads"] == (1 if "openblas" in blas else None)


def test_timing_includes_the_failed_stage(tmp_path, monkeypatch):
    def no_memory(*args, **kwargs):
        raise MemoryError("cannot allocate the transfers")

    monkeypatch.setattr(develop, "_transfers", no_memory)
    assert cli.main(["run", make_cfg(tmp_path, **WANG_DEVELOP_KW)]) == cli.EXIT_SOLVER
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert set(report) == REPORT_KEYS
    stages = [entry["stage"] for entry in report["timing"]["stages"]]
    assert stages == list(WANG_DEVELOP_KW["pipeline"])


def test_unconverged_pcg_is_a_solver_failure(tmp_path, monkeypatch):
    # the forcing term lets some early Newton steps stop after one V-cycle,
    # but not every step: the late ones, at residuals far below ETA_NEWTON,
    # need several
    monkeypatch.setattr(solver, "MAX_PCG", 1)
    assert cli.main(["run", make_cfg(tmp_path)]) == cli.EXIT_SOLVER
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["exit_status"] == cli.EXIT_SOLVER
    assert "PCG did not reach" in report["error"]
    # the report keeps what the failed solve did: its steps, each with at
    # least one V-cycle, and the failed PCG's one.  Both rungs of the first
    # round fail; the trace lists both, and the top level is rung 22's
    complete = report["reports"]["complete"]
    trace = complete["continuation_trace"]
    assert [rung["M"] for rung in trace] == [22.0, 24.0] and complete["stabilized"] is False
    assert trace[0]["residual"] == complete["final_residual"]
    assert all(rung["inner_change"] is None and rung["residual"] > solver.TOL_NEWTON
               for rung in trace)
    history = complete["residual_history"]
    assert len(history) == complete["iterations"] + 1 >= 2
    assert complete["final_residual"] == history[-1] > solver.TOL_NEWTON
    assert complete["cg_iterations"] >= complete["iterations"] + 1
    # a ladder whose rung M = 8 fails reports every rung it tried: the last
    # pair, the pair below, M = 8 and M = 10, solved beside the failing rung
    monkeypatch.undo()
    _fail_rungs(monkeypatch, lambda M: M == 8.0)
    assert cli.main(["run", make_cfg(tmp_path, **PHI_100_KW)]) == cli.EXIT_SOLVER
    complete = json.loads((tmp_path / "out" / "report.json").read_text())["reports"]["complete"]
    trace = complete["continuation_trace"]
    assert [rung["M"] for rung in trace] == [4.0, 6.0, 8.0, 10.0, 22.0, 24.0]
    assert trace[2]["residual"] == complete["final_residual"]
    assert complete["totals"]["iterations"] == sum(rung["newton_iterations"] for rung in trace)
    assert complete["final_residual"] == complete["residual_history"][-1] > solver.TOL_NEWTON


def test_failed_incomplete_branch_keeps_the_finished_ladder(tmp_path, monkeypatch):
    # two-solutions runs the ladder, then the incomplete branch, whose ring
    # data are no rung's; when that one fails, the run keeps the finished
    # ladder's report and w_complete.csv, as a run without the failure writes
    # them, and writes no w_incomplete.csv
    kw = dict(p=((0.5, 0.0), (1.0, 0.0)), q=((0.0, 0.0), (1.0, 0.0)), k=3, R=4.0,
              pipeline=("two-solutions",))
    assert cli.main(["run", make_cfg(tmp_path, **kw)]) == cli.EXIT_OK
    finished = json.loads((tmp_path / "out" / "report.json").read_text())["reports"]
    calls = _fail_rungs(monkeypatch, lambda M: M is None)
    assert cli.main(["run", make_cfg(tmp_path, "fail.json", out="fail", **kw)]) == cli.EXIT_SOLVER
    failed = tmp_path / "fail"
    report = json.loads((failed / "report.json").read_text())
    assert calls[-1] is None and "PCG did not reach" in report["error"]
    assert report["reports"]["complete"] == finished["complete"]
    assert sorted(path.name for path in failed.iterdir()) == [
        "invariants.json", "report.json", "w_complete.csv"]
    assert (failed / "w_complete.csv").read_bytes() == (
        tmp_path / "out" / "w_complete.csv").read_bytes()
    incomplete = report["reports"]["incomplete"]
    assert incomplete["boundary_kind"] == "SUBSOLUTION_PROFILE"
    assert incomplete["final_residual"] > solver.TOL_NEWTON


def test_two_solutions_stage_agrees_with_the_library_composition(tmp_path):
    # the CLI solves each branch through solve_branch, not two_solutions;
    # both routes give the same bits and the same report, for e^z and for a
    # polynomial, whose two branches coincide
    for i, kw in enumerate((EXP_Z_KW, Z2_MINUS_1_KW)):
        out = tmp_path / ("out%d" % i)
        cfg = make_cfg(tmp_path, "cfg%d.json" % i, **kw, pipeline=("two-solutions",),
                       out=out.name)
        assert cli.main(["run", cfg]) == cli.EXIT_OK, kw
        reports = json.loads((out / "report.json").read_text())["reports"]
        loaded = cli.load_config(cfg)
        branches = solver.two_solutions(grid.VortexProblem(loaded.phi, loaded.k, loaded.domain))
        assert sorted(branches) == sorted(reports) == ["complete", "incomplete"]
        for branch, (w, rep) in branches.items():
            # %.17g values round-trip exactly
            written = np.loadtxt(out / ("w_%s.csv" % branch), delimiter=",", skiprows=1,
                                 usecols=2)
            assert np.array_equal(written.reshape(w.shape), w), (kw, branch)
            assert cli._solve_report_json(rep) == reports[branch], (kw, branch)


def test_dichotomy_reads_from_the_written_fields(tmp_path):
    # the paper's dichotomy, from the artifacts alone: for polynomial phi the
    # two branches tend to one solution, so their gap on the inner square is
    # the ring's screened influence and falls at least 100x from (R, n) =
    # (4, 81) to (6, 121) at h = 0.1; for e^z the branches are two solutions
    # and the gap stays above 1 at both sizes.  The verdicts say the same:
    # the polynomial's eight rays diverge, and one ray of e^z's incomplete
    # branch has a finite length
    gaps, verdicts = {}, {}
    for name, kw in (("poly", Z2_MINUS_1_KW), ("exp", EXP_Z_KW)):
        for R, n in ((4.0, 81), (6.0, 121)):
            out = tmp_path / ("%s%d" % (name, n))
            cfg = make_cfg(tmp_path, "%s%d.json" % (name, n), **kw, R=R, n=n,
                           pipeline=("two-solutions", "verify"), out=out.name)
            assert cli.main(["run", cfg]) == cli.EXIT_OK, (name, R, n)
            dom = GridDomain(R, n)
            w = {b: np.loadtxt(out / ("w_%s.csv" % b), delimiter=",", skiprows=1,
                               usecols=2).reshape(n, n) for b in ("complete", "incomplete")}
            gaps[name, n] = float(np.max((w["complete"] - w["incomplete"])[dom.inner, dom.inner]))
            rays = json.loads((out / "invariants.json").read_text())["rays"]
            verdicts[name, n] = sorted(r["verdict"] for b in rays for r in rays[b])
    assert gaps["poly", 121] <= gaps["poly", 81] / 100.0, gaps
    assert gaps["exp", 81] > 1.0 and gaps["exp", 121] > 1.0, gaps
    assert verdicts["poly", 81] == verdicts["poly", 121] == ["DIVERGENT"] * 8, verdicts
    assert (verdicts["exp", 81] == verdicts["exp", 121]
            == ["CONVERGENT"] + ["DIVERGENT"] * 7), verdicts


def test_cli_import_leaves_scipy_unloaded():
    # the package needs numpy only; importing scipy would cost every run's set-up
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, vortexlab.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"],
        env=CHILD_ENV, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_every_name_the_benchmark_traces_resolves():
    # perfbench/child.py wraps these (module, attribute path) pairs by name;
    # read from its source without running it
    source = (Path(__file__).resolve().parents[1] / "perfbench" / "child.py").read_text()
    traced, = (ast.literal_eval(node.value) for node in ast.parse(source).body
               if isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "TRACED")
    assert traced
    for _, modname, attr in traced:
        owner = importlib.import_module(modname)
        for part in attr.split("."):
            owner = getattr(owner, part)
        assert callable(owner), (modname, attr)


def test_geometric_run_exports_surface(tmp_path):
    cfg = make_cfg(tmp_path, p=((1.0, 0.0),), q=((0.0, 0.0), (2.0, 0.0)), k=2,
                   R=1.0, n=81, mode="HARMONIC_K2",
                   pipeline=("solve-incomplete", "develop", "export"))
    assert cli.main(["run", cfg]) == cli.EXIT_OK
    out = tmp_path / "out"
    assert (out / "surface.obj").exists()
    assert (out / "gauss.csv").exists()
    report = json.loads((out / "report.json").read_text())
    dev = report["develop"]
    assert dev["mode"] == "HARMONIC_K2"
    assert dev["holonomy_defect"] <= 1e-6
    assert dev["metric_roundtrip_error"] <= 1e-5


def test_wang_run_with_restriction(tmp_path):
    cfg = make_cfg(tmp_path, p=((1.0, 0.0),), k=3, R=2.0, n=81, mode="WANG_K3",
                   pipeline=("solve-incomplete", "develop"),
                   tol={"develop_restrict": 1})
    assert cli.main(["run", cfg]) == cli.EXIT_OK
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    dev = report["develop"]
    assert dev["grid_R"] == pytest.approx(1.0)
    assert dev["grid_n"] == 41
    assert dev["holonomy_defect"] <= 1e-8


def test_develop_reads_only_the_develop_grid(tmp_path, monkeypatch):
    # with develop_restrict 1 the normalization lock, the develop gate and
    # the frames read the inner half of the solved field only, so a field
    # whose ring is NaN develops to the same mesh.  The complete branch
    # solved without a ladder would be +inf on its ring
    kw = dict(p=((1.0, 0.0),), q=((0.0, 0.0), (1.0, 0.0)), k=3, R=2.0, n=81, mode="WANG_K3",
              pipeline=("solve-incomplete", "develop", "export"), tol={"develop_restrict": 1})
    assert cli.main(["run", make_cfg(tmp_path, out="plain", **kw)]) == cli.EXIT_OK
    solve_newton = solver.solve_newton

    def nan_ring(problem, w0):
        w, rep = solve_newton(problem, w0)
        w[[0, -1]] = w[:, [0, -1]] = np.nan
        return w, rep

    monkeypatch.setattr(solver, "solve_newton", nan_ring)
    assert cli.main(["run", make_cfg(tmp_path, "nan.json", out="nan", **kw)]) == cli.EXIT_OK
    assert "nan" in (tmp_path / "nan" / "w_incomplete.csv").read_text()
    surface = [(tmp_path / out / "surface.obj").read_bytes() for out in ("plain", "nan")]
    assert surface[0] == surface[1]


@st.composite
def small_configs(draw):
    """Configs at n <= 41, about a third of which load_config accepts."""
    mode, k = draw(st.sampled_from([("EQ1", 2), ("EQ1", 3), ("WANG_K3", 3), ("WANG_K3", 3),
                                    ("HARMONIC_K2", 2), ("HARMONIC_K2", 2), ("WANG_K3", 2)]))
    phi = {"p": draw(st.sampled_from([[[2.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]],
                                      [[-3.95, 0.0], [1.0, 0.0]]]))}
    if draw(st.booleans()):
        phi["q"] = [[0.0, 0.0], [1.0, 0.0]]
    solve = draw(st.sampled_from(["solve-complete", "solve-incomplete", "two-solutions"]))
    rest = draw(st.lists(st.sampled_from(cli.STAGES), max_size=3))
    return {
        "phi": phi, "k": k, "R": draw(st.sampled_from([1.0, 2.0, 4.0])),
        "n": draw(st.sampled_from([9, 5, 13, 17, 21, 25, 33, 41, 3, 4])), "mode": mode,
        "pipeline": [solve] + rest if draw(st.integers(0, 4)) else rest or [solve],
        "tolerances": draw(st.fixed_dictionaries({}, optional={
            "develop_restrict": st.integers(-1, 3)})),
    }


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(cfg=small_configs())
def test_fuzzed_runs_exit_classified_and_report_after_load(cfg):
    with tempfile.TemporaryDirectory() as tmp:
        cfg["output_dir"] = os.path.join(tmp, "out")
        path = os.path.join(tmp, "cfg.json")
        with open(path, "w") as fh:
            json.dump(cfg, fh)
        try:
            cli.load_config(path)
            loaded = True
        except cli.ConfigError:
            loaded = False
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            status = cli.main(["run", path])
        assert status in (cli.EXIT_OK, cli.EXIT_CONFIG, cli.EXIT_SOLVER, cli.EXIT_INVARIANT)
        assert "Traceback" not in err.getvalue()
        assert os.path.exists(os.path.join(tmp, "out", "report.json")) == loaded
