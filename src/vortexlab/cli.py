"""Batch front end: configure a problem, run solve/verify/develop pipelines,
and emit machine-readable reports plus field/mesh artifacts.

Invocation:
    vortexlab run <config.json>
    vortexlab compare <a.json> <b.json>

`load_config` checks a config and parses it once, into a frozen `Config`;
nothing after it reads the JSON document, which report.json echoes as given.
Exit codes: 0 all requested checks passed; 2 config or precondition error;
3 solver non-convergence or out of memory in any stage, building the problem
included; 4 invariant failure.  Every exit after the output directory is
created writes report.json and invariants.json; only a config refused at load
or an output directory that cannot be created exits 2 without them.

A config is a single JSON document:

    {
      "phi": {"p": [[0.0, 0.0], [1.0, 0.0]], "q": [[0.0, 0.0]]},
      "k": 3,
      "R": 6.0,
      "n": 161,
      "mode": "EQ1",
      "pipeline": ["solve-complete", "verify"],
      "output_dir": "out",
      "tolerances": {"no_gap_delta": 0.5, "develop_restrict": 1}
    }

Unknown keys, also in "tolerances", and a stage named twice are refused.
Coefficients are [re, im] pairs, ascending degree.  In the geometric modes
(WANG_K3, HARMONIC_K2) "phi" holds the differential (U resp. q) and the
solver runs on the matching base-equation problem.  Determinism: identical
configs produce byte-identical artifacts; report.json carries wall-clock
data only inside the isolated "timing" block: wall seconds, the seconds of
each stage run (in pipeline order, a failed one included) and peak RSS in MB.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
from dataclasses import dataclass

import numpy as np

from . import __version__
from .entire import EntireFunction
from .grid import GridDomain, VortexProblem, read_field_csv, write_field_csv
from . import solve as solver
from . import invariants as verify
from . import surfaces as develop

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SOLVER = 3
EXIT_INVARIANT = 4

STAGES = (
    "solve-complete",
    "solve-incomplete",
    "two-solutions",
    "verify",
    "develop",
    "export",
)
MODES = ("EQ1", "WANG_K3", "HARMONIC_K2")
REQUIRED = ("phi", "k", "R", "n", "mode", "pipeline", "output_dir")
KEYS = REQUIRED + ("tolerances",)
RAY_ANGLES = (0.0, 0.5 * np.pi, np.pi, 1.5 * np.pi)


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class Config:
    """A config that passed every check made at load, parsed once.

    `raw`, the document as given, is read only to echo it in report.json.
    """

    raw: dict
    phi: EntireFunction
    k: int
    domain: GridDomain
    mode: str
    stages: tuple
    output_dir: str
    develop_restrict: int
    no_gap_delta: float


def _coeffs(raw, what: str) -> tuple:
    if not isinstance(raw, list) or not raw:
        raise ConfigError("%s must be a non-empty list of [re, im] pairs" % what)
    out = []
    for item in raw:
        if not isinstance(item, list) or len(item) != 2:
            raise ConfigError("%s entries must be [re, im] pairs" % what)
        out.append(complex(float(item[0]), float(item[1])))
    return tuple(out)


def _refuse_unknown(obj: dict, known: tuple, where: str) -> None:
    unknown = sorted(set(obj) - set(known))
    if unknown:
        raise ConfigError("unknown key %s in %s (choose from %s)"
                          % (", ".join(map(repr, unknown)), where, known))


def load_config(path: str) -> Config:
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError("cannot read config %s: %s" % (path, exc))
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    _refuse_unknown(raw, KEYS, "config")
    for key in REQUIRED:
        if key not in raw:
            raise ConfigError("config is missing %r" % key)
    if not isinstance(raw["phi"], dict) or "p" not in raw["phi"]:
        raise ConfigError("phi must be an object with coefficient array p")
    try:
        phi = EntireFunction(_coeffs(raw["phi"]["p"], "phi.p"),
                             _coeffs(raw["phi"].get("q", [[0.0, 0.0]]), "phi.q"))
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc))
    k = raw["k"]
    if not isinstance(k, int) or k < 2:
        raise ConfigError("k must be an integer >= 2")
    n = raw["n"]
    if not isinstance(n, int) or n < 5 or n % 2 == 0:
        raise ConfigError("n must be an odd integer >= 5 (the origin must be a node)")
    if not (isinstance(raw["R"], (int, float)) and raw["R"] > 0):
        raise ConfigError("R must be a positive number")
    if not isinstance(raw["output_dir"], str):
        raise ConfigError("output_dir must be a string")
    mode = raw["mode"]
    if mode not in MODES:
        raise ConfigError("mode must be one of %s" % (MODES,))
    if mode in develop.MODE_K and k != develop.MODE_K[mode]:
        raise ConfigError("mode %s requires k = %d" % (mode, develop.MODE_K[mode]))
    stages = raw["pipeline"]
    if not isinstance(stages, list) or not stages:
        raise ConfigError("pipeline must be a non-empty list of stages")
    for i, st in enumerate(stages):
        if st not in STAGES:
            raise ConfigError("unknown stage %r (choose from %s)" % (st, STAGES))
        if st in stages[:i]:
            raise ConfigError("stage %r appears twice in the pipeline" % st)
    if "two-solutions" in stages and phi.is_polynomial():
        raise ConfigError("phi is a polynomial: the complete solution is unique, "
                          "there is no second one")
    solve_stages = {"solve-complete", "solve-incomplete", "two-solutions"}
    seen_solve = False
    seen_develop = False
    for st in stages:
        if st in solve_stages:
            seen_solve = True
        elif st in ("verify", "develop"):
            if not seen_solve:
                raise ConfigError("stage %r needs a solve stage earlier in the pipeline" % st)
            if st == "develop":
                if mode == "EQ1":
                    raise ConfigError("stage develop needs a geometric mode")
                seen_develop = True
        elif st == "export" and not seen_develop:
            raise ConfigError("stage export needs develop earlier in the pipeline")
    tol = raw.get("tolerances", {})
    if not isinstance(tol, dict):
        raise ConfigError("tolerances must be an object")
    _refuse_unknown(tol, ("develop_restrict", "no_gap_delta"), "tolerances")
    restrict = tol.get("develop_restrict", 0)
    if not isinstance(restrict, int) or isinstance(restrict, bool) or restrict < 0:
        raise ConfigError("tolerances.develop_restrict must be an integer >= 0")
    m = n
    for _ in range(restrict):
        if (m - 1) % 4 or m < 9:
            raise ConfigError("develop_restrict %d: a grid of %d nodes cannot be halved "
                              "((n - 1) must be divisible by 4, and n at least 9)"
                              % (restrict, m))
        m = (m - 1) // 2 + 1
    delta = tol.get("no_gap_delta", 0.5)
    if not isinstance(delta, (int, float)) or isinstance(delta, bool) or not 0.0 < delta < 1.0:
        raise ConfigError("tolerances.no_gap_delta must be a number in (0, 1)")
    return Config(raw, phi, k, GridDomain(float(raw["R"]), n), mode, tuple(stages),
                  raw["output_dir"], restrict, float(delta))


def _solve_report_json(rep) -> dict:
    """Pinned report schema shared by all solve branches.

    The complete branch is the M-ladder, whose report also says whether the
    ladder stabilized and, in "totals", sums its rungs' counts (the top-level
    counts are those of the last rung); the incomplete branch is one Newton
    solve on the subsolution profile.
    """
    ladder = isinstance(rep, solver.ContinuationReport)
    newton = rep.newton if ladder else rep
    out = {
        "iterations": newton.iterations,
        "cg_iterations": newton.cg_iterations,
        "backtracks": newton.backtracks,
        "residual_evaluations": newton.residual_evaluations,
        "final_residual": newton.residual,
        "residual_history": list(newton.residual_history),
        "boundary_kind": "COMPLETE_APPROX" if ladder else "SUBSOLUTION_PROFILE",
        "continuation_trace": [dict(entry) for entry in rep.trace] if ladder else [],
    }
    if ladder:
        out["stabilized"] = rep.stabilized
        out["warning"] = rep.warning
        out["totals"] = {
            "iterations": sum(rung["newton_iterations"] for rung in rep.trace),
            "cg_iterations": sum(rung["cg_iterations"] for rung in rep.trace),
            "backtracks": sum(rung["backtracks"] for rung in rep.trace),
            "residual_evaluations": sum(rung["residual_evaluations"] for rung in rep.trace),
        }
    return out


def _json_default(obj):
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    raise TypeError("cannot serialize %r" % type(obj))


def _write_json(path: str, payload: dict) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, default=_json_default)
        fh.write("\n")


class _Run:
    """State threaded through the stages of one `run`; stage "a-b" is method a_b."""

    def __init__(self, cfg: Config):
        self.cfg = cfg
        self.problem = None  # built by `run`, where running out of memory is reported
        self.w_complete = None
        self.w_incomplete = None
        self.reports: dict = {}
        self.checks: list = []
        self.rays: dict = {}
        self.develop_info: dict = {}
        self.failures: list = []
        self.stage_seconds: list = []

    def path(self, name: str) -> str:
        return os.path.join(self.cfg.output_dir, name)

    # stages -----------------------------------------------------------
    def solve_complete(self) -> None:
        w, rep = solver.solve_complete(self.problem)
        self.w_complete = w
        self.reports["complete"] = _solve_report_json(rep)
        write_field_csv(self.path("w_complete.csv"), self.problem.domain, w)

    def solve_incomplete(self) -> None:
        profile = solver.make_boundary_subsolution(self.problem)
        w, rep = solver.solve_newton(self.problem, profile, profile)
        self.w_incomplete = w
        self.reports["incomplete"] = _solve_report_json(rep)
        write_field_csv(self.path("w_incomplete.csv"), self.problem.domain, w)

    def two_solutions(self) -> None:
        pair = solver.two_solutions(self.problem)
        self.w_complete = pair.w_top
        self.w_incomplete = pair.w_low
        self.reports["complete"] = _solve_report_json(pair.report_top)
        self.reports["incomplete"] = _solve_report_json(pair.report_low)
        write_field_csv(self.path("w_complete.csv"), self.problem.domain, pair.w_top)
        write_field_csv(self.path("w_incomplete.csv"), self.problem.domain, pair.w_low)

    def _record(self, report) -> None:
        self.checks.append(report.to_dict())
        if not report.passed:
            self.failures.append(report.name)

    def verify(self) -> None:
        prob = self.problem
        dom = prob.domain
        fields = [("complete", self.w_complete), ("incomplete", self.w_incomplete)]
        fields = [(tag, w) for tag, w in fields if w is not None]
        profiles = {}
        for tag, w in fields:
            sub = verify.subunity_check(w, prob)
            sub.name = "subunity_%s" % tag
            self._record(sub)
            try:
                verify.curvature_field(w, prob)
            except ValueError as exc:
                self.failures.append("curvature_%s" % tag)
                self.checks.append(
                    {"name": "curvature_%s" % tag, "passed": False, "detail": str(exc)}
                )
            else:
                self.checks.append({"name": "curvature_%s" % tag, "passed": True})
            residual, passed = verify.diagnostics(w, prob)
            self.checks.append(
                {"name": "identity_%s" % tag, "passed": passed, "residual": residual}
            )
            if not passed:
                self.failures.append("identity_%s" % tag)
            profiles[tag] = verify.completeness_probe(dom, w, thetas=RAY_ANGLES)
            self.rays[tag] = [
                {
                    "theta": p.theta,
                    "length": p.total,
                    "verdict": p.verdict,
                    "limit_estimate": p.limit_estimate,
                }
                for p in profiles[tag]
            ]
        if self.w_complete is not None:
            self._record(verify.no_gap_check(self.w_complete, prob, self.cfg.no_gap_delta))
        if self.w_complete is not None and self.w_incomplete is not None:
            self._record(verify.ordering_check(self.w_complete, self.w_incomplete, dom))
        # rays.csv holds the rays of the primary (complete if solved) field
        verify.write_rays_csv(self.path("rays.csv"), profiles[fields[0][0]])

    def develop(self) -> None:
        mode = develop.SurfaceMode(self.cfg.mode)
        w = self.w_complete if self.w_complete is not None else self.w_incomplete
        sol = develop.normalize(w, self.problem, mode)
        for _ in range(self.cfg.develop_restrict):
            sol = sol.restrict_half()
        if mode is develop.SurfaceMode.WANG_K3:
            surface = develop.develop_affine_sphere(sol)
            normals = None
        else:
            surface, normals = develop.develop_cmc(sol)
        rec = develop.reconstruct_metric(surface)
        target = sol.w if mode is develop.SurfaceMode.WANG_K3 else 2.0 * sol.w
        self.develop_info = {
            "mode": mode.value,
            "grid_R": sol.domain.R,
            "grid_n": sol.domain.n,
            "holonomy_defect": surface.holonomy_defect,
            "metric_roundtrip_error": float(np.max(np.abs(rec - target))),
            "imag_max": surface.imag_max,
            "conj_defect": surface.conj_defect,
        }
        measures = [self.develop_info[key] for key in ("holonomy_defect", "metric_roundtrip_error")]
        if not np.all(np.isfinite(measures)):  # frames whose products overflowed
            raise ArithmeticError("develop measures are not finite: holonomy defect %r, "
                                  "metric round-trip error %r" % tuple(measures))
        self._surface = surface
        self._normals = normals
        self._dev_domain = sol.domain

    def export(self) -> None:
        develop.export_mesh(self._surface, self.path("surface.obj"))
        if self._normals is not None:
            develop.write_gauss_csv(self.path("gauss.csv"), self._dev_domain, self._normals)

    def report(self, status: int, error: str | None, elapsed: float) -> None:
        _write_json(
            self.path("invariants.json"),
            {"checks": self.checks, "rays": self.rays, "failures": sorted(self.failures)},
        )
        _write_json(
            self.path("report.json"),
            {
                "config": self.cfg.raw,
                "versions": {
                    "vortexlab": __version__,
                    "numpy": np.__version__,
                    "python": "%d.%d.%d" % sys.version_info[:3],
                },
                "reports": self.reports,
                "invariants": {"checks": self.checks, "failures": sorted(self.failures)},
                "develop": self.develop_info,
                "exit_status": status,
                "error": error,
                "timing": {"wall_seconds": elapsed, "stages": self.stage_seconds,
                           "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024},
            },
        )


def run(cfg: Config) -> int:
    t0 = time.perf_counter()
    try:
        os.makedirs(cfg.output_dir, exist_ok=True)
    except OSError as exc:
        print("vortexlab: %s" % exc, file=sys.stderr)
        return EXIT_CONFIG
    state = _Run(cfg)
    status = EXIT_OK
    error = None
    try:
        if cfg.mode == "EQ1":
            state.problem = VortexProblem(cfg.phi, cfg.k, cfg.domain)
        else:
            state.problem = develop.geometric_problem(cfg.phi, cfg.mode, cfg.domain)
        for stage in cfg.stages:
            t_stage = time.perf_counter()
            try:
                getattr(state, stage.replace("-", "_"))()
            finally:
                state.stage_seconds.append(
                    {"stage": stage, "seconds": time.perf_counter() - t_stage})
        if state.failures:
            status = EXIT_INVARIANT
            error = "invariant checks failed: %s" % ", ".join(sorted(state.failures))
    except solver.ConvergenceError as exc:
        status, error = EXIT_SOLVER, str(exc)
    except MemoryError as exc:
        # a grid too large for this machine: the solve, not the config, failed
        status, error = EXIT_SOLVER, str(exc) or type(exc).__name__
    except (ValueError, ArithmeticError) as exc:
        # precondition violations (zeros on the ring, roots of P that will not
        # resolve, normalization residual) are config-class errors
        status, error = EXIT_CONFIG, str(exc)
    state.report(status, error, time.perf_counter() - t0)
    if error:
        print("vortexlab: %s" % error, file=sys.stderr)
    return status


def compare(cfg_a: Config, cfg_b: Config) -> int:
    if (cfg_a.phi, cfg_a.k, cfg_a.mode) != (cfg_b.phi, cfg_b.k, cfg_b.mode):
        raise ConfigError("compare needs identical phi, k and mode")
    runs = []
    for cfg in (cfg_a, cfg_b):
        status = run(cfg)
        if status != EXIT_OK:
            return status
        solved = {"solve-complete", "two-solutions"} & set(cfg.stages)
        branch = "complete" if solved else "incomplete"
        dom, w = read_field_csv(os.path.join(cfg.output_dir, "w_%s.csv" % branch))
        runs.append((dom, w, branch))
    (dom_a, wa, br_a), (dom_b, wb, br_b) = runs
    if abs(dom_a.h - dom_b.h) > 1e-12 * max(dom_a.h, dom_b.h):
        raise ConfigError("compare needs matching grid spacing (got h=%g vs %g)" % (dom_a.h, dom_b.h))
    small, big = (dom_a, dom_b) if dom_a.R <= dom_b.R else (dom_b, dom_a)
    half = small.R / 2.0
    diffs = []
    for dom, w in ((dom_a, wa), (dom_b, wb)):
        k0 = np.searchsorted(dom.axis, -half - 1e-9)
        k1 = np.searchsorted(dom.axis, half + 1e-9)
        sub = w[k0:k1, k0:k1]
        diffs.append(sub)
    if diffs[0].shape != diffs[1].shape:
        raise ConfigError("inner squares do not align node-for-node")
    delta = float(np.max(np.abs(diffs[0] - diffs[1])))
    payload = {
        "max_difference": delta,
        "region_half_width": half,
        "nodes": int(diffs[0].size),
        "branches": [br_a, br_b],
    }
    json.dump(payload, sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")
    return EXIT_OK


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="vortexlab", description="planar vortex equation laboratory"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="execute a pipeline from a JSON config")
    p_run.add_argument("config")
    p_cmp = sub.add_parser("compare", help="max inner-square difference of two runs")
    p_cmp.add_argument("config_a")
    p_cmp.add_argument("config_b")
    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            return run(load_config(args.config))
        return compare(load_config(args.config_a), load_config(args.config_b))
    except ConfigError as exc:
        print("vortexlab: %s" % exc, file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    raise SystemExit(main())
