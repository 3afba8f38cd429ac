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
created writes report.json and invariants.json; only a config refused at load,
an output directory that cannot be created or a report that cannot be written
exits 2 without them.

A config is a single JSON document:

    {
      "phi": {"p": [[0.0, 0.0], [1.0, 0.0]], "q": [[0.0, 0.0]]},
      "k": 3,
      "R": 6.0,
      "n": 161,
      "mode": "EQ1",
      "pipeline": ["solve-complete", "verify"],
      "output_dir": "out",
      "tolerances": {"develop_restrict": 1}
    }

Stage "two-solutions" is "solve-complete" then "solve-incomplete": SOLVES
lists the branches of each solve stage.  Refused: unknown keys, also in "phi"
and "tolerances", integers past a double's range, a stage named twice or a
branch solved twice, and a pipeline solving the incomplete branch (ring data
(2/k) log|phi|) if phi has a zero within 4h of the ring or unresolved roots.
Coefficients are [re, im] pairs, ascending degree.  In the geometric modes
(WANG_K3, HARMONIC_K2) "phi" holds the differential (U resp. q) and the
solver runs on the matching base-equation problem.  Determinism: identical
configs produce byte-identical artifacts; report.json carries wall-clock
data only inside the isolated "timing" block: wall seconds, the seconds of
each stage run (in pipeline order, a failed one included), "workers", the
most processes the row loops of develop and of the artifact writers split
into (the CPUs the run may use; a pair of ladder rungs uses at most two),
"blas_threads", the thread count of numpy's OpenBLAS (null when it cannot
be read), and peak RSS in MB, the larger of this process's own (since it
started) and its workers'.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import numbers
import os
import resource
import sys
import time
from dataclasses import dataclass

import numpy as np

from . import __version__
from .entire import EntireFunction
from .grid import GridDomain, VortexProblem, interior_max_norm, workers, write_field_csv
from . import solve as solver
from . import invariants as verify
from . import surfaces as develop

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SOLVER = 3
EXIT_INVARIANT = 4

# the branches each solve stage solves, in order
SOLVES = {"solve-complete": ("complete",), "solve-incomplete": ("incomplete",),
          "two-solutions": ("complete", "incomplete")}
STAGES = tuple(SOLVES) + ("verify", "develop", "export")
# what a stage needs earlier in the pipeline, and the refusal when it is missing
NEEDS = {
    "verify": (SOLVES, "stage 'verify' needs a solve stage earlier in the pipeline"),
    "develop": (SOLVES, "stage 'develop' needs a solve stage earlier in the pipeline"),
    "export": (("develop",), "stage export needs develop earlier in the pipeline"),
}
MODES = ("EQ1", "WANG_K3", "HARMONIC_K2")
REQUIRED = ("phi", "k", "R", "n", "mode", "pipeline", "output_dir")
KEYS = REQUIRED + ("tolerances",)
# the counts of a NewtonReport, as report.json names them
COUNTS = ("iterations", "cg_iterations", "backtracks", "residual_evaluations")


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
    develop_domain: GridDomain  # the grid develop runs on: tolerances.develop_restrict halvings


def _coeffs(raw, what: str) -> tuple:
    if not isinstance(raw, list) or not raw:
        raise ConfigError("%s must be a non-empty list of [re, im] pairs" % what)
    for item in raw:
        if not (isinstance(item, list) and len(item) == 2 and all(
                isinstance(x, numbers.Real) and not isinstance(x, bool) for x in item)):
            raise ConfigError("%s entries must be [re, im] pairs of numbers" % what)
    return tuple(complex(float(re), float(im)) for re, im in raw)


def _refuse_unknown(obj: dict, known: tuple, where: str) -> None:
    unknown = sorted(set(obj) - set(known))
    if unknown:
        raise ConfigError("unknown key %s in %s (choose from %s)"
                          % (", ".join(map(repr, unknown)), where, known))


def _parse_int(text: str) -> int:
    # json reads 1e400 as inf, which later checks refuse, but 10**400 as an
    # int that overflows wherever it meets a float
    if np.isinf(float(text)):
        raise ConfigError("integer %s... is past the range of a double" % text[:12])
    return int(text)


def load_config(path: str) -> Config:
    try:
        with open(path) as fh:
            raw = json.load(fh, parse_int=_parse_int)
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
    _refuse_unknown(raw["phi"], ("p", "q"), "phi")
    try:
        phi = EntireFunction(_coeffs(raw["phi"]["p"], "phi.p"),
                             _coeffs(raw["phi"].get("q", [[0.0, 0.0]]), "phi.q"))
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc))
    k = raw["k"]
    if not isinstance(k, int) or k < 2:
        raise ConfigError("k must be an integer >= 2")
    try:
        domain = GridDomain(raw["R"], raw["n"])
    except ValueError as exc:
        raise ConfigError(str(exc))
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
    solved = []  # the branches the stages so far solve
    for i, st in enumerate(stages):
        if st not in STAGES:
            raise ConfigError("unknown stage %r (choose from %s)" % (st, STAGES))
        if st in stages[:i]:
            raise ConfigError("stage %r appears twice in the pipeline" % st)
        for branch in SOLVES.get(st, ()):
            if branch in solved:
                raise ConfigError("branch %r is solved twice in the pipeline" % branch)
            solved.append(branch)
        needed, refusal = NEEDS.get(st, (None, None))
        if needed and not set(needed) & set(stages[:i]):
            raise ConfigError(refusal)
    if "develop" in stages and mode == "EQ1":
        raise ConfigError("stage develop needs a geometric mode")
    tol = raw.get("tolerances", {})
    if not isinstance(tol, dict):
        raise ConfigError("tolerances must be an object")
    _refuse_unknown(tol, ("develop_restrict",), "tolerances")
    restrict = tol.get("develop_restrict", 0)
    if not isinstance(restrict, int) or isinstance(restrict, bool) or restrict < 0:
        raise ConfigError("tolerances.develop_restrict must be an integer >= 0")
    develop_domain = domain
    try:
        for _ in range(restrict):
            develop_domain = develop_domain.half()
    except ValueError as exc:
        raise ConfigError("develop_restrict %d: %s" % (restrict, exc))
    if "incomplete" in solved:
        # the incomplete branch hugs (2/k) log|phi|, which is -inf at a zero
        try:
            zs = phi.zeros()
        except ValueError as exc:
            raise ConfigError("the roots of phi do not resolve: %s" % exc)
        # a zero within 4h of the ring on either side makes the profile too steep there
        dist = np.abs(domain.R - np.maximum(np.abs(zs.real), np.abs(zs.imag)))
        if np.any(dist < 4.0 * domain.h):
            raise ConfigError("phi has a zero within 4h of the boundary ring")
    return Config(raw, phi, k, domain, mode, tuple(stages), raw["output_dir"], develop_domain)


def _solve_report_json(rep) -> dict:
    """Pinned report schema shared by all solve branches, and the one place
    that names its keys.

    The incomplete branch is one Newton solve on the subsolution profile.
    The complete branch is the M-ladder, whose top-level counts are those
    of the returned rung; its "continuation_trace" lists every rung tried
    and "totals" sums their counts.  A failed solve's report has the same
    schema, with the failing solve's history and counts at the top level.
    """
    ladder = isinstance(rep, solver.ContinuationReport)
    newton = rep.newton if ladder else rep
    out = {name: getattr(newton, name) for name in COUNTS}
    out.update(final_residual=newton.residual, residual_history=list(newton.residual_history),
               boundary_kind="COMPLETE_APPROX" if ladder else "SUBSOLUTION_PROFILE",
               continuation_trace=[])
    if ladder:
        # a rung's Newton steps are named apart from the ladder's "iterations"
        out["continuation_trace"] = [
            {"newton_iterations" if name == "iterations" else name: getattr(rung, name)
             for name in COUNTS} | {"M": M, "residual": rung.residual, "inner_change": change}
            for M, rung, change in rep.trace]
        out["totals"] = {name: sum(getattr(rung, name) for _, rung, _ in rep.trace)
                         for name in COUNTS}
        out.update(stabilized=rep.stabilized, warning=rep.warning)
    return out


def _write_json(path: str, payload: dict) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _peak_rss_mb() -> float:
    """Peak RSS in MB: the larger of this process's own since exec (VmHWM, as
    ru_maxrss keeps a launcher's peak) and its reaped workers'."""
    with open("/proc/self/status") as fh:
        own = next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))
    return max(own, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss) / 1024


def _blas_threads() -> int | None:
    """The thread count in effect of the OpenBLAS that numpy loaded, or None
    when no loaded OpenBLAS library answers."""
    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            getter = getattr(handle, name, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                return int(getter())
    return None


class _Run:
    """State threaded through the stages of one `run`: a solve stage calls
    `solve` for each of its branches, any other stage is the method of its name.
    `fields` maps each solved branch to its field; later stages read it in
    sorted order, so "complete" comes first whichever branch was solved first."""

    def __init__(self, cfg: Config):
        self.cfg = cfg
        self.problem = None  # built by `run`, where running out of memory is reported
        self.fields: dict = {}
        self.reports: dict = {}
        self.checks: list = []
        self.rays: dict = {}
        self.develop_info: dict = {}
        self.stage_seconds: list = []

    def path(self, name: str) -> str:
        return os.path.join(self.cfg.output_dir, name)

    @property
    def failures(self) -> list:
        return sorted(check["name"] for check in self.checks if not check["passed"])

    # stages -----------------------------------------------------------
    def solve(self, branch: str) -> None:
        """Solve a branch and record its field in `fields`, its report and
        w_<branch>.csv; a failed solve's report is recorded under it too."""
        try:
            w, rep = solver.solve_branch(self.problem, branch)
        except solver.ConvergenceError as exc:
            if exc.report is not None:
                self.reports[branch] = _solve_report_json(exc.report)
            raise
        self.fields[branch] = w
        self.reports[branch] = _solve_report_json(rep)
        write_field_csv(self.path("w_%s.csv" % branch), self.problem.domain, w)

    def verify(self) -> None:
        prob = self.problem
        dom = prob.domain
        fields = sorted(self.fields.items())
        profiles = {}
        for tag, w in fields:
            self.checks.append(dict(verify.subunity_check(w, prob).to_dict(), name="subunity_" + tag))
            r = prob.residual(w)
            try:
                verify.check_converged(interior_max_norm(r))
            except ValueError as exc:
                self.checks.append({"name": "curvature_" + tag, "passed": False, "detail": str(exc)})
            else:
                self.checks.append({"name": "curvature_" + tag, "passed": True})
            residual, passed = verify.diagnostics(w, prob, r)
            self.checks.append({"name": "identity_" + tag, "passed": passed, "residual": residual})
            profiles[tag] = verify.completeness_probe(dom, w)
            self.rays[tag] = [
                {
                    "theta": p.theta,
                    "length": p.total if np.isfinite(p.total) else None,
                    "verdict": p.verdict,
                    "limit_estimate": p.limit_estimate,
                }
                for p in profiles[tag]
            ]
        if "complete" in self.fields:
            self.checks.append(
                verify.no_gap_check(self.fields["complete"], prob, verify.NO_GAP_DELTA).to_dict())
        if len(fields) == 2:
            tol = verify.TOL_ORDERING if len(prob.phi.q) == 1 else 0.0  # polynomial phi
            self.checks.append(verify.ordering_check(fields[0][1], fields[1][1], dom, tol).to_dict())
        # rays.csv holds the rays of the primary (complete if solved) field
        verify.write_rays_csv(self.path("rays.csv"), profiles[fields[0][0]])

    def develop(self) -> None:
        mode = develop.SurfaceMode(self.cfg.mode)
        w = self.fields[min(self.fields)]  # the complete branch, if solved
        problem, dom = self.problem, self.cfg.develop_domain
        if dom != problem.domain:
            s = problem.domain.window(dom.R)  # a contiguous copy, as develop reads rows
            w, problem = np.array(w[s, s]), VortexProblem(problem.phi, problem.k, dom)
        # frames whose products overflow give measures that are not finite,
        # which the stage refuses below
        with np.errstate(over="ignore", invalid="ignore"):
            sol = develop.normalize(w, problem, mode)
            if mode is develop.SurfaceMode.WANG_K3:
                surface = develop.develop_affine_sphere(sol)
            else:
                surface = develop.develop_cmc(sol)
        measures = {"holonomy_defect": surface.holonomy_defect,
                    "metric_roundtrip_error": surface.metric_roundtrip_error}
        self.develop_info = {
            "mode": mode.value,
            "grid_R": dom.R,
            "grid_n": dom.n,
            "imag_max": surface.imag_max,
            "conj_defect": surface.conj_defect,
            # null, not NaN or Infinity, keeps report.json strict JSON
            **{key: value if np.isfinite(value) else None for key, value in measures.items()},
        }
        if not all(map(np.isfinite, measures.values())):
            raise ArithmeticError("develop measures are not finite: holonomy defect %r, "
                                  "metric round-trip error %r" % tuple(measures.values()))
        self._surface = surface

    def export(self) -> None:
        develop.export_mesh(self._surface, self.path("surface.obj"))
        if self._surface.normals is not None:
            develop.write_gauss_csv(self.path("gauss.csv"), self._surface.domain,
                                    self._surface.normals)

    def report(self, status: int, error: str | None, elapsed: float) -> None:
        _write_json(
            self.path("invariants.json"),
            {"checks": self.checks, "rays": self.rays, "failures": self.failures},
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
                "invariants": {"checks": self.checks, "failures": self.failures},
                "develop": self.develop_info,
                "exit_status": status,
                "error": error,
                "timing": {"wall_seconds": elapsed, "stages": self.stage_seconds,
                           "workers": workers(), "blas_threads": _blas_threads(),
                           "peak_rss_mb": _peak_rss_mb()},
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
                if stage in SOLVES:
                    for branch in SOLVES[stage]:
                        state.solve(branch)
                else:
                    getattr(state, stage)()
            finally:
                state.stage_seconds.append(
                    {"stage": stage, "seconds": time.perf_counter() - t_stage})
        if state.failures:
            status = EXIT_INVARIANT
            error = "invariant checks failed: %s" % ", ".join(state.failures)
    except (solver.ConvergenceError, MemoryError) as exc:
        # the solve, not the config, failed: also for a grid too large for this machine
        status, error = EXIT_SOLVER, str(exc) or type(exc).__name__
    except (ValueError, ArithmeticError, OSError) as exc:
        # preconditions load cannot check (normalization residual, Gauss map,
        # develop measures, roots that verify cannot resolve) and artifacts
        # that cannot be written are config-class errors
        status, error = EXIT_CONFIG, str(exc)
    try:
        state.report(status, error, time.perf_counter() - t0)
    except OSError as exc:  # the run's own error, if any, is still printed below
        print("vortexlab: cannot write %s: %s" % (exc.filename, exc.strerror), file=sys.stderr)
        status = EXIT_CONFIG
    if error:
        print("vortexlab: %s" % error, file=sys.stderr)
    return status


def compare(cfg_a: Config, cfg_b: Config) -> int:
    if (cfg_a.phi, cfg_a.k, cfg_a.mode) != (cfg_b.phi, cfg_b.k, cfg_b.mode):
        raise ConfigError("compare needs identical phi, k and mode")
    dom_a, dom_b = cfg_a.domain, cfg_b.domain
    if abs(dom_a.h - dom_b.h) > 1e-12 * max(dom_a.h, dom_b.h):
        raise ConfigError("compare needs matching grid spacing (got h=%g vs %g)"
                          % (dom_a.h, dom_b.h))
    half = min(dom_a.R, dom_b.R) / 2.0
    windows = [dom.window(half) for dom in (dom_a, dom_b)]
    if windows[0].stop - windows[0].start != windows[1].stop - windows[1].start:
        raise ConfigError("inner squares do not align node-for-node")
    inner, branches = [], []
    for cfg, window in zip((cfg_a, cfg_b), windows):
        status = run(cfg)
        if status != EXIT_OK:
            return status
        solved = any("complete" in SOLVES.get(st, ()) for st in cfg.stages)
        branches.append("complete" if solved else "incomplete")
        w = np.loadtxt(os.path.join(cfg.output_dir, "w_%s.csv" % branches[-1]), delimiter=",",
                       skiprows=1, usecols=2).reshape(cfg.domain.n, cfg.domain.n)
        inner.append(w[window, window])
    payload = {
        "max_difference": float(np.max(np.abs(inner[0] - inner[1]))),
        "region_half_width": half,
        "nodes": int(inner[0].size),
        "branches": branches,
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
