"""End-to-end acceptance checks, one test per shipped guarantee.

Each test records a PASS/FAIL line for the terminal summary before asserting,
so a red criterion still shows up in the final table with its measured value.
Numbers in comments are the values observed when the suite was frozen.
"""

import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import vortexlab
from vortexlab.entire import EntireFunction
from vortexlab.grid import GridDomain, VortexProblem
from vortexlab import invariants as inv
from vortexlab import solve
from vortexlab import surfaces

from conftest import EXP_Z, blaschke_curvature, gauss_jacobian, shared_nodes

WANG = surfaces.SurfaceMode.WANG_K3
HARMONIC = surfaces.SurfaceMode.HARMONIC_K2
SRC_DIR = str(Path(vortexlab.__file__).resolve().parents[1])


def test_criterion_01_closed_form_solutions(criterion_log):
    dom = GridDomain(6.0, 201)
    worst_const = 0.0
    for k in (2, 3, 4):
        prob = VortexProblem(EntireFunction(p=(2.0,)), k, dom)
        w = np.full((dom.n, dom.n), (2.0 / k) * math.log(2.0))
        worst_const = max(worst_const, prob.residual_norm(w))
    prob_e = VortexProblem(EXP_Z, 3, dom)
    w_slope = (2.0 / 3.0) * dom.zz().real
    res_e = prob_e.residual_norm(w_slope)
    ok = worst_const <= 1e-12 and res_e <= 1e-11
    criterion_log(1, "closed-form solutions reproduced", ok,
                  "const %.2e, exp slope %.2e" % (worst_const, res_e))
    assert worst_const <= 1e-12
    assert res_e <= 1e-11


def test_criterion_02_monotone_matches_newton(criterion_log):
    t0 = time.perf_counter()
    cases = [
        EntireFunction(p=(0.0, 1.0)),
        EntireFunction(p=(0.0, 0.0, 1.0)),
        EntireFunction(p=(1.0, 0.0, 0.0, 1.0)),
    ]
    worst = 0.0
    for fn in cases:
        for k in (2, 3):
            prob = VortexProblem(fn, k, GridDomain(8.0, 161))
            bd = solve.make_boundary_subsolution(prob)
            wn, _ = solve.solve_newton(prob, bd)
            lo = np.maximum(prob.profile(), -6.0)
            wm, repm = solve.monotone_solve(prob, lo, solve._set_ring(lo + 3.0, bd))
            assert repm.residual <= 1e-8
            worst = max(worst, float(np.max(np.abs(wn - wm))))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-7 and elapsed < 60.0
    criterion_log(2, "monotone and newton branches agree", ok,
                  "max diff %.2e in %.1fs" % (worst, elapsed))
    assert worst <= 1e-7
    assert elapsed < 60.0


def test_criterion_03_strict_bound_margin(criterion_log):
    t0 = time.perf_counter()
    margins = {}
    for fn, k in [(EntireFunction(p=(0.0, 1.0)), 2),
                  (EntireFunction(p=(0.0, 0.0, 1.0)), 3)]:
        prob = VortexProblem(fn, k, GridDomain(4.5, 121))
        w, _ = solve.solve_complete(prob)
        margins[fn.degree] = inv.subunity_check(w, prob).margin
    prob_c = VortexProblem(EntireFunction(p=(100.0,)), 3, GridDomain(8.0, 161))
    w_c, _ = solve.solve_complete(prob_c)
    h = inv.h_field(w_c, prob_c)
    inner = prob_c.domain.inner
    flat_err = float(np.max(np.abs(h - 1.0)[inner, inner]))
    elapsed = time.perf_counter() - t0
    ok = all(m > 1e-3 for m in margins.values()) and flat_err <= 1e-9 and elapsed < 30.0
    criterion_log(3, "strict bound margin and flat metric", ok,
                  "margins %.1e/%.1e, |h-1| %.1e" %
                  (margins[1], margins[2], flat_err))
    assert margins[1] > 1e-3
    assert margins[2] > 1e-3
    assert flat_err <= 1e-9
    assert elapsed < 30.0


def test_criterion_04_domain_insensitivity(nested_z_solves, criterion_log):
    st = nested_z_solves
    i8, i12 = shared_nodes(st.p8.domain, st.p12.domain, 4.0)
    d_domain = float(np.max(np.abs(
        st.w8[np.ix_(i8, i8)] - st.w12[np.ix_(i12, i12)])))
    sel = np.abs(st.p12.domain.axis) <= 4.0 + 1e-9
    d_branch = float(np.max(np.abs(
        (st.w12 - st.w12_prof)[np.ix_(sel, sel)])))
    ok = d_domain <= 1e-3 and d_branch <= 1e-2
    criterion_log(4, "domain and boundary insensitivity", ok,
                  "window %.2e, branches %.2e" % (d_domain, d_branch))
    assert d_domain <= 1e-3
    assert d_branch <= 1e-2


def test_criterion_05_dichotomy_for_exp(ez_pair, criterion_log):
    prob = ez_pair.prob
    w_top, w_low = ez_pair.branches["complete"][0], ez_pair.branches["incomplete"][0]
    dom = prob.domain
    x = dom.zz().real
    slope_err = float(np.max(np.abs(w_low - (2.0 / 3.0) * x)))
    gap = w_top - w_low
    inner = (dom.inner, dom.inner)  # never reaches the ring
    gap_strict = float(np.min(gap[inner]))
    gap_left = float(np.min(gap[inner][x[inner] <= 1e-12 * dom.R]))
    # the gap u = w_top - w_low solves, to first order about w_low = 2x/k,
    # Delta u = F'(w_low) u = k e^{2x/k} u.  WKB in x gives
    # u ~ e^{-x/(2k)} exp(-k^{3/2} e^{x/k}), so from x = 0 to x = X = R/2 it
    # falls by X/(2k) + k^{3/2} (e^{X/k} - 1) e-folds: 9.43 for k = 3, R = 6
    # (measured 9.31, gap 3.4e-2 at the origin and 3.1e-6 at (R/2, 0)).  The
    # right half of the inner square is screened below any fixed floor, so
    # the 0.01 floor applies on x <= 0, where |phi| <= 1; strict ordering is
    # asked everywhere and the fall on the right is checked against WKB.
    # test_ordering_margin_of_dichotomy_is_large (strict xfail) records that
    # the floor over the whole square is false.
    ax = dom.axis
    i0 = int(np.argmin(np.abs(ax)))
    ix = int(np.argmin(np.abs(ax - 0.5 * dom.R)))
    g0, gx = float(gap[i0, i0]), float(gap[ix, i0])
    fall = math.log(g0 / gx) if min(g0, gx) > 0.0 else float("nan")
    k, half = prob.k, ax[ix]
    fall_wkb = half / (2.0 * k) + k ** 1.5 * math.expm1(half / k)
    ray_low = inv.completeness_probe(dom, w_low)[2]
    ray_top = inv.completeness_probe(dom, w_top)[2]
    limit = ray_low.limit_estimate
    a_ok = slope_err <= 1e-8
    b1_ok = gap_strict > 0.0
    b2_ok = gap_left >= 0.01
    b3_ok = abs(fall / fall_wkb - 1.0) <= 0.10
    c_ok = (limit is not None and abs(limit - 3.0) <= 0.02
            and ray_top.verdict == "DIVERGENT" and ray_top.total > 6.0)
    ok = a_ok and b1_ok and b2_ok and b3_ok and c_ok
    criterion_log(5, "uniqueness dichotomy for exp(z)", ok,
                  "slope %.1e, gap min %.2e, x<=0 min %.2e, fall %.2f vs "
                  "WKB %.2f, left limit %.5f" %
                  (slope_err, gap_strict, gap_left, fall, fall_wkb,
                   limit if limit is not None else float("nan")))
    assert a_ok
    assert c_ok
    assert b1_ok, "inner gap min %.3e" % gap_strict
    assert b2_ok, "gap min on x <= 0: %.3e" % gap_left
    assert b3_ok, "gap fall %.3f e-folds, WKB %.3f" % (fall, fall_wkb)


def test_criterion_06_blaschke_curvature_signs(criterion_log):
    t0 = time.perf_counter()
    polys = [
        (EntireFunction(p=(0.0, 1.0)), 6.0),
        (EntireFunction(p=(0.0, 0.0, 1.0)), 6.0),
        (EntireFunction(p=(0.0, 0.0, 0.0, 1.0)), 4.0),
    ]
    kh_max = -np.inf
    for fn, R in polys:
        dom = GridDomain(R, 161)
        prob = surfaces.geometric_problem(fn, WANG, dom)
        w, _ = solve.solve_complete(prob)
        sol = surfaces.normalize(w, prob, WANG)
        kh = blaschke_curvature(sol)
        kh_max = max(kh_max, float(np.max(kh[dom.inner, dom.inner])))
    dom_e = GridDomain(6.0, 161)
    prob_e = surfaces.geometric_problem(EXP_Z, WANG, dom_e)
    sol_e = surfaces.normalize(prob_e.profile(), prob_e, WANG)
    kh_e = blaschke_curvature(sol_e)
    flat = float(np.max(np.abs(kh_e[dom_e.inner, dom_e.inner])))
    elapsed = time.perf_counter() - t0
    ok = kh_max < 0.0 and flat <= 1e-9 and elapsed < 60.0
    criterion_log(6, "blaschke curvature signs", ok,
                  "poly max %.2e, exp flat %.1e" % (kh_max, flat))
    assert kh_max < 0.0
    assert flat <= 1e-9
    assert elapsed < 60.0


def test_criterion_07_holonomy_defect_scaling(wang_z_family, criterion_log):
    fam = wang_z_family
    defects = {n: fam[n].defect for n in (81, 161, 321)}
    orders = [math.log2(defects[81] / defects[161]),
              math.log2(defects[161] / defects[321])]
    st = fam[161]
    dom = st.sol.domain
    bump = 0.1 * np.exp(-np.abs(dom.zz()) ** 2 / (2 * 0.05 ** 2))
    bad = surfaces.NormalizedSolution(st.sol.mode, st.sol.differential,
                                      dom, st.sol.w + bump)
    d_bad = surfaces.holonomy_defect(st.surface, bad)
    # the frame connection is flat only where w solves the continuous Wang
    # equation; the solved w satisfies the 5-point equation, so the curvature
    # of the connection is the continuous residual, O(h^2).  One plaquette of
    # area h^2 then carries a defect h^2 * O(h^2) = O(h^4), and RK4 adds only
    # O(h^5).  Measured: defect / (h^2 * |Delta_4 w - F(w)|) = 0.382, 0.377,
    # 0.375 at n = 81, 161, 321 (Delta_4 a 4th-order Laplacian).
    # test_restricted_cubic_defect_halving_ratio (strict xfail) records that
    # the second-order band is false.  Criterion 9, a path-accumulated
    # quantity, does converge at order 2.
    lo, hi = 3.8, 4.2
    small_ok = defects[161] <= 1e-4
    order_ok = all(lo <= o <= hi for o in orders)
    detect_ok = d_bad > 1e-2
    ok = small_ok and order_ok and detect_ok
    criterion_log(7, "holonomy defect scaling", ok,
                  "defect %.2e, orders %.2f/%.2f in [%.1f, %.1f], corrupted %.2e" %
                  (defects[161], orders[0], orders[1], lo, hi, d_bad))
    assert small_ok
    assert detect_ok
    assert order_ok, "orders %.2f / %.2f, band [%.1f, %.1f]" % (
        orders[0], orders[1], lo, hi)


def test_criterion_08_gauss_map_checks(qz_state, criterion_log):
    st = qz_state
    drift = float(np.max(np.abs(surfaces.mdot(st.normals, st.normals) + 1.0)))
    dom = st.sol.domain
    j_min = float(np.min(st.jac[dom.inner, dom.inner]))
    diff = EntireFunction(p=(1.0,), q=(0.0, 2.0))
    dom_d = GridDomain(1.0, 81)
    prob_d = surfaces.geometric_problem(diff, HARMONIC, dom_d)
    sol_d = surfaces.normalize(prob_d.profile(), prob_d, HARMONIC)
    j_degen = float(np.max(np.abs(gauss_jacobian(sol_d))))
    ok = drift <= 1e-6 and j_min > 0.0 and j_degen <= 1e-8
    criterion_log(8, "gauss map and immersion checks", ok,
                  "<N,N>+1 %.1e, J min %.2e, degenerate %.1e" %
                  (drift, j_min, j_degen))
    assert drift <= 1e-6
    assert j_min > 0.0
    assert j_degen <= 1e-8


def test_criterion_09_metric_round_trip(wang_z_family, criterion_log):
    t0 = time.perf_counter()
    dom = GridDomain(1.0, 161)
    prob_c = surfaces.geometric_problem(EntireFunction(p=(1.5 + 0.5j,)), WANG, dom)
    sol_c = surfaces.normalize(prob_c.profile(), prob_c, WANG)
    rec_c = surfaces.develop_affine_sphere(sol_c).metric
    err_c = float(np.max(np.abs(rec_c - sol_c.w)[1:-1, 1:-1]))

    prob_h = surfaces.geometric_problem(
        EntireFunction(p=(1.0,), q=(0.0, 2.0)), HARMONIC, dom)
    sol_h = surfaces.normalize(prob_h.profile(), prob_h, HARMONIC)
    rec_h = surfaces.develop_cmc(sol_h).metric
    err_h = float(np.max(np.abs(rec_h - 2.0 * sol_h.w)[1:-1, 1:-1]))

    recs = {n: wang_z_family[n].rec_err for n in (81, 161, 321)}
    orders = [math.log2(recs[81] / recs[161]), math.log2(recs[161] / recs[321])]
    elapsed = time.perf_counter() - t0
    exact_ok = err_c <= 1e-5 and err_h <= 1e-5
    order_ok = all(1.8 <= o <= 2.2 for o in orders)
    ok = exact_ok and order_ok and elapsed < 120.0
    criterion_log(9, "metric round-trip accuracy", ok,
                  "exact %.1e/%.1e, orders %.2f/%.2f" %
                  (err_c, err_h, orders[0], orders[1]))
    assert err_c <= 1e-5
    assert err_h <= 1e-5
    assert order_ok, "orders %.2f / %.2f" % (orders[0], orders[1])
    assert elapsed < 120.0


def test_criterion_10_deterministic_artifacts(tmp_path, criterion_log):
    t0 = time.perf_counter()
    outputs = {}
    for threads in ("1", "4"):
        rundir = tmp_path / ("threads_%s" % threads)
        rundir.mkdir()
        cfg = {
            "phi": {"p": [[1.0, 0.0]], "q": [[0.0, 0.0], [1.0, 0.0]]},
            "k": 3, "R": 4.0, "n": 81, "mode": "EQ1",
            "pipeline": ["two-solutions", "verify"],
            "output_dir": "out",
        }
        (rundir / "cfg.json").write_text(json.dumps(cfg))
        # the child runs in rundir, where a relative PYTHONPATH finds nothing;
        # the BLAS thread variables only act if set before numpy loads
        paths = [SRC_DIR, os.environ.get("PYTHONPATH", "")]
        env = dict(os.environ, OMP_NUM_THREADS=threads, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(p for p in paths if p))
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys; from vortexlab.cli import main; sys.exit(main(sys.argv[1:]))",
             "run", "cfg.json"],
            cwd=rundir, env=env, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        outputs[threads] = rundir / "out"
    names = ["w_complete.csv", "w_incomplete.csv", "rays.csv", "invariants.json"]
    same = all((outputs["1"] / nm).read_bytes() == (outputs["4"] / nm).read_bytes()
               for nm in names)
    reports = []
    for threads in ("1", "4"):
        rep = json.loads((outputs[threads] / "report.json").read_text())
        rep.pop("timing")
        reports.append(rep)
    same_report = reports[0] == reports[1]
    elapsed = time.perf_counter() - t0
    ok = same and same_report and elapsed < 60.0
    criterion_log(10, "deterministic artifacts", ok,
                  "%d files byte-identical in %.1fs" % (len(names), elapsed))
    assert same
    assert same_report
    assert elapsed < 60.0
