"""Newton and monotone solvers, continuation ladder, the two-branch picture."""

import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from vortexlab.entire import EntireFunction
from vortexlab.grid import GridDomain, VortexProblem, interior_max_norm
from vortexlab import solve, surfaces

from conftest import EXP_Z, shared_nodes

F_Z = EntireFunction(p=(0.0, 1.0))


def test_subsolution_boundary_is_profile_on_ring():
    prob = VortexProblem(EXP_Z, 3, GridDomain(6.0, 41))
    vals = solve.make_boundary_subsolution(prob)
    ring = prob.domain.ring_mask()
    assert np.allclose(vals[ring], prob.profile()[ring], atol=0)
    assert vals[-1, 20] == pytest.approx(4.0, abs=1e-12)  # (2/3) x at x = 6


def test_complete_boundary_caps_profile_and_lifts():
    prob = VortexProblem(EntireFunction(p=(0.0, 0.0, 1.0)), 3, GridDomain(8.0, 41))
    vals = solve.make_boundary_complete(prob, 4.0)
    expect = np.maximum(prob.profile(), 0.0) + 4.0
    assert np.array_equal(vals, expect)
    with pytest.raises(ValueError):
        solve.make_boundary_complete(prob, -1.0)


def test_newton_at_exact_constant_takes_no_steps():
    prob = VortexProblem(EntireFunction(p=(2.0,)), 2, GridDomain(4.0, 41))
    w0 = np.full((41, 41), np.log(2.0))
    w, rep = solve.solve_newton(prob, w0, solve.make_boundary_subsolution(prob))
    assert rep.iterations <= 1
    assert np.array_equal(w, w0)


def test_newton_recovers_profile_from_bumped_start():
    dom = GridDomain(4.0, 81)
    prob = VortexProblem(EXP_Z, 3, dom)
    prof = prob.profile()
    bump = 0.1 * np.exp(-np.abs(dom.zz()) ** 2)
    w, rep = solve.solve_newton(prob, prof + bump, solve.make_boundary_subsolution(prob))
    assert np.max(np.abs(w - prof)) <= 1e-8


def test_newton_report_history_is_decreasing_to_tolerance():
    dom = GridDomain(4.0, 81)
    prob = VortexProblem(EXP_Z, 3, dom)
    w0 = prob.profile() + 0.5
    _, rep = solve.solve_newton(prob, w0, solve.make_boundary_subsolution(prob))
    hist = rep.residual_history
    assert hist[-1] <= solve.TOL_NEWTON
    assert all(b < a for a, b in zip(hist, hist[1:]))


def _newton_system(n):
    """Jacobian diagonal and a right-hand side at the e^z profile (R = 6).

    The profile is the least diagonally dominant state a Newton path of the
    dichotomy meets, so the V-cycle's smoothing has the least help there.
    """
    prob = VortexProblem(EXP_Z, 3, GridDomain(6.0, n))
    D = prob.rhs_prime(solve.make_boundary_subsolution(prob))
    b = np.zeros((n, n))
    b[1:-1, 1:-1] = np.sin(np.arange((n - 2) ** 2)).reshape(n - 2, n - 2)
    return D, prob.domain.h, b


@pytest.mark.parametrize("n", [45, 81])
def test_pcg_solves_to_its_tolerance(n):
    # n = 45 pads 23 and 7 before halving them (45 -> 23 -> 13 -> 7 -> 5 -> 3)
    D, h, b = _newton_system(n)
    mg = solve._Multigrid(D, h)
    x, its = solve._pcg(mg, b, 1e-10)
    r = b - solve._apply(D + 4.0 / h**2, h, x, np.zeros_like(x))
    assert np.linalg.norm(r) <= 1e-10 * np.linalg.norm(b)
    assert np.all(x[0] == 0) and np.all(x[:, -1] == 0)


def test_pcg_solves_one_unknown_exactly():
    # the 3-node grid that ends every hierarchy is one level whose V-cycle is
    # the exact inverse, so PCG takes one iteration: (D + 4/h^2) x = b
    h = 0.5
    D, b = np.zeros((2, 3, 3))
    D[1, 1], b[1, 1] = 2.0, 3.0
    mg = solve._Multigrid(D, h)
    x, its = solve._pcg(mg, b, 1e-10)
    assert (len(mg.levels), its) == (1, 1)
    assert x[1, 1] == pytest.approx(3.0 / 18.0, rel=1e-15)
    assert np.count_nonzero(x) == 1


def test_pcg_iterations_do_not_grow_with_resolution():
    # multigrid makes the preconditioned condition number independent of h:
    # the same count of V-cycles at 79^2, 159^2 and 319^2 unknowns
    its = {}
    for n in (81, 161, 321):
        D, h, b = _newton_system(n)
        its[n] = solve._pcg(solve._Multigrid(D, h), b, 1e-10)[1]
    assert max(its.values()) <= 12
    assert max(its.values()) - min(its.values()) <= 1


def test_grids_of_either_halving_parity_coarsen_alike():
    # 403 halves to an even 202, which cannot be halved again; padding keeps
    # every level odd, so 403 ends on the same 3-node grid as 401 does, with a
    # coarse ring that follows the true edge and as few V-cycles
    its = {}
    for n in (401, 403):
        D, h, b = _newton_system(n)
        mg = solve._Multigrid(D, h)
        assert [len(lv.u) for lv in mg.levels][-3:] == [9, 5, 3]
        its[n] = solve._pcg(mg, b, 1e-10)[1]
    assert its[403] <= its[401] + 1 <= 11


@pytest.mark.parametrize("n", [161, 163])
def test_vcycle_is_symmetric(n):
    # CG needs a symmetric preconditioner: <M x, y> = <x, M y> to round-off;
    # n = 163 pads its finest level
    D, h, _ = _newton_system(n)
    mg = solve._Multigrid(D, h)
    rng = np.random.default_rng(0)
    x, y = np.zeros((2, n, n))
    x[1:-1, 1:-1], y[1:-1, 1:-1] = rng.standard_normal((2, n - 2, n - 2))
    mx, my = mg(x), mg(y)
    assert abs(solve._dot(mx, y) - solve._dot(x, my)) <= 1e-13 * abs(solve._dot(mx, y))
    assert solve._dot(mx, x) > 0.0


def test_unconverged_pcg_raises(monkeypatch):
    D, h, b = _newton_system(81)
    monkeypatch.setattr(solve, "MAX_PCG", 3)
    with pytest.raises(solve.ConvergenceError, match="PCG"):
        solve._pcg(solve._Multigrid(D, h), b, 1e-10)


def test_newton_and_monotone_agree_away_from_small_grids():
    prob = VortexProblem(EntireFunction(p=(0.0, 0.0, 0.0, 1.0)), 3, GridDomain(10.0, 201))
    bd = solve.make_boundary_subsolution(prob)
    wn, _ = solve.solve_newton(prob, bd, bd)
    lo = np.maximum(prob.profile(), -6.0)
    wm, repm = solve.monotone_solve(prob, lo, lo + 3.0, boundary=bd)
    assert repm.residual <= 1e-9
    assert np.max(np.abs(wn - wm)) <= 1e-7


def test_monotone_clean_band_never_leaves_it():
    # zero-free phi: the band [profile, profile + 1] brackets the solution,
    # so a downward sweep must stay monotone with no clipping at all
    prob = VortexProblem(EXP_Z, 3, GridDomain(6.0, 121))
    prof = prob.profile()
    w, rep = solve.monotone_solve(prob, prof, prof + 1.0)
    assert rep.nonmonotone_steps == 0
    assert rep.band_violations == 0
    assert (w - prof).min() >= -1e-8
    assert (w - prof).max() <= 1.0 + 1e-8


def test_monotone_band_must_be_ordered():
    prob = VortexProblem(EXP_Z, 3, GridDomain(4.0, 41))
    prof = prob.profile()
    with pytest.raises(ValueError):
        solve.monotone_solve(prob, prof + 1.0, prof)


@settings(max_examples=8, deadline=None)
@given(st.floats(min_value=0.0, max_value=1.0))
def test_larger_boundary_data_gives_larger_solution(lift):
    # discrete comparison principle: raising the ring raises the field
    prob = VortexProblem(F_Z, 2, GridDomain(4.0, 41))
    bd = solve.make_boundary_subsolution(prob)
    w_low, _ = solve.solve_newton(prob, bd, bd)
    ring = bd + lift
    w_high, _ = solve.solve_newton(prob, w_low + lift, ring)
    assert float((w_high - w_low).min()) >= -1e-8


def test_ladder_reaches_constant_solution():
    prob = VortexProblem(EntireFunction(p=(100.0,)), 3, GridDomain(4.0, 81))
    w, rep = solve.solve_complete(prob)
    assert rep.stabilized
    target = (2.0 / 3.0) * np.log(100.0)
    # the ladder stops once the inner field moves < 1e-6 per rung, so the
    # remaining distance to the limit is a small multiple of that
    assert np.max(np.abs(w - target)[prob.domain.inner_mask()]) <= 1e-5


def test_ladder_is_boundary_insensitive_for_polynomials(nested_z_solves):
    st8 = nested_z_solves
    ia, ib = shared_nodes(st8.p8.domain, st8.p12.domain, 4.0)
    diff = np.abs(st8.w8[np.ix_(ia, ia)] - st8.w12[np.ix_(ib, ib)]).max()
    assert diff <= 1e-3


def test_polynomial_branches_coincide(nested_z_solves):
    # for polynomial phi the subsolution-boundary field and the lifted-bound
    # continuation land on the same solution away from the ring
    st12 = nested_z_solves
    inner = st12.p12.domain.inner_mask()
    assert np.abs(st12.w12 - st12.w12_prof)[inner].max() <= 1e-2


def test_shared_grid_alignment_example():
    d8 = GridDomain(8.0, 161)
    d12 = GridDomain(12.0, 241)
    p8 = VortexProblem(F_Z, 2, d8)
    p12 = VortexProblem(F_Z, 2, d12)
    w8, _ = solve.solve_complete(p8)
    w12, _ = solve.solve_complete(p12)
    ia, ib = shared_nodes(d8, d12, 4.0)
    assert np.abs(w8[np.ix_(ia, ia)] - w12[np.ix_(ib, ib)]).max() <= 1e-4


def test_ladder_reports_drift_when_domain_is_too_small():
    # exponential phi keeps leaking through the weakly screened left side;
    # the ladder must hand back its last field and say so instead of raising
    prob = VortexProblem(EXP_Z, 3, GridDomain(4.0, 41))
    w, rep = solve.solve_complete(prob)
    assert not rep.stabilized
    assert rep.warning is not None and "still moving" in rep.warning
    assert rep.trace[-1]["M"] == solve.DEFAULT_M_VALUES[-1]
    assert np.all(np.isfinite(w))


def _stop(rep):
    """The M of the rung a ladder returned: the first whose inner change is
    at most TOL_CONT, else the top one."""
    stops = [e["M"] for e in rep.trace
             if e["inner_change"] is not None and e["inner_change"] <= solve.TOL_CONT]
    return stops[0] if rep.stabilized else rep.trace[-1]["M"]


def test_ladder_trace_matches_m_schedule():
    # phi = 100 at n = 41 stabilizes at M = 12: the last pair is solved
    # first, then pairs from the bottom until the pair holding the stop
    prob = VortexProblem(EntireFunction(p=(100.0,)), 3, GridDomain(4.0, 41))
    _, rep = solve.solve_complete(prob)
    ms = [e["M"] for e in rep.trace]
    assert ms == [4.0, 6.0, 8.0, 10.0, 12.0, 14.0, 22.0, 24.0]
    assert rep.stabilized and _stop(rep) == 12.0
    for e in rep.trace:
        assert (e["inner_change"] is None) == (e["M"] - 2.0 not in ms)
    # the top-level counts are the returned rung's, the totals every rung's
    stop = rep.trace[ms.index(12.0)]
    assert (rep.newton.iterations, rep.newton.residual) == (stop["newton_iterations"],
                                                            stop["residual"])
    assert rep.totals["iterations"] == sum(e["newton_iterations"] for e in rep.trace)


def test_a_stabilizing_ladder_ends_holding_few_fields(monkeypatch, use_parts):
    # phi = 100 at n = 41 stabilizes at M = 12 after four rounds of two
    # rungs.  Each round's shared block is unmapped once its changes are
    # computed; when the ladder returns, numpy holds copies of the last
    # pair's fields and of the returned one, the inner squares (a quarter of
    # the grid each) of rungs 14 and 22, whose changes are still to come,
    # and the inner mask: 3.65 fields' bytes, where all eight fields were
    # held before
    use_parts(1)
    prob = VortexProblem(EntireFunction(p=(100.0,)), 3, GridDomain(4.0, 41))
    blocks, seen = [], []
    real_shared, real_report = solve.shared_array, solve.ContinuationReport

    def shared_array(shape, dtype):
        base = a = real_shared(shape, dtype)
        while isinstance(base, np.ndarray):
            base = base.base
        blocks.append(weakref.ref(base))
        return a

    def report(*args):
        held = tracemalloc.take_snapshot().filter_traces(
            [tracemalloc.DomainFilter(True, np.lib.tracemalloc_domain)])
        seen.append((sum(ref() is not None for ref in blocks),
                     sum(trace.size for trace in held.traces)))
        return real_report(*args)

    monkeypatch.setattr(solve, "shared_array", shared_array)
    monkeypatch.setattr(solve, "ContinuationReport", report)
    tracemalloc.start()
    try:
        w, rep = solve.solve_complete(prob)
    finally:
        tracemalloc.stop()
    assert rep.stabilized and _stop(rep) == 12.0 and len(blocks) == 4
    (alive, held), = seen
    assert alive == 0
    assert held < 4 * w.nbytes


def _warm_start_ladder(problem):
    """The ladder as solved before its rungs were independent: each rung
    started from the field of the rung below, stopping at the first M whose
    inner change is at most TOL_CONT.  Returns (field, stop M, stabilized)."""
    inner = problem.domain.inner_mask()
    w_prev = None
    for M in solve.DEFAULT_M_VALUES:
        bnd = solve.make_boundary_complete(problem, M)
        w, _ = solve.solve_newton(problem, bnd if w_prev is None else w_prev, bnd)
        if w_prev is not None and np.max(np.abs((w - w_prev)[inner])) <= solve.TOL_CONT:
            return w, M, True
        w_prev = w
    return w, M, False


def _geometric(diff, mode, R, n):
    return surfaces.geometric_problem(diff, surfaces.SurfaceMode(mode), GridDomain(R, n))


# problems on which the inner change was seen to fall with M, the example
# configs and the bench workloads, at small n; they stop at M = 6, 12, 18,
# 24 and unstabilized
LADDER_PROBLEMS = {
    "ez-R5": lambda: VortexProblem(EXP_Z, 3, GridDomain(5.0, 41)),  # configs/dichotomy
    "ez-R6": lambda: VortexProblem(EXP_Z, 3, GridDomain(6.0, 41)),  # dichotomy-ez
    "z-half-ez": lambda: VortexProblem(EntireFunction(p=(0.5, 1.0), q=(0.0, 1.0)), 3,
                                       GridDomain(4.0, 41)),
    "phi-2": lambda: VortexProblem(EntireFunction(p=(2.0,)), 2, GridDomain(4.0, 41)),
    "phi-100": lambda: VortexProblem(EntireFunction(p=(100.0,)), 3, GridDomain(4.0, 41)),
    "z3": lambda: _geometric(EntireFunction(p=(0.0, 0.0, 0.0, 1.0)), "WANG_K3", 6.0, 41),
    # configs/cmc_gauss and cmc-qz: unstabilized at n = 41, stabilized on the
    # last rung at n = 61 and at M = 18 at n = 81
    "qz-41": lambda: _geometric(F_Z, "HARMONIC_K2", 6.0, 41),
    "qz-61": lambda: _geometric(F_Z, "HARMONIC_K2", 6.0, 61),
    "qz-81": lambda: _geometric(F_Z, "HARMONIC_K2", 6.0, 81),
    "affine-z": lambda: _geometric(F_Z, "WANG_K3", 4.0, 41),  # configs/affine_sphere
    "affine-ez": lambda: _geometric(EXP_Z, "WANG_K3", 2.0, 41),  # affine-ez-develop
}


@pytest.mark.parametrize("name", sorted(LADDER_PROBLEMS))
def test_independent_rungs_return_the_warm_started_ladder(name):
    # each rung has one solution, so its start does not matter; that the
    # ladders stop alike rests on the inner change falling with M.  Both
    # fields are Newton solves stopped at a residual of TOL_NEWTON, which
    # leaves them up to 1.7e-12 apart here (ez-R5, where w reaches 27), and
    # 6.2e-14 of the largest |w|
    prob = LADDER_PROBLEMS[name]()
    w_old, stop_old, stabilized_old = _warm_start_ladder(prob)
    w, rep = solve.solve_complete(prob)
    assert (_stop(rep), rep.stabilized) == (stop_old, stabilized_old)
    assert np.max(np.abs(w - w_old)) <= 1e-13 * np.max(np.abs(w_old))


def _ez_ladder(monkeypatch, use_parts):
    """The e^z ladder (k = 3, R = 6, n = 61) in this one process, with each
    rung's Newton report and the tolerance of each PCG solve, in call order."""
    use_parts(1)
    reports, tols = [], []
    pcg, newton = solve._pcg, solve.solve_newton

    def recording_pcg(mg, b, tol, guess=None):
        tols.append(tol)
        return pcg(mg, b, tol, guess)

    def recording_newton(*args):
        w, rep = newton(*args)
        reports.append(rep)
        return w, rep

    monkeypatch.setattr(solve, "_pcg", recording_pcg)
    monkeypatch.setattr(solve, "solve_newton", recording_newton)
    w, rep = solve.solve_complete(VortexProblem(EXP_Z, 3, GridDomain(6.0, 61)))
    return w, rep, reports, tols


def test_forcing_terms_keep_the_ladder_field_at_a_third_of_the_vcycles(monkeypatch, use_parts):
    # ETA_NEWTON = 0 solves every step to the 1e-10 floor: exact Newton steps
    w, rep, _, _ = _ez_ladder(monkeypatch, use_parts)
    monkeypatch.setattr(solve, "ETA_NEWTON", 0.0)
    w_exact, rep_exact, _, tols = _ez_ladder(monkeypatch, use_parts)
    assert set(tols) == {1e-10}
    assert np.max(np.abs(w - w_exact)) <= 1e-12  # measured 1.3e-15
    vcycles = sum(e["cg_iterations"] for e in rep.trace)
    vcycles_exact = sum(e["cg_iterations"] for e in rep_exact.trace)
    assert 2 * vcycles <= vcycles_exact  # measured 42 against 120


def test_forcing_term_of_each_step_follows_its_residual(monkeypatch, use_parts):
    # step i of a solve is taken at residual history[i]; its PCG stops at a
    # relative max(1e-10, min(ETA_NEWTON, history[i])), and the outer stop
    # stays TOL_NEWTON however loosely the early steps were solved
    _, rep, reports, tols = _ez_ladder(monkeypatch, use_parts)
    assert len(reports) == len(rep.trace)
    expected = []
    for r in reports:
        assert r.residual <= solve.TOL_NEWTON
        assert r.residual_evaluations == 1 + r.iterations + r.backtracks
        expected += [max(1e-10, min(solve.ETA_NEWTON, g)) for g in r.residual_history[:-1]]
    assert tols == expected
    # early steps are capped at ETA_NEWTON, late ones solved tightly
    assert max(tols) == solve.ETA_NEWTON and min(tols) < 1e-6


def test_two_solutions_requires_transcendental_phi():
    prob = VortexProblem(F_Z, 2, GridDomain(4.0, 41))
    with pytest.raises(ValueError):
        solve.two_solutions(prob)


def test_two_solutions_with_zero_factor_split_widely():
    # z e^z mixes a root with exponential growth; the branches stay apart
    prob = VortexProblem(EntireFunction(p=(0.0, 1.0), q=(0.0, 1.0)), 3, GridDomain(6.0, 121))
    pair = solve.two_solutions(prob)
    gap = pair.w_top - pair.w_low
    assert gap.max() > 0.1
    assert gap[prob.domain.inner_mask()].min() > 0.0


def test_dichotomy_pair_ordered_and_converged(ez_pair):
    pair = ez_pair.pair
    assert pair.report_low.residual <= solve.TOL_NEWTON
    gap = pair.w_top - pair.w_low
    assert gap[ez_pair.prob.domain.inner_mask()].min() > 0.0
