"""Newton and monotone solvers, continuation ladder, the two-branch picture."""

import re
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from vortexlab.entire import EntireFunction
from vortexlab.grid import GridDomain, VortexProblem, interior_max_norm
from vortexlab import solve, surfaces

from conftest import EXP_Z, ring_values, shared_nodes

F_Z = EntireFunction(p=(0.0, 1.0))


def test_subsolution_boundary_is_profile_on_ring():
    prob = VortexProblem(EXP_Z, 3, GridDomain(6.0, 41))
    vals = solve.make_boundary_subsolution(prob)
    assert np.allclose(ring_values(vals), ring_values(prob.profile()), atol=0)
    assert vals[-1, 20] == pytest.approx(4.0, abs=1e-12)  # (2/3) x at x = 6


def test_subsolution_clips_only_the_zeros_of_phi():
    # e^{z^2} at R = 8 reaches (2/3)(x^2 - y^2) = -42.67 on the ring, finite
    # and kept; phi = z is -inf at the origin, which takes PROFILE_CLIP
    prob = VortexProblem(EntireFunction(p=(1.0,), q=(0.0, 0.0, 1.0)), 3, GridDomain(8.0, 41))
    assert prob.profile().min() < solve.PROFILE_CLIP
    assert np.array_equal(solve.make_boundary_subsolution(prob), prob.profile())
    vals = solve.make_boundary_subsolution(VortexProblem(F_Z, 3, GridDomain(8.0, 41)))
    assert vals[20, 20] == solve.PROFILE_CLIP and np.all(np.isfinite(vals))


def test_complete_boundary_caps_profile_and_lifts():
    # a rung's Dirichlet data are the ring of its start, bit for bit
    prob = VortexProblem(EntireFunction(p=(0.0, 0.0, 1.0)), 3, GridDomain(8.0, 41))
    for M in (0.0, 4.0, 24.0):
        expect = np.maximum(prob.profile(), 0.0) + M
        assert np.array_equal(ring_values(solve._rung_start(prob, M)), ring_values(expect))


def test_newton_at_exact_constant_takes_no_steps():
    prob = VortexProblem(EntireFunction(p=(2.0,)), 2, GridDomain(4.0, 41))
    w0 = np.full((41, 41), np.log(2.0))
    w, rep = solve.solve_newton(prob, w0)
    assert rep.iterations <= 1
    assert np.array_equal(w, w0)


def test_newton_recovers_profile_from_bumped_start():
    dom = GridDomain(4.0, 81)
    prob = VortexProblem(EXP_Z, 3, dom)
    prof = prob.profile()
    bump = 0.1 * np.exp(-np.abs(dom.zz()) ** 2)
    w0 = solve._set_ring(prof + bump, solve.make_boundary_subsolution(prob))
    w, rep = solve.solve_newton(prob, w0)
    assert np.max(np.abs(w - prof)) <= 1e-8


def _half_above_profile(n=81):
    """The e^z problem (k = 3, R = 4) and a start 0.5 above its profile,
    with the profile as ring data."""
    prob = VortexProblem(EXP_Z, 3, GridDomain(4.0, n))
    return prob, solve._set_ring(prob.profile() + 0.5, solve.make_boundary_subsolution(prob))


def _counts(rep):
    """(steps, V-cycles, backtracks, residual evaluations) of a Newton report,
    whose evaluations are the start's, one per step and one per backtrack."""
    assert rep.residual_evaluations == 1 + rep.iterations + rep.backtracks
    assert rep.residual == rep.residual_history[-1] or np.isnan(rep.residual)
    assert len(rep.residual_history) == rep.iterations + 1
    return rep.iterations, rep.cg_iterations, rep.backtracks, rep.residual_evaluations


def test_newton_report_history_is_decreasing_to_tolerance():
    prob, w0 = _half_above_profile()
    _, rep = solve.solve_newton(prob, w0)
    hist = rep.residual_history
    assert hist[-1] <= solve.TOL_NEWTON
    assert all(b < a for a, b in zip(hist, hist[1:]))
    assert _counts(rep) == (5, 16, 0, 6)


@pytest.mark.parametrize("limit, counts, residual", [
    (2, (2, 4, 0, 3), "3.907e-02"),
    (4, (4, 9, 0, 5), "1.764e-07"),
], ids=["2", "4"])
def test_newton_out_of_steps_raises_with_its_report(monkeypatch, limit, counts, residual):
    # the solve above takes 5 steps; with fewer allowed it stops at the
    # limit with the residual it reached
    prob, w0 = _half_above_profile()
    monkeypatch.setattr(solve, "MAX_NEWTON", limit)
    with pytest.raises(solve.ConvergenceError) as exc:
        solve.solve_newton(prob, w0)
    assert str(exc.value) == "Newton did not reach tolerance: residual " + residual
    assert _counts(exc.value.report) == counts


def test_newton_returns_when_its_last_allowed_step_converges(monkeypatch):
    prob, w0 = _half_above_profile()
    w, rep = solve.solve_newton(prob, w0)
    monkeypatch.setattr(solve, "MAX_NEWTON", 5)
    w5, rep5 = solve.solve_newton(prob, w0)
    assert np.array_equal(w5, w)
    assert _counts(rep5) == _counts(rep) == (5, 16, 0, 6)


def test_newton_line_search_stall_raises_with_its_report(monkeypatch):
    # a residual norm that never drops: every halving of the first step is
    # tried and counted
    prob, w0 = _half_above_profile(41)
    monkeypatch.setattr(solve, "interior_max_norm", lambda g: 1.0)
    with pytest.raises(solve.ConvergenceError) as exc:
        solve.solve_newton(prob, w0)
    assert str(exc.value) == "Newton line search stalled at residual 1.000e+00"
    assert _counts(exc.value.report) == (0, 2, 41, 42)


def test_newton_refuses_a_start_double_precision_cannot_state(monkeypatch):
    # a start whose residual or F' is not finite at an interior node is
    # refused, naming the first such node, before any V-cycle runs
    def no_pcg(*args, **kwargs):
        raise AssertionError("a PCG step was taken")

    monkeypatch.setattr(solve, "_pcg", no_pcg)
    prob, w0 = _half_above_profile(41)
    with pytest.raises(ValueError, match=re.escape(
            "its residual is not finite at (x, y) = (-3.8, -3.8)")):
        solve.solve_newton(prob, w0 + np.nan)
    # at w = -300, e^{a2 - 2w} = e^709.5 is a double and twice it is not: the
    # residual is finite, F' = e^w + 2 e^{a2 - 2w} is not
    prob = VortexProblem(EntireFunction(p=(np.exp(54.75),)), 3, GridDomain(4.0, 41))
    with pytest.raises(ValueError, match=re.escape("its F' is not finite at (x, y) = (-3.8, -3.8)")):
        solve.solve_newton(prob, np.full((41, 41), -300.0))


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


@pytest.mark.parametrize("e", [-900, -3, 0, 200, 900])
def test_pcg_is_exact_under_power_of_two_scaling(e):
    # PCG solves for b scaled to max |b| in [1/2, 1), so b 2^e gives x 2^e
    # bit for bit, and a right-hand side whose square no double holds
    # (|b| up to 2^900) overflows no dot product
    D, h, b = _newton_system(45)
    mg = solve._Multigrid(D, h)
    x, its = solve._pcg(mg, b, 1e-10)
    y, its_y = solve._pcg(mg, np.ldexp(b, e), 1e-10)
    assert its_y == its and np.array_equal(y, np.ldexp(x, e))


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
    wn, _ = solve.solve_newton(prob, bd)
    lo = np.maximum(prob.profile(), -6.0)
    wm, repm = solve.monotone_solve(prob, lo, solve._set_ring(lo + 3.0, bd))
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


def test_monotone_returns_when_its_last_allowed_sweep_converges(monkeypatch):
    # the clean band takes 15 sweeps to 4.4e-10; allowed exactly 15 it
    # returns the same field, allowed 14 it stalls above TOL_MONOTONE
    prob = VortexProblem(EXP_Z, 3, GridDomain(6.0, 121))
    prof = prob.profile()
    w, rep = solve.monotone_solve(prob, prof, prof + 1.0)
    assert rep.iterations == 15
    monkeypatch.setattr(solve, "MAX_OUTER", 15)
    w15, rep15 = solve.monotone_solve(prob, prof, prof + 1.0)
    assert np.array_equal(w15, w) and rep15 == rep
    monkeypatch.setattr(solve, "MAX_OUTER", 14)
    with pytest.raises(solve.ConvergenceError, match="stalled at residual 2.703e-09"):
        solve.monotone_solve(prob, prof, prof + 1.0)


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
    w_low, _ = solve.solve_newton(prob, bd)
    w_high, _ = solve.solve_newton(prob, solve._set_ring(w_low + lift, bd + lift))
    assert float((w_high - w_low).min()) >= -1e-8


def test_ladder_reaches_constant_solution():
    prob = VortexProblem(EntireFunction(p=(100.0,)), 3, GridDomain(4.0, 81))
    w, rep = solve.solve_complete(prob)
    assert rep.stabilized
    target = (2.0 / 3.0) * np.log(100.0)
    # the ladder stops once the inner field moves < 1e-6 per rung, so the
    # remaining distance to the limit is a small multiple of that
    inner = prob.domain.inner
    assert np.max(np.abs(w - target)[inner, inner]) <= 1e-5


def test_ladder_is_boundary_insensitive_for_polynomials(nested_z_solves):
    st8 = nested_z_solves
    ia, ib = shared_nodes(st8.p8.domain, st8.p12.domain, 4.0)
    diff = np.abs(st8.w8[np.ix_(ia, ia)] - st8.w12[np.ix_(ib, ib)]).max()
    assert diff <= 1e-3


def test_polynomial_branches_coincide(nested_z_solves):
    # for polynomial phi the subsolution-boundary field and the lifted-bound
    # continuation land on the same solution away from the ring
    st12 = nested_z_solves
    inner = st12.p12.domain.inner
    assert np.abs(st12.w12 - st12.w12_prof)[inner, inner].max() <= 1e-2


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
    assert rep.trace[-1][0] == solve.DEFAULT_M_VALUES[-1]
    assert np.all(np.isfinite(w))


def _stop(rep):
    """The M of the rung a ladder returned: the first whose inner change is
    at most TOL_CONT, else the top one."""
    stops = [M for M, _, change in rep.trace if change is not None and change <= solve.TOL_CONT]
    return stops[0] if rep.stabilized else rep.trace[-1][0]


def test_ladder_trace_matches_m_schedule():
    # phi = 100 at n = 41 stabilizes at M = 12: the last pair is solved
    # first, then pairs from the bottom until the pair holding the stop
    prob = VortexProblem(EntireFunction(p=(100.0,)), 3, GridDomain(4.0, 41))
    _, rep = solve.solve_complete(prob)
    ms = [M for M, _, _ in rep.trace]
    assert ms == [4.0, 6.0, 8.0, 10.0, 12.0, 14.0, 22.0, 24.0]
    assert rep.stabilized and _stop(rep) == 12.0
    for M, _, change in rep.trace:
        assert (change is None) == (M - 2.0 not in ms)
    # the report's Newton report is the returned rung's
    assert rep.newton is rep.trace[ms.index(12.0)][1]


def test_a_stabilizing_ladder_ends_holding_few_fields(monkeypatch, use_parts):
    # phi = 100 at n = 41 stabilizes at M = 12 after four rounds of two
    # rungs, whose parts return their fields.  No field outlives its round:
    # before each rung's solve, only the fields solved earlier in its round
    # are alive.  When the ladder returns, two of the eight fields solved are:
    # its last round's.  Numpy then holds those and the inner square (a
    # quarter of the grid) of rung 14, the rung walked last: 2.26 fields'
    # bytes
    use_parts(1)
    prob = VortexProblem(EntireFunction(p=(100.0,)), 3, GridDomain(4.0, 41))
    solved, before, seen = [], [], []
    real_newton, real_report = solve.solve_newton, solve.ContinuationReport

    def alive():
        return sum(ref() is not None for ref in solved)

    def solve_newton(*args):
        before.append(alive())
        w, rep = real_newton(*args)
        solved.append(weakref.ref(w))
        return w, rep

    def report(*args):
        held = tracemalloc.take_snapshot().filter_traces(
            [tracemalloc.DomainFilter(True, np.lib.tracemalloc_domain)])
        seen.append((alive(), sum(trace.size for trace in held.traces)))
        return real_report(*args)

    monkeypatch.setattr(solve, "solve_newton", solve_newton)
    monkeypatch.setattr(solve, "ContinuationReport", report)
    tracemalloc.start()
    try:
        w, rep = solve.solve_complete(prob)
    finally:
        tracemalloc.stop()
    assert rep.stabilized and _stop(rep) == 12.0 and len(solved) == 8
    assert before == [0, 1] * 4
    (alive_at_report, held), = seen
    assert alive_at_report == 2
    assert held < 3 * w.nbytes


def test_the_last_round_solves_the_top_pair_again_alike_in_any_parts(use_parts):
    # qz-61 stops at M = 24, in the last round, which solves 22 and 24 again
    # from their own starts: the field and the trace are the same bits however
    # the rungs are split, and each M is listed once
    results = []
    for count in (1, 2, 3):
        use_parts(count)
        results.append(solve.solve_complete(LADDER_PROBLEMS["qz-61"]()))
    (w, rep), others = results[0], results[1:]
    assert rep.stabilized and _stop(rep) == 24.0
    assert [M for M, _, _ in rep.trace] == [float(M) for M in solve.DEFAULT_M_VALUES]
    for w_other, rep_other in others:
        assert np.array_equal(w_other, w)
        assert rep_other.trace == rep.trace and rep_other.newton == rep.newton


def _warm_start_ladder(problem):
    """The ladder as solved before its rungs were independent: each rung
    started from the field of the rung below, stopping at the first M whose
    inner change is at most TOL_CONT.  Returns (field, stop M, stabilized)."""
    inner = problem.domain.inner
    w_prev = None
    for M in solve.DEFAULT_M_VALUES:
        bnd = np.maximum(problem.profile(), 0.0) + float(M)
        w0 = bnd if w_prev is None else solve._set_ring(w_prev.copy(), bnd)
        w, _ = solve.solve_newton(problem, w0)
        if w_prev is not None and np.max(np.abs((w - w_prev)[inner, inner])) <= solve.TOL_CONT:
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


def _rungs_solved(stop, stabilized):
    """The rungs the schedule solves for a ladder that returns rung `stop`:
    the last pair; then, if that pair settles, pairs upward from M = 4
    through the pair that holds the stop (every rung for a stop of 22 or 24)."""
    ms = [float(M) for M in solve.DEFAULT_M_VALUES]
    lower = ms[:-2]
    if not stabilized:
        return ms[-2:]
    upto = lower.index(stop) // 2 * 2 + 2 if stop in lower else len(lower)
    return lower[:upto] + ms[-2:]


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
    # the rungs solved follow from the stop by the schedule, and a rung has
    # an inner change exactly when M - 2 was solved
    ms = [M for M, _, _ in rep.trace]
    assert ms == _rungs_solved(_stop(rep), rep.stabilized)
    for M, _, change in rep.trace:
        assert (change is None) == (M - 2.0 not in ms)


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
    vcycles = sum(rung.cg_iterations for _, rung, _ in rep.trace)
    vcycles_exact = sum(rung.cg_iterations for _, rung, _ in rep_exact.trace)
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


def test_two_solutions_with_zero_factor_split_widely():
    # z e^z mixes a root with exponential growth; the branches stay apart
    prob = VortexProblem(EntireFunction(p=(0.0, 1.0), q=(0.0, 1.0)), 3, GridDomain(6.0, 121))
    branches = solve.two_solutions(prob)
    gap = branches["complete"][0] - branches["incomplete"][0]
    assert gap.max() > 0.1
    inner = prob.domain.inner
    assert gap[inner, inner].min() > 0.0


def _turned(phi: EntireFunction, m: int) -> EntireFunction:
    """phi(i^m z): the coefficient of z^k times i^{mk}, exactly."""
    turn = lambda coeffs: tuple(c * (1, 1j, -1, -1j)[m * k % 4] for k, c in enumerate(coeffs))
    return EntireFunction(turn(phi.p), turn(phi.q))


def _mirrored(phi: EntireFunction) -> EntireFunction:
    """conj(phi(conj z)): the conjugate coefficients."""
    return EntireFunction(tuple(np.conj(phi.p)), tuple(np.conj(phi.q)))


def _assert_equivariant(phi: EntireFunction, solve_both) -> None:
    # w_m(z) = w(i^m z) is w turned by -m quarter turns on the grid, whose
    # first index is x, and the solution for conj(phi(conj z)) is w(conj z),
    # w mirrored in y; each branch to 1e-12 (4e-15 measured)
    dom = GridDomain(4.0, 41)
    base = solve_both(VortexProblem(phi, 3, dom))
    expected = [(_turned(phi, m), lambda w, m=m: np.rot90(w, -m)) for m in (1, 2, 3)]
    for other, move in expected + [(_mirrored(phi), lambda w: w[:, ::-1])]:
        branches = solve_both(VortexProblem(other, 3, dom))
        for branch, (w, _) in base.items():
            assert np.max(np.abs(branches[branch][0] - move(w))) <= 1e-12


def test_two_solutions_turn_and_mirror_with_phi():
    _assert_equivariant(EXP_Z, solve.two_solutions)


def test_both_branches_of_a_polynomial_turn_and_mirror_with_phi():
    # zeros at 1 + 0.5i and -0.7 + 1.2i, on neither axis nor diagonal
    phi = EntireFunction(p=(-1.3 + 0.85j, -0.3 - 1.7j, 1.0))
    _assert_equivariant(phi, lambda prob: {branch: solve.solve_branch(prob, branch)
                                           for branch in ("complete", "incomplete")})


def test_dichotomy_pair_ordered_and_converged(ez_pair):
    (w_top, _), (w_low, report_low) = ez_pair.branches["complete"], ez_pair.branches["incomplete"]
    assert report_low.residual <= solve.TOL_NEWTON
    gap = w_top - w_low
    inner = ez_pair.prob.domain.inner
    assert gap[inner, inner].min() > 0.0
