"""Pointwise invariants: subunity bound, curvature, ordering, ray lengths."""

import tracemalloc
import warnings

import numpy as np
import pytest

from vortexlab.entire import EntireFunction
from vortexlab.grid import GridDomain, VortexProblem
from vortexlab import invariants as inv
from vortexlab import solve, surfaces

from conftest import EXP_Z

F_Z = EntireFunction(p=(0.0, 1.0))


@pytest.fixture(scope="module")
def z_complete_small():
    prob = VortexProblem(F_Z, 2, GridDomain(4.5, 121))
    w, _ = solve.solve_complete(prob)
    return prob, w


@pytest.fixture(scope="module")
def margin_ladder():
    out = []
    for n in (101, 151, 201):
        prob = VortexProblem(F_Z, 2, GridDomain(4.5, n))
        w, _ = solve.solve_complete(prob)
        out.append(inv.subunity_check(w, prob).margin)
    return out


def test_h_field_definition():
    prob = VortexProblem(F_Z, 2, GridDomain(4.0, 81))
    w = np.zeros((81, 81))
    h = inv.h_field(w, prob)
    assert h[40, 40] == 0.0  # phi vanishes at the origin node
    assert np.all(h >= 0.0)
    zz = prob.domain.zz()
    assert np.allclose(h, np.abs(zz) ** 2, atol=1e-12)


def test_subunity_constant_sits_on_the_bound():
    prob = VortexProblem(EntireFunction(p=(2.0,)), 2, GridDomain(4.0, 81))
    rep = inv.subunity_check(np.full((81, 81), np.log(2.0)), prob)
    assert rep.passed
    assert abs(rep.margin) <= 1e-12


def test_subunity_profile_sits_on_the_bound():
    prob = VortexProblem(EXP_Z, 3, GridDomain(6.0, 121))
    rep = inv.subunity_check(prob.profile(), prob)
    assert rep.passed
    assert abs(rep.margin) <= 1e-10


def test_subunity_strict_for_polynomial(z_complete_small):
    prob, w = z_complete_small
    rep = inv.subunity_check(w, prob)
    assert rep.passed
    assert rep.margin > 1e-3
    assert rep.name == "subunity"
    assert rep.passed == (rep.margin >= -rep.tolerance)


def test_strictness_margin_settles_under_refinement(margin_ladder):
    m101, m151, m201 = margin_ladder
    assert all(m > 1e-3 for m in margin_ladder)
    # successive differences contract: the margin converges rather than drifts
    assert abs(m201 - m151) < abs(m151 - m101)


@pytest.mark.xfail(
    strict=True,
    reason="the discrete field approaches the bound from the safe side, so the "
    "strict margin tightens (not widens) as the grid is refined",
)
def test_strictness_margin_widens_under_refinement(margin_ladder):
    m101, m151, m201 = margin_ladder
    assert m151 >= m101 - 1e-7
    assert m201 >= m151 - 1e-7
    assert m201 > m101


def test_curvature_flat_for_constants():
    prob = VortexProblem(EntireFunction(p=(2.0,)), 2, GridDomain(2.0, 41))
    K = inv.curvature_field(np.full((41, 41), np.log(2.0)), prob)
    assert np.abs(K[1:-1, 1:-1]).max() <= 1e-12


def test_curvature_flat_for_profile_branch():
    prob = VortexProblem(EXP_Z, 3, GridDomain(4.0, 81))
    K = inv.curvature_field(prob.profile(), prob)
    assert np.abs(K[1:-1, 1:-1]).max() <= 1e-12


def test_curvature_rejects_unconverged_field():
    prob = VortexProblem(EXP_Z, 3, GridDomain(4.0, 81))
    bump = 0.05 * np.exp(-np.abs(prob.domain.zz()) ** 2 / 0.5)
    with pytest.raises(ValueError):
        inv.curvature_field(prob.profile() + bump, prob)


def test_curvature_check_is_a_bound_on_the_residual():
    # the algebraic and the stencil curvature differ by (1/2) e^{-w} r, so
    # their 10 * TOL_SOLVE * e^{-w} agreement is max |r| <= 20 * TOL_SOLVE:
    # a bump on the exact constant passes at 10 * TOL_SOLVE and not at 40
    prob = VortexProblem(EntireFunction(p=(2.0,)), 2, GridDomain(2.0, 41))
    w = np.full((41, 41), np.log(2.0))
    bump = np.exp(-np.abs(prob.domain.zz()) ** 2 / 0.5)
    unit = prob.residual_norm(w + 1e-6 * bump) / 1e-6

    def bumped(times):
        out = w + times * inv.TOL_SOLVE / unit * bump
        assert prob.residual_norm(out) == pytest.approx(times * inv.TOL_SOLVE, rel=1e-3)
        return out

    inv.curvature_field(bumped(10.0), prob)
    with pytest.raises(ValueError):
        inv.curvature_field(bumped(40.0), prob)


def test_curvature_check_refuses_a_nan_residual():
    # a NaN node makes the residual NaN, which is no bound at all
    prob = VortexProblem(EntireFunction(p=(2.0,)), 2, GridDomain(2.0, 41))
    w = np.full((41, 41), np.log(2.0))
    w[20, 20] = np.nan
    with pytest.raises(ValueError, match="w is not converged"):
        inv.curvature_field(w, prob)


def test_ordering_check_strictness():
    dom = GridDomain(4.0, 41)
    w = np.zeros((41, 41))
    equal = inv.ordering_check(w, w, dom)
    assert not equal.passed and equal.margin == 0.0
    lifted = inv.ordering_check(w + 1.0, w, dom)
    assert lifted.passed and lifted.margin == pytest.approx(1.0)
    assert equal.tolerance == 0.0
    # a gap that rounds to either side of 0 passes within a tolerance, which
    # is reported
    below = inv.ordering_check(w - 1e-15, w, dom, inv.TOL_ORDERING)
    assert below.passed and below.tolerance == inv.TOL_ORDERING
    assert not inv.ordering_check(w - 2e-12, w, dom, inv.TOL_ORDERING).passed


def test_ordering_of_dichotomy_pair(ez_pair):
    rep = inv.ordering_check(ez_pair.branches["complete"][0], ez_pair.branches["incomplete"][0],
                             ez_pair.prob.domain)
    assert rep.passed
    assert rep.margin > 0.0


@pytest.mark.xfail(
    strict=True,
    reason="the branch gap is screened exponentially toward the right of the "
    "inner square (about 12 e-folds at R=6), so its minimum is ~3e-6, far "
    "below 0.01; only the unscreened left region shows an O(1) gap",
)
def test_ordering_margin_of_dichotomy_is_large(ez_pair):
    rep = inv.ordering_check(ez_pair.branches["complete"][0], ez_pair.branches["incomplete"][0],
                             ez_pair.prob.domain)
    assert rep.margin > 0.01


def test_strong_comparison_no_interior_contact(ez_pair):
    gap = ez_pair.branches["complete"][0] - ez_pair.branches["incomplete"][0]
    # the inner square never reaches the ring
    inner = ez_pair.prob.domain.inner
    assert np.all(gap[inner, inner] > 0.0)


def test_no_gap_validates_delta(z_complete_small):
    prob, w = z_complete_small
    for bad in (0.0, 1.0, -0.2, 1.5):
        with pytest.raises(ValueError):
            inv.no_gap_check(w, prob, bad)


def test_no_gap_for_profile_and_constant():
    prob = VortexProblem(EXP_Z, 3, GridDomain(6.0, 121))
    rep = inv.no_gap_check(prob.profile(), prob, 0.9)
    assert rep.passed  # h is identically 1 on the profile branch
    pc = VortexProblem(EntireFunction(p=(2.0,)), 2, GridDomain(4.0, 41))
    for delta in (0.1, 0.5, 0.99):
        assert inv.no_gap_check(np.full((41, 41), np.log(2.0)), pc, delta).passed


def test_no_gap_for_complete_branch(nested_z_solves):
    rep = inv.no_gap_check(nested_z_solves.w8, nested_z_solves.p8, 0.5)
    assert rep.passed


def test_diagnostics_constant_all_trivial():
    prob = VortexProblem(EntireFunction(p=(2.0,)), 2, GridDomain(4.0, 41))
    w = np.full((41, 41), np.log(2.0))
    residual, passed = inv.diagnostics(w, prob, prob.residual(w))
    assert passed and residual <= 1e-12


def test_diagnostics_profile_identity_vanishes():
    # on the profile h = 1 (sigma = log h vanishes) and w is linear in x, so
    # both sides of the identity vanish up to round-off
    prob = VortexProblem(EXP_Z, 3, GridDomain(6.0, 121))
    w = prob.profile()
    residual, passed = inv.diagnostics(w, prob, prob.residual(w))
    assert passed and residual <= 1e-10


def test_diagnostics_complete_branch(z_complete_small):
    prob, w = z_complete_small
    residual, passed = inv.diagnostics(w, prob, prob.residual(w))
    assert passed and residual <= 1e-6
    # the check skips the nodes within 2h of the zero of phi = z, at node
    # (60, 60): a bump there moves neither side anywhere it looks, while the
    # same bump far from the zero breaks the identity
    bumped = w.copy()
    bumped[60, 60] += 1e-3
    assert inv.diagnostics(bumped, prob, prob.residual(bumped)) == (residual, True)
    bumped = w.copy()
    bumped[30, 30] += 1e-3
    assert not inv.diagnostics(bumped, prob, prob.residual(bumped))[1]


def test_diagnostics_reports_the_scaled_residual(z_complete_small):
    # the identity's residual is k e^{-w} times the solver residual, taken
    # over the interior nodes more than 2h from the zero of phi = z
    prob, w = z_complete_small
    dom = prob.domain
    far = (np.abs(dom.zz()) > 2.0 * dom.h)[1:-1, 1:-1]
    expected = np.max((prob.k * np.exp(-w) * np.abs(prob.residual(w)))[1:-1, 1:-1][far])
    assert inv.diagnostics(w, prob, prob.residual(w)) == (expected, True)


def test_diagnostics_holds_a_few_planes_for_many_zeros():
    # the distance to the nearest of the ten zeros of z^10 - 1 is a running
    # minimum over the zeros: 7 interior grid planes at the peak, where an
    # (n - 2, n - 2, 10) stack of distances took 31
    prob = VortexProblem(EntireFunction(p=(-1.0,) + (0.0,) * 9 + (1.0,)), 3, GridDomain(2.0, 161))
    dom = prob.domain
    w = np.maximum(prob.profile(), 0.0)
    r = prob.residual(w)
    tracemalloc.start()
    try:
        got = inv.diagnostics(w, prob, r)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 10 * (dom.n - 2) ** 2 * 8
    zz = dom.zz(slice(1, -1), slice(1, -1))
    far = np.min(np.abs(zz[..., None] - prob.phi.zeros()), axis=-1) > 2.0 * dom.h
    expected = float(np.max((prob.k * np.exp(-w) * np.abs(r))[1:-1, 1:-1][far]))
    assert got == (expected, expected <= inv.TOL_IDENTITY)


def test_ray_analytic_left_integral_converges_to_its_limit():
    # w = (2/3) x along theta = pi: density e^{-s/3}, so the length tends to 3
    # and the three equal windows shrink by one ratio, at every R
    for R, n in ((6.0, 201), (18.0, 73), (60.0, 121)):
        dom = GridDomain(R, n)
        w = (2.0 / 3.0) * dom.zz().real
        ray = inv.completeness_probe(dom, w)[2]
        assert ray.verdict == "CONVERGENT", (R, n)
        assert abs(ray.limit_estimate - 3.0) <= 0.02, (R, n)


def test_ray_tail_windows_are_equal_at_any_n():
    # 4 does not divide n - 1 at n = 43 and 203, yet the three windows stay
    # equal and the limit of the same ray stays on 3
    for n in (43, 203):
        dom = GridDomain(6.0, n)
        ray = inv.completeness_probe(dom, (2.0 / 3.0) * dom.zz().real)[2]
        assert ray.verdict == "CONVERGENT", n
        assert abs(ray.limit_estimate - 3.0) <= 1e-3, n


def test_ray_limit_extrapolation_on_short_domain():
    dom = GridDomain(6.0, 201)
    w = (2.0 / 3.0) * dom.zz().real
    ray = inv.completeness_probe(dom, w)[2]
    assert ray.limit_estimate is not None
    assert abs(ray.limit_estimate - 3.0) <= 0.02


def test_affine_profile_ray_reads_its_finite_length():
    # U = e^z on WANG_K3: leftward the incomplete branch's density decays
    # geometrically and its length tends to 3 * 4^(1/3); the other rays diverge
    prob = surfaces.geometric_problem(EXP_Z, "WANG_K3", GridDomain(2.0, 161))
    w, _ = solve.solve_branch(prob, "incomplete")
    rays = inv.completeness_probe(prob.domain, w)
    assert [p.verdict for p in rays] == ["DIVERGENT", "DIVERGENT", "CONVERGENT", "DIVERGENT"]
    assert abs(rays[2].limit_estimate - 3.0 * 4.0 ** (1.0 / 3.0)) <= 1e-4


def test_ray_quadratic_growth_for_polynomial():
    prob = VortexProblem(EntireFunction(p=(0.0, 0.0, 1.0)), 2, GridDomain(6.0, 121))
    profile = solve.make_boundary_subsolution(prob)
    w, _ = solve.solve_newton(prob, profile)
    ray = inv.completeness_probe(prob.domain, w)[0]
    pred = ray.r[-1] ** 2 / 2.0
    assert abs(ray.total - pred) <= 0.1 * pred
    assert ray.verdict == "DIVERGENT"


def test_rays_run_along_the_four_half_axes():
    # theta = m pi/2, and the samples at the nodes and edge midpoints of w = x
    dom = GridDomain(2.0, 9)
    w = dom.zz().real
    rays = inv.completeness_probe(dom, w)
    assert [p.theta for p in rays] == [0.0, 0.5 * np.pi, np.pi, 1.5 * np.pi]
    g = np.exp(0.5 * rays[0].r)
    assert np.array_equal(rays[0].length[1:],
                          np.cumsum(0.5 * (0.5 * dom.h) * (g[1:] + g[:-1])))


def test_rays_of_a_quarter_turn_symmetric_field_are_equal():
    # w = log(1 + x^2 + y^2), built from |i - c| h, is exactly invariant under
    # quarter turns and mirrors, so its four rays are too, bit for bit
    for R, n in ((6.0, 201), (2.0, 41), (4.0, 81)):
        dom = GridDomain(R, n)
        d = np.abs(np.arange(n) - (n - 1) // 2) * dom.h
        w = np.log1p(d[:, None] ** 2 + d[None, :] ** 2)
        rays = inv.completeness_probe(dom, w)
        for p in rays[1:]:
            assert np.array_equal(p.length, rays[0].length), (R, n, p.theta)
            assert (p.verdict, p.limit_estimate) == (rays[0].verdict, rays[0].limit_estimate)


def test_constant_field_gets_no_ray_limit():
    # equal increments are no decaying tail, however round-off orders them
    dom = GridDomain(2.0, 41)
    for p in inv.completeness_probe(dom, np.full((41, 41), 0.4)):
        assert (p.verdict, p.limit_estimate) == ("DIVERGENT", None), p.theta
    # a density that underflows adds nothing, and that is read without
    # dividing; e^{w/2} overflows above w = 1419, and a length of +inf reads
    # DIVERGENT without a warning (w = 1400 stays finite, at 2.03e304)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rays = inv.completeness_probe(dom, np.full((41, 41), -1600.0))
        over = inv.completeness_probe(dom, np.full((41, 41), 1500.0))
    for p in rays:
        assert (p.verdict, p.limit_estimate) == ("INDETERMINATE", None), p.theta
    for p in over:
        assert (p.verdict, p.limit_estimate, p.total) == ("DIVERGENT", None, np.inf), p.theta
    for p in inv.completeness_probe(dom, np.full((41, 41), 1400.0)):
        assert p.verdict == "DIVERGENT" and np.isfinite(p.total), p.theta


def test_ray_lengths_ordered_with_fields(ez_pair):
    top = inv.completeness_probe(ez_pair.prob.domain, ez_pair.branches["complete"][0])
    low = inv.completeness_probe(ez_pair.prob.domain, ez_pair.branches["incomplete"][0])
    for a, b in zip(top, low):
        assert np.all(a.length >= b.length - 1e-12)
    # the divergent branch dwarfs the profile branch leftward
    assert top[2].total >= 2.0 * low[2].total


def test_rays_csv_round_trip(tmp_path):
    dom = GridDomain(6.0, 101)
    w = (2.0 / 3.0) * dom.zz().real
    rays = inv.completeness_probe(dom, w)
    path = tmp_path / "rays.csv"
    inv.write_rays_csv(path, rays)
    with open(path) as fh:
        assert fh.readline().strip() == "theta,r,length"
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    assert data.shape[0] == sum(len(r.r) for r in rays)
    back = data[data[:, 0] == 0.0]
    assert np.array_equal(back[:, 2], rays[0].length)
