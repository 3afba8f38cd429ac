"""Pointwise invariants: subunity bound, curvature, ordering, ray lengths."""

import numpy as np
import pytest

from vortexlab.entire import EntireFunction
from vortexlab.grid import GridDomain, VortexProblem
from vortexlab import invariants as inv
from vortexlab import solve

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


def test_ray_analytic_left_integral():
    # w = (2/3) x along theta = pi: the length tends to 3, and at R = 60 the
    # last window [R/2, R] adds less than EPS_RAY
    for R, n, verdict in ((18.0, 73, "INDETERMINATE"), (60.0, 121, "CONVERGENT")):
        dom = GridDomain(R, n)
        w = (2.0 / 3.0) * dom.zz().real
        ray = inv.completeness_probe(dom, w, (np.pi,))[0]
        assert ray.verdict == verdict
        assert abs(ray.total - 3.0) <= 0.02


def test_ray_limit_extrapolation_on_short_domain():
    dom = GridDomain(6.0, 201)
    w = (2.0 / 3.0) * dom.zz().real
    ray = inv.completeness_probe(dom, w, (np.pi,))[0]
    assert ray.limit_estimate is not None
    assert abs(ray.limit_estimate - 3.0) <= 0.02


def test_ray_quadratic_growth_for_polynomial():
    prob = VortexProblem(EntireFunction(p=(0.0, 0.0, 1.0)), 2, GridDomain(6.0, 121))
    profile = solve.make_boundary_subsolution(prob)
    w, _ = solve.solve_newton(prob, profile)
    ray = inv.completeness_probe(prob.domain, w, (0.0,))[0]
    pred = ray.r[-1] ** 2 / 2.0
    assert abs(ray.total - pred) <= 0.1 * pred
    assert ray.verdict == "DIVERGENT"


def test_ray_lengths_ordered_with_fields(ez_pair):
    angles = (0.0, np.pi / 2, np.pi, 3 * np.pi / 2)
    top = inv.completeness_probe(ez_pair.prob.domain, ez_pair.branches["complete"][0], angles)
    low = inv.completeness_probe(ez_pair.prob.domain, ez_pair.branches["incomplete"][0], angles)
    for a, b in zip(top, low):
        assert np.all(a.length >= b.length - 1e-12)
    # the divergent branch dwarfs the profile branch leftward
    assert top[2].total >= 2.0 * low[2].total


def test_rays_csv_round_trip(tmp_path):
    dom = GridDomain(6.0, 101)
    w = (2.0 / 3.0) * dom.zz().real
    rays = inv.completeness_probe(dom, w, (0.0, np.pi))
    path = tmp_path / "rays.csv"
    inv.write_rays_csv(path, rays)
    with open(path) as fh:
        assert fh.readline().strip() == "theta,r,length"
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    assert data.shape[0] == sum(len(r.r) for r in rays)
    back = data[data[:, 0] == 0.0]
    assert np.array_equal(back[:, 2], rays[0].length)
