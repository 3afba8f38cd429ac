"""Grid domain, five-point stencil, problem residuals, field CSV files."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from vortexlab.entire import EntireFunction
from vortexlab.grid import (
    GridDomain,
    VortexProblem,
    interior_max_norm,
    write_field_csv,
)
from vortexlab import solve


def test_grid_validation():
    with pytest.raises(ValueError):
        GridDomain(2.0, 40)  # even n
    with pytest.raises(ValueError):
        GridDomain(2.0, 3)  # too small
    with pytest.raises(ValueError):
        GridDomain(-1.0, 41)


def test_spacing_and_axis():
    dom = GridDomain(2.0, 41)
    assert dom.h == pytest.approx(0.1, abs=0)
    assert dom.axis[0] == -2.0 and dom.axis[-1] == 2.0
    assert dom.axis[20] == 0.0


def test_laplacian_kills_affine_functions():
    dom = GridDomain(2.0, 81)
    zz = dom.zz()
    u = 2.0 + 3.0 * zz.real - zz.imag
    assert interior_max_norm(dom.laplacian(u)) <= 1e-11


def test_laplacian_of_x_squared_is_two():
    dom = GridDomain(2.0, 81)
    u = dom.zz().real ** 2
    assert interior_max_norm(dom.laplacian(u) - 2.0) <= 1e-11


def test_laplacian_sine_truncation():
    dom = GridDomain(1.0, 41)
    x = dom.zz().real
    err = interior_max_norm(dom.laplacian(np.sin(x)) + np.sin(x))
    assert err <= 2.1e-4


def test_laplacian_second_order_refinement():
    errs = []
    for n in (51, 101, 201):
        dom = GridDomain(1.0, n)
        x = dom.zz().real
        errs.append(interior_max_norm(dom.laplacian(np.sin(x)) + np.sin(x)))
    orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
    assert np.all(orders >= 1.8) and np.all(orders <= 2.2)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**31 - 1), st.sampled_from([0.5, 1.0, 2.0, -1.5]),
       st.sampled_from([1.0, -0.25, 3.0]))
def test_laplacian_linearity(seed, a, b):
    dom = GridDomain(2.0, 41)
    rng = np.random.default_rng(seed)
    u = rng.standard_normal((41, 41))
    v = rng.standard_normal((41, 41))
    lhs = dom.laplacian(a * u + b * v)
    rhs = a * dom.laplacian(u) + b * dom.laplacian(v)
    assert interior_max_norm(lhs - rhs) <= 1e-10


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_stencil_is_negative_semidefinite(seed):
    # <u, Lu> <= 0 for fields pinned to zero on the ring
    dom = GridDomain(2.0, 41)
    rng = np.random.default_rng(seed)
    u = rng.standard_normal((41, 41))
    u[0, :] = u[-1, :] = u[:, 0] = u[:, -1] = 0.0
    lap = dom.laplacian(u)
    assert float(np.sum(u[1:-1, 1:-1] * lap[1:-1, 1:-1])) <= 1e-12


def test_restrict_half_keeps_spacing():
    dom = GridDomain(4.0, 81)
    vals = dom.zz().real
    sub, v = dom.restrict_half(vals)
    assert sub.R == 2.0 and sub.n == 41
    assert sub.h == pytest.approx(dom.h, abs=0)
    assert np.array_equal(v, vals[20:61, 20:61])


def test_restrict_half_needs_aligned_grid():
    dom = GridDomain(4.0, 79)  # (n-1) % 4 != 0
    with pytest.raises(ValueError):
        dom.restrict_half(np.zeros((79, 79)))


def test_inner_mask_is_centered_half_square():
    dom = GridDomain(4.0, 81)
    m = dom.inner_mask()
    ax = dom.axis
    xs = np.broadcast_to(ax[:, None], m.shape)
    assert np.all(np.abs(xs[m]) <= 2.0 + 1e-12)
    assert m[20, 20] and m[60, 60] and not m[19, 40]


def test_interior_max_norm_excludes_ring():
    dom = GridDomain(1.0, 41)
    u = dom.zz().real
    assert interior_max_norm(u) == pytest.approx(1.0 - dom.h, abs=1e-15)


def test_residual_of_constant_solution():
    prob = VortexProblem(EntireFunction(p=(2.0,)), 2, GridDomain(4.0, 81))
    w = np.full((81, 81), np.log(2.0))
    assert prob.residual_norm(w) <= 1e-12


def test_residual_of_exponential_profile():
    prob = VortexProblem(EntireFunction(p=(1.0,), q=(0.0, 1.0)), 3, GridDomain(6.0, 201))
    assert prob.residual_norm(prob.profile()) <= 1e-11


def test_solved_field_residual():
    prob = VortexProblem(EntireFunction(p=(0.0, 1.0)), 2, GridDomain(8.0, 201))
    profile = solve.make_boundary_subsolution(prob)
    w, _ = solve.solve_newton(prob, profile, profile)
    assert prob.residual_norm(w) <= 1e-8


def test_rhs_prime_is_positive():
    prob = VortexProblem(EntireFunction(p=(0.0, 1.0)), 3, GridDomain(4.0, 41))
    rng = np.random.default_rng(7)
    w = rng.standard_normal((41, 41))
    assert np.all(prob.rhs_prime(w) > 0.0)


def test_field_csv_round_trip(tmp_path):
    dom = GridDomain(1.5, 21)
    rng = np.random.default_rng(3)
    vals = rng.standard_normal((21, 21))
    path = tmp_path / "field.csv"
    write_field_csv(path, dom, vals)
    with open(path) as fh:
        assert fh.readline().strip() == "x,y,value"
    table = np.loadtxt(path, delimiter=",", skiprows=1)
    # rows in C order: x constant along a grid row, y running along it
    assert np.array_equal(table[:, 0], np.repeat(dom.axis, dom.n))
    assert np.array_equal(table[:, 1], np.tile(dom.axis, dom.n))
    assert np.array_equal(table[:, 2].reshape(21, 21), vals)  # %.17g round-trips doubles exactly
