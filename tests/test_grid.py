"""Grid domain, five-point stencil, problem residuals, field CSV files."""

import os
import re
import subprocess
import sys
from pathlib import Path

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
from vortexlab import grid, solve


def test_grid_validation():
    with pytest.raises(ValueError):
        GridDomain(2.0, 40)  # even n
    with pytest.raises(ValueError):
        GridDomain(2.0, 3)  # too small
    with pytest.raises(ValueError):
        GridDomain(-1.0, 41)
    # a bool is not a number, and R must be finite
    for R in (np.inf, np.nan, True):
        with pytest.raises(ValueError, match="R must be a positive number"):
            GridDomain(R, 41)
    with pytest.raises(ValueError, match="n must be an odd integer >= 5"):
        GridDomain(2.0, True)
    # the 5-point stencil divides by h^2: it and 1/h^2 must be finite doubles
    for R, h in ((1e160, "1e+159"), (1e-300, "1e-301")):
        message = "R = %g with n = 21 gives h = %s, whose h^2 or 1/h^2 is not a finite double"
        with pytest.raises(ValueError, match=re.escape(message % (R, h))):
            GridDomain(R, 21)
    assert GridDomain(1e155, 21).h == 1e154
    dom = GridDomain(np.float32(2.5), np.int64(41))
    assert type(dom.R) is float and dom.R == 2.5 and dom.n == 41
    assert type(GridDomain(2, 41).R) is float


def test_spacing_and_axis():
    dom = GridDomain(2.0, 41)
    assert dom.h == pytest.approx(0.1, abs=0)
    assert dom.axis[0] == -2.0 and dom.axis[-1] == 2.0
    assert dom.axis[20] == 0.0


def test_laplacian_kills_affine_functions():
    dom = GridDomain(2.0, 81)
    zz = dom.zz()
    u = 2.0 + 3.0 * zz.real - zz.imag
    assert np.max(np.abs(dom.laplacian_rows(u, 1, dom.n - 1))) <= 1e-11


def test_laplacian_of_x_squared_is_two():
    dom = GridDomain(2.0, 81)
    u = dom.zz().real ** 2
    assert np.max(np.abs(dom.laplacian_rows(u, 1, dom.n - 1) - 2.0)) <= 1e-11


def test_laplacian_sine_truncation():
    dom = GridDomain(1.0, 41)
    s = np.sin(dom.zz().real)
    err = np.max(np.abs(dom.laplacian_rows(s, 1, dom.n - 1) + s[1:-1, 1:-1]))
    assert err <= 2.1e-4


def test_laplacian_second_order_refinement():
    errs = []
    for n in (51, 101, 201):
        dom = GridDomain(1.0, n)
        s = np.sin(dom.zz().real)
        errs.append(np.max(np.abs(dom.laplacian_rows(s, 1, n - 1) + s[1:-1, 1:-1])))
    orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
    assert np.all(orders >= 1.8) and np.all(orders <= 2.2)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), n=st.sampled_from([5, 7, 13, 41, 131]),
       R=st.floats(1e-3, 1e3), data=st.data())
def test_row_block_stencil_is_the_laplacian(seed, n, R, data):
    # the one 5-point stencil: any block of rows r0 <= i < r1 gives those
    # rows of the whole-interior call, bit for bit
    dom = GridDomain(R, n)
    w = np.random.default_rng(seed).standard_normal((n, n))
    r0 = data.draw(st.integers(1, n - 2), label="r0")
    r1 = data.draw(st.integers(r0 + 1, n - 1), label="r1")
    assert np.array_equal(dom.laplacian_rows(w, r0, r1),
                          dom.laplacian_rows(w, 1, n - 1)[r0 - 1:r1 - 1])


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**31 - 1), st.sampled_from([0.5, 1.0, 2.0, -1.5]),
       st.sampled_from([1.0, -0.25, 3.0]))
def test_laplacian_linearity(seed, a, b):
    dom = GridDomain(2.0, 41)
    rng = np.random.default_rng(seed)
    u = rng.standard_normal((41, 41))
    v = rng.standard_normal((41, 41))
    lhs = dom.laplacian_rows(a * u + b * v, 1, 40)
    rhs = a * dom.laplacian_rows(u, 1, 40) + b * dom.laplacian_rows(v, 1, 40)
    assert np.max(np.abs(lhs - rhs)) <= 1e-10


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_stencil_is_negative_semidefinite(seed):
    # <u, Lu> <= 0 for fields pinned to zero on the ring
    dom = GridDomain(2.0, 41)
    rng = np.random.default_rng(seed)
    u = rng.standard_normal((41, 41))
    u[0, :] = u[-1, :] = u[:, 0] = u[:, -1] = 0.0
    lap = dom.laplacian_rows(u, 1, 40)
    assert float(np.sum(u[1:-1, 1:-1] * lap)) <= 1e-12


@settings(max_examples=60, deadline=None)
@given(q=st.integers(1, 100), odd=st.booleans(), R=st.floats(1e-3, 1e3))
def test_window_is_the_centered_square(q, odd, R):
    # n = 4q + 1 can be halved (from 9 nodes on), n = 4q + 3 cannot
    n = 4 * q + 1 + 2 * odd
    dom = GridDomain(R, n)
    ax = dom.axis
    keep = np.flatnonzero(np.abs(ax) <= 0.5 * R + 1e-12 * R)
    assert np.array_equal(np.arange(n)[dom.inner], keep)
    assert (n - 1) // 2 in keep and 0 not in keep and n - 1 not in keep
    if not odd and n >= 9:
        sub = dom.half()
        assert sub.h == pytest.approx(dom.h, abs=0)
        s = dom.window(sub.R)
        assert s == dom.inner == slice(q, 3 * q + 1)
        assert len(ax[s]) == sub.n
        assert np.allclose(ax[s], sub.axis, rtol=0, atol=1e-12 * R)


def test_restrict_half_keeps_spacing():
    dom = GridDomain(4.0, 81)
    vals = dom.zz().real
    sub = dom.half()
    s = dom.window(sub.R)
    assert sub == GridDomain(2.0, 41)
    assert sub.h == pytest.approx(dom.h, abs=0)
    assert np.array_equal(vals[s, s], vals[20:61, 20:61])


def test_inner_mask_is_centered_half_square():
    dom = GridDomain(4.0, 81)
    s = dom.inner
    ax = dom.axis
    assert np.all(np.abs(ax[s]) <= 2.0 + 1e-12)
    assert s == slice(20, 61)
    assert abs(ax[19]) > 2.0 and abs(ax[61]) > 2.0


def test_half_needs_aligned_grid():
    # the half of 9 nodes has 5; a half of 3 nodes is no grid
    assert GridDomain(4.0, 81).half() == GridDomain(2.0, 41)
    assert GridDomain(4.0, 9).half() == GridDomain(2.0, 5)
    for n in (79, 5):  # (n-1) % 4 != 0, and too few nodes
        with pytest.raises(ValueError, match="cannot be halved"):
            GridDomain(4.0, n).half()


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
    w, _ = solve.solve_newton(prob, profile)
    assert prob.residual_norm(w) <= 1e-8


def test_coefficient_built_in_row_blocks_has_the_full_grid_bits():
    # phi = z^2 - 1 at h = 0.05 vanishes at two nodes, and n = 101 ends in a
    # partial block of rows
    phi = EntireFunction(p=(-1.0, 0.0, 1.0))
    dom = GridDomain(2.5, 101)
    assert dom.n % grid._ROWS != 0
    full = 2.0 * phi.log_abs(dom.zz())
    assert np.sum(np.isneginf(full)) == 2
    assert VortexProblem(phi, 2, dom).a2.tobytes() == full.tobytes()


def test_residual_is_the_stencil_minus_the_right_hand_side_inside_and_zero_on_the_ring():
    # phi = z^2 - 1 at h = 0.05: a2 = -inf at two interior nodes, where
    # e^{a2 - (k-1) v} is an exact 0
    phi = EntireFunction(p=(-1.0, 0.0, 1.0))
    dom, k = GridDomain(2.5, 101), 3
    w = np.random.default_rng(0).standard_normal((dom.n, dom.n))
    r = VortexProblem(phi, k, dom).residual(w)
    v, a2 = w[1:-1, 1:-1], 2.0 * phi.log_abs(dom.zz())[1:-1, 1:-1]
    want = dom.laplacian_rows(w, 1, dom.n - 1) - (np.exp(v) - np.exp(a2 - (k - 1) * v))
    assert np.sum(np.isneginf(a2)) == 2
    assert r[1:-1, 1:-1].tobytes() == want.tobytes()
    ring = np.ones((dom.n, dom.n), bool)
    ring[1:-1, 1:-1] = False
    assert r[ring].tobytes() == np.zeros(np.sum(ring)).tobytes()


def test_building_a_large_problem_keeps_the_peak_low():
    # U = e^z in Wang's normalization at n = 1281, whose a2 takes 13 MB.
    # Forming z and the temporaries of log|phi| over the whole grid at once
    # raised the peak (VmHWM) by about 150 MB; in row blocks it rises by
    # about 19 MB
    code = """if True:
        from vortexlab.cli import _peak_rss_mb
        from vortexlab.entire import EntireFunction
        from vortexlab.grid import GridDomain, VortexProblem
        before = _peak_rss_mb()
        VortexProblem(EntireFunction(p=(4.0,), q=(0.0, 1.0)), 3, GridDomain(2.0, 1281))
        print(_peak_rss_mb() - before)
    """
    src = str(Path(grid.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH", "")) if p))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert float(proc.stdout) < 60.0


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
