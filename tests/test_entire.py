"""Entire functions P(z) e^{Q(z)}: evaluation, log-modulus, roots, the profile."""

import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from vortexlab.entire import EntireFunction
from vortexlab.grid import GridDomain, VortexProblem

finite_complex = st.complex_numbers(
    max_magnitude=3.0, allow_nan=False, allow_infinity=False
)
points = st.complex_numbers(max_magnitude=2.0, allow_nan=False, allow_infinity=False)


@given(st.lists(finite_complex, min_size=1, max_size=6), points)
def test_eval_matches_direct_power_sum(coeffs, z):
    assume(any(c != 0 for c in coeffs))
    f = EntireFunction(p=tuple(coeffs))
    ref = sum(c * z**i for i, c in enumerate(coeffs))
    assert abs(f.eval(z) - ref) <= 1e-12 * (1.0 + abs(ref))


@given(
    st.lists(finite_complex, min_size=1, max_size=5),
    st.lists(finite_complex, min_size=1, max_size=3),
    points,
)
def test_log_abs_agrees_with_eval(pc, qc, z):
    assume(any(c != 0 for c in pc))
    f = EntireFunction(p=tuple(pc), q=tuple(qc))
    val = f.eval(z)
    if abs(val) < 1e-12:
        return  # log-modulus is -inf-adjacent at near-zeros; nothing to compare
    assert abs(np.exp(f.log_abs(z)) - abs(val)) <= 1e-12 * (1.0 + abs(val))


def test_log_abs_is_minus_inf_at_exact_zero():
    f = EntireFunction(p=(0.0, 1.0))
    assert f.log_abs(0.0 + 0.0j) == -np.inf


def _sorted(vals):
    return np.array(sorted(vals, key=lambda c: (round(c.real, 6), round(c.imag, 6))))


def test_zeros_quadratic():
    f = EntireFunction(p=(-1.0, 0.0, 1.0))  # z^2 - 1
    assert np.allclose(_sorted(f.zeros()), [-1.0, 1.0], atol=1e-10)


def test_zeros_triple_origin():
    f = EntireFunction(p=(0.0, 0.0, 0.0, 1.0))  # z^3
    r = f.zeros()
    assert len(r) == 3
    assert np.max(np.abs(r)) <= 1e-3  # a triple root may split by eps^(1/3) = 6e-6


def test_zeros_complex_pair():
    f = EntireFunction(p=(5.0, -2.0, 1.0))  # z^2 - 2z + 5 = (z-1)^2 + 4
    assert np.allclose(_sorted(f.zeros()), [1.0 - 2.0j, 1.0 + 2.0j], atol=1e-8)


def test_zeros_respect_residual_bound():
    f = EntireFunction(p=(5.0, -2.0, 1.0))
    for r in f.zeros():
        assert abs(np.polyval([1.0, -2.0, 5.0], r)) <= 1e-8 * (1 + abs(r)) ** 2


_lattice = [complex(a, b) for a in range(-2, 3) for b in range(-2, 3)]


@settings(max_examples=60)
@given(
    st.sets(st.sampled_from(_lattice), min_size=1, max_size=6),
    st.sampled_from([1.0 + 0j, 2.0 + 0j, -0.5 + 1.0j]),
)
# the residual target alone admits this case with the root 1 - 2i 1.06e-8 off
@example(roots={0j, -1j, -2j, 1 - 2j, 2 - 2j}, scale=1.0 + 0j)
def test_root_round_trip(roots, scale):
    # integer-lattice roots are separated by >= 1, the benign regime
    ordered = sorted(roots, key=lambda c: (c.real, c.imag))
    f = EntireFunction(tuple(scale * np.polynomial.polynomial.polyfromroots(ordered)))
    got = _sorted(f.zeros())
    want = _sorted(roots)
    assert np.max(np.abs(got - want)) <= 1e-8


def test_zeros_unresolved_is_a_precondition_error():
    # Wilkinson's prod_{j=1..20} (z - j): its roots miss the residual target
    # (|P| = 1024 at the exact root 1, against a bound of 1.0e-4), which is
    # a precondition of phi, not a solver failure; no step overflows
    f = EntireFunction(tuple(np.polynomial.polynomial.polyfromroots(range(1, 21))), q=(0.0, 1.0))
    with np.errstate(all="raise"), pytest.raises(ValueError, match="residual target"):
        f.zeros()


def test_zeros_past_the_square_root_of_the_largest_double():
    # z (z + 1e300): the residual bound (1 + |z|)^2 of the root -1e300 is
    # past the largest double, and rounds to +inf without a warning
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        zs = EntireFunction(p=(0.0, 1e300, 1.0)).zeros()
    assert set(zs.tolist()) == {0j, -1e300 + 0j}


def test_zeros_of_constant_is_empty():
    assert len(EntireFunction(p=(3.0,)).zeros()) == 0


def test_trailing_zero_exponent_coefficients_are_trimmed():
    f = EntireFunction(p=(0.0, 1.0), q=(0.3, 0.0, 0.0))
    assert f.q == (0.3 + 0j,)


def test_degree():
    assert EntireFunction(p=(1.0, 0.0, 2.0)).degree == 2
    assert EntireFunction(p=(4.0,)).degree == 0


# the subsolution profile (2/k) log|phi|, read off VortexProblem.a2 at the
# nodes of a 9-node grid on [-4, 4]^2, whose nodes sit at the integers


def test_profile_of_exponential_is_linear():
    dom = GridDomain(4.0, 9)
    prof = VortexProblem(EntireFunction(p=(1.0,), q=(0.0, 1.0)), 3, dom).profile()
    assert np.max(np.abs(prof - (2.0 / 3.0) * dom.zz().real)) <= 1e-13


def test_profile_of_constant():
    for k in (2, 3, 4):
        prof = VortexProblem(EntireFunction(p=(5.0,)), k, GridDomain(4.0, 9)).profile()
        assert np.max(np.abs(prof - (2.0 / k) * np.log(5.0))) <= 1e-13


def test_profile_point_value():
    # e^{kw} = |phi|^2 forces w = (2/k) log|phi|; at phi = z, k = 2, z = 4
    # (node [8, 4]) that is log 4 (not log 2, which would correspond to k = 4)
    f = EntireFunction(p=(0.0, 1.0))
    dom = GridDomain(4.0, 9)
    assert dom.zz()[8, 4] == 4.0
    assert abs(VortexProblem(f, 2, dom).profile()[8, 4] - np.log(4.0)) <= 1e-13
    assert abs(VortexProblem(f, 4, dom).profile()[8, 4] - np.log(2.0)) <= 1e-13


def test_profile_minus_inf_at_zero():
    prof = VortexProblem(EntireFunction(p=(0.0, 1.0)), 2, GridDomain(4.0, 9)).profile()
    assert prof[4, 4] == -np.inf
    assert np.all(np.isfinite(np.delete(prof.ravel(), 4 * 9 + 4)))


def test_profile_is_two_over_k_log_abs_bit_for_bit():
    # a2 is 2 log|phi| exactly, so halving it loses nothing: the artifacts
    # built on the profile do not depend on which of the two it is taken from
    dom = GridDomain(3.0, 41)
    for p, q in [((1.0,), (0.0, 1.0)), ((0.0, 1.0), (0j,)), ((-1.0, 0.0, 0.0, 1.0), (0.3, -0.7j))]:
        f = EntireFunction(p=p, q=q)
        for k in (2, 3, 5, 7):
            ref = (2.0 / k) * f.log_abs(dom.zz())
            assert np.array_equal(VortexProblem(f, k, dom).profile(), ref), (p, q, k)
