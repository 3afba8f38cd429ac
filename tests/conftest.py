"""Shared fixtures.

The expensive solves (continuation ladders, developed surfaces) are computed
once per session and reused by both the unit tests and the acceptance suite.
"""

import os
from types import SimpleNamespace

import numpy as np
import pytest

from vortexlab.entire import EntireFunction
from vortexlab.grid import GridDomain, VortexProblem
from vortexlab.invariants import check_converged
from vortexlab import solve
from vortexlab import surfaces

EXP_Z = EntireFunction(p=(1.0,), q=(0.0, 1.0))


def ring_values(a: np.ndarray) -> np.ndarray:
    """The entries of a grid field on its boundary ring, edge by edge (the
    corners twice)."""
    return np.concatenate((a[0], a[-1], a[:, 0], a[:, -1]))


def blaschke_curvature(sol: surfaces.NormalizedSolution) -> np.ndarray:
    """Curvature of the Blaschke metric of a WANG_K3 solution,
    k_h = -1 + 2|U|^2 e^{-3w}, once the field passes `check_converged`: it
    differs from the stencil curvature -(1/2) e^{-w} laplacian(w) by half
    e^{-w} times the residual of Wang's equation."""
    check_converged(sol.residual_norm)
    la = 2.0 * sol.differential.log_abs(sol.domain.zz())
    return -1.0 + 2.0 * np.exp(la - 3.0 * sol.w)


def gauss_jacobian(sol: surfaces.NormalizedSolution) -> np.ndarray:
    """Gauss-map Jacobian of a HARMONIC_K2 solution, J = e^{2w} - |q|^2 e^{-2w}
    (positive iff the map is an orientation-preserving local diffeomorphism),
    once the field passes `check_converged`."""
    check_converged(sol.residual_norm)
    la = 2.0 * sol.differential.log_abs(sol.domain.zz())
    return np.exp(2.0 * sol.w) - np.exp(la - 2.0 * sol.w)


_acceptance_log = []


@pytest.fixture(scope="session")
def criterion_log():
    """Recorder for the acceptance suite; printed in the terminal summary."""

    def record(num: int, label: str, ok: bool, detail: str = ""):
        _acceptance_log.append((num, label, bool(ok), detail))

    return record


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _acceptance_log:
        return
    terminalreporter.section("acceptance criteria")
    for num, label, ok, detail in sorted(_acceptance_log):
        line = "criterion %2d  %-36s %s" % (num, label, "PASS" if ok else "FAIL")
        if detail:
            line += "  [%s]" % detail
        terminalreporter.write_line(line)


@pytest.fixture
def use_parts(monkeypatch):
    """Set how many processes the row loops split into, whatever the CPUs of
    this machine: the CPU set that ``grid.workers`` reads, as ``taskset``
    would."""
    return lambda count: monkeypatch.setattr(os, "sched_getaffinity",
                                             lambda pid: set(range(count)))


@pytest.fixture(scope="session")
def ez_pair():
    """Both branches of the dichotomy for phi = e^z, k = 3, R = 6, n = 201:
    branches is what ``two_solutions`` returns, branch name: (w, report)."""
    prob = VortexProblem(EXP_Z, 3, GridDomain(6.0, 201))
    return SimpleNamespace(prob=prob, branches=solve.two_solutions(prob))


def _wang_state(diff: EntireFunction, dom: GridDomain) -> SimpleNamespace:
    prob = surfaces.geometric_problem(diff, surfaces.SurfaceMode.WANG_K3, dom)
    # the clipped profile inside, the profile capped below at 0 on the ring
    w0 = solve._set_ring(solve.make_boundary_subsolution(prob), np.maximum(prob.profile(), 0.0))
    w, rep = solve.solve_newton(prob, w0)
    sol = surfaces.normalize(w, prob, surfaces.SurfaceMode.WANG_K3)
    surf = surfaces.develop_affine_sphere(sol)
    rec_err = float(np.max(np.abs(surf.metric - sol.w)[1:-1, 1:-1]))
    return SimpleNamespace(
        prob=prob,
        report=rep,
        w=w,
        sol=sol,
        surface=surf,
        defect=surf.holonomy_defect,
        rec_err=rec_err,
    )


@pytest.fixture(scope="session")
def wang_z_family():
    """U = z developed on R = 4 with the plain profile-capped boundary.

    Keyed by n; used for the holonomy-order and metric-round-trip studies.
    """
    diff = EntireFunction(p=(0.0, 1.0))
    return {n: _wang_state(diff, GridDomain(4.0, n)) for n in (81, 161, 321)}


def _restrict(prob: VortexProblem, w: np.ndarray, times: int):
    """w restricted to the centered half-square `times` times, and the
    problem on that grid: what `vortexlab run` develops."""
    dom = prob.domain
    for _ in range(times):
        dom = dom.half()
    s = prob.domain.window(dom.R)
    return np.array(w[s, s]), VortexProblem(prob.phi, prob.k, dom)


@pytest.fixture(scope="session")
def z3_family():
    """U = z^3 complete solutions on R = 6, restricted twice before developing."""
    diff = EntireFunction(p=(0.0, 0.0, 0.0, 1.0))
    out = {}
    for n in (161, 321):
        dom = GridDomain(6.0, n)
        prob = surfaces.geometric_problem(diff, surfaces.SurfaceMode.WANG_K3, dom)
        w, rep = solve.solve_complete(prob)
        inner = surfaces.normalize(*_restrict(prob, w, 2), surfaces.SurfaceMode.WANG_K3)
        surf = surfaces.develop_affine_sphere(inner)
        out[n] = SimpleNamespace(
            report=rep,
            sol=inner,
            defect=surf.holonomy_defect,
        )
    return out


@pytest.fixture(scope="session")
def qz_state():
    """q = z Hopf differential: complete solution plus CMC development."""
    diff = EntireFunction(p=(0.0, 1.0))
    dom = GridDomain(6.0, 241)
    prob = surfaces.geometric_problem(diff, surfaces.SurfaceMode.HARMONIC_K2, dom)
    w, rep = solve.solve_complete(prob)
    sol = surfaces.normalize(w, prob, surfaces.SurfaceMode.HARMONIC_K2)
    jac = gauss_jacobian(sol)
    inner = surfaces.normalize(*_restrict(prob, w, 3), surfaces.SurfaceMode.HARMONIC_K2)
    surf = surfaces.develop_cmc(inner)
    return SimpleNamespace(
        prob=prob,
        report=rep,
        w=w,
        sol=sol,
        jac=jac,
        sol_inner=inner,
        surface=surf,
        normals=surf.normals,
    )


@pytest.fixture(scope="session")
def nested_z_solves():
    """phi = z, k = 3 solved on nested domains for truncation insensitivity."""
    diff = EntireFunction(p=(0.0, 1.0))
    p8 = VortexProblem(diff, 3, GridDomain(8.0, 161))
    p12 = VortexProblem(diff, 3, GridDomain(12.0, 241))
    w8, _ = solve.solve_complete(p8)
    w12, _ = solve.solve_complete(p12)
    profile = solve.make_boundary_subsolution(p12)
    w12_prof, _ = solve.solve_newton(p12, profile)
    return SimpleNamespace(p8=p8, p12=p12, w8=w8, w12=w12, w12_prof=w12_prof)


def shared_nodes(dom_a: GridDomain, dom_b: GridDomain, half: float):
    """Index pairs of nodes with |x|,|y| <= half common to both grids."""
    xa = dom_a.axis
    ia = np.where(np.abs(xa) <= half + 1e-9)[0]
    ib = np.round((xa[ia] - dom_b.axis[0]) / dom_b.h).astype(int)
    assert np.allclose(dom_b.axis[ib], xa[ia], atol=1e-9)
    return ia, ib
