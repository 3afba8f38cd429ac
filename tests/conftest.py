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
from vortexlab import solve
from vortexlab import surfaces

EXP_Z = EntireFunction(p=(1.0,), q=(0.0, 1.0))

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
    """Both branches of the dichotomy for phi = e^z, k = 3, R = 6, n = 201."""
    prob = VortexProblem(EXP_Z, 3, GridDomain(6.0, 201))
    pair = solve.two_solutions(prob)
    return SimpleNamespace(prob=prob, pair=pair)


def _wang_state(diff: EntireFunction, dom: GridDomain) -> SimpleNamespace:
    prob = surfaces.geometric_problem(diff, surfaces.SurfaceMode.WANG_K3, dom)
    w0 = solve.make_boundary_subsolution(prob)
    w, rep = solve.solve_newton(prob, w0, solve.make_boundary_complete(prob, 0.0))
    sol = surfaces.normalize(w, prob, surfaces.SurfaceMode.WANG_K3)
    surf = surfaces.develop_affine_sphere(sol)
    rec_err = float(np.max(np.abs(surf.metric - sol.w)[1:-1, 1:-1]))
    return SimpleNamespace(
        prob=prob,
        report=rep,
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


@pytest.fixture(scope="session")
def z3_family():
    """U = z^3 complete solutions on R = 6, restricted twice before developing."""
    diff = EntireFunction(p=(0.0, 0.0, 0.0, 1.0))
    out = {}
    for n in (161, 321):
        dom = GridDomain(6.0, n)
        prob = surfaces.geometric_problem(diff, surfaces.SurfaceMode.WANG_K3, dom)
        w, rep = solve.solve_complete(prob)
        sol = surfaces.normalize(w, prob, surfaces.SurfaceMode.WANG_K3)
        inner = sol.restrict_half().restrict_half()
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
    jac = surfaces.jacobian_field(sol)
    inner = sol.restrict_half().restrict_half().restrict_half()
    surf, normals = surfaces.develop_cmc(inner)
    return SimpleNamespace(
        prob=prob,
        report=rep,
        sol=sol,
        jac=jac,
        sol_inner=inner,
        surface=surf,
        normals=normals,
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
    w12_prof, _ = solve.solve_newton(p12, profile, profile)
    return SimpleNamespace(p8=p8, p12=p12, w8=w8, w12=w12, w12_prof=w12_prof)


def shared_nodes(dom_a: GridDomain, dom_b: GridDomain, half: float):
    """Index pairs of nodes with |x|,|y| <= half common to both grids."""
    xa = dom_a.axis
    ia = np.where(np.abs(xa) <= half + 1e-9)[0]
    ib = np.round((xa[ia] - dom_b.axis[0]) / dom_b.h).astype(int)
    assert np.allclose(dom_b.axis[ib], xa[ia], atol=1e-9)
    return ia, ib
