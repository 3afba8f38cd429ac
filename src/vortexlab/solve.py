"""Solvers for the discretized vortex equation.

Two routes to a solution, used in complementary roles:

* a damped Newton iteration (authoritative): fast, quadratic near the
  solution, inner linear systems solved by a sparse LU that later steps
  reuse as a CG preconditioner;
* a monotone fixed-point iteration (certifying): started from the
  supersolution end of an ordered band [w_minus, w_plus] it descends
  one-sidedly, so it cross-checks the Newton answer on cases where a band
  is available.

The discrete Jacobian L - diag(F') is negative definite because F' > 0
everywhere, so the discrete Dirichlet problem has exactly one solution and
both routes must agree.

Complete solutions are reached by continuation in the boundary height: solve
with ring data max(profile, 0) + M for a ladder of M values and stop when the
inner half-square stops moving.  The profile here is (2/k) log|phi|, the
barrier that every solution of the complete problem dominates.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from .grid import GridDomain, VortexProblem, interior_max_norm

TOL_NEWTON = 1e-10
TOL_MONOTONE = 1e-9
TOL_CONT = 1e-6
MAX_NEWTON = 100
MAX_OUTER = 10000
PROFILE_CLIP = -40.0
DEFAULT_M_VALUES = tuple(range(4, 25, 2))


class ConvergenceError(RuntimeError):
    pass


class BoundaryKind(str, enum.Enum):
    COMPLETE_APPROX = "COMPLETE_APPROX"
    SUBSOLUTION_PROFILE = "SUBSOLUTION_PROFILE"
    EXPLICIT = "EXPLICIT"


@dataclass(frozen=True)
class BoundaryData:
    """Dirichlet ring data by formula (kind + M); explicit rings are plain arrays."""

    kind: BoundaryKind
    M: float | None = None


def make_boundary_subsolution(problem: VortexProblem) -> BoundaryData:
    """Ring data (2/k) log|phi|: the incomplete branch of the dichotomy.

    Refused when a zero of phi sits within 2h of the ring, where the profile
    is -inf or uselessly deep.
    """
    dom = problem.domain
    zs = problem.phi.zeros()
    if zs.size:
        dist = dom.R - np.max(np.maximum(np.abs(zs.real), np.abs(zs.imag)))
        if dist < 2.0 * dom.h:
            raise ValueError("phi has a zero within 2h of the boundary ring")
    return BoundaryData(BoundaryKind.SUBSOLUTION_PROFILE)


def make_boundary_complete(problem: VortexProblem, M: float) -> BoundaryData:
    """Ring data max(profile, 0) + M, emulating the blow-up supersolutions."""
    if M < 0:
        raise ValueError("M must be nonnegative")
    return BoundaryData(BoundaryKind.COMPLETE_APPROX, M=float(M))


def profile_field(problem: VortexProblem, clip: float | None = None) -> np.ndarray:
    """(2/k) log|phi| on the grid, optionally clipped from below."""
    p = problem.profile()
    if clip is not None:
        p = np.maximum(p, clip)
    return p


def materialize_boundary(problem: VortexProblem, bd: BoundaryData) -> np.ndarray:
    """Boundary data as a full grid array (only the ring is consumed)."""
    if bd.kind is BoundaryKind.COMPLETE_APPROX:
        return np.maximum(problem.profile(), 0.0) + bd.M
    vals = profile_field(problem, clip=PROFILE_CLIP)
    ring = problem.domain.ring_mask()
    if not np.all(np.isfinite(vals[ring])):
        raise ValueError("profile boundary is not finite on the ring")
    return vals


def _as_boundary_array(problem: VortexProblem, boundary) -> tuple[np.ndarray, str]:
    if isinstance(boundary, BoundaryData):
        return materialize_boundary(problem, boundary), boundary.kind.value
    return np.asarray(boundary, dtype=float), BoundaryKind.EXPLICIT.value


@lru_cache(maxsize=8)
def interior_operator(domain: GridDomain) -> sp.csc_matrix:
    """5-point Laplacian on interior nodes, x-major ordering."""
    m = domain.n - 2
    ones = np.ones(m)
    T = sp.diags([ones[:-1], -2.0 * ones, ones[:-1]], [-1, 0, 1], format="csr")
    eye = sp.identity(m, format="csr")
    L = (sp.kron(T, eye) + sp.kron(eye, T)) / domain.h**2
    return L.tocsc()


def _ring_term(domain: GridDomain, boundary: np.ndarray) -> np.ndarray:
    """Coupling of the interior equations to the Dirichlet ring, flattened."""
    b = np.zeros((domain.n, domain.n))
    b[0, :] = boundary[0, :]
    b[-1, :] = boundary[-1, :]
    b[:, 0] = boundary[:, 0]
    b[:, -1] = boundary[:, -1]
    return domain.laplacian(b)[1:-1, 1:-1].ravel()


def _set_ring(w: np.ndarray, boundary: np.ndarray) -> np.ndarray:
    w[0, :] = boundary[0, :]
    w[-1, :] = boundary[-1, :]
    w[:, 0] = boundary[:, 0]
    w[:, -1] = boundary[:, -1]
    return w


# ---------------------------------------------------------------------------
# linear algebra helpers


def _dot(a: np.ndarray, b: np.ndarray) -> float:
    # np.sum keeps the reduction order fixed regardless of BLAS threading,
    # which keeps whole runs bit-reproducible.
    return float(np.sum(a * b))


class _FactorCache:
    """Holds the last LU factor so successive Newton steps can share it.

    The Jacobian diagonal drifts slowly along a Newton path (and along the
    continuation ladder), so a stale factor still preconditions CG well;
    refactoring only when that CG stalls saves most of the factor time.
    """

    __slots__ = ("apply",)

    def __init__(self):
        self.apply = None


# a stale factor gets this many CG iterations before a refactor
STALE_CG_CAP = 60


def _lu(A: sp.spmatrix):
    """Exact sparse LU of diag(D) - L: the one place that matrix is factored."""
    try:
        return splu(A.tocsc(), permc_spec="MMD_AT_PLUS_A")
    except (RuntimeError, MemoryError) as exc:  # SuperLU could not allocate
        raise ConvergenceError("sparse LU factorization failed: %s" % exc) from exc


def _solve(A: sp.csc_matrix, b: np.ndarray, cache: _FactorCache, tol: float = 1e-10):
    """Solve A x = b for the SPD A = diag(F') - L.

    A factor cached by an earlier step preconditions CG for at most
    STALE_CG_CAP iterations; if that does not reach tol * |b|, A is factored
    afresh, the factor cached and x taken from the direct solve.
    Returns (x, CG iterations spent).
    """
    atol = tol * np.sqrt(_dot(b, b))
    it = 0
    if cache.apply is not None and atol > 0.0:
        x, it, ok = _cg_loop(A, b, cache.apply, atol, STALE_CG_CAP)
        if ok:
            return x, it
    cache.apply = _lu(A).solve
    return cache.apply(b), it


def _cg_loop(A, b, apply_prec, atol: float, max_iter: int):
    x = np.zeros_like(b)
    r = b.copy()
    z = apply_prec(r)
    p = z.copy()
    rz = _dot(r, z)
    for it in range(1, max_iter + 1):
        Ap = A @ p
        alpha = rz / _dot(p, Ap)
        x += alpha * p
        r -= alpha * Ap
        if np.sqrt(_dot(r, r)) <= atol:
            return x, it, True
        z = apply_prec(r)
        rz_new = _dot(r, z)
        p = z + (rz_new / rz) * p
        rz = rz_new
    return x, max_iter, False


# ---------------------------------------------------------------------------
# Newton


@dataclass
class NewtonReport:
    iterations: int
    residual: float
    cg_iterations: int
    backtracks: int
    boundary_kind: str = BoundaryKind.EXPLICIT.value
    residual_history: list = field(default_factory=list)

    @property
    def converged(self) -> bool:
        return True  # solve_newton raises instead of returning unconverged


def solve_newton(
    problem: VortexProblem,
    w0: np.ndarray,
    boundary,
    tol: float = TOL_NEWTON,
    max_iter: int = MAX_NEWTON,
    factor_cache: _FactorCache | None = None,
) -> tuple[np.ndarray, NewtonReport]:
    """Damped Newton for L w = F(w) with Dirichlet ring data.

    Steps solve (diag(F') - L) delta = L w - F(w) and are halved (at most 40
    times) until the sup-norm residual actually drops.
    """
    dom = problem.domain
    L = interior_operator(dom)
    bnd, bkind = _as_boundary_array(problem, boundary)
    w = _set_ring(np.array(w0, dtype=float), bnd)
    cache = _FactorCache() if factor_cache is None else factor_cache

    g = problem.residual(w)
    gnorm = interior_max_norm(dom, g)
    history = [gnorm]
    cg_total = 0
    backtracks = 0
    for it in range(1, max_iter + 1):
        if gnorm <= tol:
            return w, NewtonReport(it - 1, gnorm, cg_total, backtracks, bkind, history)
        D = problem.rhs_prime(w)[1:-1, 1:-1].ravel()
        A = sp.diags(D) - L
        delta, cg_it = _solve(A.tocsc(), g[1:-1, 1:-1].ravel(), cache)
        cg_total += cg_it
        step = 1.0
        for _ in range(41):
            trial = w.copy()
            trial[1:-1, 1:-1] += step * delta.reshape(dom.n - 2, dom.n - 2)
            g_trial = problem.residual(trial)
            gn_trial = interior_max_norm(dom, g_trial)
            if gn_trial < gnorm:
                break
            step *= 0.5
            backtracks += 1
        else:
            raise ConvergenceError("Newton line search stalled at residual %.3e" % gnorm)
        w, g, gnorm = trial, g_trial, gn_trial
        history.append(gnorm)
    if gnorm <= tol:
        return w, NewtonReport(max_iter, gnorm, cg_total, backtracks, bkind, history)
    raise ConvergenceError("Newton did not reach tolerance: residual %.3e" % gnorm)


# ---------------------------------------------------------------------------
# monotone certification


@dataclass
class MonotoneReport:
    iterations: int
    residual: float
    band_violations: int
    nonmonotone_steps: int
    boundary_kind: str = BoundaryKind.EXPLICIT.value
    residual_history: list = field(default_factory=list)

    @property
    def converged(self) -> bool:
        return True


def monotone_solve(
    problem: VortexProblem,
    w_minus: np.ndarray,
    w_plus: np.ndarray,
    boundary=None,
    tol: float = TOL_MONOTONE,
    max_outer: int = MAX_OUTER,
) -> tuple[np.ndarray, MonotoneReport]:
    """Downward monotone iteration from the supersolution end of a band.

    Each sweep solves (Lambda - L) w_new = Lambda w - F(w) + ring data, with
    a node-wise Lambda >= dF/dw over [w_minus_i, w_plus_i]; F' is convex in
    w, so its band max sits at an endpoint.  Lambda - L is an M-matrix, so
    sweeps preserve order and walk down toward the solution.  Band exits and
    upward steps are counted, not fatal: near zeros of phi the usual clipped
    bands do not actually contain the solution, and the iteration still
    converges to the unique fixed point.  If the contraction stalls (the
    iterate left the band badly enough that Lambda underestimates F'),
    Lambda is rebuilt around the current iterate and the sweeps continue.

    When no explicit boundary is given, the ring values of w_plus are used.
    """
    dom = problem.domain
    if np.any(w_minus > w_plus + 1e-10):
        raise ValueError("band is not ordered: w_minus exceeds w_plus")
    if boundary is None:
        bnd, bkind = np.array(w_plus, dtype=float), BoundaryKind.EXPLICIT.value
    else:
        bnd, bkind = _as_boundary_array(problem, boundary)
    L = interior_operator(dom)
    ring = _ring_term(dom, bnd)

    def factor(*fields):
        lam_full = 1.1 * np.maximum.reduce([problem.rhs_prime(v) for v in fields])
        lam = lam_full[1:-1, 1:-1].ravel()
        return lam, _lu(sp.diags(lam) - L)

    lam, lu = factor(w_minus, w_plus)

    w = _set_ring(np.array(w_plus, dtype=float), bnd)
    nonmono = 0
    res = problem.residual_norm(w)
    history = [res]
    it = 0
    stall = 0
    for it in range(1, max_outer + 1):
        if res <= tol:
            it -= 1
            break
        wi = w[1:-1, 1:-1].ravel()
        rhs = lam * wi - problem.rhs(w)[1:-1, 1:-1].ravel() + ring
        wi_new = lu.solve(rhs)
        if np.max(wi_new - wi) > 1e-10:
            nonmono += 1
        w = _set_ring(np.zeros_like(w), bnd)
        w[1:-1, 1:-1] = wi_new.reshape(dom.n - 2, dom.n - 2)
        res_new = problem.residual_norm(w)
        stall = stall + 1 if res_new >= res else 0
        res = res_new
        history.append(res)
        if stall >= 25:
            # iterate escaped the band; widen Lambda around where it actually is
            lam, lu = factor(w_minus, w_plus, w)
            stall = 0
    else:
        raise ConvergenceError("monotone iteration stalled at residual %.3e" % res)

    viol = int(np.sum((w < w_minus - 1e-10) | (w > w_plus + 1e-10)))
    if len(history) > 200:
        history = history[:100] + history[-100:]
    return w, MonotoneReport(it, res, viol, nonmono, bkind, history)


# ---------------------------------------------------------------------------
# continuation to the complete solution


@dataclass
class ContinuationReport:
    m_values: tuple
    trace: list
    stabilized: bool
    final_m: float
    newton: NewtonReport
    warning: str | None = None

    @property
    def converged(self) -> bool:
        return True


def solve_complete(
    problem: VortexProblem,
    m_values: tuple = DEFAULT_M_VALUES,
    tol_cont: float = TOL_CONT,
    tol: float = TOL_NEWTON,
) -> tuple[np.ndarray, ContinuationReport]:
    """Approximate the complete (maximal) solution by raising the ring.

    The true complete solution lives on the whole plane; on a fixed square we
    emulate its boundary blow-up with ring data max(profile, 0) + M and raise
    M until the inner half-square stops responding.  When the ladder is
    exhausted first, the last field is still the best available proxy for the
    maximal solution (the rungs increase toward it), so it is returned with
    stabilized=False and a warning; on grids where |phi| decays somewhere on
    the ring the layer is subgrid and the inner drift shrinks only like 1/M,
    so a hard stabilization gate there would reject fields that are already
    within discretization error of the maximal solution.
    """
    dom = problem.domain
    inner = dom.inner_mask()
    trace = []
    w_prev = None
    w = None
    rep = None
    cache = _FactorCache()
    for M in m_values:
        bd = make_boundary_complete(problem, M)
        bnd = materialize_boundary(problem, bd)
        init = bnd if w_prev is None else w_prev
        w, rep = solve_newton(problem, init, bd, tol=tol, factor_cache=cache)
        entry = {"M": float(M), "newton_iterations": rep.iterations, "residual": rep.residual}
        if w_prev is not None:
            change = float(np.max(np.abs((w - w_prev)[inner])))
            entry["inner_change"] = change
            trace.append(entry)
            if change <= tol_cont:
                return w, ContinuationReport(tuple(m_values), trace, True, float(M), rep)
        else:
            entry["inner_change"] = None
            trace.append(entry)
        w_prev = w
    warning = None
    if len(m_values) > 1:
        warning = "inner field still moving %.3e after M=%s; domain likely too small" % (
            trace[-1]["inner_change"],
            m_values[-1],
        )
    return w, ContinuationReport(
        tuple(m_values), trace, False, float(m_values[-1]), rep, warning
    )


# ---------------------------------------------------------------------------
# the dichotomy: one solution or two


@dataclass
class SolutionPair:
    w_top: np.ndarray
    w_low: np.ndarray
    report_top: ContinuationReport
    report_low: NewtonReport


def two_solutions(
    problem: VortexProblem,
    m_values: tuple = DEFAULT_M_VALUES,
    clip: float = PROFILE_CLIP,
) -> SolutionPair:
    """Produce two distinct solutions for non-polynomial phi.

    The first is the complete one (continuation with raised ring); the second
    hugs the barrier: Newton started on the clipped profile with the profile
    itself as ring data.  For polynomial phi the complete solution is the
    only one, so asking for two is refused.
    """
    if problem.phi.is_polynomial():
        raise ValueError(
            "phi is a polynomial: the complete solution is unique, there is no second one"
        )
    dom = problem.domain
    zeros = problem.phi.zeros()
    if zeros.size:
        margin = dom.R - 4.0 * dom.h
        if np.max(np.maximum(np.abs(zeros.real), np.abs(zeros.imag))) > margin:
            raise ValueError("zeros of phi must sit inside the square with a 4h margin")
    w1, rep1 = solve_complete(problem, m_values=m_values)
    bd = make_boundary_subsolution(problem)
    w2, rep2 = solve_newton(problem, profile_field(problem, clip=clip), bd)
    return SolutionPair(w1, w2, rep1, rep2)
