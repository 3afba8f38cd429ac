"""Solvers for the discretized vortex equation.

Two routes to a solution, used in complementary roles:

* a damped Newton iteration (authoritative): fast, quadratic near the
  solution;
* a monotone fixed-point iteration (certifying): started from the
  supersolution end of an ordered band [w_minus, w_plus] it descends
  one-sidedly, so it cross-checks the Newton answer on cases where a band
  is available.

The discrete Jacobian L - diag(F') is negative definite because F' > 0
everywhere, so the discrete Dirichlet problem has exactly one solution and
both routes must agree.  For the same reason every linear system of both
routes, diag(D) - L with D > 0, is symmetric positive definite, and one
solver serves them all: matrix-free CG preconditioned by a multigrid
V-cycle that coarsens down to a single unknown.  It factors nothing, so
its one failure is a CG solve that does not converge in MAX_PCG steps.
Solves are inexact: a Newton step only as far as its residual needs (the
forcing term ETA_NEWTON), a monotone sweep to a relative 1e-4.

Every solve takes its Dirichlet data from the ring of its start.  Complete
solutions come from continuation in the boundary height: solve with ring
data max(profile, 0) + M for a ladder of M values and stop when the inner
half-square stops moving.  The profile is (2/k) log|phi|, the barrier that
every solution of the complete problem dominates.  Each rung is solved on
its own, from the boundary blow-up profile rather than from the rung
below, so the rungs go two at a time to forked workers: the last pair
first, then pairs upward from the bottom until the field stops moving.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .grid import VortexProblem, interior_max_norm, parts, run_parts

TOL_NEWTON = 1e-10
ETA_NEWTON = 0.1  # forcing term: a step's PCG tolerance never exceeds it
TOL_MONOTONE = 1e-9
TOL_CONT = 1e-6
MAX_NEWTON = 100
MAX_OUTER = 10000
PROFILE_CLIP = -40.0
# the ladder's rounds of rungs M: the top pair first, then upward in pairs to it again
ROUNDS = ((22, 24), (4, 6), (8, 10), (12, 14), (16, 18), (20, 22, 24))
DEFAULT_M_VALUES = tuple(sorted(set().union(*ROUNDS)))


class ConvergenceError(RuntimeError):
    """A solve that stopped short of its tolerance; report is what it did, or
    None: a NewtonReport, or for the ladder a ContinuationReport of the rungs
    tried whose newton is the failing solve's."""

    def __init__(self, message: str, report=None):
        super().__init__(message)
        self.report = report


def make_boundary_subsolution(problem: VortexProblem) -> np.ndarray:
    """(2/k) log|phi| with its -inf, the zeros of phi, set to PROFILE_CLIP: the
    incomplete branch's start, whose ring is its Dirichlet data."""
    vals = problem.profile()
    vals[vals == -np.inf] = PROFILE_CLIP
    if not (np.all(np.isfinite(vals[[0, -1]])) and np.all(np.isfinite(vals[:, [0, -1]]))):
        raise ValueError("profile boundary is not finite on the ring")
    return vals


def _set_ring(w: np.ndarray, values: np.ndarray) -> np.ndarray:
    w[0, :] = values[0, :]
    w[-1, :] = values[-1, :]
    w[:, 0] = values[:, 0]
    w[:, -1] = values[:, -1]
    return w


# ---------------------------------------------------------------------------
# linear algebra: (diag(D) - L) x = b by CG, preconditioned by multigrid
#
# L is the 5-point Laplacian under zero Dirichlet data.  Nothing is
# assembled: vectors are full (n, n) grids whose ring is zero.  No BLAS or
# LAPACK routine is called and every sum is a fixed-order numpy reduction, so
# results do not depend on the BLAS thread count.

# a PCG solve that has not converged after this many V-cycles raises
MAX_PCG = 100


def _dot(a: np.ndarray, b: np.ndarray) -> float:
    # np.sum keeps the reduction order fixed regardless of BLAS threading,
    # which keeps whole runs bit-reproducible.
    return float(np.sum(a * b))


# Stencils work on the flattened grid: node (i, j) is flat index k = i n + j,
# its neighbours are k +- 1 and k +- n, and every node from k = n + 1 to
# n^2 - n - 2 is interior except those in the ring columns.  Every level has
# n odd, so k has the parity of i + j and a red-black color is every second
# flat index.  Flat slices are contiguous or evenly strided, which numpy runs
# several times faster than the 2-D interior view.


def _apply(diag: np.ndarray, h: float, u: np.ndarray, out: np.ndarray) -> np.ndarray:
    """out = (diag(D) - L) u, given diag = D + 4/h^2; u and out zero on the ring.

    Hot-path arrays are written in place: under glibc's default heap
    trimming, two fresh full-grid temporaries alive at once cost page faults
    on every call.
    """
    n = len(u)
    m = n * n
    uf = u.ravel()
    o = out.ravel()[n + 1 : m - n - 1]
    np.add(uf[n : m - n - 2], uf[n + 2 : m - n], out=o)
    o += uf[1 : m - 2 * n - 1]
    o += uf[2 * n + 1 : m - 1]
    o /= -(h**2)
    o += diag.ravel()[n + 1 : m - n - 1] * uf[n + 1 : m - n - 1]
    out[:, 0] = out[:, -1] = 0.0
    return out


def _relax(u: np.ndarray, r: np.ndarray, inv: np.ndarray, h: float, color: int) -> None:
    """Gauss-Seidel on the nodes with (i + j) % 2 == color, in place (n odd).

    inv is 1 / (D + 4/h^2) inside and 0 on the ring, which keeps the ring 0.
    Nodes of one color only see nodes of the other, so a color is one update.
    """
    n = len(u)
    m = n * n
    uf = u.ravel()
    k = slice(n + 1 + color, m - n - 1, 2)
    a, b = k.start, k.stop
    nb = uf[a - 1 : b - 1 : 2] + uf[a + 1 : b + 1 : 2]
    nb += uf[a - n : b - n : 2]
    nb += uf[a + n : b + n : 2]
    nb /= h**2
    nb += r.ravel()[k]
    nb *= inv.ravel()[k]
    uf[k] = nb


def _restrict(f: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Full weighting onto every second node, 1/4 of P^T; out's ring stays zero."""
    n = len(f)
    mid, lo, hi = slice(2, n - 2, 2), slice(1, n - 3, 2), slice(3, n - 1, 2)
    t = f[lo, :] + f[hi, :]
    t += f[mid, :]
    t += f[mid, :]
    c = out[1:-1, 1:-1]
    np.add(t[:, lo], t[:, hi], out=c)
    c += t[:, mid]
    c += t[:, mid]
    c /= 16.0
    return out


def _prolong_add(c: np.ndarray, u: np.ndarray) -> None:
    """u += P c, the bilinear interpolation of c onto the grid of twice its resolution."""
    u[::2, ::2] += c
    t = c[:-1] + c[1:]
    t *= 0.5
    u[1::2, ::2] += t
    t = c[:, :-1] + c[:, 1:]
    t *= 0.5
    u[::2, 1::2] += t
    t = t[:-1] + t[1:]
    t *= 0.5
    u[1::2, 1::2] += t


class _Level:
    """Operator and work arrays of one multigrid level, all full grids.

    The ring sits s h outside the edge of the square (0 <= s < 1).  For s > 0
    the nodes next to the ring see a ghost node, extrapolated linearly
    through zero at the edge, that adds s / ((1 - s) h^2) per side to their
    diagonal: the same Dirichlet problem, rediscretized with its edge where
    it really is.
    """

    def __init__(self, D: np.ndarray, h: float, s: float):
        self.h = h
        self.diag = D + 4.0 / h**2
        for edge in (self.diag[1], self.diag[-2], self.diag[:, 1], self.diag[:, -2]):
            edge += s / ((1.0 - s) * h**2)
        self.inv = np.zeros_like(D)
        self.inv[1:-1, 1:-1] = 1.0 / self.diag[1:-1, 1:-1]
        self.red_inv = self.inv.copy()  # the red half-sweep from u = 0
        self.red_inv.ravel()[1::2] = 0.0
        # iterate, residual and right-hand side; their rings stay zero
        self.u, self.res, self.rhs = np.zeros((3,) + D.shape)
        self.pad = None  # see _Multigrid


class _Multigrid:
    """One symmetric V(1,1) cycle for diag(D) - L: the CG preconditioner.

    Red-then-black Gauss-Seidel before the coarse correction and
    black-then-red after it, full weighting down and bilinear prolongation
    up (restriction = P^T / 4), so the cycle is a symmetric operator.  Coarse
    operators are rediscretized with 2h and the full-weighted D.  Grids are
    halved while n > 3, and every level keeps n odd: a level whose half
    would have an even n is first padded with one node outside each side
    (its pad buffer), so the coarse ring moves out by h and the fine ring is
    masked out of the prolongation (201 -> 101 -> 51 -> 27 -> 15 -> 9 -> 5
    -> 3, 403 -> 203 -> 103 -> 53 -> 27 -> 15 -> 9 -> 5 -> 3).  Every
    hierarchy thus ends on a 3-node grid, whose one unknown is solved
    exactly by dividing by its diagonal.
    """

    def __init__(self, D: np.ndarray, h: float):
        D = _set_ring(np.array(D, dtype=float), np.zeros_like(D))  # no unknowns there
        self.levels = [_Level(D, h, 0.0)]
        s = 0.0  # the newest ring lies s h outside the edge
        while len(D) > 3:
            pad = len(D) % 4 == 3  # the half would have an even n
            if pad:
                self.levels[-1].pad = np.zeros((len(D) + 2,) * 2)
                D = np.pad(D, 1)
            s = (s + pad) / 2.0
            D, h = _restrict(D, np.zeros(((len(D) + 1) // 2,) * 2)), 2.0 * h
            self.levels.append(_Level(D, h, s))

    def __call__(self, r: np.ndarray) -> np.ndarray:
        """The V-cycle applied to r (zero ring), as a new array."""
        return self._cycle(0, r).copy()

    def _cycle(self, k: int, r: np.ndarray) -> np.ndarray:
        lv = self.levels[k]
        if k == len(self.levels) - 1:
            return np.multiply(r, lv.inv, out=lv.u)
        u = np.multiply(r, lv.red_inv, out=lv.u)
        _relax(u, r, lv.inv, lv.h, 1)
        res = _apply(lv.diag, lv.h, u, lv.res)
        np.subtract(r, res, out=res)
        rhs = self.levels[k + 1].rhs
        if lv.pad is None:
            _prolong_add(self._cycle(k + 1, _restrict(res, rhs)), u)
        else:
            p = lv.pad
            p[1:-1, 1:-1] = res
            c = self._cycle(k + 1, _restrict(p, rhs))
            p[...] = 0.0
            _prolong_add(c, p)
            u[1:-1, 1:-1] += p[2:-2, 2:-2]
        _relax(u, r, lv.inv, lv.h, 1)
        _relax(u, r, lv.inv, lv.h, 0)
        return u


def _pcg(
    mg: _Multigrid, b: np.ndarray, tol: float, guess: np.ndarray | None = None
) -> tuple[np.ndarray, int]:
    """Solve (diag(D) - L) x = b, D and h those of mg's finest level.

    CG preconditioned by one V-cycle per iteration, stopped once the residual
    is within tol * |b| (2-norms).  A guess (zero ring) starts the iteration
    from its best multiple in the energy norm.  Returns (x, V-cycles spent);
    raises ConvergenceError after MAX_PCG iterations.

    The iteration solves for x 2^-e, b 2^-e scaled to max |b| in [1/2, 1) by
    the exponent e of max |b|, so no dot product overflows; every step is
    linear in b, so the scaling is exact and changes no bit of x.
    """
    fine = mg.levels[0]
    e = np.frexp(np.max(np.abs(b)))[1]
    b = np.ldexp(b, -e)
    x = np.zeros_like(b)
    atol = tol * np.sqrt(_dot(b, b))
    if atol == 0.0:
        return x, 0
    r = b.copy()
    Ap = np.zeros_like(b)
    if guess is not None:
        _apply(fine.diag, fine.h, guess, Ap)
        beta = _dot(guess, b) / _dot(guess, Ap)
        x += beta * guess
        r -= beta * Ap
        if np.sqrt(_dot(r, r)) <= atol:
            return np.ldexp(x, e), 0
    z = mg(r)
    p = z
    rz = _dot(r, z)
    for it in range(1, MAX_PCG + 1):
        _apply(fine.diag, fine.h, p, Ap)
        alpha = rz / _dot(p, Ap)
        x += alpha * p
        r -= alpha * Ap
        if np.sqrt(_dot(r, r)) <= atol:
            return np.ldexp(x, e), it
        z = mg(r)
        rz_new = _dot(r, z)
        p *= rz_new / rz
        p += z
        rz = rz_new
    raise ConvergenceError(
        "PCG did not reach relative residual %.0e in %d iterations" % (tol, MAX_PCG)
    )


# ---------------------------------------------------------------------------
# Newton


@dataclass
class NewtonReport:
    iterations: int
    residual: float
    cg_iterations: int  # PCG iterations over all steps, one V-cycle each
    backtracks: int
    residual_evaluations: int  # the start, each step and each backtrack
    residual_history: list = field(default_factory=list)


def _stated(problem: VortexProblem, f, w: np.ndarray, what: str) -> np.ndarray:
    """f(w), or ValueError naming the first interior node where double
    precision cannot state it (exp overflows, or inf - inf)."""
    with np.errstate(over="ignore", invalid="ignore"):
        values = f(w)
    bad = np.argwhere(~np.isfinite(values[1:-1, 1:-1]))
    if bad.size:
        raise ValueError("double precision cannot state this start: its %s is not finite at "
                         "(x, y) = (%.6g, %.6g)" % (what, *problem.domain.axis[bad[0] + 1]))
    return values


def solve_newton(problem: VortexProblem, w0: np.ndarray) -> tuple[np.ndarray, NewtonReport]:
    """Damped Newton for L w = F(w) from w0, whose ring values are the Dirichlet data.

    Steps solve (diag(F') - L) delta = L w - F(w) inexactly: PCG stops at a
    relative residual of max(1e-10, min(ETA_NEWTON, |g|)), |g| the current
    sup-norm residual (Eisenstat & Walker's forcing terms), so early steps
    cost a V-cycle or two and the last ones are solved tightly enough to keep
    the convergence superlinear.  Steps are halved (at most 40 times) until
    the sup-norm residual actually drops.  Returns once that residual is
    within TOL_NEWTON; a NaN residual never is.  Raises ConvergenceError if
    MAX_NEWTON steps do not get there, the line search stalls or a step's
    PCG does not converge; its report holds the steps taken (a failed PCG
    counts MAX_PCG V-cycles).  Raises ValueError, before any PCG step, if
    the start's residual or F' is not finite at an interior node.  The
    report's counts follow from the residual history: one evaluation at the
    start, one per step and one per backtrack.
    """
    w = np.array(w0, dtype=float)
    g = _stated(problem, problem.residual, w, "residual")
    history = [interior_max_norm(g)]
    cg_total = backtracks = 0

    def report():
        steps = len(history) - 1
        return NewtonReport(steps, history[-1], cg_total, backtracks, 1 + steps + backtracks,
                            history)

    while not history[-1] <= TOL_NEWTON:
        gnorm = history[-1]
        if len(history) > MAX_NEWTON:
            raise ConvergenceError("Newton did not reach tolerance: residual %.3e" % gnorm,
                                   report())
        slope = (_stated(problem, problem.rhs_prime, w, "F'") if len(history) == 1
                 else problem.rhs_prime(w))
        try:
            delta, cg_it = _pcg(_Multigrid(slope, problem.domain.h), g,
                                max(1e-10, min(ETA_NEWTON, gnorm)))
        except ConvergenceError as exc:
            cg_total += MAX_PCG
            raise ConvergenceError(str(exc), report()) from None
        cg_total += cg_it
        step = 1.0
        for _ in range(41):
            trial = w.copy()
            trial[1:-1, 1:-1] += step * delta[1:-1, 1:-1]
            g_trial = problem.residual(trial)
            gn_trial = interior_max_norm(g_trial)
            if gn_trial < gnorm:
                break
            step *= 0.5
            backtracks += 1
        else:
            raise ConvergenceError("Newton line search stalled at residual %.3e" % gnorm,
                                   report())
        w, g = trial, g_trial
        history.append(gn_trial)
    return w, report()


# ---------------------------------------------------------------------------
# monotone certification


@dataclass
class MonotoneReport:
    iterations: int
    residual: float
    band_violations: int
    nonmonotone_steps: int


def monotone_solve(
    problem: VortexProblem, w_minus: np.ndarray, w_plus: np.ndarray
) -> tuple[np.ndarray, MonotoneReport]:
    """Downward monotone iteration from the supersolution end of a band.

    Each sweep solves (Lambda - L) w_new = Lambda w - F(w) + ring data, with
    a node-wise Lambda >= dF/dw over [w_minus_i, w_plus_i]; F' is convex in
    w, so its band max sits at an endpoint.  The sweep is taken as the
    correction (Lambda - L)(w_new - w) = L w - F(w), solved by PCG with one
    multigrid hierarchy, built once.  Lambda - L is an M-matrix, so
    sweeps preserve order and walk down toward the solution.  The sweeps
    contract the residual by only a few percent each, so a sweep solved to a
    relative residual of 1e-4 contracts as an exact one does; it starts from
    the previous correction, which the slow contraction keeps nearly
    parallel to the next, and so costs about one V-cycle.  Band exits and
    upward steps are counted, not fatal: near zeros of phi the usual clipped
    bands do not actually contain the solution, and the iteration still
    converges to the unique fixed point.

    The ring values of w_plus are the Dirichlet data.  Returns once the
    sup-norm residual is within TOL_MONOTONE, after at most MAX_OUTER sweeps;
    raises ConvergenceError if those do not get there.
    """
    if np.any(w_minus > w_plus + 1e-10):
        raise ValueError("band is not ordered: w_minus exceeds w_plus")
    lam = 1.1 * np.maximum(problem.rhs_prime(w_minus), problem.rhs_prime(w_plus))
    mg = _Multigrid(lam, problem.domain.h)
    w = np.array(w_plus, dtype=float)
    g = problem.residual(w)
    res = interior_max_norm(g)
    sweeps = nonmono = 0
    delta = None
    while not res <= TOL_MONOTONE:
        if sweeps == MAX_OUTER:
            raise ConvergenceError("monotone iteration stalled at residual %.3e" % res)
        delta, _ = _pcg(mg, g, 1e-4, guess=delta)
        if np.max(delta) > 1e-10:
            nonmono += 1
        w[1:-1, 1:-1] += delta[1:-1, 1:-1]
        g = problem.residual(w)
        res = interior_max_norm(g)
        sweeps += 1

    viol = int(np.sum((w < w_minus - 1e-10) | (w > w_plus + 1e-10)))
    return w, MonotoneReport(sweeps, res, viol, nonmono)


# ---------------------------------------------------------------------------
# continuation to the complete solution


@dataclass
class ContinuationReport:
    trace: list  # (M, NewtonReport, inner change or None) per rung tried, in M order
    stabilized: bool
    newton: NewtonReport  # the returned rung's, or the failing solve's
    warning: str | None = None


def _rung_start(problem: VortexProblem, M: float) -> np.ndarray:
    """The start of rung M's Newton solve, whose ring is exactly its Dirichlet
    data b = max(profile, 0) + M, emulating the blow-up supersolutions.

    Inside it is max(profile, log(2 / (d + delta)^2)), d the distance to the
    edge of the square and delta = sqrt(2 e^-b), which tends to b at the
    ring.  log(2 / d^2) solves w'' = e^w: the boundary blow-up of Keller and
    Osserman, which the complete solution follows near a high ring.
    """
    dom = problem.domain
    profile = problem.profile()
    ring = np.maximum(profile, 0.0) + float(M)
    edge = dom.R - np.abs(dom.axis)
    with np.errstate(divide="ignore"):  # log 0 = -inf on the ring, where delta rules
        log_d = np.log(np.minimum(edge[:, None], edge[None, :]))
    log_delta = 0.5 * (np.log(2.0) - ring)
    start = np.maximum(profile, np.log(2.0) - 2.0 * np.logaddexp(log_d, log_delta))
    return _set_ring(start, ring)


def _solve_rung(problem: VortexProblem, M: int) -> tuple:
    """(M, field, NewtonReport) of rung M solved from its own start, or
    (M, None, ConvergenceError) when that solve fails."""
    try:
        return (M, *solve_newton(problem, _rung_start(problem, M)))
    except ConvergenceError as exc:
        return M, None, exc


def solve_complete(problem: VortexProblem) -> tuple[np.ndarray, ContinuationReport]:
    """Approximate the complete (maximal) solution by raising the ring.

    The true complete solution lives on the whole plane; on a fixed square we
    emulate its boundary blow-up with ring data max(profile, 0) + M and raise
    M over DEFAULT_M_VALUES until the inner half-square moves by at most
    TOL_CONT from one rung to the next.  When the ladder is exhausted first,
    the last field is still the best available proxy for the maximal solution
    (the rungs increase toward it), so it is returned with stabilized=False
    and a warning; on grids where |phi| decays somewhere on the ring the
    layer is subgrid and the inner drift shrinks only like 1/M, so a hard
    stabilization gate there would reject fields that are already within
    discretization error of the maximal solution.

    F increases in w, so each rung has exactly one solution, and every rung is
    solved from its own start (``_rung_start``), independently of the others,
    round by round (ROUNDS) on the ``run_parts`` workers.  The inner change is
    assumed to fall with M, so the ladder can only stabilize if its top pair
    does: that pair is the first round, and if its change exceeds TOL_CONT its
    top rung is returned unstabilized.  Otherwise the rounds go upward and the
    first rung whose change from M - 2 is at most TOL_CONT is returned; the
    last round solves the top pair again, so it finds one.  A round walks its
    rungs in ascending M, a rung's inner change taken from the inner square of
    the rung walked before it when that is M - 2, and then drops its fields:
    only that inner square outlives the round.  The trace lists each rung
    tried once, every rung of a round whatever the others do, so it does not
    depend on how the rungs were split; a failed rung is listed with its
    failed solve's report and no inner change, and raises ConvergenceError
    with that trace and the failed solve's report (the lowest failing M's).
    """
    inner = problem.domain.inner
    tried = {}  # M: (NewtonReport, inner change or None)
    last = (None, None)  # (M, inner square) of the rung walked last
    for rungs in ROUNDS:
        outcomes = sum(run_parts(parts(len(rungs)), lambda k, start, stop: [
            _solve_rung(problem, M) for M in rungs[start:stop]]), [])
        for M, w_M, rep in outcomes:  # ascending M
            if w_M is None:
                tried[M] = (rep.report, None)
                continue
            inside = w_M[inner, inner].copy()  # keeps no rung's field alive
            change = float(np.max(np.abs(inside - last[1]))) if last[0] == M - 2 else None
            tried[M], last = (rep, change), (M, inside)
        trace = [(float(M), rep, change) for M, (rep, change) in sorted(tried.items())]
        failed = [exc for _, w_M, exc in outcomes if w_M is None]
        if failed:
            raise ConvergenceError(str(failed[0]), ContinuationReport(trace, False,
                                                                      failed[0].report))
        if rungs is ROUNDS[0]:
            M, w_M, rep = outcomes[-1]
            change = tried[M][1]
            if not change <= TOL_CONT:
                return w_M, ContinuationReport(trace, False, rep, "inner field still moving "
                                               "%.3e after M=%s; domain likely too small"
                                               % (change, M))
        else:
            for M, w_M, rep in outcomes:
                if tried[M][1] is not None and tried[M][1] <= TOL_CONT:
                    return w_M, ContinuationReport(trace, True, rep)
        del outcomes, w_M  # no field outlives its round


# ---------------------------------------------------------------------------
# the dichotomy: one solution or two


def solve_branch(problem: VortexProblem, branch: str) -> tuple:
    """(w, report) of one branch: "complete" from the ladder, "incomplete" hugging
    the barrier, Newton started on the clipped profile with its ring as data."""
    if branch == "complete":
        return solve_complete(problem)
    return solve_newton(problem, make_boundary_subsolution(problem))


def two_solutions(problem: VortexProblem) -> dict:
    """Both branches, keyed by name: {"complete": (w, ContinuationReport),
    "incomplete": (w, NewtonReport)}; for polynomial phi they coincide as R grows."""
    return {branch: solve_branch(problem, branch) for branch in ("complete", "incomplete")}
