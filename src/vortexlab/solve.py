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

Boundary data are full grids of which only the ring is read.  Complete
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

from .grid import VortexProblem, interior_max_norm, parts, run_parts, shared_array

TOL_NEWTON = 1e-10
ETA_NEWTON = 0.1  # forcing term: a step's PCG tolerance never exceeds it
TOL_MONOTONE = 1e-9
TOL_CONT = 1e-6
MAX_NEWTON = 100
MAX_OUTER = 10000
PROFILE_CLIP = -40.0
DEFAULT_M_VALUES = tuple(range(4, 25, 2))


class ConvergenceError(RuntimeError):
    """A solve that stopped short of its tolerance; report is what it did, or
    None: a NewtonReport, or for the ladder a ContinuationReport of the rungs
    done whose newton is the failing solve's.  complete is the finished
    ladder's ContinuationReport when the incomplete branch of
    ``two_solutions`` failed after it, else None."""

    def __init__(self, message: str, report=None, complete=None):
        super().__init__(message)
        self.report = report
        self.complete = complete


def make_boundary_subsolution(problem: VortexProblem) -> np.ndarray:
    """Ring data (2/k) log|phi|, clipped at PROFILE_CLIP: the incomplete branch.

    Returned as a full grid (only the ring is consumed), which is also the
    clipped profile that the incomplete branch starts from.
    """
    vals = np.maximum(problem.profile(), PROFILE_CLIP)
    if not np.all(np.isfinite(vals[problem.domain.ring_mask()])):
        raise ValueError("profile boundary is not finite on the ring")
    return vals


def make_boundary_complete(problem: VortexProblem, M: float) -> np.ndarray:
    """Ring data max(profile, 0) + M as a full grid, emulating the blow-up supersolutions."""
    if M < 0:
        raise ValueError("M must be nonnegative")
    return np.maximum(problem.profile(), 0.0) + float(M)


def _set_ring(w: np.ndarray, boundary: np.ndarray) -> np.ndarray:
    w[0, :] = boundary[0, :]
    w[-1, :] = boundary[-1, :]
    w[:, 0] = boundary[:, 0]
    w[:, -1] = boundary[:, -1]
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
    """
    fine = mg.levels[0]
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
            return x, 0
    z = mg(r)
    p = z
    rz = _dot(r, z)
    for it in range(1, MAX_PCG + 1):
        _apply(fine.diag, fine.h, p, Ap)
        alpha = rz / _dot(p, Ap)
        x += alpha * p
        r -= alpha * Ap
        if np.sqrt(_dot(r, r)) <= atol:
            return x, it
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


def solve_newton(
    problem: VortexProblem, w0: np.ndarray, boundary: np.ndarray
) -> tuple[np.ndarray, NewtonReport]:
    """Damped Newton for L w = F(w) with the ring values of boundary as Dirichlet data.

    Steps solve (diag(F') - L) delta = L w - F(w) inexactly: PCG stops at a
    relative residual of max(1e-10, min(ETA_NEWTON, |g|)), |g| the current
    sup-norm residual (Eisenstat & Walker's forcing terms), so early steps
    cost a V-cycle or two and the last ones are solved tightly enough to keep
    the convergence superlinear.  Steps are halved (at most 40 times) until
    the sup-norm residual actually drops.  Returns once that residual is
    within TOL_NEWTON.  Raises ConvergenceError if MAX_NEWTON steps do not
    get there, the line search stalls or a step's PCG does not converge; its
    report holds the steps taken (a failed PCG counts MAX_PCG V-cycles).
    """
    dom = problem.domain
    w = _set_ring(np.array(w0, dtype=float), boundary)

    g = problem.residual(w)
    gnorm = interior_max_norm(g)
    history = [gnorm]
    cg_total = 0
    backtracks = 0
    evals = 1

    def report(iterations):
        return NewtonReport(iterations, gnorm, cg_total, backtracks, evals, history)

    for it in range(1, MAX_NEWTON + 1):
        if gnorm <= TOL_NEWTON:
            return w, report(it - 1)
        tol = max(1e-10, min(ETA_NEWTON, gnorm))
        try:
            delta, cg_it = _pcg(_Multigrid(problem.rhs_prime(w), dom.h), g, tol)
        except ConvergenceError as exc:
            cg_total += MAX_PCG
            raise ConvergenceError(str(exc), report(it - 1)) from None
        cg_total += cg_it
        step = 1.0
        for _ in range(41):
            trial = w.copy()
            trial[1:-1, 1:-1] += step * delta[1:-1, 1:-1]
            g_trial = problem.residual(trial)
            evals += 1
            gn_trial = interior_max_norm(g_trial)
            if gn_trial < gnorm:
                break
            step *= 0.5
            backtracks += 1
        else:
            raise ConvergenceError("Newton line search stalled at residual %.3e" % gnorm,
                                   report(it - 1))
        w, g, gnorm = trial, g_trial, gn_trial
        history.append(gnorm)
    if gnorm <= TOL_NEWTON:
        return w, report(MAX_NEWTON)
    raise ConvergenceError("Newton did not reach tolerance: residual %.3e" % gnorm,
                           report(MAX_NEWTON))


# ---------------------------------------------------------------------------
# monotone certification


@dataclass
class MonotoneReport:
    iterations: int
    residual: float
    band_violations: int
    nonmonotone_steps: int


def monotone_solve(
    problem: VortexProblem,
    w_minus: np.ndarray,
    w_plus: np.ndarray,
    boundary: np.ndarray | None = None,
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

    The ring values of boundary, or of w_plus when it is None, are the
    Dirichlet data.  Stops at a sup-norm residual of TOL_MONOTONE and raises
    ConvergenceError if MAX_OUTER sweeps do not get there.
    """
    dom = problem.domain
    if np.any(w_minus > w_plus + 1e-10):
        raise ValueError("band is not ordered: w_minus exceeds w_plus")
    lam = 1.1 * np.maximum(problem.rhs_prime(w_minus), problem.rhs_prime(w_plus))
    mg = _Multigrid(lam, dom.h)
    w = _set_ring(np.array(w_plus, dtype=float), w_plus if boundary is None else boundary)
    nonmono = 0
    g = problem.residual(w)
    res = interior_max_norm(g)
    delta = None
    for it in range(1, MAX_OUTER + 1):
        if res <= TOL_MONOTONE:
            it -= 1
            break
        delta, _ = _pcg(mg, g, 1e-4, guess=delta)
        if np.max(delta) > 1e-10:
            nonmono += 1
        w = w.copy()
        w[1:-1, 1:-1] += delta[1:-1, 1:-1]
        g = problem.residual(w)
        res = interior_max_norm(g)
    else:
        raise ConvergenceError("monotone iteration stalled at residual %.3e" % res)

    viol = int(np.sum((w < w_minus - 1e-10) | (w > w_plus + 1e-10)))
    return w, MonotoneReport(it, res, viol, nonmono)


# ---------------------------------------------------------------------------
# continuation to the complete solution


@dataclass
class ContinuationReport:
    trace: list  # one dict per rung solved, in M order: its M, Newton counts and inner change
    stabilized: bool
    newton: NewtonReport  # the returned rung's, or the failing solve's
    warning: str | None = None
    totals: dict = field(init=False)  # the trace's Newton counts summed over its rungs

    def __post_init__(self):
        self.totals = {key: sum(rung[name] for rung in self.trace) for key, name in (
            ("iterations", "newton_iterations"), ("cg_iterations", "cg_iterations"),
            ("backtracks", "backtracks"), ("residual_evaluations", "residual_evaluations"))}


def _rung_start(problem: VortexProblem, boundary: np.ndarray) -> np.ndarray:
    """max(profile, log(2 / (d + delta)^2)): the start of a rung's Newton solve.

    d is the distance to the edge of the square and delta = sqrt(2 e^-b), b
    the ring data max(profile, 0) + M, so the start equals b on the ring.
    log(2 / d^2) solves w'' = e^w: the boundary blow-up of Keller and
    Osserman, which the complete solution follows near a high ring.
    """
    dom = problem.domain
    edge = dom.R - np.abs(dom.axis)
    with np.errstate(divide="ignore"):  # log 0 = -inf on the ring, where delta rules
        log_d = np.log(np.minimum(edge[:, None], edge[None, :]))
    log_delta = 0.5 * (np.log(2.0) - boundary)
    return np.maximum(problem.profile(), np.log(2.0) - 2.0 * np.logaddexp(log_d, log_delta))


def _solve_rungs(problem: VortexProblem, ms) -> tuple[np.ndarray, list]:
    """Solve the rungs of ring heights ms, each from its own start, in parts.

    Returns the fields, one per rung in shared memory, and per rung its
    NewtonReport or, when its solve failed, the ConvergenceError.  Every
    rung is tried whatever the others do, so the rungs finished do not
    depend on how the rungs were split.
    """
    n = problem.domain.n
    fields = shared_array((len(ms), n, n), float)

    def solve_part(k, start, stop):
        outcomes = []
        for i in range(start, stop):
            bnd = make_boundary_complete(problem, ms[i])
            try:
                fields[i], rep = solve_newton(problem, _rung_start(problem, bnd), bnd)
            except ConvergenceError as exc:
                rep = exc
            outcomes.append(rep)
        return outcomes

    return fields, sum(run_parts(parts(len(ms)), solve_part), [])


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

    F increases in w, so each rung has exactly one solution, and every rung
    is solved from its own start (``_rung_start``), independently of the
    others, two at a time on the ``run_parts`` workers.  The inner change is
    assumed to fall with M, so the ladder can only stabilize if its last
    pair does: that pair is solved first, and if its change exceeds TOL_CONT
    its top rung is returned unstabilized.  Otherwise the rungs are solved
    upward in pairs until the first M whose change from M - 2 is at most
    TOL_CONT, which is returned.  The trace lists the rungs solved, the
    failing round's finished ones included.  A rung whose solve fails raises
    ConvergenceError with those rungs and the failed solve's report (the
    lowest failing M's).  Each round's fields live in one shared block,
    unmapped once the round's changes are computed: the ladder keeps copies
    of the fields it may still return and the inner squares of the changes
    still to come.
    """
    inner = problem.domain.inner_mask()
    ms = DEFAULT_M_VALUES
    below = dict(zip(ms[1:], ms))
    above = dict(zip(ms, ms[1:]))
    insides, changes, reports = {}, {}, {}

    def report(newton, stabilized, warning=None):
        trace = [{
            "M": float(m),
            "newton_iterations": rep.iterations,
            "cg_iterations": rep.cg_iterations,
            "backtracks": rep.backtracks,
            "residual_evaluations": rep.residual_evaluations,
            "residual": rep.residual,
            "inner_change": changes.get(m),
        } for m, rep in sorted(reports.items())]
        return ContinuationReport(trace, stabilized, newton, warning)

    def solve(rungs):
        # copies of the fields of the round that the ladder may still return
        # (the last pair's, and the first whose change stabilizes), so that
        # the round's shared block is unmapped when this returns; of the other
        # rungs only the inner squares that a change still to come needs are
        # kept
        w, outcomes = _solve_rungs(problem, rungs)
        for M, w_M, rep in zip(rungs, w, outcomes):
            if not isinstance(rep, ConvergenceError):
                insides[M], reports[M] = w_M[inner], rep
        for M in sorted(insides):
            if M not in changes and below.get(M) in insides:
                changes[M] = float(np.max(np.abs(insides[M] - insides[below[M]])))
        for M in list(insides):
            if (M in changes or M not in below) and (above.get(M) in changes or M not in above):
                del insides[M]
        failed = [rep for rep in outcomes if isinstance(rep, ConvergenceError)]
        if failed:
            raise ConvergenceError(str(failed[0]), report(failed[0].report, False))
        stop = [M for M in rungs if changes.get(M, np.inf) <= TOL_CONT][:1]
        return {M: np.array(w_M) for M, w_M in zip(rungs, w) if M in ms[-2:] or M in stop}

    fields = solve(ms[-2:])
    if changes[ms[-1]] > TOL_CONT:
        warning = "inner field still moving %.3e after M=%s; domain likely too small" % (
            changes[ms[-1]], ms[-1])
        return fields[ms[-1]], report(reports[ms[-1]], False, warning)
    for i, M in enumerate(ms[:-1]):
        if M not in reports:
            fields.update(solve([m for m in ms[i : i + 2] if m not in reports]))
        if changes.get(M, np.inf) <= TOL_CONT:
            return fields[M], report(reports[M], True)
    return fields[ms[-1]], report(reports[ms[-1]], True)


# ---------------------------------------------------------------------------
# the dichotomy: one solution or two


@dataclass
class SolutionPair:
    w_top: np.ndarray
    w_low: np.ndarray
    report_top: ContinuationReport
    report_low: NewtonReport


def two_solutions(problem: VortexProblem) -> SolutionPair:
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
    w1, rep1 = solve_complete(problem)
    profile = make_boundary_subsolution(problem)
    try:
        w2, rep2 = solve_newton(problem, profile, profile)
    except ConvergenceError as exc:
        raise ConvergenceError(str(exc), exc.report, rep1) from None
    return SolutionPair(w1, w2, rep1, rep2)
