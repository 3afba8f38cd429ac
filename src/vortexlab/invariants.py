"""Pointwise and global checks on computed solutions.

Everything here evaluates on the inner half-square (|x|, |y| <= R/2) unless
stated otherwise: the statements being checked are interior statements about
the plane, and the outer band of the truncated square carries the boundary
layer of the Dirichlet approximation.

The checks are phrased through h = |phi|^2 e^{-kw}, the quantity bounded
by 1, as the proofs for this equation are.  The curvature and identity
checks restate the equation, so both bound the residual that Newton stops on.
"""

from __future__ import annotations

from dataclasses import dataclass, field, asdict

import numpy as np

from .grid import GridDomain, VortexProblem, write_table

TOL_SUBUNITY = 1e-6
TOL_SOLVE = 1e-9  # the solver residual a curvature cross-check allows for
TOL_IDENTITY = 1e-6
NO_GAP_DELTA = 0.5  # the bound max h must exceed on the complete branch
EPS_RAY = 1e-3


@dataclass
class InvariantReport:
    name: str
    passed: bool
    margin: float
    tolerance: float
    witness: dict = field(default_factory=dict)
    extra: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return asdict(self)


def _extreme(domain: GridDomain, values: np.ndarray, pick) -> tuple[float, dict]:
    """The extreme of `values` over the inner half-square and its node, as
    (value, witness); pick is np.argmax or np.argmin."""
    s = domain.inner
    inside = values[s, s]
    i, j = np.unravel_index(pick(inside), inside.shape)
    ax, value = domain.axis[s], float(inside[i, j])
    return value, {"x": float(ax[i]), "y": float(ax[j]), "value": value}


def h_field(w: np.ndarray, problem: VortexProblem) -> np.ndarray:
    """h = |phi|^2 e^{-kw}, assembled in log space (exact 0 at zeros of phi)."""
    return np.exp(problem.a2 - problem.k * w)


def subunity_check(w: np.ndarray, problem: VortexProblem) -> InvariantReport:
    """max h over the inner half-square must not exceed 1.

    Strict margin 1 - max h is reported; it is positive for nonconstant phi
    and exactly 0 for the constant and profile solutions.
    """
    hmax, witness = _extreme(problem.domain, h_field(w, problem), np.argmax)
    return InvariantReport(
        name="subunity",
        passed=hmax <= 1.0 + TOL_SUBUNITY,
        margin=1.0 - hmax,
        tolerance=TOL_SUBUNITY,
        witness=witness,
    )


def check_converged(residual: float) -> None:
    """Refuse a field whose interior max residual exceeds 20 * TOL_SOLVE or is NaN.

    A curvature read off an algebraic identity of the equation, such as
    K = (h - 1)/2, differs from the stencil curvature -(1/2) e^{-w}
    laplacian(w) by exactly (1/2) e^{-w} r, r the equation's residual.  So
    the two agree to 10 * TOL_SOLVE * e^{-w} at every interior node exactly
    when max |r| <= 20 * TOL_SOLVE, and this bound is that cross-check.  It
    is the one gate on a solved field: develop reads it too.
    """
    if not residual <= 20.0 * TOL_SOLVE:
        raise ValueError("algebraic and stencil curvature disagree: residual %.3e, w is not "
                         "converged" % residual)


def curvature_field(w: np.ndarray, problem: VortexProblem) -> np.ndarray:
    """Gauss curvature of e^w |dz|^2 via the identity K = (h-1)/2, checked.
    Verify runs the same check on the residual it forms once per branch;
    this is kept because the benchmark's tracer (``perfbench/child.py``)
    wraps it."""
    check_converged(problem.residual_norm(w))
    return 0.5 * (h_field(w, problem) - 1.0)


def ordering_check(w1: np.ndarray, w2: np.ndarray, domain: GridDomain) -> InvariantReport:
    """Strict ordering w1 > w2 on the inner half-square (margin = min gap)."""
    margin, witness = _extreme(domain, w1 - w2, np.argmin)
    return InvariantReport(
        name="ordering",
        passed=margin > 0.0,
        margin=margin,
        tolerance=0.0,
        witness=witness,
    )


def no_gap_check(
    w: np.ndarray, problem: VortexProblem, delta: float
) -> InvariantReport:
    """No solution stays delta-separated from the subunity bound: max h > delta."""
    if not (0.0 < delta < 1.0):
        raise ValueError("delta must lie in (0, 1)")
    hmax, witness = _extreme(problem.domain, h_field(w, problem), np.argmax)
    return InvariantReport(
        name="no_gap",
        passed=hmax > delta,
        margin=hmax - delta,
        tolerance=0.0,
        witness=witness,
        extra={"delta": delta},
    )


def diagnostics(w: np.ndarray, problem: VortexProblem, r: np.ndarray) -> tuple[float, bool]:
    """The sigma-form identity of the equation: (residual, passed), given
    r = problem.residual(w).

    With sigma = log h, on the metric e^w |dz|^2 the field sigma satisfies
    (Delta sigma) e^{-w} = k (e^sigma - 1).  Since log|phi| is harmonic away
    from zeros, Delta sigma = -k Delta w there, so at the interior nodes more
    than 2h from every zero of phi the identity's residual is exactly
    k e^{-w} |r|, r the solver residual, and that is what is reported.
    (Running the stencil on sigma itself would bury the identity under
    O(h^2) truncation noise three orders above the tolerance.)
    """
    dom = problem.domain
    resid = (problem.k * np.exp(-w) * np.abs(r))[1:-1, 1:-1]
    zs = problem.phi.zeros()
    if zs.size:
        inside = slice(1, -1)
        dist = np.min(np.abs(dom.zz(inside, inside)[..., None] - zs[None, None, :]), axis=-1)
        resid = resid[dist > 2.0 * dom.h]
    residual = float(np.max(resid)) if resid.size else 0.0
    return residual, residual <= TOL_IDENTITY


# ---------------------------------------------------------------------------
# completeness probes along rays


def _bilinear(domain: GridDomain, values: np.ndarray, xs, ys) -> np.ndarray:
    """Bilinear interpolation of a nodal field at points inside the square."""
    gx = (np.asarray(xs, dtype=float) + domain.R) / domain.h
    gy = (np.asarray(ys, dtype=float) + domain.R) / domain.h
    i0 = np.clip(np.floor(gx).astype(int), 0, domain.n - 2)
    j0 = np.clip(np.floor(gy).astype(int), 0, domain.n - 2)
    t = gx - i0
    u = gy - j0
    v = values
    return (
        (1 - t) * (1 - u) * v[i0, j0]
        + t * (1 - u) * v[i0 + 1, j0]
        + (1 - t) * u * v[i0, j0 + 1]
        + t * u * v[i0 + 1, j0 + 1]
    )


@dataclass
class RayProfile:
    theta: float
    r: np.ndarray
    length: np.ndarray
    verdict: str
    limit_estimate: float | None

    @property
    def total(self) -> float:
        return float(self.length[-1])


def completeness_probe(domain: GridDomain, w: np.ndarray, thetas) -> list[RayProfile]:
    """Metric length L(r) = int_0^r e^{w/2} ds along rays from the origin.

    Samples at step h/2 out to the inscribed radius R with bilinear
    interpolation and cumulative trapezoids.  Verdicts from the dyadic tail:
    CONVERGENT when the last window [R/2, R] adds less than EPS_RAY;
    DIVERGENT when the window increments grow (ratio >= 1.25 and the last
    adds at least 10 * EPS_RAY); INDETERMINATE otherwise.  For tails that decay
    geometrically across the last three quarter-points an Aitken
    extrapolation of the full limit is attached; for the profile metrics of
    exponential type it recovers the infinite-ray length from a modest
    domain.
    """
    w = np.asarray(w, dtype=float)
    if not np.all(np.isfinite(w)):
        raise ValueError("field contains non-finite entries")
    n = domain.n
    step = 0.5 * domain.h
    r = step * np.arange(n)
    out = []
    j_half = (n - 1) // 2
    j_34 = (3 * (n - 1)) // 4
    j_quarter = (n - 1) // 4
    for theta in thetas:
        xs = r * np.cos(theta)
        ys = r * np.sin(theta)
        g = np.exp(0.5 * _bilinear(domain, w, xs, ys))
        length = np.concatenate([[0.0], np.cumsum(0.5 * step * (g[1:] + g[:-1]))])
        d_last = float(length[-1] - length[j_half])
        d_prev = float(length[j_half] - length[j_quarter])
        if d_last < EPS_RAY:
            verdict = "CONVERGENT"
        elif d_last >= 1.25 * d_prev and d_last >= 10.0 * EPS_RAY:
            verdict = "DIVERGENT"
        else:
            verdict = "INDETERMINATE"
        i1 = float(length[j_34] - length[j_half])
        i2 = float(length[-1] - length[j_34])
        limit = None
        if i1 > 0.0 and 0.0 < i2 < i1:
            q = i2 / i1
            limit = float(length[-1] + i2 * q / (1.0 - q))
        out.append(RayProfile(float(theta), r, length, verdict, limit))
    return out


def write_rays_csv(path, profiles: list[RayProfile]) -> None:
    theta = np.repeat([p.theta for p in profiles], [p.r.size for p in profiles])
    write_table(path, "theta,r,length", "%.17g,%.17g,%.17g",
                (theta, np.concatenate([p.r for p in profiles]),
                 np.concatenate([p.length for p in profiles])))
