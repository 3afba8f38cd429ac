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
# polynomial phi's branches meet as R grows, and their gap rounds to either sign:
# z^2 - 1 (k 3, R 10) measured margins from -1.78e-15 to -7.27e-15 at n 201 to 401
TOL_ORDERING = 1e-12
TOL_SOLVE = 1e-9  # the solver residual a curvature cross-check allows for
TOL_IDENTITY = 1e-6
NO_GAP_DELTA = 0.5  # the bound max h must exceed on the complete branch
# a ray's tail: the divergent ratio, the convergent ratio, the share q1 and q2 may differ by
Q_DIVERGENT, Q_CONVERGENT, Q_GEOMETRIC = 0.99, 0.95, 0.05


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


def ordering_check(w1: np.ndarray, w2: np.ndarray, domain: GridDomain,
                   tolerance: float = 0.0) -> InvariantReport:
    """Ordering w1 > w2 - tolerance on the inner half-square (margin = min gap)."""
    margin, witness = _extreme(domain, w1 - w2, np.argmin)
    return InvariantReport(
        name="ordering",
        passed=margin > -tolerance,
        margin=margin,
        tolerance=tolerance,
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
        z, dist = dom.zz(slice(1, -1), slice(1, -1)), np.inf
        for root in zs:  # the distance to the nearest zero, one zero at a time
            dist = np.minimum(dist, np.abs(z - root))
        resid = resid[dist > 2.0 * dom.h]
    residual = float(np.max(resid)) if resid.size else 0.0
    return residual, residual <= TOL_IDENTITY


# ---------------------------------------------------------------------------
# completeness probes along rays


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


def completeness_probe(domain: GridDomain, w: np.ndarray) -> list[RayProfile]:
    """Metric length L(r) = int_0^r e^{w/2} ds along the four half-axes from
    the center node, theta = m pi/2 for m = 0, 1, 2, 3, sampled at step h/2
    out to R: at the nodes and at the edge midpoints (the mean of the edge's
    two ends), with cumulative trapezoids.  One tail rule gives each verdict
    and limit: three windows of (n - 1)//4 samples that end at R (exactly
    [R/4, R/2], [R/2, 3R/4] and [3R/4, R] when 4 divides n - 1) add i0, i1
    and i2, with q1 = i1/i0 and q2 = i2/i1.  DIVERGENT if q2 >= Q_DIVERGENT;
    CONVERGENT if the tail is geometric, q2 <= Q_CONVERGENT and
    |q2 - q1| <= Q_GEOMETRIC q1, with the Aitken limit L(R) + i2 q2/(1 - q2);
    INDETERMINATE otherwise, and when a window adds nothing because the
    density underflows.  A length that overflows to +inf reads DIVERGENT,
    with no limit.  A density e^{-s/lambda} gives q1 = q2 = e^{-D/lambda}
    exactly, D the windows' length, and a constant density exactly 1.
    """
    w = np.asarray(w, dtype=float)
    if not np.all(np.isfinite(w)):
        raise ValueError("field contains non-finite entries")
    n = domain.n
    c, d = (n - 1) // 2, (n - 1) // 4  # the center node; the windows' samples
    step = 0.5 * domain.h
    r = step * np.arange(n)
    nodes = np.stack([w[c:, c], w[c, c:], w[c::-1, c], w[c, c::-1]])  # +x, +y, -x, -y
    samples = np.empty((4, n))
    samples[:, 0::2] = nodes
    samples[:, 1::2] = 0.5 * (nodes[:, :-1] + nodes[:, 1:])
    lengths = np.zeros((4, n))
    with np.errstate(over="ignore"):  # an overflowing density gives the length +inf
        g = np.exp(0.5 * samples)
        lengths[:, 1:] = np.cumsum(0.5 * step * (g[:, 1:] + g[:, :-1]), axis=1)
    out = []
    for m, length in enumerate(lengths):
        l0, l1, l2, l3 = (float(length[-1 - j * d]) for j in (3, 2, 1, 0))
        i0, i1, i2 = l1 - l0, l2 - l1, l3 - l2
        verdict, limit = "INDETERMINATE", None
        if l3 == np.inf:
            verdict = "DIVERGENT"
        elif min(i0, i1, i2) > 0.0:
            q1, q2 = i1 / i0, i2 / i1
            if q2 >= Q_DIVERGENT:
                verdict = "DIVERGENT"
            elif q2 <= Q_CONVERGENT and abs(q2 - q1) <= Q_GEOMETRIC * q1:
                verdict, limit = "CONVERGENT", l3 + i2 * q2 / (1.0 - q2)
        out.append(RayProfile(m * 0.5 * np.pi, r, length, verdict, limit))
    return out


def write_rays_csv(path, profiles: list[RayProfile]) -> None:
    write_table(path, "theta,r,length", "%.17g,%.17g,%.17g",
                (np.array([[p.theta] for p in profiles]), profiles[0].r,
                 np.array([p.length for p in profiles])))
