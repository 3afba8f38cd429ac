"""Geometric development of normalized solutions.

Two normalizations of the base equation carry geometric meaning:

* WANG_K3 (k = 3): Delta w = 2 e^w - 4|U|^2 e^{-2w}.  Solutions integrate to
  definite affine spheres in R^3 with Pick differential U dz^3 and Blaschke
  metric e^w |dz|^2.  Obtained from the base solver via phi = 4U and
  w = w_eq1 - log 2.
* HARMONIC_K2 (k = 2): Delta w = e^{2w} - |q|^2 e^{-2w}.  Solutions integrate
  to spacelike constant-mean-curvature surfaces in Minkowski R^{2,1} whose
  Gauss map is harmonic into the hyperboloid, with Hopf differential q dz^2.
  Obtained via phi = 2q and w = w_eq1/2 - (log 2)/2.

Both substitutions are locked operationally: the normalized residual is
checked against the base residual on every call (they agree exactly for
WANG_K3 and up to a factor 1/2 for HARMONIC_K2).

Development integrates the first-order frame systems edge by edge with one
RK4 step per grid edge, coefficients at the edge midpoint taken as endpoint
averages for w and its derivatives and exact values for the holomorphic
differential.  The fill order is a fixed spanning tree: along the x-axis
from the origin, then vertically along each column.  Traversing an edge
backwards integrates the reversed ODE (it is not the matrix inverse of the
forward step); the mismatch accumulated around a plaquette is the measured
holonomy defect.

Coefficients and transfers are stored component-first, as (d, d, ...) stacks
of grid planes, and multiplied by ``_mul``, which sums plane products.  No
full-grid transfer stack, coefficient field or frame field exists:
development is one pass over blocks of ``_ROWS`` grid rows, whose steps
``_develop_pass`` states, split over one process per usable CPU
(``grid.run_parts``); only the gradient of w is formed for the whole grid,
and each block forms only the coefficient planes its edges need, ``_BLOCK``
matrices at a time.  The pass returns a ``DevelopedSurface`` that carries
the outputs and every measure: the frame checks, the holonomy defect and
the metric round-trip error.  ``holonomy_defect`` runs the same pass again
from the surface's solution, closing the plaquette loops with a given
solution's transfers.

The normalized residual, which gates development (``check_converged``), is
evaluated once per ``NormalizedSolution``, in blocks of ``_ROWS`` rows.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass

import numpy as np

from .entire import EntireFunction
from .grid import GridDomain, VortexProblem, parts, run_parts, shared_array, write_table
from .invariants import TOL_SOLVE, check_converged

WANG_SHIFT = np.log(2.0)


class SurfaceMode(str, enum.Enum):
    WANG_K3 = "WANG_K3"
    HARMONIC_K2 = "HARMONIC_K2"


_FACTOR = {SurfaceMode.WANG_K3: 4.0, SurfaceMode.HARMONIC_K2: 2.0}
# w = s (w_eq1 - log 2) for the mode's scale s
_SCALE = {SurfaceMode.WANG_K3: 1.0, SurfaceMode.HARMONIC_K2: 0.5}
MODE_K = {SurfaceMode.WANG_K3: 3, SurfaceMode.HARMONIC_K2: 2}


def geometric_problem(
    differential: EntireFunction, mode: SurfaceMode, domain: GridDomain
) -> VortexProblem:
    """Base-equation problem whose solutions normalize to the given mode."""
    mode = SurfaceMode(mode)
    c = _FACTOR[mode]
    phi = EntireFunction(tuple(c * a for a in differential.p), differential.q)
    return VortexProblem(phi, MODE_K[mode], domain)


@dataclass
class NormalizedSolution:
    """A solution of the mode's normalized equation on its grid."""

    mode: SurfaceMode
    differential: EntireFunction
    domain: GridDomain
    w: np.ndarray

    @functools.cached_property
    def residual_norm(self) -> float:
        """Interior max-norm of the normalized equation's residual, evaluated
        once per solution, _ROWS rows at a time: each block forms its own z,
        log|differential| and right-hand side, and the max over blocks is the
        max over the grid."""
        dom, w = self.domain, self.w
        worst = []
        for r0 in range(1, dom.n - 1, _ROWS):
            r1 = min(r0 + _ROWS, dom.n - 1)
            la = 2.0 * self.differential.log_abs(dom.zz(slice(r0, r1)))
            rows = w[r0:r1]
            if self.mode is SurfaceMode.WANG_K3:
                f = 2.0 * np.exp(rows) - 4.0 * np.exp(la - 2.0 * rows)
            else:
                f = np.exp(2.0 * rows) - np.exp(la - 2.0 * rows)
            worst.append(np.max(np.abs(dom.laplacian_rows(w, r0, r1) - f[:, 1:-1])))
        return float(np.max(worst))


def normalize(w_eq1: np.ndarray, problem: VortexProblem, mode: SurfaceMode) -> NormalizedSolution:
    """Convert a base-equation solution into the mode's normalization.

    The affine substitution w -> c w + log d is derived by matching
    exponents; here it lands on w - log 2 (k=3) and w/2 - (log 2)/2 (k=2),
    with the differential recovered from phi = 4U resp. phi = 2q.  The
    result is gated by the normalized residual, so wrong constants cannot
    slip through.
    """
    mode = SurfaceMode(mode)
    if problem.k != MODE_K[mode]:
        raise ValueError("mode %s needs k = %d" % (mode.value, MODE_K[mode]))
    c, s = _FACTOR[mode], _SCALE[mode]
    diff = EntireFunction(tuple(a / c for a in problem.phi.p), problem.phi.q)
    sol = NormalizedSolution(mode, diff, problem.domain, s * (w_eq1 - WANG_SHIFT))
    base = problem.residual_norm(w_eq1)
    res = sol.residual_norm
    expected = s * base
    # a residual that is not finite is refused: inf would pass against an inf base
    if not (np.isfinite(res) and res <= max(10.0 * TOL_SOLVE, 2.0 * expected + 1e-12)):
        raise ValueError(
            "normalization failed its residual lock: %.3e vs base %.3e" % (res, base)
        )
    return sol


# ---------------------------------------------------------------------------
# derivative fields and edge transfer matrices


def _mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Matrix product of component-first stacks: (d, e, ...) times (e, f, ...).

    Entry (i, k) of the result is the plane sum over j of a[i, j] * b[j, k],
    with the trailing grid axes broadcast.  One call multiplies a whole grid
    of small matrices in e vectorized plane products, where numpy's batched
    ``@`` on (..., d, d) stacks makes one BLAS call per matrix.
    """
    out = a[:, 0, None] * b[0]
    for j in range(1, a.shape[1]):
        out += a[:, j, None] * b[j]
    return out


def _shift(k: np.ndarray, c: float) -> np.ndarray:
    """I + c k for a component-first stack."""
    out = c * k
    for i in range(k.shape[0]):
        out[i, i] += 1.0
    return out


# matrices per block of grid rows: the temporaries of one block stay in cache
_BLOCK = 4096
# grid rows per block of the development pass: the fields and y-transfers of
# this many rows are alive at once, and each frame step along y covers all of them
_ROWS = 64


def _rk4_transfer(ma, mm, mb, s: float) -> np.ndarray:
    """One-step RK4 transfer matrix for S' = M(t) S across one edge.

    The coefficients at the start, middle and end of the edge are
    component-first stacks; s = -h steps the same stacks backwards, which
    integrates the reversed ODE.
    """
    k1 = ma
    k2 = _mul(mm, _shift(k1, 0.5 * s))
    k3 = _mul(mm, _shift(k2, 0.5 * s))
    k4 = _mul(mb, _shift(k3, s))
    return _shift(k1 + 2.0 * k2 + 2.0 * k3 + k4, s / 6.0)


def _stack(rows, dtype) -> np.ndarray:
    """Component-first stack (d, e, ...) from nested rows of grid planes and scalars."""
    shape = np.broadcast_shapes(*(np.shape(v) for row in rows for v in row))
    m = np.empty((len(rows), len(rows[0])) + shape, dtype=dtype)
    for i, row in enumerate(rows):
        for j, v in enumerate(row):
            m[i, j] = v
    return m


def _wang_mats(w, wx, wy, uval, axis: int) -> np.ndarray:
    """d/dx (axis 0) or d/dy (axis 1) coefficient planes (3, 3, ...) for the
    stacked (f, f_z, f_zbar).

    With w_z = (w_x - i w_y)/2 the frame system reads d/dz = A, d/dzbar = B with
    A = [[0, 1, 0], [0, w_z, U e^{-w}], [e^w/2, 0, 0]] and
    B = [[0, 0, 1], [e^w/2, 0, 0], [0, conj(U) e^{-w}, conj(w_z)]],
    so d/dx = A + B and d/dy = i (A - B).
    """
    wz = 0.5 * (wx - 1j * wy)
    half_ew = 0.5 * np.exp(w)
    ue = uval * np.exp(-w)
    cue = np.conj(ue)
    cwz = np.conj(wz)
    if axis == 0:
        rows = ((0.0, 1.0, 1.0), (half_ew, wz, ue), (half_ew, cue, cwz))
    else:
        rows = ((0.0, 1j, -1j), (-1j * half_ew, 1j * wz, 1j * ue),
                (1j * half_ew, -1j * cue, -1j * cwz))
    return _stack(rows, complex)


def _cmc_mats(w, wx, wy, qval, axis: int) -> np.ndarray:
    """d/dx (axis 0) or d/dy (axis 1) planes (4, 4, ...) for the stacked
    (f, f_x, f_y, N) in R^{2,1},
    written in the conformally rescaled frame (f, e^{-w}f_x, e^{-w}f_y, N).

    Second fundamental form b11 = e^{2w} + Re q, b22 = e^{2w} - Re q,
    b12 = -Im q: trace 2 e^{2w} relative to I = e^{2w} dz dzbar gives mean
    curvature 1, and the Gauss and Codazzi equations reduce exactly to the
    normalized equation and to holomorphy of q.

    Rescaling removes the Christoffel diagonal (the w_x resp. w_y terms)
    from the tangent rows: the remaining 3x3 block is so(2,1)-valued, so
    RK4 keeps the Minkowski products of (e1, e2, N) to integrator accuracy.
    Integrating the diagonal numerically instead leaks an O(h^2) error into
    <N,N> that accumulates along the fill path and trips the hyperboloid
    gate on any solved (non-affine) w.  The conformal factor is restored
    exactly at the edge endpoints, where e^{w} is known.
    """
    ew = np.exp(w)
    emw = np.exp(-w)
    be2 = -qval.imag * emw  # b12 e^{-w}
    if axis == 0:
        be1 = ew + qval.real * emw  # b11 e^{-w}
        rows = ((0.0, ew, 0.0, 0.0), (0.0, 0.0, -wy, -be1),
                (0.0, wy, 0.0, -be2), (0.0, -be1, -be2, 0.0))
    else:
        be3 = ew - qval.real * emw  # b22 e^{-w}
        rows = ((0.0, 0.0, ew, 0.0), (0.0, 0.0, wx, -be2),
                (0.0, -wx, 0.0, -be3), (0.0, -be2, -be3, 0.0))
    return _stack(rows, float)


def _fields(sol: NormalizedSolution, grad, rows: slice, cols: slice):
    """w, its gradient and the differential at a cut of the nodes, at the
    midpoints of the cut's x-edges and at those of its y-edges: the
    (node, mid_x, mid_y) inputs of the coefficient planes.  grad is sol.w's
    ``np.gradient`` (second order on the rim too) over the whole grid."""
    h = sol.domain.h
    zz = sol.domain.zz(rows, cols)
    ev = sol.differential.eval
    fields = tuple(f[rows, cols] for f in (sol.w,) + grad)
    node = fields + (ev(zz),)
    mid_x = tuple(0.5 * (f[:-1, :] + f[1:, :]) for f in fields) + (ev(zz[:-1, :] + 0.5 * h),)
    mid_y = tuple(0.5 * (f[:, :-1] + f[:, 1:]) for f in fields) + (ev(zz[:, :-1] + 0.5j * h),)
    return node, mid_x, mid_y


def _transfers(sol: NormalizedSolution, node, mid, axis: int, t, t_rev) -> None:
    """Forward and reverse RK4 transfers of the edges along axis 0 (x) or
    1 (y) between the node planes, mid the planes at their midpoints.

    They are written into t and t_rev, (d, d) + mid's shape: edge (i, j) ->
    (i+1, j) resp. (i, j+1) and back.  The d/dx resp. d/dy coefficient
    planes are formed _BLOCK matrices at a time, so the temporaries stay in
    cache.
    """
    h = sol.domain.h
    mats = _wang_mats if sol.mode is SurfaceMode.WANG_K3 else _cmc_mats
    rows = mid[0].shape[0]
    step = max(1, _BLOCK // node[0].shape[1])
    for r in range(0, rows, step):
        s = min(r + step, rows)
        m = mats(*(f[r:s + 1 - axis] for f in node), axis=axis)
        mm = mats(*(f[r:s] for f in mid), axis=axis)
        if axis == 0:
            ma, mb = m[:, :, :-1], m[:, :, 1:]
        else:
            ma, mb = m[..., :-1], m[..., 1:]
        t[:, :, r:s] = _rk4_transfer(ma, mm, mb, h)
        t_rev[:, :, r:s] = _rk4_transfer(mb, mm, ma, -h)


# ---------------------------------------------------------------------------
# development


@dataclass
class DevelopedSurface:
    solution: NormalizedSolution  # the solution the frames were developed from
    positions: np.ndarray  # (n, n, 3) real
    metric: np.ndarray  # (n, n) log-density of the induced metric, read off the frames
    normals: np.ndarray | None  # HARMONIC_K2 only: the Gauss map N, (n, n, 3)
    imag_max: float  # WANG only: largest |Im f| seen (reality drift)
    conj_defect: float  # WANG only: max |f_zbar - conj(f_z)|
    hyperboloid_drift: float  # HARMONIC_K2 only: max |<N,N> + 1|
    holonomy_defect: float  # measured by the pass that developed the frames
    metric_roundtrip_error: float  # max |metric - w| (WANG) resp. |metric - 2w| (HARMONIC_K2)

    @property
    def domain(self) -> GridDomain:
        return self.solution.domain


def mdot(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Minkowski product with signature (+, +, -) on the last axis."""
    return u[..., 0] * v[..., 0] + u[..., 1] * v[..., 1] - u[..., 2] * v[..., 2]


def _loop_ratio(down, left, up, right, S):
    """Per-node max |(I - loop) S| / max |S| for the plaquette loop right, up,
    left, down from the corner."""
    delta = _mul(_shift(_mul(_mul(_mul(down, left), up), right), -1.0), S)
    return np.max(np.abs(delta), axis=(0, 1)) / np.max(np.abs(S), axis=(0, 1))


def _develop_pass(sol: NormalizedSolution, loops: NormalizedSolution | None = None):
    """Develop sol's frames and reduce them, in one pass over blocks of _ROWS
    grid rows, to positions, metric, normals and maxima.

    The pass first walks the central column's x-edges from the frame at the
    central node, built from a cut of the fields to that column.  Each block
    then forms the fields of its rows and of the row after it (the far side
    of its plaquettes) and their y-transfers, and develops its rows along y
    from the central column into a block-local frame buffer.  The buffer is
    column-major, (n, d, 3, rows) for d frame vectors in R^3, so each step
    of the y-sweep multiplies one contiguous (d, 3, rows) slab; the rest of
    the pass reads it through the (rows, n, d, 3) view.  For HARMONIC_K2
    the block scales the tangent rows back to f_x = e^w e1, f_y = e^w e2.
    It refuses frames that are not finite, writes its rows of the positions,
    of the metric (``DevelopedSurface.metric``) and, for HARMONIC_K2, of the
    normals, and reduces its plaquettes to their per-node ratio a few rows
    at a time, each chunk building its own x-transfers.  The plaquette loops
    take their transfers from ``loops`` (sol when not given), so the frames
    of one solution can be checked against the transfers of another.  Beside
    the outputs, only the gradient planes, one block's frames, fields and
    y-transfers and one chunk's x-transfers are alive per process.

    The blocks run in ``parts``, one process each (``run_parts``): the
    outputs live in shared memory, and each part returns its maxima through
    its pipe.  No block reads another's frames, so every bit is the same at
    any part count.  Returns sol's ``DevelopedSurface``: the outputs and the
    maxima of the frame checks, of the plaquette ratio as ``holonomy_defect``
    defines it and of |metric - w| (WANG_K3) resp. |metric - 2 w|; a maximum
    the mode does not measure reads 0.
    """
    loops = sol if loops is None else loops
    n = sol.domain.n
    c = (n - 1) // 2
    cmc = sol.mode is SurfaceMode.HARMONIC_K2
    if cmc:
        s0 = np.eye(4, 3, k=-1, dtype=float)  # f = 0, e1, e2, N at the origin
    else:  # as develop_affine_sphere states it
        a = np.exp(0.5 * sol.w[c, c])
        s0 = np.array([[0.0, 0.0, 1.0], [0.5 * a, -0.5j * a, 0.0], [0.5 * a, 0.5j * a, 0.0]])
    d, dtype = s0.shape[0], s0.dtype
    grad = tuple(np.gradient(sol.w, sol.domain.h, edge_order=2))
    loop_grad = grad if loops is sol else tuple(np.gradient(loops.w, loops.domain.h, edge_order=2))
    node, mid_x, _ = _fields(sol, grad, slice(None), slice(c, c + 1))
    tx, tx_rev = np.empty((2, d, d, n - 1, 1), dtype)
    _transfers(sol, node, mid_x, 0, tx, tx_rev)
    column = np.empty((n,) + s0.shape, dtype)
    column[c] = s0
    for i in range(c, n - 1):
        column[i + 1] = _mul(tx[:, :, i, 0], column[i])
    for i in range(c - 1, -1, -1):
        column[i] = _mul(tx_rev[:, :, i, 0], column[i + 1])
    positions = shared_array((n, n, 3), float)
    metric = shared_array((n, n), float)
    normals = shared_array((n, n, 3), float) if cmc else None
    step = max(1, _BLOCK // (n - 1))

    def develop_blocks(_, b0, b1):
        # one buffer each for a block's frames and y-transfers (a second for
        # the loops' y-transfers when those are another solution's) and for a
        # chunk's x-transfers, refilled by every block and chunk: arrays freed
        # and allocated anew per block let the allocator hand their pages back
        # and fault them in again
        frames = np.empty((n,) + s0.shape + (min(_ROWS, n),), dtype)
        ty_buf = np.empty((2, d, d, min(_ROWS + 1, n), n - 1), dtype)
        loop_buf = ty_buf if loops is sol else np.empty_like(ty_buf)
        tx_buf = np.empty((2, d, d, step, n), dtype)
        top = np.zeros(5)  # the maxima, in DevelopedSurface's order
        for r0 in range(b0 * _ROWS, min(b1 * _ROWS, n), _ROWS):
            r1 = min(r0 + _ROWS, n)
            node, mid_x, mid_y = _fields(sol, grad, slice(r0, r1 + 1), slice(None))
            ty, ty_rev = ty_buf[:, :, :, :mid_y[0].shape[0]]
            _transfers(sol, node, mid_y, 1, ty, ty_rev)
            G = frames[..., :r1 - r0]
            G[c] = column[r0:r1].transpose(1, 2, 0)
            for j in range(c, n - 1):
                G[j + 1] = _mul(ty[:, :, :r1 - r0, j], G[j])
            for j in range(c - 1, -1, -1):
                G[j] = _mul(ty_rev[:, :, :r1 - r0, j], G[j + 1])
            F = G.transpose(3, 0, 1, 2)
            if cmc:
                F[:, :, 1:3] *= np.exp(sol.w[r0:r1])[:, :, None, None]
            if not np.all(np.isfinite(F)):
                raise ArithmeticError("frame propagation produced non-finite values")
            positions[r0:r1] = F[:, :, 0, :].real
            # the metric is a measure its caller judges (cli refuses one that
            # is not finite), so frames too large for it raise no warning
            with np.errstate(all="ignore"):
                if cmc:  # <f_x, f_x> = <f_y, f_y> = e^{2w}
                    fx, fy = F[:, :, 1, :], F[:, :, 2, :]
                    metric[r0:r1] = np.log(0.5 * (mdot(fx, fx) + mdot(fy, fy)))
                else:  # the frame volume det(f, f_z, f_zbar) is (i/2) e^w
                    metric[r0:r1] = np.log(2.0 * np.abs(np.linalg.det(F)))
                target = 2.0 * sol.w[r0:r1] if cmc else sol.w[r0:r1]
                top[4] = np.maximum(top[4], np.max(np.abs(metric[r0:r1] - target)))
            if cmc:
                N = normals[r0:r1] = F[:, :, 3, :]
                top[2] = np.maximum(top[2], np.max(np.abs(mdot(N, N) + 1.0)))
            else:
                np.maximum(top[:2], (np.max(np.abs(F[:, :, 0, :].imag)),
                                     np.max(np.abs(F[:, :, 2, :] - np.conj(F[:, :, 1, :])))),
                           out=top[:2])
            if loops is not sol:
                node, mid_x, mid_y = _fields(loops, loop_grad, slice(r0, r1 + 1), slice(None))
                ty, ty_rev = loop_buf[:, :, :, :mid_y[0].shape[0]]
                _transfers(loops, node, mid_y, 1, ty, ty_rev)
            k = mid_x[0].shape[0]  # the block's plaquette rows
            for p in range(0, k, step):
                q = min(p + step, k)
                tx, tx_rev = tx_buf[:, :, :, :q - p]
                _transfers(loops, tuple(f[p:q + 1] for f in node), tuple(f[p:q] for f in mid_x),
                           0, tx, tx_rev)
                C = F[p:q, :-1]
                if cmc:  # the transfers act on the rescaled frame
                    C = C.copy()
                    C[:, :, 1:3] *= np.exp(-loops.w[r0 + p:r0 + q, :-1])[:, :, None, None]
                rel = _loop_ratio(ty_rev[:, :, p:q], tx_rev[..., 1:], ty[:, :, p + 1:q + 1],
                                  tx[..., :-1], C.transpose(2, 3, 0, 1))
                # plaquette rows and columns 1 to n - 3: the rim's are left out
                lo, hi = max(0, 1 - r0 - p), min(q - p, n - 2 - r0 - p)
                if lo < hi:
                    top[3] = np.maximum(top[3], np.max(rel[lo:hi, 1:-1]))
            del node, mid_x, mid_y
        return top

    top = np.max(run_parts(parts(-(-n // _ROWS)), develop_blocks), axis=0)
    return DevelopedSurface(sol, positions, metric, normals, *top.tolist())


def develop_affine_sphere(sol: NormalizedSolution) -> DevelopedSurface:
    """Integrate the affine frame (f, f_z, f_zbar) over the grid.

    The initial frame at the origin is f = (0,0,1), f_z = (a, -ia, 0)/2 with
    a = e^{w(0)/2}, f_zbar = conj(f_z): it makes the induced metric at the
    origin equal e^{w(0)} |dz|^2, keeps f real, and fixes the frame volume
    det(f, f_z, f_zbar) = (i/2) e^w, which the system then transports (the
    coefficient trace is exactly d(w)), so the metric log(2 |det|) compares
    with w.  Reality is not enforced during propagation; its drift is
    measured and gated.
    """
    if sol.mode is not SurfaceMode.WANG_K3:
        raise ValueError("affine development needs the k=3 normalization")
    check_converged(sol.residual_norm)
    surface = _develop_pass(sol)
    if surface.imag_max > 1e-6:
        raise ArithmeticError("developed surface lost reality: |Im f| = %.3e" % surface.imag_max)
    return surface


def develop_cmc(sol: NormalizedSolution) -> DevelopedSurface:
    """Integrate the Gauss-Weingarten frame (f, f_x, f_y, N) in R^{2,1}.

    Starts at f = 0, f_x = e^{w(0)} e_1, f_y = e^{w(0)} e_2, N = (0, 0, 1):
    the future-pointing unit timelike normal on the hyperboloid.  The flat
    Minkowski products <f_x, f_x> = <f_y, f_y> = e^{2w} give the metric,
    their symmetrized log, which compares with 2 w.  Aborts if the normal
    drifts off the hyperboloid by more than 1e-5 anywhere.  The surface
    carries the Gauss map field N as its ``normals``.
    """
    if sol.mode is not SurfaceMode.HARMONIC_K2:
        raise ValueError("CMC development needs the k=2 normalization")
    check_converged(sol.residual_norm)
    surface = _develop_pass(sol)
    if surface.hyperboloid_drift > 1e-5:
        raise ArithmeticError("Gauss map left the hyperboloid: |<N,N>+1| = %.3e"
                              % surface.hyperboloid_drift)
    return surface


def holonomy_defect(surface: DevelopedSurface, sol: NormalizedSolution) -> float:
    """Worst relative frame mismatch around an elementary plaquette.

    Each of the four edges is traversed with the same one-step RK4 used in
    development (reverse edges integrate the reversed ODE), built from sol's
    w.  The loop is applied to the developed frame at the plaquette corner and
    compared with max-norms.  Plaquettes touching the region rim are
    excluded: the rim's one-sided gradient stencils would otherwise dominate
    the measurement.  Development records this value in
    ``surface.holonomy_defect``; this runs the same pass again, developing
    the frames from the surface's own solution and closing the loops with
    sol's transfers, so a surface and a solution that do not belong together
    can be checked against each other.
    """
    return _develop_pass(surface.solution, sol).holonomy_defect


def reconstruct_metric(surface: DevelopedSurface) -> np.ndarray:
    """The metric log-density the develop pass read off the frames,
    ``surface.metric``: compare with w_norm (WANG_K3) resp. 2 w_norm
    (HARMONIC_K2).  Kept under this name because the benchmark's tracer
    (``perfbench/child.py``) wraps it."""
    return surface.metric


def export_mesh(surface: DevelopedSurface, path) -> None:
    """Wavefront OBJ: n^2 vertices, 2(n-1)^2 triangles, 9 significant digits.

    Cell (i, j) with corners a, b, c, d at (i, j), (i+1, j), (i+1, j+1),
    (i, j+1) is split into (a, b, c) and (a, c, d), one two-line table entry.
    """
    P = surface.positions
    if not np.all(np.isfinite(P)):
        raise ValueError("cannot export non-finite positions")
    n = surface.domain.n
    write_table(path, None, "v %.9g %.9g %.9g", np.moveaxis(P, -1, 0), "\n")
    idx = np.arange(1, n * n + 1).reshape(n, n)
    a, b, c, d = idx[:-1, :-1], idx[1:, :-1], idx[1:, 1:], idx[:-1, 1:]
    write_table(path, None, "f %d %d %d\nf %d %d %d", (a, b, c, a, c, d), "\n", mode="a")


def write_gauss_csv(path, domain: GridDomain, normals: np.ndarray) -> None:
    write_table(path, "x,y,N1,N2,N3", "%.17g,%.17g,%.17g,%.17g,%.17g",
                (domain.axis[:, None], domain.axis[None, :], *np.moveaxis(normals, -1, 0)))
