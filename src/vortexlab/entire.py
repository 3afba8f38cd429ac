"""Entire functions of the form P(z) * exp(Q(z)) with polynomial P and Q.

Everything downstream works with log|phi| rather than phi itself: the vortex
solvers only ever consume 2*log|phi| as a coefficient field, and that stays
finite (exactly -inf at zeros of P) even where Re Q is large enough that
exp(Q) would overflow a double.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

TOL_ROOTS = 1e-10


def _trim(coeffs) -> tuple[complex, ...]:
    """Drop trailing coefficients that are exactly zero (keep at least one)."""
    c = [complex(x) for x in coeffs]
    while len(c) > 1 and c[-1] == 0:
        c.pop()
    return tuple(c)


@dataclass(frozen=True)
class EntireFunction:
    """phi(z) = P(z) * exp(Q(z)).

    Coefficients are stored ascending, so p=(a0, a1, a2) means
    a0 + a1 z + a2 z^2.  The default exponent is the zero polynomial.
    """

    p: tuple[complex, ...]
    q: tuple[complex, ...] = (0j,)

    def __post_init__(self):
        p = _trim(self.p)
        q = _trim(self.q)
        if not all(np.isfinite(c) for c in p + q):
            raise ValueError("coefficients must be finite")
        if p == (0j,):
            raise ValueError("polynomial part must not be identically zero")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "q", q)

    @property
    def degree(self) -> int:
        return len(self.p) - 1

    def eval(self, z):
        """phi(z) itself.  Raises OverflowError instead of returning inf;
        use log_abs for anything that has to survive large Re Q."""
        z = np.asarray(z, dtype=complex)
        with np.errstate(over="ignore", invalid="ignore"):
            out = np.polyval(self.p[::-1], z) * np.exp(np.polyval(self.q[::-1], z))
        if not np.all(np.isfinite(out)):
            raise OverflowError("phi overflows here; work with log_abs instead")
        return out

    def log_abs(self, z):
        """log|phi(z)| = log|P(z)| + Re Q(z), exactly -inf at zeros of P."""
        z = np.asarray(z, dtype=complex)
        pz = np.polyval(self.p[::-1], z)
        with np.errstate(divide="ignore"):
            return np.log(np.abs(pz)) + np.real(np.polyval(self.q[::-1], z))

    def zeros(self) -> np.ndarray:
        """All roots of the polynomial part: the eigenvalues of its companion
        matrix (``np.roots``), a backward-stable solve.

        Acceptance is the scaled residual |P_monic(z_i)| <= TOL_ROOTS *
        (1+|z_i|)^deg, which a multiple root meets although its eigenvalues
        split by about eps^(1/m); a P whose coefficients are too large for
        its computed roots to meet it is refused with ValueError.  Either side
        rounds to +inf past the largest double (inf - inf refuses, as NaN).
        The roots come in ``np.roots``' order.  ``np.roots`` calls LAPACK, so
        this runs in the parent process, never in a ``run_parts`` worker.
        """
        d = self.degree
        if d == 0:
            return np.zeros(0, dtype=complex)
        monic = np.asarray(self.p, dtype=complex) / self.p[-1]
        z = np.roots(monic[::-1]).astype(complex)
        with np.errstate(over="ignore", invalid="ignore"):
            if not np.all(np.abs(np.polyval(monic[::-1], z)) <= TOL_ROOTS * (1.0 + np.abs(z)) ** d):
                raise ValueError("the computed roots do not reach the residual target")
        return z
