"""Entire functions of the form P(z) * exp(Q(z)) with polynomial P and Q.

Everything downstream works with log|phi| rather than phi itself: the vortex
solvers only ever consume 2*log|phi| as a coefficient field, and that stays
finite (exactly -inf at zeros of P) even where Re Q is large enough that
exp(Q) would overflow a double.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.polynomial import polynomial as npoly

TOL_ROOTS = 1e-10
MAX_ABERTH = 500


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

    def is_polynomial(self) -> bool:
        """True when the exponent is constant, i.e. phi is a polynomial up to scale."""
        return len(self.q) <= 1

    def eval(self, z):
        """phi(z) itself.  Raises OverflowError instead of returning inf;
        use log_abs for anything that has to survive large Re Q."""
        z = np.asarray(z, dtype=complex)
        with np.errstate(over="ignore", invalid="ignore"):
            out = npoly.polyval(z, np.asarray(self.p)) * np.exp(npoly.polyval(z, np.asarray(self.q)))
        if not np.all(np.isfinite(out)):
            raise OverflowError("phi overflows here; work with log_abs instead")
        return out

    def log_abs(self, z):
        """log|phi(z)| = log|P(z)| + Re Q(z), exactly -inf at zeros of P."""
        z = np.asarray(z, dtype=complex)
        pz = npoly.polyval(z, np.asarray(self.p))
        with np.errstate(divide="ignore"):
            return np.log(np.abs(pz)) + np.real(npoly.polyval(z, np.asarray(self.q)))

    def zeros(self) -> np.ndarray:
        """All roots of the polynomial part, by simultaneous Aberth iteration.

        Acceptance is the scaled residual |P_monic(z_i)| <= TOL_ROOTS *
        (1+|z_i|)^deg, meaningful also for clustered (multiple) roots, where
        the iterates stall at distance ~ TOL_ROOTS^(1/m) from the true root.
        Output is sorted by (Re, Im) so runs are reproducible.
        """
        d = self.degree
        if d == 0:
            return np.zeros(0, dtype=complex)
        monic = np.asarray(self.p, dtype=complex) / self.p[-1]
        dmonic = npoly.polyder(monic)
        radius = 1.0 + np.max(np.abs(monic[:-1]))
        ang = 2 * np.pi * (np.arange(d) + 0.5) / d + 0.4
        # slight radial wobble: breaks symmetric stalls for real-coefficient P
        z = radius * np.exp(1j * ang) * (1 + 0.02 * np.cos(3 * ang))
        ok = np.zeros(d, dtype=bool)
        for _ in range(MAX_ABERTH):
            pz = npoly.polyval(z, monic)
            ok = np.abs(pz) <= TOL_ROOTS * (1.0 + np.abs(z)) ** d
            dpz = npoly.polyval(z, dmonic)
            with np.errstate(divide="ignore", invalid="ignore"):
                newton = pz / dpz
                pair = z[:, None] - z[None, :]
                np.fill_diagonal(pair, np.inf)
                repel = np.sum(1.0 / pair, axis=1)
                corr = newton / (1.0 - newton * repel)
            if np.all(ok):
                # the residual target still admits root errors near 1e-8 on
                # simple roots; one more step on every root squares them
                z = z - np.where(np.isfinite(corr), corr, 0.0)
                break
            corr = np.where(np.isfinite(corr), corr, 0.05 * radius * np.exp(1j * ang))
            z = z - np.where(ok, 0.0, corr)
        if not np.all(ok):
            raise ValueError("root iteration did not reach the residual target")
        order = np.lexsort((np.round(z.imag, 12), np.round(z.real, 12)))
        return z[order]
