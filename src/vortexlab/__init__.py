"""vortexlab: a numerical laboratory for planar vortex equations.

Solves Delta w = e^w - |phi|^2 e^{-(k-1)w} for entire phi = P e^Q on square
grids, probes completeness and uniqueness of the solutions, and develops the
two geometric avatars: definite affine spheres (k=3) and constant mean
curvature spacelike surfaces in Minkowski 3-space (k=2).
"""

from .entire import EntireFunction
from .grid import GridDomain, VortexProblem
from .solve import solve_complete, solve_newton, monotone_solve, two_solutions

__version__ = "0.1.0"

__all__ = [
    "EntireFunction",
    "GridDomain",
    "VortexProblem",
    "solve_complete",
    "solve_newton",
    "monotone_solve",
    "two_solutions",
    "__version__",
]
