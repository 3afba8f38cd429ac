"""CMC spacelike surface over the Hopf differential q = z, with Gauss map.

Solves the k = 2 equation for phi = 2q with the lifted-boundary ladder,
restricts to the center of the domain (the lifted ring is not part of any
immersion statement), integrates the Minkowski frame system, and writes the
mesh plus the unit normals N into H^2.

A grid the development cannot handle (at 65 or 81 nodes with the default
three halvings the spacing is too coarse, and the Gauss map leaves the
hyperboloid) or cannot halve is refused with one line on stderr and exit 2.
"""

import argparse
import os
import sys

import numpy as np

from vortexlab.entire import EntireFunction
from vortexlab.grid import GridDomain
from vortexlab import solve
from vortexlab import surfaces


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--half-width", type=float, default=6.0)
    ap.add_argument("--nodes", type=int, default=161)
    ap.add_argument("--restrict", type=int, default=3,
                    help="halvings of the domain before developing")
    ap.add_argument("--out", default="out_cmc")
    args = ap.parse_args()

    diff = EntireFunction(p=(0.0, 1.0))
    dom = GridDomain(args.half_width, args.nodes)
    prob = surfaces.geometric_problem(diff, surfaces.SurfaceMode.HARMONIC_K2, dom)

    w, rep = solve.solve_complete(prob)
    print("ladder: final M %s, stabilized=%s, residual %.3e"
          % (rep.final_m, rep.stabilized, rep.newton.residual))

    sol = surfaces.normalize(w, prob, surfaces.SurfaceMode.HARMONIC_K2)
    jac = surfaces.jacobian_field(sol)
    region = dom.interior_mask() & dom.inner_mask()
    print("gauss map jacobian on inner square: min %.3e" % jac[region].min())

    for _ in range(args.restrict):
        sol = sol.restrict_half()
    surf, normals = surfaces.develop_cmc(sol)
    drift = np.abs(surfaces.mdot(normals, normals) + 1.0).max()
    defect = surf.holonomy_defect
    print("developed on R = %g, n = %d: <N,N>+1 max %.3e, holonomy %.3e"
          % (sol.domain.R, sol.domain.n, drift, defect))

    os.makedirs(args.out, exist_ok=True)
    surfaces.export_mesh(surf, os.path.join(args.out, "cmc_surface.obj"))
    surfaces.write_gauss_csv(os.path.join(args.out, "gauss.csv"),
                             sol.domain, normals)
    print("wrote mesh and gauss.csv to %s/" % args.out)


if __name__ == "__main__":
    try:
        main()
    except (ValueError, ArithmeticError) as exc:
        print("cmc_gauss_demo: %s" % exc, file=sys.stderr)
        sys.exit(2)
