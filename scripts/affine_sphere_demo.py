"""Develop the affine sphere over U = z and export it as an OBJ mesh.

Solves the k = 3 equation for phi = 4U with the capped-profile boundary,
converts to Wang's normalization, integrates the frame system, and reports
the two consistency numbers that matter: the holonomy defect of the
transport and the metric round-trip error log(2|det F|) vs w.
"""

import argparse
import os

import numpy as np

from vortexlab.entire import EntireFunction
from vortexlab.grid import GridDomain
from vortexlab import solve
from vortexlab import surfaces


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--half-width", type=float, default=4.0)
    ap.add_argument("--nodes", type=int, default=161)
    ap.add_argument("--out", default="out_affine")
    args = ap.parse_args()

    diff = EntireFunction(p=(0.0, 1.0))
    dom = GridDomain(args.half_width, args.nodes)
    prob = surfaces.geometric_problem(diff, surfaces.SurfaceMode.WANG_K3, dom)

    w0 = solve.profile_field(prob, clip=solve.PROFILE_CLIP)
    w, rep = solve.solve_newton(prob, w0, solve.make_boundary_complete(prob, 0.0))
    print("solved: %d newton its, residual %.3e" % (rep.iterations, rep.residual))

    sol = surfaces.normalize(w, prob, surfaces.SurfaceMode.WANG_K3)
    K = surfaces.blaschke_curvature(sol)
    region = dom.interior_mask() & dom.inner_mask()
    print("blaschke curvature on inner square: [%.4f, %.4e]" %
          (K[region].min(), K[region].max()))

    surf = surfaces.develop_affine_sphere(sol)
    defect = surf.holonomy_defect
    rec = surfaces.reconstruct_metric(surf)
    rec_err = np.abs(rec - sol.w)[1:-1, 1:-1].max()
    print("holonomy defect %.3e, metric round-trip %.3e" % (defect, rec_err))

    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, "affine_sphere.obj")
    surfaces.export_mesh(surf, path)
    print("wrote %s (%d vertices)" % (path, dom.n * dom.n))


if __name__ == "__main__":
    main()
