"""The three `vortexlab run` workloads, their seeds, and the output check.

Seed s turns the plane by m = s mod 4 quarter turns: phi (or the
differential) becomes phi(i^m z), so coefficient a_j is multiplied by
i^(j m), exactly.  The square grid is invariant under quarter turns, so
every seed poses the same problem turned on the grid: the solver does the
same work, and w at the origin, the inner-square extremes and the sorted
lengths of the four axis rays equal the seed-0 reference.  Other angles
change the work (pi/4 made dichotomy-ez at n = 161 take 11.7 s instead of
8 s), which would make runs at different seeds incomparable.
"""

from __future__ import annotations

import copy
import hashlib
import json
import os
from dataclasses import dataclass

import numpy as np

TOL_RESIDUAL = 1e-10
# field summaries must match the seed-0 reference to this relative tolerance
TOL_SUMMARY = 1e-6


@dataclass(frozen=True)
class Workload:
    name: str
    config: dict
    artifacts: tuple  # the exact file set of the output directory
    # seed-0 values: per branch w(0), inner-square min and max, sorted ray lengths
    reference: dict
    # upper bounds on the develop error measures (report.json "develop"),
    # ten times the largest value measured over the four quarter turns
    develop_bounds: dict


EZ = {"p": [[1, 0]], "q": [[0, 0], [1, 0]]}

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="dichotomy-ez",
            config={
                "phi": EZ,
                "k": 3,
                "R": 6.0,
                "n": 201,
                "mode": "EQ1",
                "pipeline": ["two-solutions", "verify"],
            },
            artifacts=(
                "invariants.json",
                "rays.csv",
                "report.json",
                "w_complete.csv",
                "w_incomplete.csv",
            ),
            reference={
                "complete": {
                    "w0": 0.0342588161532,
                    "inner_min": -0.848926281341,
                    "inner_max": 2.00004808902,
                    "rays": [2546.75778444, 2548.21411265, 2548.21411265, 18334.7499682],
                },
                "incomplete": {
                    "w0": 0.0,
                    "inner_min": -2.0,
                    "inner_max": 2.0,
                    "rays": [2.59401576687, 6.0, 6.0, 19.1673280229],
                },
            },
            develop_bounds={},
        ),
        Workload(
            name="affine-ez-develop",
            config={
                "phi": EZ,
                "k": 3,
                "R": 2.0,
                "n": 641,
                "mode": "WANG_K3",
                "pipeline": ["solve-incomplete", "verify", "develop", "export"],
            },
            artifacts=(
                "invariants.json",
                "rays.csv",
                "report.json",
                "surface.obj",
                "w_incomplete.csv",
            ),
            reference={
                "incomplete": {
                    "w0": 0.924196240747,
                    "inner_min": 0.25752957408,
                    "inner_max": 1.59086290741,
                    "rays": [2.31720674088, 3.17480210394, 3.17480210394, 4.51330244937],
                },
            },
            develop_bounds={
                "holonomy_defect": 1e-11,
                "metric_roundtrip_error": 1e-7,
                "imag_max": 1e-10,
            },
        ),
        Workload(
            name="cmc-qz",
            config={
                "phi": {"p": [[0, 0], [1, 0]]},
                "k": 2,
                "R": 6.0,
                "n": 241,
                "mode": "HARMONIC_K2",
                "pipeline": ["solve-complete", "verify", "develop", "export"],
                "tolerances": {"develop_restrict": 3},
            },
            artifacts=(
                "gauss.csv",
                "invariants.json",
                "rays.csv",
                "report.json",
                "surface.obj",
                "w_complete.csv",
            ),
            reference={
                "complete": {
                    "w0": 0.522982531017,
                    "inner_min": 0.522982531017,
                    "inner_max": 2.13834474787,
                    "rays": [27.3223591326, 27.3223591326, 27.3223591326, 27.3223591326],
                },
            },
            develop_bounds={"holonomy_defect": 2e-5, "metric_roundtrip_error": 1e-6},
        ),
    )
}


def _turn(pairs, m: int) -> list:
    """Coefficients [re, im] of a(i^m z), ascending degree."""
    out = []
    for j, (re, im) in enumerate(pairs):
        for _ in range((j * m) % 4):
            re, im = -im, re
        out.append([re + 0.0, im + 0.0])  # + 0.0 drops negative zeros
    return out


def make_config(wl: Workload, seed: int) -> dict:
    cfg = copy.deepcopy(wl.config)
    m = seed % 4
    cfg["phi"] = {key: _turn(pairs, m) for key, pairs in cfg["phi"].items()}
    cfg["output_dir"] = "out"
    return cfg


def digests(out: str) -> dict:
    """sha256 of every artifact; report.json without its timing block."""
    result = {}
    for name in sorted(os.listdir(out)):
        path = os.path.join(out, name)
        if name == "report.json":
            with open(path) as fh:
                report = json.load(fh)
            report.pop("timing", None)
            data = json.dumps(report, sort_keys=True).encode()
        else:
            with open(path, "rb") as fh:
                data = fh.read()
        result[name] = hashlib.sha256(data).hexdigest()
    return result


def check_run(wl: Workload, out: str) -> list:
    """Problems with one run's outputs that need no reference values."""
    names = sorted(os.listdir(out)) if os.path.isdir(out) else []
    if names != sorted(wl.artifacts):
        return ["artifacts %s, expected %s" % (names, sorted(wl.artifacts))]
    problems = []
    with open(os.path.join(out, "invariants.json")) as fh:
        failures = json.load(fh)["failures"]
    if failures:
        problems.append("invariant failures: %s" % ", ".join(failures))
    with open(os.path.join(out, "report.json")) as fh:
        report = json.load(fh)
    for branch, rep in sorted(report["reports"].items()):
        res = rep["final_residual"]
        if res is None or not res <= TOL_RESIDUAL:
            problems.append("%s final_residual %r > %g" % (branch, res, TOL_RESIDUAL))
    for key, bound in sorted(wl.develop_bounds.items()):
        value = report["develop"].get(key)
        if value is None or not abs(value) <= bound:
            problems.append("develop %s = %r exceeds %g" % (key, value, bound))
    return problems


def summaries(wl: Workload, cfg: dict, out: str) -> dict:
    """Per branch: w at the origin, inner-square min and max, sorted ray lengths."""
    n, R = cfg["n"], cfg["R"]
    ax = np.linspace(-R, R, n)
    keep = np.abs(ax) <= 0.5 * R + 1e-12 * R
    c = (n - 1) // 2
    with open(os.path.join(out, "invariants.json")) as fh:
        rays = json.load(fh)["rays"]
    result = {}
    for branch in sorted(rays):
        w = np.loadtxt(
            os.path.join(out, "w_%s.csv" % branch), delimiter=",", skiprows=1, usecols=2
        ).reshape(n, n)
        inner = w[np.ix_(keep, keep)]
        result[branch] = {
            "w0": float(w[c, c]),
            "inner_min": float(inner.min()),
            "inner_max": float(inner.max()),
            "rays": sorted(float(r["length"]) for r in rays[branch]),
        }
    return result


def check_summaries(wl: Workload, got: dict) -> list:
    if sorted(got) != sorted(wl.reference):
        return ["branches %s, expected %s" % (sorted(got), sorted(wl.reference))]
    problems = []
    for branch, ref in sorted(wl.reference.items()):
        for key, want in sorted(ref.items()):
            have = got[branch][key]
            pairs = zip(have, want) if isinstance(want, list) else [(have, want)]
            if any(abs(h - v) > TOL_SUMMARY * max(1.0, abs(v)) for h, v in pairs):
                problems.append("%s %s = %r, reference %r" % (branch, key, have, want))
    return problems
