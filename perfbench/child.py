"""One `vortexlab run` process, as started by perfbench/run.py.

    python3 child.py <config.json> <record.json> [--trace | --setup-only]

It does what the `vortexlab` console script does (`cli.main(["run", cfg])`)
and writes a small JSON record next to the run: the monotonic time at which
`cli.run` was entered (the end of set-up), the import time of
`vortexlab.cli`, the BLAS thread count in effect, and, with --trace, the
spans of the package's public functions.

Tracing wraps public functions only, from here, without editing the
package.  Each wrapper is installed on every `vortexlab` module attribute
and class attribute that holds the original, so a caller that imported the
name (`cli` binds `write_field_csv`) and one that looks it up through module
globals (`solve_complete` calling `solve_newton`) both hit it.  Private
helpers are not wrapped; their time is self time of the public caller.

--setup-only replaces `cli.run` by a stub that records the time and returns
0, so the process measures interpreter start, imports and `load_config`.
"""

from __future__ import annotations

import ctypes
import functools
import json
import os
import sys
import time

# (span name, module, attribute path) of every public function traced
TRACED = (
    ("entire.log_abs", "vortexlab.entire", "EntireFunction.log_abs"),
    ("entire.eval", "vortexlab.entire", "EntireFunction.eval"),
    ("entire.zeros", "vortexlab.entire", "EntireFunction.zeros"),
    ("grid.residual", "vortexlab.grid", "VortexProblem.residual"),
    ("grid.rhs_prime", "vortexlab.grid", "VortexProblem.rhs_prime"),
    ("grid.write_field_csv", "vortexlab.grid", "write_field_csv"),
    ("solve.solve_newton", "vortexlab.solve", "solve_newton"),
    ("solve.solve_complete", "vortexlab.solve", "solve_complete"),
    ("solve.two_solutions", "vortexlab.solve", "two_solutions"),
    ("invariants.checks", "vortexlab.invariants", "subunity_check"),
    ("invariants.checks", "vortexlab.invariants", "curvature_field"),
    ("invariants.checks", "vortexlab.invariants", "diagnostics"),
    ("invariants.checks", "vortexlab.invariants", "no_gap_check"),
    ("invariants.checks", "vortexlab.invariants", "ordering_check"),
    ("invariants.completeness_probe", "vortexlab.invariants", "completeness_probe"),
    ("invariants.write_rays_csv", "vortexlab.invariants", "write_rays_csv"),
    ("surfaces.normalize", "vortexlab.surfaces", "normalize"),
    ("surfaces.develop", "vortexlab.surfaces", "develop_affine_sphere"),
    ("surfaces.develop", "vortexlab.surfaces", "develop_cmc"),
    ("surfaces.holonomy_defect", "vortexlab.surfaces", "holonomy_defect"),
    ("surfaces.reconstruct_metric", "vortexlab.surfaces", "reconstruct_metric"),
    ("surfaces.export_mesh", "vortexlab.surfaces", "export_mesh"),
    ("surfaces.write_gauss_csv", "vortexlab.surfaces", "write_gauss_csv"),
    ("cli.load_config", "vortexlab.cli", "load_config"),
    ("cli.run", "vortexlab.cli", "run"),
)


def _file_bytes(path_arg):
    def after(args, kwargs, result):
        path = kwargs.get("path", args[path_arg] if len(args) > path_arg else None)
        return {"bytes": os.path.getsize(path)}

    return after


def _newton_counts(args, kwargs, result):
    rep = result[1]
    return {
        "newton_steps": rep.iterations,
        "backtracks": getattr(rep, "backtracks", 0),
        "cg_iterations": getattr(rep, "cg_iterations", 0),
    }


def _ladder_counts(args, kwargs, result):
    rep = result[1]
    return {"rungs": len(rep.trace), "stabilized": int(bool(rep.stabilized))}


def _develop_counts(args, kwargs, result):
    surface = result[0] if isinstance(result, tuple) else result
    return {"develop_nodes": surface.domain.n ** 2}


# counters read from a call's arguments or result, after the span has ended
AFTER = {
    "grid.write_field_csv": _file_bytes(0),
    "invariants.write_rays_csv": _file_bytes(0),
    "surfaces.export_mesh": _file_bytes(1),
    "surfaces.write_gauss_csv": _file_bytes(0),
    "solve.solve_newton": _newton_counts,
    "solve.solve_complete": _ladder_counts,
    "surfaces.develop": _develop_counts,
}


class Tracer:
    """Spans [name, start, end, parent index, counters], kept in memory."""

    def __init__(self):
        self.spans = []
        self._stack = []

    def wrap(self, name, fn):
        after = AFTER.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, time.perf_counter(), None, self._stack[-1] if self._stack else None, {}]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if after is not None:
                span[4] = after(args, kwargs, result)
            return result

        return traced


def _package_modules():
    return [m for k, m in sorted(sys.modules.items()) if k.split(".")[0] == "vortexlab" and m]


def _replace_everywhere(original, wrapper) -> int:
    """Rebind every vortexlab module or class attribute that holds `original`."""
    hits = 0
    for mod in _package_modules():
        classes = [
            v
            for v in vars(mod).values()
            if isinstance(v, type) and v.__module__.split(".")[0] == "vortexlab"
        ]
        for owner in [mod] + classes:
            for key, value in list(vars(owner).items()):
                if value is original:
                    setattr(owner, key, wrapper)
                    hits += 1
    return hits


def install(tracer: Tracer) -> list:
    """Wrap every traced function; return those the package no longer has."""
    import importlib

    missing = []
    for name, modname, attr in TRACED:
        owner = importlib.import_module(modname)
        *outer, leaf = attr.split(".")
        for part in outer:
            owner = getattr(owner, part, None)
        original = getattr(owner, leaf, None) if owner is not None else None
        if original is None or not _replace_everywhere(original, tracer.wrap(name, original)):
            missing.append("%s:%s" % (modname, attr))
    return missing


def blas_threads():
    """(library, thread count) of the OpenBLAS loaded in this process."""
    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for sym in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return os.path.basename(lib), int(fn())
    return None, None


def environment() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    lib, threads = blas_threads()
    return {
        "python": "%d.%d.%d" % sys.version_info[:3],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": "%s %s" % (blas.get("name"), blas.get("version")),
        "blas_library": lib,
        "blas_threads": threads,
    }


def main(argv) -> int:
    config, record_path = argv[0], argv[1]
    mode = argv[2] if len(argv) > 2 else ""
    record = {}
    t0 = time.perf_counter()
    import vortexlab.cli as cli

    record["import_s"] = time.perf_counter() - t0

    tracer = Tracer()
    if mode == "--trace":
        record["missing"] = install(tracer)
    program_run = cli.run

    def run(cfg):
        record["run_entry"] = time.monotonic()
        if mode == "--setup-only":
            return 0
        return program_run(cfg)

    cli.run = run
    try:
        status = cli.main(["run", config])
    finally:
        record["spans"] = tracer.spans
        if mode == "--setup-only":
            record["env"] = environment()
        with open(record_path, "w") as fh:
            json.dump(record, fh)
    return status


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
