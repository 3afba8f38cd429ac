"""Exact bytes of the text artifacts, and the writer names the benchmark traces."""

import importlib
import importlib.util
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from vortexlab import invariants as inv
from vortexlab import surfaces as dev
from vortexlab.grid import GridDomain, write_field_csv

DOM = GridDomain(1.0, 5)  # axis -1, -0.5, 0, 0.5, 1
I, J = np.meshgrid(np.arange(5), np.arange(5), indexing="ij")


def _field(path):
    write_field_csv(path, DOM, 0.1 * I - J)


def _rays(path):
    rays = [
        inv.RayProfile(0.0, np.array([0.0, 0.5]), np.array([0.0, 0.1 + 0.2]), "CONVERGENT", None),
        inv.RayProfile(np.pi, np.array([0.0, 0.5]), np.array([0.0, 1.0 / 3.0]), "DIVERGENT", None),
    ]
    inv.write_rays_csv(path, rays)


def _gauss(path):
    normals = np.stack([0.1 * I, -0.5 * J, 1.0 + 0.25 * I * J], axis=-1)
    dev.write_gauss_csv(path, DOM, normals)


def _obj(path):
    i, j = np.meshgrid(np.arange(3), np.arange(3), indexing="ij")
    positions = np.stack([i / 3.0, j - 1.0, 0.5 * i * j], axis=-1)
    # export_mesh reads only the positions and the grid size
    dev.export_mesh(SimpleNamespace(positions=positions, domain=SimpleNamespace(n=3)), path)


# CSVs end their lines in CRLF, the OBJ in LF; %.17g keeps signed zeros
GOLDEN = {
    "field": (_field, (
        b"x,y,value\r\n"
        b"-1,-1,0\r\n-1,-0.5,-1\r\n-1,0,-2\r\n-1,0.5,-3\r\n-1,1,-4\r\n"
        b"-0.5,-1,0.10000000000000001\r\n-0.5,-0.5,-0.90000000000000002\r\n"
        b"-0.5,0,-1.8999999999999999\r\n-0.5,0.5,-2.8999999999999999\r\n"
        b"-0.5,1,-3.8999999999999999\r\n"
        b"0,-1,0.20000000000000001\r\n0,-0.5,-0.80000000000000004\r\n0,0,-1.8\r\n"
        b"0,0.5,-2.7999999999999998\r\n0,1,-3.7999999999999998\r\n"
        b"0.5,-1,0.30000000000000004\r\n0.5,-0.5,-0.69999999999999996\r\n0.5,0,-1.7\r\n"
        b"0.5,0.5,-2.7000000000000002\r\n0.5,1,-3.7000000000000002\r\n"
        b"1,-1,0.40000000000000002\r\n1,-0.5,-0.59999999999999998\r\n"
        b"1,0,-1.6000000000000001\r\n1,0.5,-2.6000000000000001\r\n1,1,-3.6000000000000001\r\n"
    )),
    "rays": (_rays, (
        b"theta,r,length\r\n"
        b"0,0,0\r\n0,0.5,0.30000000000000004\r\n"
        b"3.1415926535897931,0,0\r\n3.1415926535897931,0.5,0.33333333333333331\r\n"
    )),
    "gauss": (_gauss, (
        b"x,y,N1,N2,N3\r\n"
        b"-1,-1,0,-0,1\r\n-1,-0.5,0,-0.5,1\r\n-1,0,0,-1,1\r\n-1,0.5,0,-1.5,1\r\n-1,1,0,-2,1\r\n"
        b"-0.5,-1,0.10000000000000001,-0,1\r\n-0.5,-0.5,0.10000000000000001,-0.5,1.25\r\n"
        b"-0.5,0,0.10000000000000001,-1,1.5\r\n-0.5,0.5,0.10000000000000001,-1.5,1.75\r\n"
        b"-0.5,1,0.10000000000000001,-2,2\r\n"
        b"0,-1,0.20000000000000001,-0,1\r\n0,-0.5,0.20000000000000001,-0.5,1.5\r\n"
        b"0,0,0.20000000000000001,-1,2\r\n0,0.5,0.20000000000000001,-1.5,2.5\r\n"
        b"0,1,0.20000000000000001,-2,3\r\n"
        b"0.5,-1,0.30000000000000004,-0,1\r\n0.5,-0.5,0.30000000000000004,-0.5,1.75\r\n"
        b"0.5,0,0.30000000000000004,-1,2.5\r\n0.5,0.5,0.30000000000000004,-1.5,3.25\r\n"
        b"0.5,1,0.30000000000000004,-2,4\r\n"
        b"1,-1,0.40000000000000002,-0,1\r\n1,-0.5,0.40000000000000002,-0.5,2\r\n"
        b"1,0,0.40000000000000002,-1,3\r\n1,0.5,0.40000000000000002,-1.5,4\r\n"
        b"1,1,0.40000000000000002,-2,5\r\n"
    )),
    "obj": (_obj, (
        b"v 0 -1 0\nv 0 0 0\nv 0 1 0\n"
        b"v 0.333333333 -1 0\nv 0.333333333 0 0.5\nv 0.333333333 1 1\n"
        b"v 0.666666667 -1 0\nv 0.666666667 0 1\nv 0.666666667 1 2\n"
        b"f 1 4 5\nf 1 5 2\nf 2 5 6\nf 2 6 3\nf 4 7 8\nf 4 8 5\nf 5 8 9\nf 5 9 6\n"
    )),
}


@pytest.mark.parametrize("kind", sorted(GOLDEN))
def test_writer_golden_bytes(tmp_path, kind):
    write, expected = GOLDEN[kind]
    path = tmp_path / kind
    write(path)
    assert path.read_bytes() == expected


def test_benchmark_traced_names_resolve():
    # perfbench/child.py wraps these functions by name; a renamed public
    # function would otherwise only show up as a failed traced bench run
    child_py = Path(__file__).resolve().parents[1] / "perfbench" / "child.py"
    spec = importlib.util.spec_from_file_location("perfbench_child", child_py)
    child = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(child)
    assert child.TRACED
    for _span, modname, attr in child.TRACED:
        owner = importlib.import_module(modname)
        for part in attr.split("."):
            owner = getattr(owner, part)
        assert callable(owner), "%s:%s" % (modname, attr)
