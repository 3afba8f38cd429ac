"""write_table on grids with many rows: the bytes of a plain per-row writer.

The reference below formats every entry of every column with fmt % row and
ends each line with the newline, which is what the artifacts held before
write_table formatted shared columns once; broadcast columns and one write
per grid row must not change a byte of it.
"""

from types import SimpleNamespace

import numpy as np

from vortexlab import surfaces as dev
from vortexlab.grid import GridDomain, write_field_csv

N = 129
DOM = GridDomain(2.0, N)


def _reference(header, fmt, columns, newline):
    rows = zip(*(np.asarray(c).ravel().tolist() for c in columns))
    text = "" if header is None else header + newline
    return (text + "".join(fmt % row + newline for row in rows)).encode()


def _grid_values(seed, special=True):
    vals = np.random.default_rng(seed).standard_normal((N, N))
    vals[3, :5] = -0.0
    vals[7, 7] = 0.0
    if special:
        vals[N - 1, 0] = -np.inf
    return vals


def _xy():
    return np.meshgrid(DOM.axis, DOM.axis, indexing="ij")


def test_field_csv_bytes(tmp_path):
    vals = _grid_values(1)
    path = tmp_path / "field.csv"
    write_field_csv(path, DOM, vals)
    x, y = _xy()
    assert path.read_bytes() == _reference("x,y,value", "%.17g,%.17g,%.17g", (x, y, vals), "\r\n")


def test_gauss_csv_bytes(tmp_path):
    normals = np.stack([_grid_values(2), _grid_values(3, special=False), _grid_values(4)], axis=-1)
    path = tmp_path / "gauss.csv"
    dev.write_gauss_csv(path, DOM, normals)
    x, y = _xy()
    want = _reference("x,y,N1,N2,N3", "%.17g,%.17g,%.17g,%.17g,%.17g",
                      (x, y, normals[..., 0], normals[..., 1], normals[..., 2]), "\r\n")
    assert path.read_bytes() == want


def test_obj_bytes(tmp_path):
    # export_mesh refuses non-finite positions, so the OBJ carries signed zeros only
    positions = np.stack([_grid_values(s, special=False) for s in (5, 6, 7)], axis=-1)
    path = tmp_path / "surface.obj"
    dev.export_mesh(SimpleNamespace(positions=positions, domain=SimpleNamespace(n=N)), path)
    idx = np.arange(1, N * N + 1).reshape(N, N)
    a, b, c, d = idx[:-1, :-1], idx[1:, :-1], idx[1:, 1:], idx[:-1, 1:]
    tris = np.stack([np.stack([a, b, c], axis=-1), np.stack([a, c, d], axis=-1)], axis=-2)
    want = (_reference(None, "v %.9g %.9g %.9g", np.moveaxis(positions, -1, 0), "\n")
            + _reference(None, "f %d %d %d", np.moveaxis(tris, -1, 0), "\n"))
    assert path.read_bytes() == want
