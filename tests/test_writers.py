"""write_table on grids with many rows: the bytes of a plain per-row writer.

The reference below formats every entry of every column with fmt % row and
ends each line with the newline, which is what the artifacts held before
write_table formatted shared columns once; broadcast columns, one write per
grid row and the split of the grid rows over 1, 2 or 3 processes must not
change a byte of it.
"""

from types import SimpleNamespace

import numpy as np

from vortexlab import surfaces as dev
from vortexlab.grid import GridDomain, write_field_csv, write_table

# the process counts each writer test runs at
PARTS = (1, 2, 3)

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


def test_field_csv_bytes(tmp_path, use_parts):
    vals = _grid_values(1)
    path = tmp_path / "field.csv"
    x, y = _xy()
    want = _reference("x,y,value", "%.17g,%.17g,%.17g", (x, y, vals), "\r\n")
    for count in PARTS:
        use_parts(count)
        write_field_csv(path, DOM, vals)
        assert path.read_bytes() == want


def test_gauss_csv_bytes(tmp_path, use_parts):
    normals = np.stack([_grid_values(2), _grid_values(3, special=False), _grid_values(4)], axis=-1)
    path = tmp_path / "gauss.csv"
    x, y = _xy()
    want = _reference("x,y,N1,N2,N3", "%.17g,%.17g,%.17g,%.17g,%.17g",
                      (x, y, normals[..., 0], normals[..., 1], normals[..., 2]), "\r\n")
    for count in PARTS:
        use_parts(count)
        dev.write_gauss_csv(path, DOM, normals)
        assert path.read_bytes() == want


def test_obj_bytes(tmp_path, use_parts):
    # export_mesh refuses non-finite positions, so the OBJ carries signed zeros only
    positions = np.stack([_grid_values(s, special=False) for s in (5, 6, 7)], axis=-1)
    path = tmp_path / "surface.obj"
    idx = np.arange(1, N * N + 1).reshape(N, N)
    a, b, c, d = idx[:-1, :-1], idx[1:, :-1], idx[1:, 1:], idx[:-1, 1:]
    tris = np.stack([np.stack([a, b, c], axis=-1), np.stack([a, c, d], axis=-1)], axis=-2)
    want = (_reference(None, "v %.9g %.9g %.9g", np.moveaxis(positions, -1, 0), "\n")
            + _reference(None, "f %d %d %d", np.moveaxis(tris, -1, 0), "\n"))
    for count in PARTS:
        use_parts(count)
        dev.export_mesh(SimpleNamespace(positions=positions, domain=SimpleNamespace(n=N)), path)
        assert path.read_bytes() == want


def test_short_tables_and_appends(tmp_path, use_parts):
    # fewer grid rows than processes, one grid row, a header, and tables
    # appended to the first, each at any split
    path = tmp_path / "table.csv"
    vals = _grid_values(8)[:2, :3]
    axis = DOM.axis[:2, None]
    want = (_reference("x,value", "%.17g,%.17g", np.broadcast_arrays(axis, vals), "\r\n")
            + _reference(None, "%d;%.17g", np.broadcast_arrays(np.arange(4), vals[0, 0]), "\n")
            + _reference("row", "%.17g", (vals[1],), "\n"))
    for count in PARTS:
        use_parts(count)
        write_table(path, "x,value", "%.17g,%.17g", (axis, vals))
        write_table(path, None, "%d;%.17g", (np.arange(4), vals[0, 0]), "\n", mode="a")
        write_table(path, "row", "%.17g", (vals[1],), "\n", mode="a")
        assert path.read_bytes() == want
        assert [f.name for f in tmp_path.iterdir()] == ["table.csv"]
