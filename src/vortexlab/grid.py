"""Square grids, scalar fields, the discretized vortex problem, the text
table writer and the forked workers (``run_parts``) of the big row loops
and of the continuation rungs.

Conventions used everywhere in the package:

* fields are (n, n) arrays indexed [i, j] with i along x and j along y,
  so values[i, j] approximates w(x_i, y_j) and z = x[:, None] + 1j * y[None, :];
* n is odd, the origin is the center node, h = 2 R / (n - 1);
* the Laplacian is the 5-point stencil on interior rows and columns
  (``laplacian_rows``); residuals are full arrays, zero on the ring;
* norms and residuals are taken over interior nodes only, since the ring
  carries Dirichlet data.
"""

from __future__ import annotations

import contextlib
import mmap
import numbers
import os
import pickle
import re
import shutil
import signal
import tempfile
from dataclasses import dataclass, field

import numpy as np

from .entire import EntireFunction


def workers() -> int:
    """The most processes a row loop splits into: the CPUs this process may
    run on (``taskset`` limits them)."""
    return len(os.sched_getaffinity(0))


def parts(count: int, least: int = 1) -> list:
    """range(count) as contiguous (start, stop) parts of at least `least`
    items, min(count // least, workers()) of them (one when that is 0),
    sizes differing by at most one."""
    p = max(1, min(count // least, workers()))
    return [(count * k // p, count * (k + 1) // p) for k in range(p)]


def shared_array(shape, dtype) -> np.ndarray:
    """An array in anonymous shared memory, zero-filled: what a part forked
    by ``run_parts`` writes there, this process sees."""
    dtype = np.dtype(dtype)
    return np.frombuffer(mmap.mmap(-1, int(np.prod(shape)) * dtype.itemsize), dtype).reshape(shape)


def run_parts(bounds, part) -> list:
    """Call part(k, start, stop) for each part (start, stop) = bounds[k] and
    return the values it returned, in part order.

    Part 0 runs in this process, every other part in a worker forked for it,
    which sees this process's memory as it was at the fork and ends in
    ``os._exit``.  A part hands its arrays back through memory shared before
    the fork (``shared_array``), through files opened before it, or in its
    return value, which can be grid-sized (the ladder's rung fields),
    pickled through the pipe that also carries its exception.  The one BLAS
    or LAPACK call in a part is the develop pass's ``np.linalg.det``: an LU
    factorization (getrf) of each 3 x 3 frame on its own, which OpenBLAS
    runs on the calling thread at that size, so no thread pool (whose
    threads do not survive a fork) is used, and each determinant's bits
    follow from its matrix alone, whatever the thread count or the part
    that computes it.  With one part nothing is forked.

    Every worker is reaped before this returns.  If part 0 raises, the
    workers are killed and its exception propagates.  Otherwise the
    exception of the first failed worker is raised here with its type, so a
    MemoryError or OSError in a worker is classified as in this process; a
    worker that dies without reporting one (killed, or out of memory while
    reporting) counts as a MemoryError that names its signal or status.
    """
    forked = []  # (pid, read end of the pipe that carries its outcome) of parts 1, 2, ...
    values = [None] * len(bounds)
    errors = []
    try:
        for k in range(1, len(bounds)):
            read, write = os.pipe()
            pid = os.fork()
            if pid == 0:
                try:
                    try:
                        outcome = (False, part(k, *bounds[k]))
                    except BaseException as exc:  # re-raised by the parent
                        outcome = (True, exc)
                    with open(write, "wb") as fh:
                        fh.write(pickle.dumps(outcome))
                    os._exit(0)
                finally:
                    os._exit(1)
            os.close(write)
            forked.append((pid, read))
        values[0] = part(0, *bounds[0])
    except BaseException:
        for pid, _ in forked:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        for k, (pid, read) in enumerate(forked, 1):
            with open(read, "rb") as fh:
                data = fh.read()  # before waiting: a full pipe would block the worker
            _, status = os.waitpid(pid, 0)
            if data:
                raised, values[k] = pickle.loads(data)
                if raised:
                    errors.append(values[k])
            elif os.WIFSIGNALED(status):
                errors.append(MemoryError("a worker process was killed by %s"
                                          % signal.Signals(os.WTERMSIG(status)).name))
            else:
                errors.append(MemoryError("a worker process exited with status %d"
                                          % os.waitstatus_to_exitcode(status)))
    if errors:
        raise errors[0]
    return values


@dataclass(frozen=True)
class GridDomain:
    """Uniform grid on the square [-R, R]^2 with n nodes per side: n an odd
    integer >= 5, so the origin is a node, whose (n, n) array numpy can hold,
    and R a finite real > 0, stored as a float (a bool is neither), whose
    h^2 and 1/h^2 are finite doubles.  ``half`` states when a grid halves."""

    R: float
    n: int

    def __post_init__(self):
        n, R = self.n, self.R
        if not isinstance(n, numbers.Integral) or isinstance(n, bool) or n < 5 or n % 2 == 0:
            raise ValueError("n must be an odd integer >= 5 (the origin must be a node)")
        if n * n * 8 > np.iinfo(np.intp).max:
            raise ValueError("n is too large: an (n, n) array of doubles exceeds numpy's "
                             "largest array")
        if not isinstance(R, numbers.Real) or isinstance(R, bool) or not 0 < R < np.inf:
            raise ValueError("R must be a positive number")
        object.__setattr__(self, "R", float(R))
        h2 = self.h * self.h
        if not (0.0 < h2 < np.inf and 1.0 / h2 < np.inf):
            raise ValueError("R = %g with n = %d gives h = %g, whose h^2 or 1/h^2 is not a "
                             "finite double" % (self.R, n, self.h))

    @property
    def h(self) -> float:
        return 2.0 * self.R / (self.n - 1)

    @property
    def axis(self) -> np.ndarray:
        return np.linspace(-self.R, self.R, self.n)

    def zz(self, rows: slice = slice(None), cols: slice = slice(None)) -> np.ndarray:
        """z at the nodes of the given rows and columns (all by default)."""
        ax = self.axis
        return ax[rows, None] + 1j * ax[None, cols]

    def window(self, half_width: float) -> slice:
        """The one rule for a centered square: the slice s of the nodes with
        |x| <= half_width (to 1e-12 R), so values[s, s] is that square."""
        keep = np.flatnonzero(np.abs(self.axis) <= half_width + 1e-12 * self.R)
        return slice(keep[0], keep[-1] + 1)

    @property
    def inner(self) -> slice:
        """window(R/2): the half-square where quantities of record are
        evaluated, far from the Dirichlet ring."""
        return self.window(0.5 * self.R)

    def laplacian_rows(self, v: np.ndarray, r0: int, r1: int) -> np.ndarray:
        """The 5-point Laplacian of the field v at rows r0 to r1 - 1
        (1 <= r0 < r1 <= n - 1) and the interior columns: E + W + N + S - 4 C,
        over h^2, in that order."""
        return (v[r0 + 1:r1 + 1, 1:-1] + v[r0 - 1:r1 - 1, 1:-1] + v[r0:r1, 2:] + v[r0:r1, :-2]
                - 4.0 * v[r0:r1, 1:-1]) / self.h**2

    def half(self) -> "GridDomain":
        """The grid of the nodes ``window(R/2)``, same spacing: needs (n - 1)
        divisible by 4, so its rim lands on nodes, and n >= 9."""
        if (self.n - 1) % 4 or self.n < 9:
            raise ValueError("a grid of %d nodes cannot be halved ((n - 1) must be divisible "
                             "by 4, and n at least 9)" % self.n)
        return GridDomain(0.5 * self.R, (self.n - 1) // 2 + 1)


def interior_max_norm(values: np.ndarray) -> float:
    """Max absolute value over interior nodes."""
    return float(np.max(np.abs(values[1:-1, 1:-1])))


# one % conversion of a write_table format, such as %.17g or %d
_CONVERSION = re.compile(r"(%[^a-zA-Z]*[a-zA-Z])")

# the fewest table entries a write_table part is forked for: forking and
# reaping a worker costs a few ms, about what formatting 4096 entries takes
_PART_ENTRIES = 4096


def write_table(path, header, fmt, columns, newline="\r\n", mode="w") -> None:
    """Text table: an optional header line, then fmt + newline per grid entry.

    fmt holds one % conversion per column and no other %.  The columns
    broadcast to one (rows, cols) grid (a 1-d column is one grid row), whose
    entries are written in C order, one ``write`` per grid row.  A column of
    shape (rows, 1) is formatted once per grid row, one of shape (1, cols)
    once per table, and the rest of a grid row with one % call: the row's
    format, repeated cols times, applied to one flat tuple that interleaves
    the row's shared strings and full-column values.  The CSV artifacts end
    their lines in CRLF, the default; mode "a" appends to the same file.

    The grid rows are formatted in ``parts`` of at least _PART_ENTRIES
    entries, one process each (``run_parts``): part 0 straight into the
    file, every other part into an unlinked temporary file in the same
    directory, which is then appended in order, so the bytes are the same at
    any part count.
    """
    pieces = _CONVERSION.split(fmt + newline)  # text, conversion, text, ..., text
    cols = [np.atleast_2d(c) for c in columns]
    rows, width = np.broadcast_shapes(*(c.shape for c in cols))
    shared = {k: [pieces[2 * k + 1] % v for v in c[0].tolist()]
              for k, c in enumerate(cols) if c.shape[0] == 1 and c.shape[1] > 1}

    def write_rows(fh, start, stop):
        for r in range(start, stop):
            # the row's format: (rows, 1) columns filled in, %s for the shared
            # strings, the conversions of the full columns left in place
            line, varying = pieces[:], []
            for k, c in enumerate(cols):
                if c.shape[1] == 1:  # r % 1 == 0 reads a (1, 1) column
                    line[2 * k + 1] %= c[r % c.shape[0], 0].item()
                elif k in shared:
                    line[2 * k + 1] = "%s"
                    varying.append(shared[k])
                else:
                    varying.append(c[r].tolist())
            flat = [None] * (width * len(varying))
            for k, values in enumerate(varying):
                flat[k::len(varying)] = values
            fh.write("".join(line) * width % tuple(flat))
        fh.flush()  # a worker ends in os._exit, which flushes nothing

    bounds = parts(rows, -(-_PART_ENTRIES // width))
    folder = os.path.dirname(os.path.abspath(path))
    with open(path, mode, newline="") as fh, contextlib.ExitStack() as stack:
        tails = [stack.enter_context(tempfile.TemporaryFile("w+", newline="", dir=folder))
                 for _ in bounds[1:]]
        if header is not None:
            fh.write(header + newline)
        run_parts(bounds, lambda k, start, stop: write_rows(tails[k - 1] if k else fh, start, stop))
        for tail in tails:
            tail.seek(0)
            shutil.copyfileobj(tail.buffer, fh.buffer)


def write_field_csv(path, domain: GridDomain, values: np.ndarray) -> None:
    ax = domain.axis
    write_table(path, "x,y,value", "%.17g,%.17g,%.17g", (ax[:, None], ax[None, :], values))


# grid rows per block of the coefficient a2
_ROWS = 64


@dataclass
class VortexProblem:
    """Delta w = e^w - |phi|^2 e^{-(k-1) w} discretized on a square grid.

    The coefficient enters only through a2 = 2 log|phi| sampled at the nodes,
    which is -inf at zeros of phi; exp then produces an exact 0 there, so no
    special-casing is needed anywhere downstream.  a2 is built _ROWS grid
    rows at a time, so z and the temporaries of log|phi| never span the grid.
    """

    phi: EntireFunction
    k: int
    domain: GridDomain
    a2: np.ndarray = field(init=False)

    def __post_init__(self):
        if self.k < 2:
            raise ValueError("k must be an integer >= 2")
        n = self.domain.n
        self.a2 = np.empty((n, n))
        for r0 in range(0, n, _ROWS):
            rows = slice(r0, r0 + _ROWS)
            self.a2[rows] = 2.0 * self.phi.log_abs(self.domain.zz(rows))

    def rhs_prime(self, w: np.ndarray) -> np.ndarray:
        """dF/dw, strictly positive: the discrete problem is monotone."""
        return np.exp(w) + (self.k - 1) * np.exp(self.a2 - (self.k - 1) * w)

    def residual(self, w: np.ndarray) -> np.ndarray:
        """Laplacian(w) - F(w), F(w) = e^w - |phi|^2 e^{-(k-1) w}, inside; zeros on the ring."""
        n, v = self.domain.n, w[1:-1, 1:-1]
        r = np.zeros_like(w)
        r[1:-1, 1:-1] = self.domain.laplacian_rows(w, 1, n - 1) - (
            np.exp(v) - np.exp(self.a2[1:-1, 1:-1] - (self.k - 1) * v))
        return r

    def residual_norm(self, w: np.ndarray) -> float:
        return interior_max_norm(self.residual(w))

    def profile(self) -> np.ndarray:
        """(2/k) log|phi| at the nodes, read off a2 (exactly 2 log|phi|): -inf
        at zeros, exact solution when phi has no zeros at all."""
        return (2.0 / self.k) * (0.5 * self.a2)
