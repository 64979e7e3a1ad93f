"""Flat discrete geometries: circle, 2-torus, interval, rectangle.

Cells are uniform rectilinear boxes with cell-centered unknowns; cell
ordering is lexicographic with x fastest.  Interior faces are stored once
per adjacent pair (the cell on the negative side is the "left" cell), and
a periodic axis contributes its wrap face exactly once.  Non-periodic axes
additionally expose boundary faces, which conservative operators with a
zero-flux condition simply drop.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ResolutionError

#: Hard cap on total cell count, guards refine_grid blowups.
MAX_CELLS = 2 ** 24

MIN_CELLS_PER_AXIS = 4


@dataclass(frozen=True)
class Circle:
    """Flat circle of circumference ``length`` (default: unit measure)."""

    length: float = 1.0

    dim = 1
    periodic = (True,)

    def __post_init__(self):
        if self.length <= 0:
            raise DomainError(f"circle length must be positive, got {self.length}")

    @property
    def lengths(self):
        return (self.length,)

    @property
    def origin(self):
        return (0.0,)

    @property
    def measure(self):
        return self.length


@dataclass(frozen=True)
class Torus2:
    """Flat 2-torus with side lengths ``lx`` and ``ly``."""

    lx: float = 1.0
    ly: float = 1.0

    dim = 2
    periodic = (True, True)

    def __post_init__(self):
        if self.lx <= 0 or self.ly <= 0:
            raise DomainError(f"torus side lengths must be positive, got ({self.lx}, {self.ly})")

    @property
    def lengths(self):
        return (self.lx, self.ly)

    @property
    def origin(self):
        return (0.0, 0.0)

    @property
    def measure(self):
        return self.lx * self.ly


@dataclass(frozen=True)
class Interval:
    """Bounded interval [a, b] with reflecting ends."""

    a: float = 0.0
    b: float = 1.0

    dim = 1
    periodic = (False,)

    def __post_init__(self):
        if not self.b > self.a:
            raise DomainError(f"interval requires b > a, got [{self.a}, {self.b}]")

    @property
    def lengths(self):
        return (self.b - self.a,)

    @property
    def origin(self):
        return (self.a,)

    @property
    def measure(self):
        return self.b - self.a


@dataclass(frozen=True)
class Rectangle:
    """Bounded axis-aligned rectangle [ax, bx] x [ay, by]."""

    ax: float = 0.0
    bx: float = 1.0
    ay: float = 0.0
    by: float = 1.0

    dim = 2
    periodic = (False, False)

    def __post_init__(self):
        if not (self.bx > self.ax and self.by > self.ay):
            raise DomainError(
                f"rectangle requires bx > ax and by > ay, got "
                f"[{self.ax}, {self.bx}] x [{self.ay}, {self.by}]"
            )

    @property
    def lengths(self):
        return (self.bx - self.ax, self.by - self.ay)

    @property
    def origin(self):
        return (self.ax, self.ay)

    @property
    def measure(self):
        return (self.bx - self.ax) * (self.by - self.ay)


DomainKind = Circle | Torus2 | Interval | Rectangle


class Grid:
    """Uniform rectilinear mesh over a flat domain.

    Immutable after construction; safe to share across threads.  Use
    :func:`build_grid` rather than the constructor.

    Attributes
    ----------
    kind : DomainKind
    n : tuple of int
        Cells per axis.
    h : tuple of float
        Spacing per axis (axis length / n).
    periodic : tuple of bool
    ncells : int
    cell_volumes : ndarray, shape (ncells,)
    """

    def __init__(self, kind: DomainKind, n: tuple[int, ...]):
        self.kind = kind
        self.dim = kind.dim
        self.n = tuple(int(k) for k in n)
        self.periodic = kind.periodic
        self.h = tuple(L / k for L, k in zip(kind.lengths, self.n))
        self.ncells = int(np.prod(self.n))
        self.cell_volume = float(np.prod(self.h))
        self.cell_volumes = np.full(self.ncells, self.cell_volume)
        self._centers = None
        self._faces = {}

    # -- indexing -----------------------------------------------------

    def cell_centers(self) -> np.ndarray:
        """Cell-center coordinates, shape (ncells, dim)."""
        if self._centers is None:
            axes = [
                o + (np.arange(k) + 0.5) * h
                for o, k, h in zip(self.kind.origin, self.n, self.h)
            ]
            if self.dim == 1:
                self._centers = axes[0][:, None]
            else:
                xx, yy = np.meshgrid(axes[0], axes[1], indexing="xy")
                self._centers = np.column_stack([xx.ravel(), yy.ravel()])
            self._centers.setflags(write=False)
        return self._centers

    # -- faces --------------------------------------------------------

    def interior_faces(self, axis: int):
        """Interior faces normal to ``axis``.

        Returns ``(left, right, centers)`` where ``left``/``right`` are the
        flat indices of the cells on the negative/positive side and
        ``centers`` holds the face-center coordinates, shape (F, dim).
        Faces are ordered by the left cell's flat index, which fixes the
        deterministic reduction order used by the assembler.
        """
        key = ("interior", axis)
        if key not in self._faces:
            self._faces[key] = self._build_interior(axis)
        return self._faces[key]

    def boundary_faces(self, axis: int):
        """Boundary faces of a non-periodic axis.

        Returns ``(low_cells, low_centers, high_cells, high_centers)``.
        Empty arrays when the axis is periodic.
        """
        key = ("boundary", axis)
        if key not in self._faces:
            self._faces[key] = self._build_boundary(axis)
        return self._faces[key]

    def face_area(self, axis: int) -> float:
        """Measure of a face normal to ``axis`` (1.0 in one dimension)."""
        if self.dim == 1:
            return 1.0
        return self.h[1 - axis]

    def _axis_edges(self, axis):
        o = self.kind.origin[axis]
        return o + np.arange(self.n[axis] + 1) * self.h[axis]

    def _build_interior(self, axis):
        n, per = self.n[axis], self.periodic[axis]
        if self.dim == 1:
            # periodic: n faces including the wrap at edge n (== edge 0);
            # bounded: the n-1 internal edges only
            left = np.arange(n) if per else np.arange(n - 1)
            right = (left + 1) % n
            edges = self._axis_edges(0)
            centers = edges[left + 1][:, None]
            return left.astype(np.int64), right.astype(np.int64), centers
        # 2D: build per-axis neighbor pairs on the index lattice
        nx, ny = self.n
        ix, iy = np.meshgrid(np.arange(nx), np.arange(ny), indexing="xy")
        ix, iy = ix.ravel(), iy.ravel()
        if axis == 0:
            keep = np.ones_like(ix, bool) if per else (ix < nx - 1)
            li, lj = ix[keep], iy[keep]
            ri = (li + 1) % nx
            left = lj * nx + li
            right = lj * nx + ri
            fx = self.kind.origin[0] + (li + 1) * self.h[0]
            fy = self.kind.origin[1] + (lj + 0.5) * self.h[1]
        else:
            keep = np.ones_like(iy, bool) if per else (iy < ny - 1)
            li, lj = ix[keep], iy[keep]
            rj = (lj + 1) % ny
            left = lj * nx + li
            right = rj * nx + li
            fx = self.kind.origin[0] + (li + 0.5) * self.h[0]
            fy = self.kind.origin[1] + (lj + 1) * self.h[1]
        order = np.argsort(left, kind="stable")
        centers = np.column_stack([fx, fy])
        return (
            left[order].astype(np.int64),
            right[order].astype(np.int64),
            centers[order],
        )

    def _build_boundary(self, axis):
        empty = np.empty(0, np.int64), np.empty((0, self.dim)), np.empty(0, np.int64), np.empty((0, self.dim))
        if self.periodic[axis]:
            return empty
        if self.dim == 1:
            a, b = self.kind.origin[0], self.kind.origin[0] + self.kind.lengths[0]
            return (
                np.array([0], np.int64),
                np.array([[a]]),
                np.array([self.n[0] - 1], np.int64),
                np.array([[b]]),
            )
        nx, ny = self.n
        ox, oy = self.kind.origin
        if axis == 0:
            rows = np.arange(ny)
            low = rows * nx
            high = rows * nx + (nx - 1)
            ys = oy + (rows + 0.5) * self.h[1]
            low_c = np.column_stack([np.full(ny, ox), ys])
            high_c = np.column_stack([np.full(ny, ox + self.kind.lengths[0]), ys])
        else:
            cols = np.arange(nx)
            low = cols
            high = (ny - 1) * nx + cols
            xs = ox + (cols + 0.5) * self.h[0]
            low_c = np.column_stack([xs, np.full(nx, oy)])
            high_c = np.column_stack([xs, np.full(nx, oy + self.kind.lengths[1])])
        return low.astype(np.int64), low_c, high.astype(np.int64), high_c

    def _shape(self):
        return (self.n[0],) if self.dim == 1 else (self.n[1], self.n[0])

    @property
    def faces(self):
        """Canonical face list: tuples (cell, neighbor `or` None, axis, orientation).

        ``orientation`` is +1 for the face on the cell's positive side,
        -1 for a low boundary face.  Interior faces appear exactly once,
        attached to their left cell.  Intended for inspection and tests;
        the assembler consumes the array form from :meth:`interior_faces`.
        """
        out = []
        for axis in range(self.dim):
            left, right, _ = self.interior_faces(axis)
            out.extend((int(l), int(r), axis, +1) for l, r in zip(left, right))
            low, _, high, _ = self.boundary_faces(axis)
            out.extend((int(c), None, axis, -1) for c in low)
            out.extend((int(c), None, axis, +1) for c in high)
        return out

    def total_measure(self) -> float:
        return self.kind.measure

    def describe(self) -> str:
        return f"{type(self.kind).__name__.lower()} lengths={self.kind.lengths} n={self.n}"

    def __repr__(self):
        return f"Grid({self.describe()})"


def build_grid(kind: DomainKind, n) -> Grid:
    """Build a uniform grid with ``n`` cells per axis.

    ``n`` is an int for 1D kinds, a pair for 2D kinds.  Every count must
    be at least 4.
    """
    counts = (int(n),) if np.isscalar(n) else tuple(int(k) for k in n)
    if len(counts) != kind.dim:
        raise ResolutionError(
            f"{type(kind).__name__} needs {kind.dim} cell counts, got {len(counts)}"
        )
    for k in counts:
        if k < MIN_CELLS_PER_AXIS:
            raise ResolutionError(f"cells per axis must be >= {MIN_CELLS_PER_AXIS}, got {k}")
    if int(np.prod(counts)) > MAX_CELLS:
        raise ResolutionError(f"total cell count {np.prod(counts)} exceeds cap {MAX_CELLS}")
    return Grid(kind, counts)


def refine_grid(g: Grid, factor: int) -> Grid:
    """Refine every axis by an integer ``factor`` >= 2.

    Coarse cells tile exactly into ``factor**dim`` fine cells, so coarse
    cell averages are exact averages of fine cells (used by the
    convergence studies).
    """
    if int(factor) != factor or factor < 2:
        raise ResolutionError(f"refinement factor must be an integer >= 2, got {factor}")
    counts = tuple(k * int(factor) for k in g.n)
    if int(np.prod(counts)) > MAX_CELLS:
        raise ResolutionError(f"refined cell count {np.prod(counts)} exceeds cap {MAX_CELLS}")
    return Grid(g.kind, counts)
