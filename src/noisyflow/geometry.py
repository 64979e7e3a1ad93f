"""Flat discrete geometries: circle, 2-torus, interval, rectangle.

Each domain is a box of per-axis ``bounds``, periodic or bounded axis by
axis.  Cells are uniform rectilinear boxes with cell-centered unknowns,
laid out by one index lattice (flat index lexicographic, x fastest; see
:class:`Grid`) from which centers, faces and neighbors follow in any
dimension.  Interior faces are stored once per adjacent pair (the cell on
the negative side is the "left" cell), and a periodic axis contributes
its wrap face exactly once.  Non-periodic axes additionally expose
boundary faces, which conservative operators with a zero-flux condition
simply drop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ResolutionError

#: Hard cap on total cell count, guards refine_grid blowups.
MAX_CELLS = 2 ** 24

MIN_CELLS_PER_AXIS = 4


class FlatDomain:
    """A box given by ``bounds``, one ``(lo, hi)`` pair per axis, each finite with hi > lo.

    The domain kinds are frozen dataclasses that set ``dim`` and
    ``periodic`` and derive ``bounds`` from their fields.
    """

    def __post_init__(self):
        for axis, (lo, hi) in enumerate(self.bounds):
            if not (math.isfinite(lo) and math.isfinite(hi) and hi > lo):
                raise DomainError(f"{type(self).__name__.lower()} axis {axis} must be a finite "
                                  f"interval with hi > lo, got [{lo}, {hi}]")

    @property
    def origin(self) -> tuple[float, ...]:
        return tuple(lo for lo, _ in self.bounds)

    @property
    def lengths(self) -> tuple[float, ...]:
        return tuple(hi - lo for lo, hi in self.bounds)

    @property
    def measure(self) -> float:
        return math.prod(self.lengths)


@dataclass(frozen=True)
class Circle(FlatDomain):
    """Flat circle of circumference ``length`` (default: unit measure)."""

    length: float = 1.0

    dim = 1
    periodic = (True,)

    @property
    def bounds(self):
        return ((0.0, self.length),)


@dataclass(frozen=True)
class Torus2(FlatDomain):
    """Flat 2-torus with side lengths ``lx`` and ``ly``."""

    lx: float = 1.0
    ly: float = 1.0

    dim = 2
    periodic = (True, True)

    @property
    def bounds(self):
        return ((0.0, self.lx), (0.0, self.ly))


@dataclass(frozen=True)
class Interval(FlatDomain):
    """Bounded interval [a, b] with reflecting ends."""

    a: float = 0.0
    b: float = 1.0

    dim = 1
    periodic = (False,)

    @property
    def bounds(self):
        return ((self.a, self.b),)


@dataclass(frozen=True)
class Rectangle(FlatDomain):
    """Bounded axis-aligned rectangle [ax, bx] x [ay, by]."""

    ax: float = 0.0
    bx: float = 1.0
    ay: float = 0.0
    by: float = 1.0

    dim = 2
    periodic = (False, False)

    @property
    def bounds(self):
        return ((self.ax, self.bx), (self.ay, self.by))


DomainKind = Circle | Torus2 | Interval | Rectangle


class Grid:
    """Uniform rectilinear mesh over a flat domain.

    Immutable after construction; safe to share across threads.  Use
    :func:`build_grid` rather than the constructor.

    The cell layout lives in ``lattice``, the flat cell indices
    ``arange(ncells)`` reshaped to ``n[::-1]``: x runs fastest, and grid
    axis k is lattice axis ``dim - 1 - k``.  Centers, faces and
    :meth:`shift` all read it, so no other code spells out the layout.

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
    lattice : ndarray of int64, shape n[::-1]
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
        self.lattice = np.arange(self.ncells, dtype=np.int64).reshape(self.n[::-1])
        self.lattice.setflags(write=False)
        self._centers = None
        self._faces = {}

    # -- indexing -----------------------------------------------------

    def lattice_axis(self, axis: int) -> int:
        """The axis of :attr:`lattice` that runs along grid axis ``axis``."""
        return self.dim - 1 - axis

    def shift(self, cells: np.ndarray, axis: int, by: int) -> np.ndarray:
        """Flat index of the cell ``by`` steps along ``axis`` from each of ``cells``, wrapping around."""
        return np.roll(self.lattice, -by, axis=self.lattice_axis(axis)).ravel()[cells]

    def _layer(self, axis: int, keep: slice, normal=None):
        """The cells of lattice layers ``keep`` along ``axis``, and one point in each.

        The point is the cell center, o + (i + 0.5) h on each axis with cell
        index i, except that on ``axis`` it is ``normal(i)`` when given.
        """
        select = [slice(None)] * self.dim
        select[self.lattice_axis(axis)] = keep
        select = tuple(select)
        index = np.indices(self.lattice.shape)
        cols = []
        for k, (o, h) in enumerate(zip(self.kind.origin, self.h)):
            i = index[self.lattice_axis(k)][select].ravel()
            cols.append(normal(i) if normal and k == axis else o + (i + 0.5) * h)
        return self.lattice[select].ravel(), np.column_stack(cols)

    def cell_centers(self) -> np.ndarray:
        """Cell-center coordinates, shape (ncells, dim)."""
        if self._centers is None:
            _, self._centers = self._layer(0, slice(None))
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
            o, h = self.kind.origin[axis], self.h[axis]
            # a bounded axis has no face beyond its last layer of cells
            keep = slice(None) if self.periodic[axis] else slice(0, -1)
            left, centers = self._layer(axis, keep, lambda i: o + (i + 1) * h)
            self._faces[key] = left, self.shift(left, axis, +1), centers
        return self._faces[key]

    def boundary_faces(self, axis: int):
        """Boundary faces of a non-periodic axis.

        Returns ``(low_cells, low_centers, high_cells, high_centers)``: the
        first and last lattice layers along ``axis``, with face centers at
        ``o`` and ``o + L``.  Empty arrays when the axis is periodic.
        """
        key = ("boundary", axis)
        if key not in self._faces:
            o, L = self.kind.origin[axis], self.kind.lengths[axis]
            # a periodic axis has no walls: both layers are empty
            low, high = (slice(0, 0),) * 2 if self.periodic[axis] else (slice(0, 1), slice(-1, None))
            self._faces[key] = (*self._layer(axis, low, lambda i: np.full(i.shape, o)),
                                *self._layer(axis, high, lambda i: np.full(i.shape, o + L)))
        return self._faces[key]

    def face_area(self, axis: int) -> float:
        """Measure of a face normal to ``axis``: the product of the other spacings."""
        return math.prod((h for k, h in enumerate(self.h) if k != axis), start=1.0)

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
