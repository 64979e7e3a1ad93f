import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from noisyflow.config import DOMAINS, parse_config
from noisyflow.errors import ConfigError, DomainError, ResolutionError
from noisyflow.geometry import (
    Circle,
    Grid,
    Interval,
    Rectangle,
    Torus2,
    build_grid,
    refine_grid,
)


def face_counts(g):
    """Numbers of interior and boundary faces over all axes."""
    interior = sum(len(g.interior_faces(axis)[0]) for axis in range(g.dim))
    boundary = sum(len(low) + len(high) for low, _, high, _ in map(g.boundary_faces, range(g.dim)))
    return interior, boundary


def test_circle_grid_counts():
    g = build_grid(Circle(1.0), 8)
    assert g.ncells == 8
    assert g.h == (0.125,)
    assert face_counts(g) == (8, 0)


def test_torus_grid_counts():
    g = build_grid(Torus2(1.0, 1.0), (4, 4))
    assert g.ncells == 16
    assert face_counts(g) == (32, 0)


def test_interval_grid_counts():
    g = build_grid(Interval(0.0, 1.0), 4)
    assert face_counts(g) == (3, 2)


def test_rectangle_counts():
    g = build_grid(Rectangle(0, 2, 0, 1), (8, 4))
    assert face_counts(g) == (7 * 4 + 8 * 3, 2 * 4 + 2 * 8)


def test_interior_faces_appear_once():
    g = build_grid(Torus2(), (4, 4))
    seen = set()
    for axis in range(2):
        left, right, _ = g.interior_faces(axis)
        for l, r in zip(left, right):
            key = (axis, int(l), int(r))
            assert key not in seen
            seen.add(key)
    assert len(seen) == 32


@pytest.mark.parametrize("kind,n", [
    (Circle(1.0), 16),
    (Torus2(2.0, 0.5), (8, 8)),
    (Interval(-1.0, 3.0), 32),
    (Rectangle(0, 2, 0, 3), (8, 16)),
])
def test_total_measure(kind, n):
    g = build_grid(kind, n)
    measure = math.prod(kind.lengths)
    assert abs(g.ncells * g.cell_volume - measure) <= 1e-14 * measure


def test_resolution_errors():
    with pytest.raises(ResolutionError):
        build_grid(Circle(), 3)
    with pytest.raises(ResolutionError):
        build_grid(Torus2(), (4, 2))
    with pytest.raises(DomainError):
        Circle(-1.0)
    with pytest.raises(DomainError):
        Interval(1.0, 1.0)
    with pytest.raises(DomainError):
        Torus2(1.0, 0.0)


def test_refine_examples():
    assert refine_grid(build_grid(Circle(), 8), 2).n == (16,)
    assert refine_grid(build_grid(Torus2(), (8, 8)), 4).n == (32, 32)
    assert refine_grid(build_grid(Interval(), 4), 3).n == (12,)


def test_refine_errors():
    g = build_grid(Circle(), 8)
    with pytest.raises(ResolutionError):
        refine_grid(g, 1)
    with pytest.raises(ResolutionError):
        refine_grid(build_grid(Torus2(), (4096, 4096)), 2)  # would exceed 2^24


def test_refine_preserves_centers_as_subset_averages():
    coarse = build_grid(Circle(), 8)
    fine = refine_grid(coarse, 4)
    cc = coarse.cell_centers()[:, 0]
    fc = fine.cell_centers()[:, 0].reshape(8, 4).mean(axis=1)
    assert np.allclose(cc, fc, atol=1e-15)


def test_face_ordering_deterministic():
    g1 = build_grid(Torus2(), (8, 8))
    g2 = build_grid(Torus2(), (8, 8))
    for axis in range(2):
        l1, r1, c1 = g1.interior_faces(axis)
        l2, r2, c2 = g2.interior_faces(axis)
        assert np.array_equal(l1, l2)
        assert np.array_equal(r1, r2)
        assert np.array_equal(c1, c2)


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=4, max_value=12), st.integers(min_value=4, max_value=12))
def test_signed_face_sums_cancel_on_torus(nx, ny):
    # the discrete divergence theorem: every interior face appears with
    # both orientations, so any face field sums to zero over all cells
    g = build_grid(Torus2(), (nx, ny))
    total = np.zeros(g.ncells)
    rng = np.random.default_rng(nx * 100 + ny)
    for axis in range(2):
        left, right, _ = g.interior_faces(axis)
        vals = rng.standard_normal(len(left))
        np.add.at(total, left, vals)
        np.add.at(total, right, -vals)
    assert abs(total.sum()) <= 1e-12 * max(1.0, np.abs(total).max())


def test_cell_centers_lexicographic_x_fastest():
    g = build_grid(Torus2(), (4, 4))
    centers = g.cell_centers()
    assert np.allclose(centers[0], [0.125, 0.125])
    assert np.allclose(centers[1], [0.375, 0.125])  # x moves first
    assert np.allclose(centers[4], [0.125, 0.375])


@pytest.mark.parametrize("kind, values", [
    ("circle", (math.nan,)), ("circle", (math.inf,)), ("circle", (0.0,)),
    ("torus2", (1.0, math.nan)), ("torus2", (math.inf, 1.0)), ("torus2", (1.0, 0.0)),
    ("interval", (0.0, math.nan)), ("interval", (0.0, math.inf)), ("interval", (1.0, 0.0)),
    ("rectangle", (0.0, 1.0, math.nan, 1.0)), ("rectangle", (0.0, math.inf, 0.0, 1.0)),
    ("rectangle", (0.0, 1.0, 1.0, 0.0)),
])
def test_domain_sides_must_be_finite_and_ordered(kind, values):
    cls, key = DOMAINS[kind]
    with pytest.raises(DomainError):
        cls(*values)
    text = (f"[domain]\nkind = {kind}\n{key} = {', '.join(map(str, values))}\nn = 8\n\n"
            f"[noise]\neps = 0.5\n")
    with pytest.raises(ConfigError) as info:
        parse_config(text)
    assert [(line, k) for line, k, _ in info.value.locations] == [(3, key)]


def test_rectangle_lattice_faces_on_a_non_square_grid():
    # 3 x 2 cells, flat index j * 3 + i; h = (0.5, 1.0)
    kind = Rectangle(1.0, 2.5, -1.0, 1.0)
    g = Grid(kind, (3, 2))
    assert g.cell_centers().tolist() == [[1.25, -0.5], [1.75, -0.5], [2.25, -0.5],
                                         [1.25, 0.5], [1.75, 0.5], [2.25, 0.5]]
    left, right, centers = g.interior_faces(0)
    assert left.tolist() == [0, 1, 3, 4] and right.tolist() == [1, 2, 4, 5]
    assert centers.tolist() == [[1.5, -0.5], [2.0, -0.5], [1.5, 0.5], [2.0, 0.5]]
    left, right, centers = g.interior_faces(1)
    assert left.tolist() == [0, 1, 2] and right.tolist() == [3, 4, 5]
    assert centers.tolist() == [[1.25, 0.0], [1.75, 0.0], [2.25, 0.0]]
    (ox, oy), (lx, ly) = kind.origin, kind.lengths
    low, low_c, high, high_c = g.boundary_faces(0)
    assert low.tolist() == [0, 3] and high.tolist() == [2, 5]
    assert low_c.tolist() == [[ox, -0.5], [ox, 0.5]]
    assert high_c.tolist() == [[ox + lx, -0.5], [ox + lx, 0.5]]
    low, low_c, high, high_c = g.boundary_faces(1)
    assert low.tolist() == [0, 1, 2] and high.tolist() == [3, 4, 5]
    assert low_c.tolist() == [[1.25, oy], [1.75, oy], [2.25, oy]]
    assert high_c.tolist() == [[1.25, oy + ly], [1.75, oy + ly], [2.25, oy + ly]]
    assert (g.face_area(0), g.face_area(1)) == (1.0, 0.5)


def test_torus_lattice_faces_on_a_non_square_grid():
    # 3 x 2 cells, h = (0.5, 1.0); each axis has one wrap face per lattice row
    g = Grid(Torus2(1.5, 2.0), (3, 2))
    left, right, centers = g.interior_faces(0)
    assert left.tolist() == [0, 1, 2, 3, 4, 5] and right.tolist() == [1, 2, 0, 4, 5, 3]
    assert centers.tolist() == [[0.5, 0.5], [1.0, 0.5], [1.5, 0.5], [0.5, 1.5], [1.0, 1.5], [1.5, 1.5]]
    left, right, centers = g.interior_faces(1)
    assert left.tolist() == [0, 1, 2, 3, 4, 5] and right.tolist() == [3, 4, 5, 0, 1, 2]
    assert centers.tolist() == [[0.25, 1.0], [0.75, 1.0], [1.25, 1.0], [0.25, 2.0], [0.75, 2.0], [1.25, 2.0]]
    for axis in range(2):
        low, low_c, high, high_c = g.boundary_faces(axis)
        assert low.shape == high.shape == (0,) and low_c.shape == high_c.shape == (0, 2)
    assert g.shift(np.arange(6), 0, -1).tolist() == [2, 0, 1, 5, 3, 4]
    assert g.shift(np.arange(6), 1, +1).tolist() == [3, 4, 5, 0, 1, 2]
