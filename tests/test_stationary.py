import functools
import itertools
import math
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given, settings, strategies as st

from noisyflow.errors import (BoundaryError, CatalogError, FieldEvaluationError, PositivityError, ResolutionError,
                             SolveError)
from noisyflow.fields import (
    CATALOG_NAMES,
    Affine,
    ConservativeSystem,
    Const,
    Noise,
    Power,
    Product,
    Trig,
    VectorField,
    add,
    builtin_catalog,
    construct_selecting_noise,
    coordinate_noise,
    mul,
)
from noisyflow.geometry import Circle, Interval, Rectangle, Torus2, build_grid
from noisyflow.operator import FokkerPlanckOperator, assemble_for
import noisyflow.operator as operator_module
import noisyflow.stationary as stationary
from noisyflow.config import parse_config
from noisyflow.experiments import SweepConfig, SystemSpec
from noisyflow.stationary import (
    Density,
    _backward_pass,
    _forward_pass,
    _oracle_samples,
    _panel_samples,
    discrete_w12_seminorm,
    factorize,
    oracle_1d_circle,
    oracle_1d_interval,
    pinned_system,
    solve_stationary,
)


CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def unit_noise(grid):
    return coordinate_noise(grid)


# ---------------------------------------------------------------------------
# direct solves
# ---------------------------------------------------------------------------


class NanLU:
    """A factorization whose solve returns NaN in every component."""

    def solve(self, rhs):
        return np.full(rhs.shape, np.nan)


def dgtsv_returning(x_value, info):
    """A stand-in for LAPACK's ``dgtsv`` that returns ``x_value`` everywhere and ``info``."""
    def dgtsv(dl, d, du, b):
        return dl, d, du, np.full(b.shape, x_value), info

    return dgtsv


@pytest.mark.parametrize("kind, n", [(Circle(), 32), (Torus2(), (8, 8))])
def test_solve_raises_on_a_non_finite_solution(kind, n, monkeypatch):
    g = build_grid(kind, n)
    op = assemble_for(builtin_catalog("zero-drift", g), unit_noise(g), 0.5)
    if g.dim == 1:  # the tridiagonal path solve
        monkeypatch.setattr(stationary, "dgtsv", dgtsv_returning(np.nan, 0))
    else:
        monkeypatch.setattr(stationary, "factorize", lambda matrix, dim: NanLU())
    with pytest.raises(SolveError, match="non-finite"):
        solve_stationary(op)


def test_a_failed_tridiagonal_solve_raises(monkeypatch):
    # info > 0: LAPACK met an exactly zero pivot; its x is not a solution
    g = build_grid(Circle(), 32)
    op = assemble_for(builtin_catalog("circle-positive", g), unit_noise(g), 0.3)
    monkeypatch.setattr(stationary, "dgtsv", dgtsv_returning(1.0, 5))
    with pytest.raises(SolveError, match="^tridiagonal solve failed: LAPACK dgtsv returned info = 5$"):
        solve_stationary(op)


@pytest.mark.parametrize("kind, n", [(Circle(), 64), (Interval(), 64), (Torus2(), (16, 16)), (Rectangle(), (16, 12))],
                         ids=["circle", "interval", "torus2", "rectangle"])
def test_uniform_stationary_zero_drift(kind, n):
    g = build_grid(kind, n)
    op = assemble_for(builtin_catalog("zero-drift", g), unit_noise(g), 0.5)
    rep = solve_stationary(op)
    assert rep.residual <= 1e-13
    assert np.max(np.abs(rep.density.values - 1.0)) <= 1e-12


def test_a_reducible_operator_is_refused(graph_searches):
    # cut the 8-cell interval between cells 3 and 4: the couplings stay stored, as
    # zeros, and each column's diagonal takes back what it gave, so the column sums stay 0
    g = build_grid(Interval(), 8)
    sub, diag, sup = (band.copy() for band in assemble_for(builtin_catalog("zero-drift", g), unit_noise(g), 0.5).bands)
    diag[4] += sup[3]  # M[3, 4]
    diag[3] += sub[4]  # M[4, 3]
    sup[3] = sub[4] = 0.0
    op = FokkerPlanckOperator(None, g, False, bands=(sub, diag, sup))
    m = op.matrix
    assert np.count_nonzero(m.data) == m.nnz - 2
    assert np.max(np.abs(m.sum(axis=0))) <= 1e-13
    assert not op.is_irreducible()  # the stored zeros couple nothing
    assert graph_searches == [1]  # an operator built without positive rates is searched
    with pytest.raises(SolveError, match="^operator is reducible; the stationary density is not unique$"):
        solve_stationary(op)


@pytest.mark.parametrize("eps", [0.5, 0.1])
def test_torus_shear_uniform(eps):
    g = build_grid(Torus2(), (32, 32))
    sys = builtin_catalog("torus-shear", g)
    rep = solve_stationary(assemble_for(sys, unit_noise(g), eps))
    assert np.max(np.abs(rep.density.values - 1.0)) <= 1e-10


def test_circle_positive_matches_oracle():
    g = build_grid(Circle(), 256)
    sys = builtin_catalog("circle-positive", g)
    nf = unit_noise(g)
    rep = solve_stationary(assemble_for(sys, nf, 0.3))
    u_oracle, _ = oracle_1d_circle(sys.drift, nf.a0_field, nf.ai_fields, 0.3, g)
    err = np.max(np.abs(rep.density.values - u_oracle)) / np.max(np.abs(u_oracle))
    assert err <= 5e-4


@pytest.mark.parametrize("length", [2.0, 0.5])
@pytest.mark.parametrize("eps", [0.4, 0.2])
def test_circle_oracle_on_a_circle_of_any_length(length, eps):
    # integrating the balance over the circle gives -int (B + eps^2 b) u = L C_eps, which the
    # self-check compares: the oracle returns, and the solve lies within oracle_sup of it
    g = build_grid(Circle(length), 512)
    sys = builtin_catalog("circle-positive", g)
    nf = unit_noise(g)
    rep = solve_stationary(assemble_for(sys, nf, eps))
    u_oracle, c_eps = oracle_1d_circle(sys.drift, nf.a0_field, nf.ai_fields, eps, g)
    assert c_eps < 0.0
    err = np.max(np.abs(rep.density.values - u_oracle)) / np.max(np.abs(u_oracle))
    assert err <= SweepConfig.thresholds.oracle_sup


def test_direct_and_inverse_iteration_agree():
    g = build_grid(Circle(), 256)
    sys = builtin_catalog("circle-positive", g)
    op = assemble_for(sys, unit_noise(g), 0.3)
    direct = solve_stationary(op)
    inverse, iterations = _inverse_iteration(op.matrix, g)
    assert np.max(np.abs(direct.density.values - inverse)) <= 1e-10
    assert iterations >= 1


def test_positivity_on_catalog():
    g = build_grid(Torus2(), (24, 24))
    for name in ("torus-rotation", "torus-shear", "hamiltonian-cellular"):
        sys = builtin_catalog(name, g)
        rep = solve_stationary(assemble_for(sys, unit_noise(g), 0.2))
        assert rep.density.values.min() > 0.0


@settings(max_examples=10, deadline=None)
@given(
    st.floats(min_value=1.5, max_value=3.0),
    st.floats(min_value=-0.9, max_value=0.9),
    st.floats(min_value=0.15, max_value=0.8),
)
def test_random_positive_drift_properties(offset, amp, eps):
    # positive 1D drifts: solve succeeds, density positive, unit mass
    g = build_grid(Circle(), 64)
    drift = VectorField([Trig("sin", 0, 1, amp, offset, 1.0)])
    sys = ConservativeSystem(drift, Const(1.0), g, "random")
    nf = unit_noise(g)
    rep = solve_stationary(assemble_for(sys, nf, eps))
    assert rep.density.values.min() > 0.0
    assert abs(np.sum(rep.density.values) * g.cell_volume - 1.0) <= 1e-12
    assert rep.residual <= 1e-10


# ---------------------------------------------------------------------------
# the factorization helper
# ---------------------------------------------------------------------------


def dense_row_reference(op):
    """The mass-normalization-row solve: row r of M becomes the cell volumes."""
    m, g = op.matrix, op.grid
    row = int(np.argmax(np.abs(m.diagonal())))
    replaced = m.tolil(copy=True)
    replaced[row, :] = g.cell_volume
    rhs = np.zeros(g.ncells)
    rhs[row] = 1.0
    return spla.splu(replaced.tocsc(), permc_spec="COLAMD").solve(rhs)


#: Inverse iteration's bound on the residual and on the relative step
#: change, and the iterations it may take to get under it.
INVERSE_ITERATION_TOL = 1e-12
INVERSE_ITERATION_MAXITER = 500


def _inverse_iteration(matrix, grid):
    """Inverse power iteration on M itself; returns (unit-mass u, iterations).

    An independent reference for the pinned direct solve: it factorizes
    the singular generator (shifted by a 1e-14 ||M|| jitter when SuperLU
    meets an exact zero pivot) and stops once the residual
    ||M u||_inf / (||M||_inf ||u||_inf) and the relative step change are
    both at most ``INVERSE_ITERATION_TOL``.
    """
    mat_norm = float(np.max(np.abs(matrix).sum(axis=1)))
    try:
        lu = factorize(matrix, grid.dim)
    except SolveError:
        jitter = 1e-14 * mat_norm
        lu = factorize(matrix + jitter * sp.identity(grid.ncells, format="csr"), grid.dim)
    v = np.full(grid.ncells, 1.0 / math.prod(grid.kind.lengths))
    tol = INVERSE_ITERATION_TOL
    for it in range(1, INVERSE_ITERATION_MAXITER + 1):
        previous = v
        v = lu.solve(v)
        v /= np.sum(np.abs(v)) * grid.cell_volume
        if np.sum(v) < 0:
            v = -v
        # the residual alone can pass while v is still ~1e-10 off (zero drift
        # on an interval), so the step must have settled as well
        scale = float(np.max(np.abs(v)))
        residual = float(np.max(np.abs(matrix @ v))) / (mat_norm * scale)
        if residual <= tol and float(np.max(np.abs(v - previous))) <= tol * scale:
            return v, it
    raise SolveError(f"inverse iteration did not reach tolerance {tol} in {INVERSE_ITERATION_MAXITER} iterations")


def selecting_noise(grid):
    """Noise under which zero drift has the stationary density 1 + cos(2 pi x) / 2."""
    return construct_selecting_noise(Trig("cos", 0, 1, 0.5, 1.0, 1.0), grid)


def constant_noise(grid):
    """A_0 = A_1 = 1: the residual of inverse iteration passes 1e-12 a step before its density."""
    return Noise(VectorField([Const(1.0)]), (VectorField([Const(1.0)]),))


SOLVER_CASES = [
    (Torus2(), (48, 48), "hamiltonian-cellular", 0.2, unit_noise),
    (Circle(), 256, "circle-positive", 0.1, unit_noise),
    (Interval(), 256, "zero-drift", 0.2, selecting_noise),
    (Interval(), 256, "zero-drift", 0.5, constant_noise),
    (Interval(), 256, "zero-drift", 0.3, constant_noise),
]


@pytest.mark.parametrize("kind, n, name, eps, noise", SOLVER_CASES)
def test_direct_solve_matches_inverse_iteration_and_dense_row(kind, n, name, eps, noise):
    g = build_grid(kind, n)
    op = assemble_for(builtin_catalog(name, g), noise(g), eps)
    direct = solve_stationary(op)
    assert direct.method == "direct"
    u = direct.density.values
    for other in (_inverse_iteration(op.matrix, g)[0], dense_row_reference(op)):
        assert np.max(np.abs(u - other)) <= 1e-12 * np.max(np.abs(other))


def test_a_failed_factorization_raises_instead_of_falling_back(monkeypatch):
    # the pinned solve is the only one: SuperLU failing once is an error,
    # not a silent switch to another method (1D solves never call SuperLU)
    g = build_grid(Torus2(), (8, 8))
    op = assemble_for(builtin_catalog("hamiltonian-cellular", g), unit_noise(g), 0.3)
    splu, calls = spla.splu, []

    def fail_once(*args, **kwargs):
        calls.append(args)
        if len(calls) == 1:
            raise RuntimeError("Factor is exactly singular")
        return splu(*args, **kwargs)

    monkeypatch.setattr("noisyflow.stationary.spla.splu", fail_once)
    with pytest.raises(SolveError, match="^sparse LU failed: Factor is exactly singular$"):
        solve_stationary(op)
    assert len(calls) == 1


def catalog_pairs():
    """Every (domain, catalog system) pair the catalog builds, at 12-16 cells per axis."""
    for kind, n in ((Circle(), (16,)), (Interval(), (16,)), (Torus2(1.0, 0.75), (14, 12)),
                    (Rectangle(), (12, 16))):
        g = build_grid(kind, n)
        for name in CATALOG_NAMES:
            try:
                yield g, builtin_catalog(name, g)
            except CatalogError:
                continue


@pytest.mark.parametrize("eps", [0.5, 0.05])
def test_direct_solve_never_falls_back_on_the_catalog(eps):
    solved = 0
    for g, system in catalog_pairs():
        rep = solve_stationary(assemble_for(system, unit_noise(g), eps))
        assert rep.method == "direct", (system.name, type(g.kind).__name__)
        solved += 1
    assert solved == 8  # circle-positive, three torus systems, zero-drift on four domains


@pytest.mark.parametrize("eps", [0.5, 0.05])
def test_path_solve_agrees_with_the_pinned_superlu_solve(eps):
    ops = [assemble_for(system, unit_noise(g), eps) for g, system in catalog_pairs() if g.dim == 1]
    assert len(ops) == 3  # circle-positive, zero-drift on the circle and on the interval
    cfg = parse_config((CONFIGS / "explicit-interval.ini").read_text())
    _, system, noise = cfg.build()
    ops += [assemble_for(system, noise, e) for e in cfg.epsilons]
    sign_changing = VectorField([Trig("sin", 0)])  # sin(2 pi x): the path runs along it on one half
    for kind in (Circle(), Interval()):
        g = build_grid(kind, 64)
        ops.append(assemble_for(ConservativeSystem(sign_changing, Const(1.0), g), unit_noise(g), eps))
    for op in ops:
        pinned, rhs = pinned_system(op.matrix)
        reference = factorize(pinned, 1).solve(rhs)  # may undershoot 0 by roundoff, as the path solve may
        reference /= np.sum(reference) * op.grid.cell_volume
        u = solve_stationary(op).density.values
        assert np.max(np.abs(u - reference)) <= 1e-13 * np.max(reference)


def test_path_solve_residual_on_a_large_circle():
    # walked along the drift the path interchanges most rows and leaves 2.2e-13
    g = build_grid(Circle(), 2 ** 17)
    op = assemble_for(builtin_catalog("circle-positive", g), unit_noise(g), 0.05)
    assert solve_stationary(op).residual <= 1e-14


def circle_family(g, phase):
    """B = 2 + sin(2 pi x + phase) with u0 = 1 / B: positive drift, a constant flux."""
    b = Trig("sin", 0, 1, 1.0, 2.0, 1.0, phase)
    return ConservativeSystem(VectorField([b]), Power(b, -1.0), g)


def interval_family(g, phase, amplitude=0.1):
    """B = amplitude sin(pi x) (1 + cos(2 pi x + phase) / 2), which vanishes at both walls of [0, 1]."""
    b = Product(Trig("sin", 0, 1, amplitude, 0.0, 2.0), Trig("cos", 0, 1, 0.5, 1.0, 1.0, phase))
    return ConservativeSystem(VectorField([b]), Const(1.0), g)


def sign_changing_circle_family(g, phase):
    """B = sin(2 pi x + phase) with u0 = 1: not conservative, but the operator takes it."""
    return ConservativeSystem(VectorField([Trig("sin", 0, 1, 1.0, 0.0, 1.0, phase)]), Const(1.0), g)


def detailed_balance(op):
    """The unit-mass density of a 1D interval operator from u[j + 1] / u[j] = M[j + 1, j] / M[j, j + 1].

    The zero-flux balance of every face gives it without a solve; its
    log is a cumulative sum, so nothing is subtracted.
    """
    sub, _, sup = op.bands
    log_u = np.concatenate(([0.0], np.cumsum(np.log(sub[1:]) - np.log(sup[:-1]))))
    u = np.exp(log_u - log_u.max())
    return u / (np.sum(u) * op.grid.cell_volume)


@pytest.mark.parametrize("eps", [0.109, 0.0545])
def test_a_strong_drift_on_a_coarse_interval_solves(eps):
    # the largest diagonal magnitude is cell 1, at 1e-40 (eps 0.109) and 1e-161
    # (eps 0.0545) of the largest density: pinned there, dgtsv returned info = 3
    g = build_grid(Interval(), 4)
    op = assemble_for(interval_family(g, math.pi, amplitude=1.0), unit_noise(g), eps)
    assert np.argmax(np.abs(op.bands[1])) == 1
    u = solve_stationary(op).density.values
    reference = detailed_balance(op)
    assert np.argmax(reference) == stationary.path_pin(op.bands[0], op.bands[2]) == 3
    assert np.max(np.abs(u - reference)) <= 1e-15 * np.max(reference)


@pytest.mark.parametrize("kind, family", [(Interval(), functools.partial(interval_family, amplitude=1.0)),
                                          (Circle(), sign_changing_circle_family)], ids=["interval", "circle"])
def test_the_path_solve_of_a_strong_drift_never_fails(kind, family):
    # eps 0.4-0.05 on 4-16 cells: pinned at the largest diagonal magnitude, 24 of these 300
    # interval draws failed (21 at 4 cells, 3 at 8) and 1 of the 300 circle draws (4 cells)
    rng = np.random.default_rng(23)
    worst = 0.0
    for n in (4, 8, 16):
        g = build_grid(kind, n)
        for eps, _ in itertools.product((0.4, 0.2, 0.1, 0.05), range(25)):
            op = assemble_for(family(g, 2.0 * math.pi * rng.random()), unit_noise(g), eps * (0.9 + 0.2 * rng.random()))
            rep = solve_stationary(op)
            if g.periodic[0]:
                assert rep.residual <= 1e-15
            else:
                reference = detailed_balance(op)
                worst = max(worst, np.max(np.abs(rep.density.values - reference)) / np.max(reference))
    assert worst <= 1e-14


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_a_one_way_circle_is_pinned_without_a_warning(sign):
    # face Peclet >= 1.5 h / (eps^2 / 2) > 709 at eps 0.01: every rate against the drift is
    # 0, so each face's log is of inf (sign 1) or of 0 (sign -1); the audit runs the
    # demos with RuntimeWarning as an error
    g = build_grid(Circle(), 8)
    drift = VectorField([Trig("sin", 0, 1, 0.5 * sign, 2.0 * sign, 1.0)])
    op = assemble_for(ConservativeSystem(drift, Const(1.0), g), unit_noise(g), 0.01)
    sub, _, sup = op.bands
    assert not op.positive_rates and not np.any(sup if sign > 0 else sub)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        u = solve_stationary(op).density.values
    # one flux around the cycle: u_i times the rate out of cell i is the same for every i
    rate_out = np.roll(sub, -1) if sign > 0 else np.roll(sup, 1)
    reference = 1.0 / rate_out
    reference /= np.sum(reference) * g.cell_volume
    assert np.max(np.abs(u - reference)) <= 1e-15 * np.max(reference)


def csr_residual(op, u):
    """||M u||_inf / (||M||_inf ||u||_inf) from the CSR: its product, and reduceat over its rows."""
    m = op.matrix
    norm = float(np.max(np.add.reduceat(np.abs(m.data), m.indptr[:-1])))
    return float(np.max(np.abs(m @ u))) / (norm * float(u.max()))


@pytest.mark.parametrize("kind, family", [(Circle(), circle_family), (Interval(), interval_family)],
                         ids=["circle", "interval"])
@pytest.mark.parametrize("n", [4, 64, 4096])
def test_the_band_residual_has_the_bits_of_the_csr_residual(kind, family, n):
    g = build_grid(kind, n)
    for seed in (0, 1, 2):
        rng = np.random.default_rng(seed)
        system = family(g, 2.0 * math.pi * rng.random())
        factor = 0.9 + 0.2 * rng.random()
        for eps in (0.4, 0.2, 0.1, 0.05):
            op = assemble_for(system, unit_noise(g), eps * factor)
            rep = solve_stationary(op)
            assert "matrix" not in vars(op)  # the solve read the bands only
            assert rep.residual == csr_residual(op, rep.density.values)


@pytest.mark.parametrize("kind", [Circle(), Interval()], ids=["circle", "interval"])
def test_a_1d_stationary_solve_forms_no_csr(kind, monkeypatch):
    def refuse(*args):
        raise AssertionError("a CSR was formed")

    g = build_grid(kind, 64)
    op = assemble_for(builtin_catalog("zero-drift", g), unit_noise(g), 0.3)
    monkeypatch.setattr(operator_module, "_csr", refuse)
    rep = solve_stationary(op)
    assert rep.method == "direct" and "matrix" not in vars(op)
    with pytest.raises(AssertionError, match="a CSR was formed"):
        op.matrix


def fill(lu):
    return lu.L.nnz + lu.U.nnz


@pytest.mark.parametrize("kind, name", [(Torus2(), "hamiltonian-cellular"), (Rectangle(), "zero-drift"),
                                        (Circle(), "circle-positive"), (Interval(), "zero-drift")])
def test_factorize_fills_less_than_colamd_with_partial_pivoting(kind, name):
    g = build_grid(kind, (48,) * len(kind.lengths))
    eps = 0.2
    op = assemble_for(builtin_catalog(name, g), unit_noise(g), eps)
    pinned, _ = pinned_system(op.matrix)
    step = sp.identity(g.ncells, format="csr") - 0.01 * op.matrix
    for matrix in (pinned, step):
        ours = fill(factorize(matrix, g.dim))
        colamd = fill(spla.splu(matrix.tocsc(), permc_spec="COLAMD"))
        assert ours <= fill(factorize(matrix, 2))  # no more than the 2D minimum-degree order
        if isinstance(kind, Circle) and matrix is step:
            # the pattern is a cycle: every elimination order adds the same n - 3 chords
            assert ours == colamd
        else:
            assert ours < colamd
    if isinstance(kind, Circle):  # on an interval minimum degree finds the fill-free order too
        assert fill(factorize(pinned, 1)) < fill(factorize(pinned, 2))


def default_superlu(matrix, dim):
    """``factorize``'s ordering and diagonal pivots with SuperLU's default relax and panel size."""
    ordering = "NATURAL" if dim == 1 else "MMD_AT_PLUS_A"
    return spla.splu(matrix.tocsc(), permc_spec=ordering, diag_pivot_thresh=0.0,
                     options=dict(SymmetricMode=True))


@pytest.mark.parametrize("eps", [0.5, 0.05])
def test_factorize_agrees_with_default_supernodes_on_the_catalog(eps):
    rng = np.random.default_rng(7)
    pairs = 0
    for g, system in catalog_pairs():
        op = assemble_for(system, unit_noise(g), eps)
        pinned, rhs = pinned_system(op.matrix)
        block = rng.random((g.ncells, 2))
        identity = sp.identity(g.ncells, format="csr")
        dt = 0.2 / op.inf_norm()
        cases = [(pinned, rhs), (identity - dt * op.matrix, block), (identity - 0.5 * dt * op.matrix, block)]
        for matrix, b in cases:
            ours, reference = factorize(matrix, g.dim), default_superlu(matrix, g.dim)
            assert np.array_equal(ours.perm_c, reference.perm_c)
            assert fill(ours) == fill(reference)
            x, x_ref = ours.solve(b), reference.solve(b)
            assert np.max(np.abs(x - x_ref)) <= 1e-13 * np.max(np.abs(x_ref))
            assert np.array_equal(factorize(matrix, g.dim).solve(b), x)
        pairs += 1
    assert pairs == 8  # circle-positive, three torus systems, zero-drift on four domains


def csr_pinned_system(matrix):
    """The pin made on a CSR copy of M and converted afterwards: the reference ``pinned_system`` reproduces."""
    diag = matrix.diagonal()
    row = int(np.argmax(np.abs(diag)))
    pinned = matrix.tocsr(copy=True)
    start, end = pinned.indptr[row], pinned.indptr[row + 1]
    pinned.data[start:end] = np.where(pinned.indices[start:end] == row, abs(float(diag[row])), 0.0)
    pinned.eliminate_zeros()
    rhs = np.zeros(matrix.shape[0])
    rhs[row] = abs(float(diag[row]))
    return pinned.tocsc(), rhs


def underflowed_shear():
    """torus-shear on 16^2 at eps = 0.005: face Peclet numbers beyond 709, so the matrix stores zeros."""
    g = build_grid(Torus2(), (16, 16))
    op = assemble_for(builtin_catalog("torus-shear", g), unit_noise(g), 0.005)
    assert np.count_nonzero(op.matrix.data == 0.0) > 0
    return op


@pytest.mark.parametrize("eps", [0.5, 0.05])
def test_the_pinned_csc_has_the_bits_of_the_pinned_csr_copy(eps):
    ops = [assemble_for(system, unit_noise(g), eps) for g, system in catalog_pairs()]
    for op in ops + [underflowed_shear()]:
        pinned, _ = pinned_system(op.matrix)
        reference, _ = csr_pinned_system(op.matrix)
        assert pinned.format == "csc"
        for part in ("indptr", "indices", "data"):
            ours, theirs = getattr(pinned, part), getattr(reference, part)
            assert ours.dtype == theirs.dtype and ours.tobytes() == theirs.tobytes()


@pytest.mark.parametrize("case", ["cellular", "underflowed-shear"])
def test_a_2d_density_keeps_the_bits_of_the_csr_pin(case, monkeypatch):
    if case == "cellular":
        g = build_grid(Torus2(), (24, 20))
        op = assemble_for(builtin_catalog("hamiltonian-cellular", g), unit_noise(g), 0.1)
    else:
        op = underflowed_shear()
    ours = solve_stationary(op).density.values
    monkeypatch.setattr(stationary, "pinned_system", csr_pinned_system)
    assert ours.tobytes() == solve_stationary(op).density.values.tobytes()


def test_superlu_sees_one_pinned_csc_beside_the_operator(monkeypatch):
    # the operator's CSR is the caller's; pinning into the CSC that SuperLU
    # reads adds that CSC and the right-hand side, and no CSR copy of M
    g = build_grid(Torus2(), (64, 64))
    op = assemble_for(builtin_catalog("hamiltonian-cellular", g), unit_noise(g), 0.1)
    seen = {}
    splu = spla.splu

    def spy(matrix, **kwargs):
        seen["live"] = tracemalloc.get_traced_memory()[0]
        seen["pinned"] = matrix.data.nbytes + matrix.indices.nbytes + matrix.indptr.nbytes
        return splu(matrix, **kwargs)

    monkeypatch.setattr(spla, "splu", spy)
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        held = tracemalloc.get_traced_memory()[0]
        solve_stationary(op)
    finally:
        if started:
            tracemalloc.stop()
    assert seen["live"] - held <= seen["pinned"] + 4 * g.ncells * 8


# ---------------------------------------------------------------------------
# circle oracle
# ---------------------------------------------------------------------------


def test_oracle_constant_coefficients(monkeypatch):
    monkeypatch.setattr(stationary, "ORACLE_QUAD_FACTOR", 64)
    g = build_grid(Circle(), 64)
    drift = VectorField([Const(1.0)])
    nf = unit_noise(g)
    u, c_eps = oracle_1d_circle(drift, nf.a0_field, nf.ai_fields, 0.4, g)
    assert np.ptp(u) <= 1e-12
    assert abs(c_eps + 1.0) <= 1e-10


def test_oracle_requires_positive_drift():
    g = build_grid(Circle(), 64)
    drift = VectorField([Trig("sin", 0, 1, 1.0, 0.0, 1.0)])
    nf = unit_noise(g)
    with pytest.raises(PositivityError):
        oracle_1d_circle(drift, nf.a0_field, nf.ai_fields, 0.4, g)


def test_oracle_converges_to_invariant_density():
    g = build_grid(Circle(), 512)
    sys = builtin_catalog("circle-positive", g)
    u0 = math.sqrt(3.0) / (2.0 + np.sin(2 * np.pi * g.cell_centers()[:, 0]))
    eps_list = (0.4, 0.2, 0.1, 0.05)
    nf = unit_noise(g)
    dists = []
    for eps in eps_list:
        u, _ = oracle_1d_circle(sys.drift, nf.a0_field, nf.ai_fields, eps, g)
        dists.append(np.max(np.abs(u - u0)))
    assert all(b < a for a, b in zip(dists, dists[1:]))
    assert dists[-1] <= 0.01


def test_oracle_selection_family_small_drift():
    # with the selecting family, a u* = 1 and b = 0; a tiny constant
    # drift delta makes B > 0 and C_eps = -delta exactly
    g = build_grid(Circle(), 128)
    delta = 1e-6
    u_target = Trig("cos", 0, 1, 0.5, 1.0, 1.0)
    nf = construct_selecting_noise(u_target, g)
    drift = VectorField([Const(delta)])
    u, c_eps = oracle_1d_circle(drift, nf.a0_field, nf.ai_fields, 0.3, g)
    target = u_target(g.cell_centers())
    assert abs(c_eps + delta) <= 1e-12
    assert np.max(np.abs(u - target)) <= 1e-4


def test_oracle_self_consistency_across_eps():
    # C_eps must reproduce -int (B + eps^2 b) u at quadrature accuracy; at
    # eps = 0.05 the panels resolve the kernels from 512 cells on
    g = build_grid(Circle(), 512)
    sys = builtin_catalog("circle-positive", g)
    for eps in (0.4, 0.1, 0.05):
        nf = unit_noise(g)
        u, c_eps = oracle_1d_circle(sys.drift, nf.a0_field, nf.ai_fields, eps, g)
        assert np.all(u > 0.0)
        assert c_eps < 0.0


def test_circle_oracle_raises_where_w_overflows():
    # B = 2 + sin 2 pi x > 0, but with a = 9e-4 and A_0 = -2.5 B + eps^2 b < 0
    # on most of the circle: Phi(L) = -1111, and e^{-Phi(L)} overflows a double
    g = build_grid(Circle(), 1024)
    drift = VectorField([Trig("sin", 0, 1, 1.0, 2.0, 1.0)])
    with pytest.raises(SolveError, match="overflows"):
        oracle_1d_circle(drift, VectorField([Const(-2.5)]), [VectorField([Const(0.03)])], 1.0, g)


@pytest.mark.parametrize("eps, n, psi_delta", [(0.1, 64, 1.17), (0.1, 128, 0.59), (0.05, 256, 1.17),
                                                (0.05, 512, 0.59), (0.025, 256, 4.69)])
def test_circle_oracle_resolution_depends_on_eps_squared_times_n(eps, n, psi_delta):
    # psi ~ 6 / eps^2 and delta = 1 / (8 n), so psi_max * delta ~ 0.75 / (eps^2 n):
    # 1.17 raises and 0.59 returns.  At 4.69 the density would be 2% off, and the
    # self-check's tolerance grows with psi delta, so only the bound catches it
    g = build_grid(Circle(), n)
    sys = builtin_catalog("circle-positive", g)
    nf = unit_noise(g)
    if psi_delta > 1.0:  # ORACLE_MAX_PSI_DELTA
        with pytest.raises(ResolutionError, match=rf"psi_max \* delta = {psi_delta} exceeds"):
            oracle_1d_circle(sys.drift, nf.a0_field, nf.ai_fields, eps, g)
    else:
        u, _ = oracle_1d_circle(sys.drift, nf.a0_field, nf.ai_fields, eps, g)
        assert np.all(u > 0.0)


@pytest.fixture
def exp_lanes(monkeypatch):
    """The number of lanes of every ``np.exp`` call in ``noisyflow.stationary``."""
    lanes = []

    class Numpy:
        def __getattr__(self, name):
            return getattr(np, name)

        @staticmethod
        def exp(x, *args, **kwargs):
            lanes.append(np.size(x))
            return np.exp(x, *args, **kwargs)

    monkeypatch.setattr(stationary, "np", Numpy())
    return lanes


def reference_j1(local, phi):
    """The backward recurrence the blocked closed form replaces, one panel at a time."""
    j1 = np.zeros(len(phi))
    for j in range(len(local) - 1, -1, -1):
        j1[j] = local[j] + math.exp(phi[j] - phi[j + 1]) * j1[j + 1]
    return j1


def backward_sum_case(case):
    """(grid, drift, a0, ai, eps) of a circle case whose Phi overflows or falls on an arc."""
    if case == "overflowing":
        g = build_grid(Circle(), 512)  # the fewest cells that resolve eps = 0.05
        nf = unit_noise(g)
        return g, builtin_catalog("circle-positive", g).drift, nf.a0_field, nf.ai_fields, 0.05
    # B = 2 + sin 2 pi x > 0, but B + eps^2 b < 0 on an arc
    g = build_grid(Circle(), 256)
    drift = VectorField([Trig("sin", 0, 1, 1.0, 2.0, 1.0)])
    return g, drift, VectorField.zero(1), [VectorField([Trig("cos", 0, 1, 0.9, 1.0, 1.0)])], 0.9


@pytest.mark.parametrize("case", ["overflowing", "non-monotone"])
def test_oracle_backward_sum_matches_the_recurrence(case, full_array_oracles):
    # w = J1 + J2 from the two passes against J1 by its recurrence, one panel
    # at a time, and J2 = e^{Phi - Phi(L)} int_0^x e^{-Phi} directly, on the same Phi
    g, drift, a0, ai, eps = backward_sum_case(case)
    quad = 8 * g.n[0]
    delta = 1.0 / quad
    phi, falls = full_array_oracles.integrals(drift, a0, ai, g, quad)[3](eps)
    phi_mid = 0.5 * (phi[:-1] + phi[1:] + sum(falls))
    if case == "overflowing":
        assert phi[-1] > 710.0  # e^{Phi(L)} overflows a double
    else:
        assert np.min(np.diff(phi)) < 0.0
    local = (delta / 6.0) * (1.0 + 4.0 * np.exp(phi[:-1] - phi_mid) + np.exp(phi[:-1] - phi[1:]))
    j1 = reference_j1(local, phi)
    running = np.zeros(quad + 1)
    np.cumsum((delta / 6.0) * (np.exp(-phi[:-1]) + 4.0 * np.exp(-phi_mid) + np.exp(-phi[1:])), out=running[1:])
    j2 = np.exp(phi - phi[-1]) * running
    samples, s = _oracle_samples(drift, a0, ai, g, quad), 2.0 / (eps * eps)
    w = np.empty(quad + 1)
    _backward_pass(samples, s, _forward_pass(samples, s, delta, w), w, float(phi[-1]))
    assert np.max(np.abs(w - (j1 + j2))) <= 1e-12 * np.max(j1)
    u, c_eps = oracle_1d_circle(drift, a0, ai, eps, g)  # raises unless the self-check passes
    assert np.all(u > 0.0) and c_eps < 0.0


# the oracle's sup error relative to the long-double evaluation of its
# quadrature, measured on the scheme of five passes with up to seven
# exponentials per panel and on this one:
# (5.24e-14, 4.48e-14), (4.46e-13, 4.43e-13), (9.14e-13, 1.11e-12), (6.41e-14, 6.51e-14)
LONGDOUBLE_ERRORS = {("circle-positive", 0.4): 5.24e-14, ("circle-positive", 0.1): 4.46e-13,
                     ("circle-positive", 0.05): 9.14e-13, ("non-monotone", 0.9): 6.41e-14}


@pytest.mark.parametrize("case, eps", sorted(LONGDOUBLE_ERRORS))
def test_oracle_matches_its_quadrature_in_long_double(case, eps, longdouble_circle_oracle):
    if case == "circle-positive":
        g = build_grid(Circle(), 2 ** 12)
        nf = unit_noise(g)
        drift, a0, ai = builtin_catalog("circle-positive", g).drift, nf.a0_field, nf.ai_fields
    else:
        g, drift, a0, ai, _ = backward_sum_case(case)
    ref = longdouble_circle_oracle(drift, a0, ai, eps, g)
    u, _ = oracle_1d_circle(drift, a0, ai, eps, g)
    error = float(np.max(np.abs(u - ref) / ref))
    assert error <= min(2.0 * LONGDOUBLE_ERRORS[case, eps], 5e-12)


def test_simpson_on_edges_of_a_product_without_forming_it():
    # the flux self-check's integral of psi w, from dot products over strided views
    x = np.linspace(0.0, 1.0, 2 ** 12 + 1)
    values, factor = np.exp(np.sin(2 * np.pi * x)), 2.0 + np.cos(6 * np.pi * x)
    whole = stationary._simpson_on_edges(factor * values, x[1])
    assert abs(stationary._simpson_on_edges(values, x[1], factor) - whole) <= 1e-14 * abs(whole)  # roundoff
    with pytest.raises(ValueError, match="odd number"):
        stationary._simpson_on_edges(values[1:], x[1], factor[1:])


@pytest.mark.parametrize("case", ["overflowing", "non-monotone"])
def test_kept_samples_give_the_bits_of_a_fresh_evaluation(case, full_array_oracles):
    g, drift, a0, ai, eps = backward_sum_case(case)
    quad = 8 * g.n[0]
    b_min_ref, a_ref, psi_of, phi_of = full_array_oracles.integrals(drift, a0, ai, g, quad)
    psi_max_ref = max(float(np.max(np.abs(psi))) for psi in psi_of(eps))
    s = 2.0 / (eps * eps)
    _panel_samples.cache_clear()
    for _ in range(2):  # a cold evaluation, then the kept samples
        samples = _oracle_samples(drift, a0, ai, g, quad)
        assert samples.b_min == b_min_ref and np.all(samples.a == a_ref)  # a constant a is one float
        assert stationary._psi_max(samples, s) == psi_max_ref
        assert np.array_equal(stationary._scaled(s, samples.phi, slice(None)), phi_of(eps)[0])
    u, c_eps = oracle_1d_circle(drift, a0, ai, eps, g)
    u_ref, c_ref = full_array_oracles.circle(drift, a0, ai, eps, g)
    assert np.array_equal(u, u_ref) and c_eps == c_ref


def kept_arrays(samples):
    """Every array a ``_PanelSamples`` keeps; a constant a is one float, and r, R and the slopes may be None."""
    fields = (samples.a, *(samples.psi or ()), *(samples.psi_mids or ()), *samples.phi)
    return [values for values in fields if isinstance(values, np.ndarray)]


def same_bits(values, reference):
    """Equal shapes, dtypes and bytes: unlike ==, -0.0 differs from 0.0."""
    return (values.shape, values.dtype, values.tobytes()) == (reference.shape, reference.dtype, reference.tobytes())


@pytest.mark.parametrize("kind, n, noise", [(Circle(), 1025, "coordinate"), (Circle(), 64, "coordinate"),
                                            (Circle(), 1025, "varying"), (Interval(), 1025, "varying"),
                                            (Interval(), 64, "coordinate")])
def test_every_kept_sample_has_the_bits_of_a_full_array_evaluation(kind, n, noise, full_array_oracles):
    # 1025 cells are 8200 panels, a full block of J1_BLOCK and a short one of 8; 64 cells are one short
    # block.  The varying noise has a non-constant a and b != 0, so r, R and the midpoint slopes are kept
    g = build_grid(kind, n)
    quad = 8 * n
    assert (quad % stationary.J1_BLOCK != 0) and (quad > stationary.J1_BLOCK) == (n == 1025)
    drift = VectorField([Trig("sin", 0, 1, 1.0, 2.0, 1.0)])
    if noise == "coordinate":
        nf = unit_noise(g)
        a0, ai = nf.a0_field, nf.ai_fields
    else:
        a0, ai = VectorField.zero(1), [VectorField([Trig("cos", 0, 1, 0.9, 1.0, 1.0)])]
    a_form, b_corr_form = stationary._oracle_coefficients(a0, ai)
    ref = full_array_oracles.samples(drift.components[0], a_form, b_corr_form, 0.0, 1.0, quad)
    _panel_samples.cache_clear()
    samples = _oracle_samples(drift, a0, ai, g, quad)
    assert samples.b_min == ref.b_min and samples.q_max == ref.q_max
    corrected, slopes = noise == "varying", isinstance(kind, Circle)
    expected = [(samples.phi[0], ref.p)]
    if corrected:
        expected += [(samples.phi[1], ref.big_r), (samples.a, ref.a)]
    else:
        assert samples.phi[1] is None and samples.a == 1.0 and np.all(ref.a == 1.0)
    if slopes:
        expected.append((samples.psi[0], ref.q[0]))
        if corrected:
            expected += [(samples.psi[1], ref.r[0]), (samples.psi_mids[0], ref.q[1]), (samples.psi_mids[1], ref.r[1])]
        else:
            assert samples.psi[1] is None and samples.psi_mids is None
    else:  # the interval oracle reads P, R and a only
        assert samples.psi is None and samples.psi_mids is None
    assert len(kept_arrays(samples)) == len(expected)
    for values, reference in expected:
        assert same_bits(values, reference) and not values.flags.writeable


BAD_LAST_BLOCK = Affine(0, -1.0, 0.9995)  # negative past x = 0.9995 only, inside the last of 8200 panels


@pytest.mark.parametrize("slopes", [True, False])
@pytest.mark.parametrize("forms, error, message", [
    ((Power(BAD_LAST_BLOCK, 0.5), Const(1.0), Const(0.0)), FieldEvaluationError,
     "non-finite sample of the drift B on the oracle's panels"),
    ((Const(1.0), Power(BAD_LAST_BLOCK, 0.5), Const(0.0)), FieldEvaluationError,
     "non-finite sample of the total diffusion a on the oracle's panels"),
    ((Const(1.0), Const(1.0), Power(BAD_LAST_BLOCK, 0.5)), FieldEvaluationError,
     "non-finite sample of the drift correction b on the oracle's panels"),
    ((Const(1.0), BAD_LAST_BLOCK, Const(0.0)), PositivityError, "total diffusion a must be positive"),
    ((Const(1.0), Const(math.inf), Const(0.0)), FieldEvaluationError,  # a constant a is one float, checked too
     "non-finite sample of the total diffusion a on the oracle's panels"),
])
def test_a_bad_sample_raises_and_keeps_nothing(forms, error, message, slopes):
    quad = 8 * 1025
    assert BAD_LAST_BLOCK(np.array([stationary.J1_BLOCK / quad]))[0] > 0.0  # every earlier block is good
    _panel_samples.cache_clear()
    with np.errstate(invalid="ignore"), pytest.raises(error, match=f"^{message}$"):
        _panel_samples(*forms, 0.0, 1.0, quad, slopes)
    assert _panel_samples.cache_info().currsize == 0


def traced_peak(call):
    """``call()``'s result and the most memory tracemalloc saw above what was held before it."""
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    base = tracemalloc.get_traced_memory()[0]
    tracemalloc.reset_peak()
    try:
        result = call()
        return result, tracemalloc.get_traced_memory()[1] - base
    finally:
        if started:
            tracemalloc.stop()


def test_cold_panel_samples_peak_at_the_kept_arrays_and_a_few_blocks():
    # nodes and form samples live for one block of J1_BLOCK panels; whole-array
    # nodes and form temporaries peaked at three times the kept arrays
    n = 2 ** 12
    g = build_grid(Circle(), n)
    nf = unit_noise(g)
    drift = builtin_catalog("circle-positive", g).drift
    _panel_samples.cache_clear()
    samples, peak = traced_peak(lambda: _oracle_samples(drift, nf.a0_field, nf.ai_fields, g, 8 * n))
    kept = sum(values.nbytes for values in kept_arrays(samples))
    assert kept == 2 * 8 * (8 * n + 1)  # P and q at the edges
    assert peak < kept + 10 * 8 * (stationary.J1_BLOCK + 1)


def test_an_interval_keeps_only_what_its_oracle_reads(full_array_oracles):
    n = 2 ** 12
    drift = VectorField([Trig("sin", 0, 1, 1.0, 2.0, 1.0)])
    circle, interval = build_grid(Circle(), n), build_grid(Interval(), n)
    nf = unit_noise(interval)
    _panel_samples.cache_clear()
    circle_samples = _oracle_samples(drift, nf.a0_field, nf.ai_fields, circle, 8 * n)
    samples = _oracle_samples(drift, nf.a0_field, nf.ai_fields, interval, 8 * n)  # the same forms and lattice
    assert (_panel_samples.cache_info().misses, _panel_samples.cache_info().hits) == (2, 0)
    assert [values.nbytes for values in kept_arrays(samples)] == [8 * (8 * n + 1)]  # P alone: 0.26 MB
    assert same_bits(samples.phi[0], circle_samples.phi[0])
    drift = VectorField([Trig("sin", 0, 1, 0.3, 0.0, 1.0)])  # vanishes at both ends
    u = oracle_1d_interval(drift, nf.a0_field, nf.ai_fields, 0.3, interval)
    assert same_bits(u, full_array_oracles.interval(drift, nf.a0_field, nf.ai_fields, 0.3, interval))


def seam_case(case):
    """(grid, drift, a0, ai, eps) of a circle case placed against the oracles' blocks of J1_BLOCK panels."""
    if case in ("overflowing", "non-monotone"):
        return backward_sum_case(case)
    if case == "overflowing-blocks":  # the overflowing drift over four blocks: Phi(L) = 1600
        g = build_grid(Circle(), 4 * stationary.J1_BLOCK // 8)
        nf = unit_noise(g)
        return g, builtin_catalog("circle-positive", g).drift, nf.a0_field, nf.ai_fields, 0.05
    g = build_grid(Circle(), 64 if case == "one-block" else 2000)
    if case == "seam-varying-noise":  # a and b are arrays, not constants
        return (g, *backward_sum_case("non-monotone")[1:])
    nf = unit_noise(g)
    eps = 0.4 if case == "one-block" else 0.2
    return g, builtin_catalog("circle-positive", g).drift, nf.a0_field, nf.ai_fields, eps


@pytest.mark.parametrize("case", ["seam", "seam-varying-noise", "one-block", "overflowing", "overflowing-blocks",
                                  "non-monotone"])
def test_block_passes_give_the_bits_of_the_full_arrays(case, full_array_oracles, exp_lanes):
    g, drift, a0, ai, eps = seam_case(case)
    panels = stationary.ORACLE_QUAD_FACTOR * g.n[0]
    if case.startswith("seam"):  # 8n = 16000: one full block and a short one
        assert panels > stationary.J1_BLOCK and panels % stationary.J1_BLOCK != 0
    elif case == "one-block":
        assert panels < stationary.J1_BLOCK
    _panel_samples.cache_clear()
    u, c_eps = oracle_1d_circle(drift, a0, ai, eps, g)
    # three exponentials per panel: e^{ref - Phi} at a block's m + 1 edges and
    # m midpoints from the left, then e^{Phi - ref} at its m left edges from
    # the right.  Phi rises by more than 300 on the first two of the four
    # blocks of "overflowing-blocks", which are halved
    count = len(exp_lanes) // 2
    forward, backward = exp_lanes[:count], exp_lanes[count:]
    assert forward == [2 * m + 1 for m in reversed(backward)] and sum(backward) == panels
    if case == "overflowing-blocks":
        assert panels == 4 * stationary.J1_BLOCK and count == 6
    elif case == "one-block":
        assert count == 1
    u_ref, c_ref = full_array_oracles.circle(drift, a0, ai, eps, g)
    assert np.array_equal(u, u_ref) and c_eps == c_ref


@pytest.mark.parametrize("eps, n", [(0.5, 1000), (0.5, 64), (0.1, 1000), (0.1, 64), (0.03, 2048)])
def test_interval_block_passes_give_the_bits_of_the_full_arrays(eps, n, full_array_oracles):
    g = build_grid(Interval(), n)
    drift = VectorField([Trig("sin", 0, 1, 0.3, 0.0, 1.0)])  # vanishes at both ends
    a0 = VectorField([Const(0.3)])
    ai = [VectorField([Trig("cos", 0, 1, 0.9, 1.0, 1.0)])]
    u = oracle_1d_interval(drift, a0, ai, eps, g)  # at eps 0.03, Phi - max Phi falls to -1118
    assert np.array_equal(u, full_array_oracles.interval(drift, a0, ai, eps, g))


@pytest.mark.parametrize("kind", [Circle(), Interval()])
def test_oracle_working_set(kind):
    # past the kept eps-free arrays a call holds one array at full length, w
    # (the circle) or Phi (the interval), and only blocks besides
    n = 2 ** 12
    g = build_grid(kind, n)
    nf = unit_noise(g)
    if isinstance(kind, Circle):
        oracle, drift = oracle_1d_circle, builtin_catalog("circle-positive", g).drift
    else:
        oracle, drift = oracle_1d_interval, VectorField([Trig("sin", 0, 1, 0.3, 0.0, 1.0)])
    oracle(drift, nf.a0_field, nf.ai_fields, 0.3, g)  # keeps the samples
    _, peak = traced_peak(lambda: oracle(drift, nf.a0_field, nf.ai_fields, 0.3, g))
    assert peak < 2 * 8 * (8 * n + 1)


def test_kept_samples_never_serve_another_grid_or_drift():
    grids = [build_grid(Circle(), n) for n in (64, 128)]
    drifts = [VectorField([Trig("sin", 0, 1, 1.0, 2.0, 1.0)]),
              VectorField([Trig("cos", 0, 1, 0.5, 1.5, 1.0)])]
    nf = unit_noise(grids[0])
    # consecutive calls change the grid under one drift, then the drift on one grid
    calls = list(itertools.product((0.4, 0.2), range(2), range(2))) * 2
    cold = {}
    for eps, d, k in calls:
        _panel_samples.cache_clear()
        cold[eps, d, k] = oracle_1d_circle(drifts[d], nf.a0_field, nf.ai_fields, eps, grids[k])
    _panel_samples.cache_clear()
    for eps, d, k in calls:
        u, c_eps = oracle_1d_circle(drifts[d], nf.a0_field, nf.ai_fields, eps, grids[k])
        assert np.array_equal(u, cold[eps, d, k][0]) and c_eps == cold[eps, d, k][1]
    for b_corr in (Const(0.0), Trig("cos", 0, 1, 0.5, 0.0, 1.0)):  # b = 0 keeps no r, R or midpoint q
        samples = _panel_samples(drifts[0].components[0], Const(1.0), b_corr, 0.0, 1.0, 8 * 64)
        kept = [v for pairs in (samples.phi, samples.psi, samples.psi_mids or ()) for v in pairs if v is not None]
        assert len(kept) == (2 if b_corr == Const(0.0) else 6)
        for values in kept:
            with pytest.raises(ValueError):
                values[0] = 0.0


def test_interval_oracle_shares_the_kept_samples():
    g = build_grid(Interval(), 64)
    nf = unit_noise(g)
    drift = VectorField([Trig("sin", 0, 1, 0.3, 0.0, 1.0)])
    _panel_samples.cache_clear()
    for eps in (0.5, 0.3):
        oracle_1d_interval(drift, nf.a0_field, nf.ai_fields, eps, g)
    info = _panel_samples.cache_info()
    assert (info.misses, info.hits) == (1, 1)


def test_oracles_raise_on_a_non_finite_drift():
    # B = (1/2 + sin 2 pi x)^(-1/2) is NaN where the base is negative; the
    # interval's drift vanishes at both ends, so only the samples can fail it
    wave = Trig("sin", 0, 1, 1.0, 0.5, 1.0)
    circle_drift = VectorField([Power(wave, -0.5)])
    interval_drift = VectorField([Product(Trig("sin", 0, 1, 1.0, 0.0, 1.0), Power(wave, -0.5))])
    for oracle, kind, drift in ((oracle_1d_circle, Circle(), circle_drift),
                                (oracle_1d_interval, Interval(), interval_drift)):
        g = build_grid(kind, 64)
        nf = unit_noise(g)
        with np.errstate(invalid="ignore"), pytest.raises(FieldEvaluationError, match="drift B"):
            oracle(drift, nf.a0_field, nf.ai_fields, 0.4, g)


# ---------------------------------------------------------------------------
# interval oracle
# ---------------------------------------------------------------------------


def test_interval_oracle_uniform():
    g = build_grid(Interval(), 64)
    nf = unit_noise(g)
    u = oracle_1d_interval(VectorField.zero(1), nf.a0_field, nf.ai_fields, 0.5, g)
    assert np.allclose(u, 1.0, atol=1e-12)


def test_interval_oracle_exponential_tilt():
    # B = 0, A0 = c, A1 = 1: u is proportional to e^{2 c x}, independent
    # of eps; closed form 2 e^{2x} / (e^2 - 1) for c = 1
    g = build_grid(Interval(), 256)
    a0 = VectorField([Const(1.0)])
    a1 = VectorField([Const(1.0)])
    nf = Noise(a0, (a1,))
    u = oracle_1d_interval(VectorField.zero(1), nf.a0_field, nf.ai_fields, 0.3, g)
    x = g.cell_centers()[:, 0]
    exact = 2.0 * np.exp(2.0 * x) / (math.e ** 2 - 1.0)
    assert np.max(np.abs(u - exact)) <= 1e-10
    u2 = oracle_1d_interval(VectorField.zero(1), nf.a0_field, nf.ai_fields, 0.9, g)
    assert np.allclose(u, u2, atol=1e-13)


@pytest.mark.parametrize("eps", [0.5, 0.1])
def test_interval_solve_matches_the_oracle(eps):
    # the exponential tilt (B = 0, A0 = A1 = 1) at the tolerance the circle oracle's
    # benchmark gate reads: the finite-volume solve against the closed form
    g = build_grid(Interval(), 256)
    system, nf = builtin_catalog("zero-drift", g), Noise(VectorField([Const(1.0)]), (VectorField([Const(1.0)]),))
    u = solve_stationary(assemble_for(system, nf, eps)).density.values
    oracle = oracle_1d_interval(system.drift, nf.a0_field, nf.ai_fields, eps, g)
    assert np.max(np.abs(u - oracle)) / np.max(np.abs(oracle)) <= SweepConfig.thresholds.oracle_sup


@pytest.mark.parametrize("eps", [0.5, 0.1])
def test_interval_solve_matches_the_oracle_for_varying_noise(eps):
    # A0 = sin 2 pi x, A1 = 1 + cos(2 pi x) / 2: a density that is neither uniform nor a pure tilt
    g = build_grid(Interval(), 256)
    system = builtin_catalog("zero-drift", g)
    nf = Noise(VectorField([Trig("sin", 0, 1, 1.0, 0.0, 1.0)]), (VectorField([Trig("cos", 0, 1, 0.5, 1.0, 1.0)]),))
    u = solve_stationary(assemble_for(system, nf, eps)).density.values
    oracle = oracle_1d_interval(system.drift, nf.a0_field, nf.ai_fields, eps, g)
    assert np.max(np.abs(oracle - 1.0)) >= 0.1
    assert np.max(np.abs(u - oracle)) / np.max(np.abs(oracle)) <= SweepConfig.thresholds.oracle_sup


def test_interval_oracle_selection_family():
    g = build_grid(Interval(), 128)
    u_target = Trig("cos", 0, 1, 0.5, 1.0, 1.0)
    nf = construct_selecting_noise(u_target, g)
    u = oracle_1d_interval(VectorField.zero(1), nf.a0_field, nf.ai_fields, 0.4, g)
    target = u_target(g.cell_centers())
    target /= np.sum(target) * g.cell_volume
    assert np.max(np.abs(u - target)) <= 1e-10


def test_interval_oracle_boundary_compatibility():
    g = build_grid(Interval(), 64)
    nf = unit_noise(g)
    with pytest.raises(BoundaryError):
        oracle_1d_interval(VectorField([Const(1.0)]), nf.a0_field, nf.ai_fields, 0.5, g)


@pytest.mark.parametrize("drift, message", [((Const(1.0),), "1.0 on the axis-0"),
                                            ((Affine(0, 0.5, -0.25),), "0.25 on the axis-0")])
def test_interval_oracle_and_the_sweep_refuse_a_wall_crossing_drift_alike(drift, message):
    # one wall rule: the oracle called directly refuses with the message every study and command gives
    cfg = SweepConfig(kind="stability", domain=Interval(), n=(64,), epsilons=(0.5,),
                      system=SystemSpec(drift_forms=drift, u0_form=Const(1.0)))
    pattern = rf"^drift normal component reaches {message} boundary$"
    with pytest.raises(BoundaryError, match=pattern):
        cfg.build()
    g = cfg.grid()
    nf = unit_noise(g)
    with pytest.raises(BoundaryError, match=pattern):
        oracle_1d_interval(VectorField(drift), nf.a0_field, nf.ai_fields, 0.5, g)


def field_loop_coefficients(a0, ai):
    """The oracles' a and b = A_0 + (1/2) sum A_i A_i', summed field by field: the reference that
    _oracle_coefficients, built from fields.diffusion_forms and fields.correction_forms, matches."""
    a_form, b_form = Const(0.0), a0.components[0]
    for f in ai:
        c = f.components[0]
        a_form = add(a_form, mul(c, c))
        b_form = add(b_form, mul(Const(0.5), mul(c, c.grad(0))))
    return a_form, b_form


def test_oracle_coefficients_of_coordinate_noise_are_constants():
    # so _panel_samples keeps its b = 0 path and its cache key
    for kind in (Circle(), Interval()):
        nf = unit_noise(build_grid(kind, 16))
        assert stationary._oracle_coefficients(nf.a0_field, nf.ai_fields) == (Const(1.0), Const(0.0))


def test_oracle_coefficients_of_one_field_are_the_field_loop():
    a0 = VectorField([Trig("sin", 0, 1, 0.3, 0.0, 1.0)])
    for c in (Trig("cos", 0, 1, 0.5, 1.0, 1.0), Affine(0, 0.5, 1.0), Const(2.0)):
        ai = [VectorField([c])]
        assert stationary._oracle_coefficients(a0, ai) == field_loop_coefficients(a0, ai)


def test_oracle_coefficients_of_two_fields_move_the_oracle_by_roundoff():
    # b = A_0 + (t1 + t2) / 2 associates the sum otherwise than (A_0 + t1 / 2) + t2 / 2: on this
    # noise b moves by 4.4e-16 and the circle oracle at 1024 cells by 3.2e-15 to 1.3e-14 relative
    a0 = VectorField([Trig("sin", 0, 1, 0.3, 0.0, 1.0)])
    ai = [VectorField([Trig("cos", 0, 1, 0.5, 1.0, 1.0)]), VectorField([Trig("sin", 0, 2, 0.4, 0.8, 1.0)])]
    (a_form, b_form), (a_loop, b_loop) = stationary._oracle_coefficients(a0, ai), field_loop_coefficients(a0, ai)
    assert a_form == a_loop
    x = np.linspace(0.0, 1.0, 10001)
    assert np.max(np.abs(b_form(x) - b_loop(x))) <= 1e-15
    g = build_grid(Circle(), 1024)
    drift = builtin_catalog("circle-positive", g).drift
    for eps in (0.4, 0.2, 0.1):
        u, c_eps = oracle_1d_circle(drift, a0, ai, eps, g)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(stationary, "_oracle_coefficients", field_loop_coefficients)
            u_loop, c_loop = oracle_1d_circle(drift, a0, ai, eps, g)
        assert np.max(np.abs(u - u_loop)) <= 1e-13 * np.max(u_loop)
        assert abs(c_eps - c_loop) <= 1e-15 * abs(c_loop)


# ---------------------------------------------------------------------------
# W^{1,2} seminorm
# ---------------------------------------------------------------------------


def test_w12_constant_is_zero():
    g = build_grid(Circle(), 64)
    assert discrete_w12_seminorm(Density.normalized(np.ones(g.ncells), g)) == 0.0


def test_w12_cosine_value():
    # int (u')^2 = 2 pi^2 for u = 1 + cos(2 pi x); the face-difference
    # seminorm is sqrt(2 pi^2) sinc(pi h)
    g = build_grid(Circle(), 512)
    u = Density.normalized(1.0 + np.cos(2 * np.pi * g.cell_centers()[:, 0]), g)
    assert abs(discrete_w12_seminorm(u) - math.sqrt(2 * math.pi ** 2)) <= 5e-5


def test_w12_grid_stable_on_catalog_density():
    values = {}
    for n in (256, 512):
        g = build_grid(Circle(), n)
        sys = builtin_catalog("circle-positive", g)
        values[n] = discrete_w12_seminorm(Density(sys.u0, g))
    assert abs(values[256] - values[512]) <= 1e-3 * values[512]


# ---------------------------------------------------------------------------
# density invariants
# ---------------------------------------------------------------------------


def test_density_validation():
    g = build_grid(Circle(), 16)
    with pytest.raises(PositivityError):
        Density(np.full(16, -1.0), g)
    with pytest.raises(ValueError):
        Density(np.full(16, 2.0), g)  # mass 2
    with pytest.raises(ValueError):
        Density(np.ones(15), g)


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_density_rejects_non_finite_values(value):
    # nan < 0 and abs(nan - 1) > 1e-12 are both False: only a finiteness check catches it
    g = build_grid(Circle(), 16)
    with pytest.raises(ValueError, match="non-finite"):
        Density(np.full(16, value), g)
    values = np.full(16, 1.0)
    values[3] = value
    with pytest.raises(ValueError, match="non-finite"):
        Density(values, g)
