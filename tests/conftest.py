"""Fixtures that more than one test module uses, and the reference implementations the package is checked against."""

import math
from types import SimpleNamespace

import numpy as np
import pytest

from noisyflow.fields import Const, ConservativeSystem, builtin_catalog, coordinate_noise, transform_div_free
from noisyflow.geometry import build_grid
from noisyflow.operator import assemble_for
from noisyflow import operator, stationary
from noisyflow.stationary import solve_stationary


@pytest.fixture
def graph_searches(monkeypatch):
    """The number of strongly-connected-components searches ``is_irreducible`` runs, as a one-item list."""
    calls = [0]
    search = operator.connected_components

    def counted(*args, **kwargs):
        calls[0] += 1
        return search(*args, **kwargs)

    monkeypatch.setattr(operator, "connected_components", counted)
    return calls


@pytest.fixture
def transform_mismatch():
    """sup |u_t - u/u0| of a catalog system under coordinate noise, as a function of (domain, n, catalog, eps).

    u solves the system, u_t the divergence-free system that
    ``transform_div_free`` builds from it, and u/u0 is normalized to unit
    mass (the raw ratio integrates to 1 + O(eps^2)).  The mismatch is
    discretization error only.
    """
    def mismatch(domain, n, catalog, eps):
        grid = build_grid(domain, n)
        system = builtin_catalog(catalog, grid)
        noise = coordinate_noise(grid)
        drift, transformed_noise = transform_div_free(system, noise)
        transformed = ConservativeSystem(drift, Const(1.0), grid)
        u = solve_stationary(assemble_for(system, noise, eps)).density.values
        u_t = solve_stationary(assemble_for(transformed, transformed_noise, eps)).density.values
        ratio = u / system.u0
        ratio /= np.sum(ratio) * grid.cell_volume
        return float(np.max(np.abs(u_t - ratio)))

    return mismatch


@pytest.fixture
def full_array_oracles():
    """The 1D oracles as passes over whole arrays, with every form evaluated afresh at every node.

    The reference the block passes of ``noisyflow.stationary`` must
    reproduce bit for bit.  ``exponent(drift, a0, ai, eps, grid, quad)``
    returns ``(b_min, a_edges, psi_edges, psi_mids, phi, phi_mid)`` on
    ``quad`` Simpson panels; ``circle`` returns (u, C_eps) and
    ``interval`` returns u, from the oracles' arguments.  Each
    elementwise operation takes the operands, in the order, that the
    package's oracles take; their checks (positivity, resolution, the
    flux self-check) are left out.
    """
    def cumulative_simpson(f_edges, f_mids, delta):
        out = np.zeros(len(f_edges))
        np.cumsum((delta / 6.0) * (f_edges[:-1] + 4.0 * f_mids + f_edges[1:]), out=out[1:])
        return out

    def exponent(drift, a0, ai, eps, grid, quad):
        a_form, b_corr_form = stationary._oracle_coefficients(a0, ai)
        e2 = eps * eps

        def sample(x):
            a = a_form(x)
            b = drift.components[0](x)
            return a, float(b.min()), 2.0 * (b + e2 * b_corr_form(x)) / (e2 * a)

        (origin,), (length,) = grid.kind.origin, grid.kind.lengths
        edges, mids = stationary._quad_nodes(origin, length, quad)
        a_edges, b_min_edges, psi_edges = sample(edges)
        _, b_min_mids, psi_mids = sample(mids)
        delta = length / quad
        phi = cumulative_simpson(psi_edges, psi_mids, delta)
        phi_mid = phi[:-1] + (delta / 24.0) * (5.0 * psi_edges[:-1] + 8.0 * psi_mids - psi_edges[1:])
        return min(b_min_edges, b_min_mids), a_edges, psi_edges, psi_mids, phi, phi_mid

    def backward_sum(local, phi):
        j1 = np.zeros(len(phi))
        end = len(local)
        while end > 0:
            start = max(0, end - stationary.J1_BLOCK)
            while end - start > 1 and np.ptp(phi[start:end + 1]) > stationary.J1_BLOCK_SPAN:
                start = end - (end - start) // 2
            ref = float(np.max(phi[start:end + 1]))
            scaled = np.exp(ref - phi[start:end]) * local[start:end]
            sums = np.cumsum(scaled[::-1])[::-1]
            sums += math.exp(ref - phi[end]) * j1[end]
            j1[start:end] = np.exp(phi[start:end] - ref) * sums
            end = start
        return j1

    def circle(drift, a0, ai, eps, grid):
        quad = stationary.ORACLE_QUAD_FACTOR * grid.n[0]
        delta = grid.kind.length / quad
        _, a_edges, _, _, phi, phi_mid = exponent(drift, a0, ai, eps, grid, quad)
        phi_total = float(phi[-1])
        local = (4.0 * np.exp(phi[:-1] - phi_mid) + 1.0 + np.exp(phi[:-1] - phi[1:])) * (delta / 6.0)
        w = backward_sum(local, phi)
        w += cumulative_simpson(np.exp(-phi), np.exp(-phi_mid), delta) * np.exp(phi - phi_total)
        w /= a_edges
        scale = 1.0 / stationary._simpson_on_edges(w, delta)
        c_eps = -0.5 * eps * eps * scale * -np.expm1(-phi_total)
        return stationary._at_centers(w, grid) * scale, float(c_eps)

    def interval(drift, a0, ai, eps, grid):
        quad = stationary.ORACLE_QUAD_FACTOR * grid.n[0]
        _, a_edges, _, _, phi, _ = exponent(drift, a0, ai, eps, grid, quad)
        u_unnorm = np.exp(phi - phi.max()) / a_edges
        z = stationary._simpson_on_edges(u_unnorm, grid.kind.lengths[0] / quad)
        return stationary._at_centers(u_unnorm / z, grid)

    return SimpleNamespace(exponent=exponent, circle=circle, interval=interval)
