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
    reproduce bit for bit.  ``integrals(drift, a0, ai, grid, quad)``
    returns ``(b_min, a_edges, psi, phi)`` on ``quad`` Simpson panels:
    psi = s q + r (at the edges and midpoints) and Phi = s P + R (at the
    edges) with s = 2 / eps^2, as functions of eps, from the eps-free
    q = B / a, r = 2 b / a and the cumulative Simpson integrals P and R
    of q and r (r and R are left out when b is the constant 0, as the
    package leaves them out).  ``circle`` returns (u, C_eps) and
    ``interval`` returns u, from the oracles' arguments.  The circle
    takes Phi at the midpoints from cubic Hermite interpolation of Phi
    and psi at the edges, stores each panel's term (delta / 6) (E_l + 4 F
    + E_r), with E and F the exponentials of ref - Phi at its edges and
    midpoint and ref its block's largest Phi, then sums J1 and J2 out of
    the terms block by block.  Each elementwise operation takes the
    operands, in the order, that the package's oracles take; their
    checks (positivity, resolution, the flux self-check) are left out.
    """
    def integrals(drift, a0, ai, grid, quad):
        a_form, b_corr_form = stationary._oracle_coefficients(a0, ai)
        corrected = b_corr_form != Const(0.0)
        (origin,), (length,) = grid.kind.origin, grid.kind.lengths
        delta = length / quad
        nodes = stationary._quad_nodes(origin, length, quad)
        b_min = min(float(drift.components[0](x).min()) for x in nodes)
        q = [drift.components[0](x) / a_form(x) for x in nodes]
        r = [2.0 * (b_corr_form(x) / a_form(x)) for x in nodes]
        p_edges, r_edges = (np.concatenate(([0.0], np.cumsum((delta / 6.0) * (f[0][:-1] + 4.0 * f[1] + f[0][1:]))))
                            for f in (q, r))

        def psi(eps):
            s = 2.0 / (eps * eps)
            return tuple(s * k + c if corrected else s * k for k, c in zip(q, r))

        def phi(eps):
            s = 2.0 / (eps * eps)
            falls = [s * delta / 4.0 * (q[0][:-1] - q[0][1:])]  # (delta / 4) (psi_l - psi_r), per part of psi
            if corrected:
                return s * p_edges + r_edges, falls + [1.0 * delta / 4.0 * (r[0][:-1] - r[0][1:])]
            return s * p_edges, falls

        return b_min, a_form(nodes[0]), psi, phi

    def blocks(phi):
        """(start, end, ref) of the circle's blocks, left to right."""
        start, quad = 0, len(phi) - 1
        while start < quad:
            end = min(start + stationary.J1_BLOCK, quad)
            while end - start > 1 and np.ptp(phi[start:end + 1]) > stationary.J1_BLOCK_SPAN:
                end = start + (end - start) // 2
            yield start, end, float(np.max(phi[start:end + 1]))
            start = end

    def circle(drift, a0, ai, eps, grid):
        quad = stationary.ORACLE_QUAD_FACTOR * grid.n[0]
        delta = grid.kind.length / quad
        _, a_edges, _, phi_of = integrals(drift, a0, ai, grid, quad)
        phi, falls = phi_of(eps)
        phi_mid = phi[:-1] + phi[1:]  # the cubic Hermite interpolant of Phi and psi at the edges
        for fall in falls:
            phi_mid = phi_mid + fall
        phi_mid = 0.5 * phi_mid
        phi_total = float(phi[-1])
        spans = list(blocks(phi))
        ref = np.concatenate([np.full(end - start, r) for start, end, r in spans])  # per panel
        term = (delta / 6.0) * (np.exp(ref - phi[:-1]) + 4.0 * np.exp(ref - phi_mid) + np.exp(ref - phi[1:]))
        carries = [0.0]
        for start, end, r in spans:
            carries.append(carries[-1] + math.exp(-r) * float(np.sum(term[start:end])))
        w = np.empty(quad + 1)
        w[-1] = carries[-1]
        j1 = 0.0
        for (start, end, r), carry in reversed(list(zip(spans, carries))):
            part = term[start:end]
            right = math.exp(r - phi[end]) * j1
            scale = np.exp(phi[start:end] - r)
            total = np.cumsum(part[::-1])[::-1]
            j1 = float(scale[0]) * (float(total[0]) + right)
            total = total + (right + math.exp(r - phi_total) * carry)
            total[1:] += np.cumsum(part[:-1]) * math.exp(-phi_total)
            w[start:end] = scale * total
        w /= a_edges
        scale = 1.0 / stationary._simpson_on_edges(w, delta)
        c_eps = -0.5 * eps * eps * scale * -np.expm1(-phi_total)
        return stationary._at_centers(w, grid) * scale, float(c_eps)

    def interval(drift, a0, ai, eps, grid):
        quad = stationary.ORACLE_QUAD_FACTOR * grid.n[0]
        _, a_edges, _, phi_of = integrals(drift, a0, ai, grid, quad)
        phi = phi_of(eps)[0]
        u_unnorm = np.exp(phi - phi.max()) / a_edges
        z = stationary._simpson_on_edges(u_unnorm, grid.kind.lengths[0] / quad)
        return stationary._at_centers(u_unnorm / z, grid)

    return SimpleNamespace(integrals=integrals, circle=circle, interval=interval)


@pytest.fixture
def longdouble_circle_oracle():
    """The circle oracle's quadrature evaluated in ``np.longdouble``, as a function of its arguments.

    The forms are sampled in double precision, as the package samples
    them; everything after that is long double: psi, Phi by cumulative
    Simpson at the edges and cubic Hermite interpolation at the
    midpoints, J1 by its backward recurrence J1[j] = local[j] +
    e^{Phi[j] - Phi[j+1]} J1[j+1], and J2 = e^{Phi - Phi(L)} int_0^x e^{-Phi}
    directly, which cannot overflow there (long double reaches e^11356).
    Returns the normalized cell-center samples as long doubles.
    """
    def oracle(drift, a0, ai, eps, grid):
        ld = np.longdouble
        a_form, b_corr_form = stationary._oracle_coefficients(a0, ai)
        quad = stationary.ORACLE_QUAD_FACTOR * grid.n[0]
        delta = ld(grid.kind.length) / quad
        edges = np.arange(quad + 1, dtype=ld) * delta
        mids = (np.arange(quad, dtype=ld) + ld(0.5)) * delta
        e2 = ld(eps) * ld(eps)

        def psi(x):
            x = x.astype(float)
            return 2 * (drift.components[0](x).astype(ld) + e2 * b_corr_form(x).astype(ld)) / (e2 * a_form(x).astype(ld))

        psi_edges, psi_mids = psi(edges), psi(mids)
        phi = np.zeros(quad + 1, dtype=ld)
        phi[1:] = np.cumsum(delta / 6 * (psi_edges[:-1] + 4 * psi_mids + psi_edges[1:]))
        phi_mid = (phi[:-1] + phi[1:]) / 2 + delta / 8 * (psi_edges[:-1] - psi_edges[1:])
        local = delta / 6 * (1 + 4 * np.exp(phi[:-1] - phi_mid) + np.exp(phi[:-1] - phi[1:]))
        step = np.exp(phi[:-1] - phi[1:])
        j1 = np.zeros(quad + 1, dtype=ld)
        for j in range(quad - 1, -1, -1):
            j1[j] = local[j] + step[j] * j1[j + 1]
        running = np.zeros(quad + 1, dtype=ld)
        running[1:] = np.cumsum(delta / 6 * (np.exp(-phi[:-1]) + 4 * np.exp(-phi_mid) + np.exp(-phi[1:])))
        w = (j1 + np.exp(phi - phi[-1]) * running) / a_form(edges.astype(float)).astype(ld)
        z = delta / 3 * (w[0] + w[-1] + 4 * np.sum(w[1:-1:2]) + 2 * np.sum(w[2:-2:2]))
        stride = quad // grid.n[0]
        return w[stride * np.arange(grid.n[0]) + stride // 2] / z

    return oracle
