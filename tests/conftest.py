"""Fixtures that more than one test module uses."""

import numpy as np
import pytest

from noisyflow.fields import Const, ConservativeSystem, builtin_catalog, coordinate_noise, transform_div_free
from noisyflow.geometry import build_grid
from noisyflow.operator import assemble_for
from noisyflow.stationary import solve_stationary


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
