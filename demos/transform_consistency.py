"""Converting to a divergence-free drift and checking consistency.

Multiplying the drift by its invariant density, B -> u0 B, yields a
divergence-free field; rescaling the noise by sqrt(u0) and absorbing the
resulting Stratonovich correction into the drift part gives a perturbed
system whose stationary density is u_eps / u0 (normalized).  For the
circle benchmark u0 B is the constant gamma = sqrt(3), the travel-time
parametrization of the flow.  This script solves both systems and
measures the mismatch, which is pure discretization and drops fourfold
per refinement.

Run:  python demos/transform_consistency.py
"""

import numpy as np

from noisyflow import Circle, Const, ConservativeSystem, builtin_catalog, coordinate_noise, transform_div_free
from noisyflow.geometry import build_grid
from noisyflow.operator import assemble_for
from noisyflow.stationary import solve_stationary

eps = 0.3

grid = build_grid(Circle(), 512)
system = builtin_catalog("circle-positive", grid)
new_drift, _ = transform_div_free(system, coordinate_noise(grid))

b_tilde = new_drift.at_centers(grid)[:, 0]
print(f"u0 B is constant: value {b_tilde[0]:.12f} (sqrt(3) = {np.sqrt(3):.12f}), "
      f"spread {np.ptp(b_tilde):.2e}")

print("\nmesh     sup|u_transformed - u_eps/u0|")
for n in (128, 256, 512):
    grid = build_grid(Circle(), n)
    system = builtin_catalog("circle-positive", grid)
    noise = coordinate_noise(grid)
    new_drift, new_noise = transform_div_free(system, noise)
    transformed = ConservativeSystem(new_drift, Const(1.0), grid)
    u = solve_stationary(assemble_for(system, noise, eps)).density.values
    u_t = solve_stationary(assemble_for(transformed, new_noise, eps)).density.values
    ratio = u / system.u0
    ratio /= np.sum(ratio) * grid.cell_volume  # the raw ratio integrates to 1 + O(eps^2)
    print(f"{n:<8d} {np.max(np.abs(u_t - ratio)):.3e}")

print("\nthe mismatch is O(h^2): both solves discretize the same measure")
