"""The 1D closed-form oracle against the finite-volume solver.

On the circle the stationary balance integrates in closed form: there is
a constant C_eps with

    (eps^2/2)(a u)' - (B + eps^2 b) u = C_eps,

and periodicity plus unit mass determine both u and C_eps by quadrature
alone, no linear algebra.  That gives an independent reference for the
finite-volume stationary solve, and the convergence table below shows
the expected second-order agreement.  The constant itself satisfies
C_eps = -integral (B + eps^2 b) u, a built-in consistency check.

Run:  python demos/oracle_1d.py
"""

import numpy as np

from noisyflow import Circle, builtin_catalog, coordinate_noise
from noisyflow.geometry import build_grid
from noisyflow.operator import assemble_for
from noisyflow.stationary import oracle_1d_circle, solve_stationary

eps = 0.3

print("mesh     sup|u_FV - u_oracle| / sup|u_oracle|      C_eps")
errors = []
for n in (256, 512, 1024, 2048):
    grid = build_grid(Circle(), n)
    system = builtin_catalog("circle-positive", grid)
    noise = coordinate_noise(grid)
    rep = solve_stationary(assemble_for(system, noise, eps))
    u_oracle, c_eps = oracle_1d_circle(system.drift, noise.a0_field, noise.ai_fields, eps, grid)
    err = np.max(np.abs(rep.density.values - u_oracle)) / np.max(np.abs(u_oracle))
    errors.append(err)
    print(f"{n:<8d} {err:<40.3e} {c_eps:.12f}")

orders = [np.log2(a / b) for a, b in zip(errors, errors[1:])]
print(f"\nobserved convergence orders: {', '.join(f'{o:.3f}' for o in orders)}")

# as eps -> 0 the oracle homes in on the invariant density gamma / B
grid = build_grid(Circle(), 512)
system = builtin_catalog("circle-positive", grid)
noise = coordinate_noise(grid)
u0 = np.sqrt(3.0) / (2.0 + np.sin(2 * np.pi * grid.cell_centers()[:, 0]))
print("\neps      sup|u_eps - u0|")
for eps in (0.4, 0.2, 0.1, 0.05):
    u, _ = oracle_1d_circle(system.drift, noise.a0_field, noise.ai_fields, eps, grid)
    print(f"{eps:<8g} {np.max(np.abs(u - u0)):.3e}")
