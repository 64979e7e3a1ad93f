"""Stationary densities on bounded domains with reflecting boundaries.

On an interval or rectangle the perturbed process reflects at the walls
along the conormal direction; the finite-volume realization simply drops
every boundary face, so no probability leaks.  With zero drift and a
constant correction field A0 = c the stationary density is the
exponential tilt e^{2 c x}, reproduced here against the closed-form
interval oracle.  Pure diffusion on a rectangle relaxes to the uniform
density exactly, which the stability sweep finds at every eps.

Run:  python demos/bounded_domain.py
"""

import math

import numpy as np

from noisyflow import Const, Interval, Noise, Rectangle, VectorField, build_grid, builtin_catalog
from noisyflow.experiments import SweepConfig, run_stability_sweep
from noisyflow.operator import assemble_for
from noisyflow.stationary import oracle_1d_interval, solve_stationary

grid = build_grid(Interval(0.0, 1.0), 512)
system = builtin_catalog("zero-drift", grid)
noise = Noise(VectorField([Const(1.0)]), (VectorField([Const(1.0)]),))

print("interval, B = 0, A0 = 1, A1 = 1 (stationary profile e^{2x})")
print("eps      min u      max u      rel sup err vs oracle")
densities = []
for eps in (0.5, 0.2):
    u = solve_stationary(assemble_for(system, noise, eps)).density.values
    oracle = oracle_1d_interval(system.drift, noise.a0_field, noise.ai_fields, eps, grid)
    gap = np.max(np.abs(u - oracle)) / np.max(np.abs(oracle))
    densities.append(u)
    print(f"{eps:<8g} {u.min():<10.6f} {u.max():<10.6f} {gap:.3e}")

x = grid.cell_centers()[:, 0]
exact = 2.0 * np.exp(2.0 * x) / (math.e ** 2 - 1.0)
print(f"against the analytic profile: {np.max(np.abs(densities[0] - exact)) / exact.max():.3e}")
print("note the eps-independence: the tilt 2 c x survives the eps^2 scaling of both terms")

flat = SweepConfig(kind="stability", domain=Rectangle(), n=(64, 64), epsilons=(0.5, 0.1))
rect = run_stability_sweep(flat)
print("\nrectangle, pure diffusion")
for row in rect.rows:
    dev = np.max(np.abs(row["report"].density.values - 1.0))
    print(f"eps = {row['eps']:g}: sup deviation from uniform {dev:.2e}")
