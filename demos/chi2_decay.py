"""Exponential chi^2 relaxation and its eps^2 rate scaling.

Two experiments.  First, pure diffusion on the circle: the initial
density 1 + cos(2 pi x) relaxes to uniform and chi^2 must decay at
exactly 4 pi^2 eps^2 (twice the first Fourier mode's rate, since chi^2
is quadratic).  Second, the advective circle benchmark: decay rates are
fitted for a sweep of eps and the ratio rate/eps^2 should stay within a
band, the quadratic small-noise scaling of the relaxation speed.

The advective runs use Crank-Nicolson: implicit Euler's damping of the
rotational modes (about omega^2 dt) would otherwise masquerade as
physical decay at small eps.

Run:  python demos/chi2_decay.py
"""

import math

import numpy as np

from noisyflow import Circle, builtin_catalog, coordinate_noise
from noisyflow.evolution import evolve, fit_decay_rate, perturbed_initial, poincare_quotient
from noisyflow.experiments import SweepConfig, SystemSpec, run_decay_study
from noisyflow.geometry import build_grid
from noisyflow.operator import assemble_for
from noisyflow.stationary import solve_stationary

# -- experiment 1: the exact Fourier rate ---------------------------------

eps = 0.5
grid = build_grid(Circle(), 256)
system = builtin_catalog("zero-drift", grid)
op = assemble_for(system, coordinate_noise(grid), eps)
stationary = solve_stationary(op).density

rate_true = 4.0 * math.pi ** 2 * eps ** 2
v0 = perturbed_initial(stationary, mode=1, amplitude=1.0)
block, _ = evolve(op, [v0], horizon=5.0 / rate_true, dt=5e-3 / rate_true,
                  stationary=stationary)
trace = block[0]
fit = fit_decay_rate(trace)

print("pure diffusion on the circle")
print(f"  chi^2(0) = {trace.chi2[0]:.6f} (exact value 1/2)")
print(f"  fitted rate {fit.rate:.5f} vs 4 pi^2 eps^2 = {rate_true:.5f} "
      f"({100 * abs(fit.rate / rate_true - 1):.2f}% off, r^2 = {fit.r_squared:.6f})")
print(f"  chi^2 non-increasing at every step: {bool(np.all(np.diff(trace.chi2) <= 1e-12))}")
print(f"  worst mass drift: {trace.mass_drift.max():.2e}")

# -- experiment 2: eps^2 scaling under advection ---------------------------

cfg = SweepConfig(
    kind="decay",
    domain=Circle(),
    n=(1024,),
    epsilons=(0.4, 0.2, 0.1),
    system=SystemSpec(catalog="circle-positive"),
    dt_factor=2e-3,
    scheme="crank-nicolson",
)
report = run_decay_study(cfg)
grid, system, noise = cfg.build()

print("\nadvective circle benchmark")
print("eps      rate       rate/eps^2   r^2       Poincare quotient")
for row in report.rows:
    stationary = solve_stationary(assemble_for(system, noise, row["eps"])).density
    poincare = poincare_quotient(noise, stationary, grid)
    print(f"{row['eps']:<8g} {row['rate']:<10.4f} {row['rate_over_eps2']:<12.2f} "
          f"{row['r2']:<9.6f} {poincare:.3f}")
for name, ok in report.verdicts.items():
    print(f"  [{'PASS' if ok else 'FAIL'}] {name}")
