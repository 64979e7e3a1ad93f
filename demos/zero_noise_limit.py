"""Zero-noise limit of stationary densities on the circle.

The benchmark flow moves around the circle with speed B = 2 + sin(2 pi x),
whose invariant density is u0 = gamma / B.  Perturbing with homogeneous
noise of intensity eps produces a unique stationary density u_eps; this
script sweeps eps downward and watches u_eps converge to u0 in L1 while
its min/max stay pinned between u0's own bounds, the discrete shadow of
the uniform-in-noise estimates.

Run:  python demos/zero_noise_limit.py
"""

import numpy as np

from noisyflow import Circle
from noisyflow.experiments import SweepConfig, SystemSpec, run_stability_sweep

cfg = SweepConfig(
    kind="stability",
    domain=Circle(),
    n=(1024,),
    epsilons=(0.4, 0.3, 0.2, 0.1, 0.05),
    system=SystemSpec(catalog="circle-positive"),
)

report = run_stability_sweep(cfg)

print("eps      min u_eps  max u_eps  ||u_eps - u0||_1")
for row in report.rows:
    print(f"{row['eps']:<8g} {row['min_u']:<10.6f} {row['max_u']:<10.6f} {row['l1_dist_to_u0']:.3e}")

u0 = cfg.system.build(cfg.grid()).u0
sup_max_u = max(row["max_u"] for row in report.rows)
sup_inv_min_u = max(1.0 / row["min_u"] for row in report.rows)
sup_w12 = max(row["w12"] for row in report.rows)
print()
print(f"invariant density bounds: [{u0.min():.6f}, {u0.max():.6f}]")
print(f"sweep suprema: max u = {sup_max_u:.6f}, 1/min u = {sup_inv_min_u:.6f}")
print(f"W^{{1,2}} seminorm stays below {sup_w12:.4f} across the sweep")
print()
for name, ok in report.verdicts.items():
    print(f"  [{'PASS' if ok else 'FAIL'}] {name}")

# the distances shrink like eps^2: quadratic contraction of the noise term
l1 = np.array([row["l1_dist_to_u0"] for row in report.rows])
eps = np.array([row["eps"] for row in report.rows])
slope = np.polyfit(np.log(eps), np.log(l1), 1)[0]
print(f"\nobserved scaling ||u_eps - u0||_1 ~ eps^{slope:.2f}")
