"""Closed-form check: Brownian motion on an interval.

Killed standard Brownian motion on [-1, 1] has generator (1/2) d^2/dx^2
with absorbing ends, so the slowest decay mode is known exactly:

    gamma = pi^2 / 8 ~= 1.23370,    psi(x) = sin(pi (x + 1) / 2).

This script synthesizes the pair numerically and prints the comparison,
checks the eigen-relation A psi = -gamma psi through the discrete generator,
then cross-checks the decay rate with a Monte Carlo survival fit.
"""

import math

import numpy as np

from scbf import (
    FixedPolicyController,
    PolicyTable,
    PropagationConfig,
    ScalarField,
    SimConfig,
    estimate_safety_curve,
    fit_decay_rate,
    generator_field,
    initial_field,
    make_benchmark,
    power_iteration,
    sup_norm,
)

sys_model = make_benchmark("brownian_1d")          # 201 nodes, sigma = 1
policy = PolicyTable.zero(sys_model)               # no input enters anyway
cfg = PropagationConfig(horizon=0.5)

result = power_iteration(sys_model, policy, cfg,
                         initial_field(sys_model, "bump"), tol=1e-6)

exact = math.pi**2 / 8.0
x = sys_model.grid.nodes()[:, 0]
mode = np.sin(math.pi * (x + 1.0) / 2.0)
mode /= np.max(mode)
psi_err = sup_norm(ScalarField(sys_model.grid, result.psi.values - mode))

print("dominant decay rate")
print(f"  computed  gamma = {result.gamma:.6f}")
print(f"  analytic  gamma = {exact:.6f}   (pi^2/8)")
print(f"  relative error  = {abs(result.gamma - exact) / exact:.2e}")
print(f"eigenfunction sup-norm error vs sine mode: {psi_err:.2e}")
print(f"converged in {result.iterations} operator applications")
gap = generator_field(result.psi, sys_model, policy).values + result.gamma * result.psi.values
print(f"eigen-relation on the grid: max |A psi + gamma psi| = {np.max(np.abs(gap)):.1e}")

sim = SimConfig(t_end=3.0, trials=10000, seed=6,
                controller=FixedPolicyController(policy))
curve = estimate_safety_curve(sys_model, sim, [0.0], bound=result)
rate = fit_decay_rate(curve, window=0.5)
print("\nMonte Carlo cross-check (10^4 trials from the midpoint)")
print(f"  survival at t=1: {curve.survival_fraction[1000]:.4f}")
print(f"  fitted tail decay rate: {rate:.4f}  (analytic {exact:.4f})")
