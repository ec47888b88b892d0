"""Gradient descent with tiny weight decay finds the min-cost interpolant.

Train a 2-layer ReLU net on a handful of points with a small weight
penalty.  The learned function's cost approaches the spline optimum, and
the weights approach a balanced configuration whose parameter cost C
matches the function cost.  Runs in about ten seconds.
"""

import numpy as np

import reluspline as rs

rng = np.random.default_rng(7)
xs = np.linspace(-2, 2, 10) + rng.uniform(-0.1, 0.1, 10)
ys = rng.uniform(-1, 1, 10)
data = rs.Dataset(tuple(zip(xs, ys)))
optimum = rs.min_norm_interpolant(data).cost
print(f"spline optimum for this dataset: {optimum:.4f}")

cfg = rs.TrainConfig(lam=1e-5, learning_rate=1e-2, max_steps=300_000,
                     seed=5, init_scale=0.5)
result = rs.train(rs.net_init(20, cfg), data, cfg)

f = rs.to_pwl(result.net)
rbar = rs.representation_cost(f).cost
c = rs.net_cost(result.net)
print(f"after {result.steps} steps: loss {result.trace[-1, 1]:.2e}")
print(f"  parameter cost C      = {c:.4f}")
print(f"  function cost         = {rbar:.4f}  (C/function = {c / rbar:.3f})")
print(f"  function/optimum      = {rbar / optimum:.3f}")
print("longer training pushes both ratios to 1; the tiny weight decay")
print("slowly balances each unit without changing the learned function")

# the breakpoint atoms of the learned function are the learned 'features'
atoms = rs.extract_u(result.net).atoms
big = atoms[np.argsort(-np.abs(atoms[:, 1]), kind="stable")[:5]]
print("largest slope-change atoms (location, mass):")
for b, m in big[np.argsort(big[:, 0])]:
    print(f"  {b:+.3f}  {m:+.3f}")
