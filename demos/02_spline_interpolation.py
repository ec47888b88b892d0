"""The cheapest interpolant is a linear spline with clever end slopes.

Among all functions passing through a dataset, the one the widest 2-layer
ReLU network realizes most cheaply is the connect-the-dots spline; only
the two unbounded end slopes need optimizing.  A regularized variant
trades fit for cost as the penalty grows.
"""

import numpy as np

import reluspline as rs

data = rs.Dataset(((0.0, 0.0), (1.0, 1.0), (2.0, 0.0), (3.0, 0.5)))
res = rs.min_norm_interpolant(data)
print("data:", list(data.points))
print(f"interior secant slopes: {rs.interior_slopes(data)}")
print(f"optimal end slopes: {res.end_slopes}, cost {res.cost:g}")

# a two-point dataset shows why the end slopes matter: the straight line
# through (0,0) and (1,1) costs 2, a ReLU-shaped interpolant only 1
two = rs.Dataset(((0.0, 0.0), (1.0, 1.0)))
print()
print(f"two points (0,0),(1,1): optimal cost "
      f"{rs.min_norm_interpolant(two).cost:g} "
      f"(the straight line would cost 2)")

# brute-force check of the end-slope optimization
l0, ln, oracle = rs.grid_oracle_end_slopes(rs.interior_slopes(data))
print(f"grid-search oracle value {oracle:.9f} "
      f"(solver said {res.cost:.9f})")

print()
print("regularized fits, squared loss:")
print(f"{'lambda':>10} {'cost':>8} {'max residual':>14} {'duality gap':>12}")
for lam in (1e-6, 0.03, 0.3, 3.0):
    fit = rs.regularized_fit(data, "squared", lam)
    resid = max(abs(rs.pwl_eval(fit.spline, x) - y) for x, y in data.points)
    print(f"{lam:>10g} {fit.cost:>8.4f} {resid:>14.4f} {fit.gap:>12.1e}")
print("as the penalty grows the fit flattens toward a constant, the only")
print("function of zero cost")
