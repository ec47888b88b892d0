"""Two d-dimensional estimators: total mass by flux, and a flat bump.

First: for a nonnegative measure of ReLU atoms, the normalized outward
flux of the gradient through a large sphere recovers the total atom mass.
Second: smearing a second-difference of ReLUs uniformly over all
directions yields a radial bump whose Hessian mass inside a ball of
radius r vanishes like 1/r^2 after normalization, even though the same
functional grows linearly for a plain paraboloid.
"""

import numpy as np

import reluspline as rs

rng = np.random.default_rng(1)
atoms = []
for _ in range(5):
    w = rng.standard_normal(2)
    w /= np.linalg.norm(w)
    atoms.append((tuple(w), float(rng.uniform(-1, 1)), 0.4))
measure = rs.AtomMeasureDD(tuple(atoms), 0.0, 2)

print("flux estimate of total mass (true value 2.0):")
print(f"{'radius':>8} {'estimate':>10} {'std err':>9}")
for r in (10.0, 100.0, 1000.0):
    est = rs.laplacian_flux_estimate(measure, r, 200_000, seed=3)
    print(f"{r:>8g} {est.value:>10.4f} {est.std_error:>9.4f}")
print("the finite-radius bias fades as the sphere grows")

print()
print("radial bump h(r) beside its leading term area(S^{d-2})/r:")
print(f"{'d':>2} {'r':>6} {'h(r)':>10} {'lead':>10}")
for d in (3, 5):
    for r in (0.5, 2.0, 10.0, 100.0):
        lead = rs.sphere_area(d - 1) / r
        print(f"{d:>2} {r:>6g} {rs.bump_eval(r, d):>10.6f} {lead:>10.6f}")
print("in d=3 the two agree exactly outside the unit ball")

print()
print("normalized Hessian mass over the r-ball (bump vs paraboloid):")
print(f"{'r':>4} {'bump':>10} {'x^2/2':>10}")
for r in (5.0, 10.0, 20.0):
    bump = rs.hessian_decay_estimate(3, r, 120, seed=4)
    flat = rs.hessian_decay_estimate(3, r, 120, seed=4,
                                     radial_fn=lambda rr: rr ** 2 / 2)
    print(f"{r:>4g} {bump:>10.3f} {flat:>10.1f}")
print("the bump column shrinks like 1/r^2; the control column grows like r,")
print("so the decay is a property of the function, not of the estimator")
