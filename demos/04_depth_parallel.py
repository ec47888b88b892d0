"""Depth turns weight decay into a sparsity penalty.

For a sum of k parallel depth-L ReLU chains, minimizing the averaged
squared weight norm over all realizations of fixed chain coefficients
alpha gives sum |alpha_i|^(2/L): the l1 norm at L=2, and progressively
spikier penalties as L grows.  Oversized coefficient supports can always
be pruned at any depth without moving the fitted values or raising the
penalty.
"""

import numpy as np

import reluspline as rs

rng = np.random.default_rng(0)

# a depth-3 net with deliberately unbalanced layers
subnets = []
for i in range(4):
    m1 = rng.standard_normal((3, 2)) * (2.0 if i == 0 else 1.0)
    m2 = rng.standard_normal((1, 3)) * (0.25 if i == 0 else 1.0)
    subnets.append((m1, m2))
net = rs.ParallelDeepNet(tuple(subnets), rng.standard_normal(4))

s = rs.align_to_sphere(net)
penalty = rs.bridge_penalty(s.alpha, net.depth)
print(f"depth {net.depth}, {net.k} chains")
print(f"  raw averaged cost        {rs.cost_CL(net):.4f}")
print(f"  coefficient penalty      {penalty:.4f}")
print(f"  cost after re-balancing  {rs.cost_CL(rs.from_alpha(s)):.4f}")
print(f"  alignment spread         {rs.check_alignment(net).max_deviation:.2e}")
print("re-balancing the layers recovers exactly the coefficient penalty")

print()
print("penalty shape by depth for alpha = (1, 0.25, 0.01):")
for L in (2, 3, 4, 6):
    print(f"  L={L}: {rs.bridge_penalty([1.0, 0.25, 0.01], L):.4f}")
print("larger L weighs small coefficients more heavily, favoring sparsity")

# pruning an over-complete depth-2 support without changing predictions
print()
n = 3
subnets2 = []
for _ in range(n + 3):
    w = rng.standard_normal((1, 2))
    subnets2.append((w / np.linalg.norm(w),))
s2 = rs.SphereFactoredNet(tuple(subnets2), rng.standard_normal(n + 3))
X = rng.standard_normal((n, 2))
pruned = rs.sparsify_support(s2, X)
print(f"depth-2 support pruning on {n} data points:")
print(f"  active coefficients {np.count_nonzero(s2.alpha)} -> "
      f"{np.count_nonzero(pruned.alpha)}")
print(f"  l1 norm {np.abs(s2.alpha).sum():.4f} -> "
      f"{np.abs(pruned.alpha).sum():.4f}")
drift = max(abs(rs.parallel_eval(pruned, x) - rs.parallel_eval(s2, x))
            for x in X)
print(f"  max prediction drift {drift:.1e}")

# the same walk at depth 3, where the penalty is sum |alpha_i|^(2/3)
print()
k3 = 12
s3 = rs.align_to_sphere(rs.ParallelDeepNet(
    tuple((rng.standard_normal((3, 2)), rng.standard_normal((1, 3)))
          for _ in range(k3)), rng.standard_normal(k3)))
X3 = rng.standard_normal((4, 2))
pruned3 = rs.sparsify_support(s3, X3)
print(f"depth-3 support pruning on {len(X3)} data points:")
print(f"  active coefficients {np.count_nonzero(s3.alpha)} -> "
      f"{np.count_nonzero(pruned3.alpha)}")
print(f"  bridge penalty {rs.bridge_penalty(s3.alpha, 3):.4f} -> "
      f"{rs.bridge_penalty(pruned3.alpha, 3):.4f}")
drift = max(abs(rs.parallel_eval(pruned3, x) - rs.parallel_eval(s3, x))
            for x in X3)
print(f"  max prediction drift {drift:.1e}")
