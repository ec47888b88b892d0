"""Function-space view of bounded-norm ReLU networks on the line.

Core objects: exact piecewise-linear functions (`pwl`), their representation
cost and optimal threshold measures (`repcost`), minimum-cost spline
interpolation and regularized fitting (`spline`), finite 2-layer networks
with training and extraction (`net2`), depth-L parallel architectures
(`deep`), and d-dimensional estimators (`highdim`).
"""

from . import deep, highdim, net2, pwl, repcost, spline
from .deep import (AlignmentReport, ParallelDeepNet, SphereFactoredNet,
                   align_to_sphere, bridge_penalty, check_alignment, cost_CL,
                   from_alpha, improving_direction, parallel_eval,
                   sparsify_support)
from .highdim import (AtomMeasureDD, FluxEstimate, ball_volume, bump_eval,
                      eval_dd, grad_dd, hessian_decay_estimate,
                      laplacian_flux_estimate, sphere_area)
from .net2 import (DivergenceError, TrainConfig, TrainResult, TwoLayerNet,
                   balance, extract_u, net_cost, net_eval,
                   normalize_first_layer, objective_and_grad, to_pwl, train)
from .net2 import init as net_init
from .pwl import (AtomList1D, PwlFunction, add_constant, canonicalize,
                  end_slope_sum, from_jumps, pwl_eval, reflect, scale,
                  second_derivative_measure, translate, tv_fprime)
from .repcost import (CostReport, LagrangeCase, ThresholdMeasure1D,
                      discretize_smooth, measure_eval, measure_norm,
                      measure_to_net, measure_to_pwl, optimal_alpha,
                      representation_cost)
from .spline import (Dataset, InterpolationResult, grid_oracle_end_slopes,
                     interior_slopes, min_norm_interpolant,
                     optimal_end_slopes, regularized_fit)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
