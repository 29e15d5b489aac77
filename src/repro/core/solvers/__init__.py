"""Robustness-radius solver implementations.

Four complementary strategies:

* :mod:`repro.core.solvers.analytic` — exact closed forms when the boundary
  is a hyperplane (affine features, the paper's Equation 4), for the
  ``l1``/``l2``/``linf`` norms via norm duality;
* :mod:`repro.core.solvers.numeric` — constrained boundary projection with
  SciPy (SLSQP / trust-constr) and multistart, for general smooth features;
* :mod:`repro.core.solvers.bisection` — directional root-bracketing along
  rays; derivative-free, yields rigorous *upper* bounds that tighten with
  the number of directions, and holds the directional kernel every
  directional search shares;
* :mod:`repro.core.solvers.sampling` — Monte-Carlo violation search used by
  the validation harness.
"""

from repro.core.solvers.analytic import solve_linear_radius
from repro.core.solvers.numeric import solve_numeric_radius
from repro.core.solvers.bisection import solve_bisection_radius
from repro.core.solvers.sampling import sampling_upper_bound
from repro.core.solvers.warm import RayTable, WarmStart, is_ray_convex

__all__ = [
    "solve_linear_radius",
    "solve_numeric_radius",
    "solve_bisection_radius",
    "sampling_upper_bound",
    "RayTable",
    "WarmStart",
    "is_ray_convex",
]
