"""blowup-lab: simulation and prediction of finite-time blow-up in
second- and fourth-order semilinear parabolic problems on bounded domains.

The package pairs adaptive PDE solvers (strip, rectangle, radial disc,
cube) with matched-asymptotics predictors built from boundary-layer
similarity profiles and the geometry of the domain (distance function,
orthogonal feet, skeleton), so predicted and computed singularity
locations and multiplicities can be compared directly.
"""

from .errors import (BlowupLabError, ConfigError, ConvergenceError,
                     DivergenceError, EvaluationDomainError, RangeError)
from .geometry import (PlanarDomain, RectangleDomain, Skeleton,
                       SmoothPolarDomain, compute_skeleton, ellipse_domain,
                       max_distance_point, omega_set, potato_domain)
from .predictor import (Prediction, critical_eps, outer_1d_second,
                        outer_2d_second, predict_1d_fourth, predict_fourth_2d,
                        predict_second_2d, skeleton_arrival_time, uniform_1d,
                        uniform_2d)
from .profiles import (OMEGA, CorrectionProfile, LayerProfile, get_correction,
                       get_profile4, second_order_profile,
                       solve_curvature_correction, solve_profile4, v2, v2_prime,
                       v2_tail)
from .reaction import (Nonlinearity, ReactionSolution, blowup_time_T0,
                       register_nonlinearity)
from .solvers import (BlowupReport, SolverConfig, extract_singularities, solve,
                      track_peaks)

__version__ = "0.1.0"
