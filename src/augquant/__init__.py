"""augquant: quantify how data augmentation changes estimator behavior.

Builds the Gaussian surrogate laws of augmented estimators exactly, evaluates
the closed-form predictions they induce (variance curves, confidence
intervals, benefit ratios), and verifies both against seeded Monte Carlo
simulation of the actual augmented estimators.
"""

__version__ = "0.1.0"

from .core import (DataSource, TransformationFamily, augment_iid, augment_repeated,
                   cyclic_rotation_family, gaussian_source, identity_family,
                   random_crop_family, regression_source, replicate_unaugmented,
                   sign_flip_family, swap_family)
from .errors import ConfigError, ContractError, NumericalError
from .surrogate import (AugmentationMoments, SurrogateSpec, build_surrogate, estimate_moments,
                        sample_repeated_surrogate, sample_surrogate)
from .statistics import (RiskMoments, StatisticKind, average_statistic, evaluate,
                         exp_neg_chisq_statistic, hard_max_statistic, ridge_derivative,
                         ridge_risk_statistic, ridge_statistic, risk_moments_from_source,
                         smooth_max_statistic)
from .closedform import (Interval, average_ci, chisq_ci, f2_variance, grand_mean_law,
                         repeated_toy_covariance, theta_ratio_general, theta_theory,
                         toy_ridge_variance, v_curve)
from .bounds import (AlphaEstimates, BoundReport, assemble_lambdas, assemble_omegas,
                     bound_report, estimate_alpha, moment_constants,
                     repeated_constants, theorem_rhs)
from .montecarlo import (ComparisonReport, ExperimentConfig, SimulationResult,
                         compare_protocols, coverage_check, run_experiment, simulate)
