"""Mean-field Langevin training of relaxed-control / neural-ODE models.

A cloud of parameter particles per time layer is evolved by
Euler-Maruyama updates whose drift is the data-averaged Hamiltonian
gradient assembled from forward and adjoint sweeps of the controlled
ODE.  The package also ships the verification harness: gradient-exactness
checks, synchronous-coupling contraction runs, particle/data scaling
studies, training-time discretisation rates, stationary-law comparisons,
and generalisation scaling.
"""

from .clouds import ParticleCloud, cloud_from_csv, cloud_init, cloud_to_csv
from .datasets import Dataset, generate_dataset
from .exceptions import (ConfigError, NonFiniteCostateError,
                         NonFiniteParticleError, NonFiniteStateError)
from .grids import TimeGrid
from .langevin import TrainerConfig, TrainHistory, lipschitz_probe, train
from .metrics import entropy_estimate, paired_distance
from .models import (ModelSpec, PriorSpec, gaussian_prior, make_builtin_model,
                     make_linear_drift_model, make_zero_cost_model,
                     model_grad_selfcheck)
from .objective import (ObjectiveValue, discrete_gradient,
                        finite_diff_gradient, objective_J, objective_Jsigma)
from .odes import mean_field_drift
from .studies import (StudyReport, StudySetup, run_chaos_study,
                      run_contraction_study, run_euler_study,
                      run_generalization_study, run_gibbs_check)

__version__ = "0.1.0"

__all__ = [
    "ParticleCloud", "cloud_init", "cloud_to_csv", "cloud_from_csv",
    "Dataset", "generate_dataset",
    "TimeGrid",
    "ModelSpec", "PriorSpec", "gaussian_prior",
    "make_builtin_model", "make_linear_drift_model", "make_zero_cost_model",
    "model_grad_selfcheck", "mean_field_drift",
    "objective_J", "objective_Jsigma", "ObjectiveValue",
    "discrete_gradient", "finite_diff_gradient",
    "TrainerConfig", "TrainHistory", "train", "lipschitz_probe",
    "entropy_estimate", "paired_distance",
    "StudySetup", "StudyReport",
    "run_chaos_study", "run_euler_study", "run_contraction_study",
    "run_gibbs_check", "run_generalization_study",
    "NonFiniteStateError", "NonFiniteCostateError", "NonFiniteParticleError",
    "ConfigError",
]
