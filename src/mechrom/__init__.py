"""Non-intrusive reduction of second-order mechanical models.

The package learns small mass-damping-stiffness models from trajectory
data of a large one: project snapshots onto an orthogonal basis, then
fit the reduced operators by regression, either in mass-normalized form
or with symmetric definiteness constraints enforced by an operator
splitting solver. A projection-based reduction of the known operators
serves as the reference these data-driven models are judged against.
"""

from .errors import (
    DegenerateInputError,
    DivergenceError,
    FormatError,
    IllConditionedModesError,
    InsufficientDataError,
    InvalidComparisonError,
    InvalidInputError,
    InvalidParameterError,
    MechromError,
    MissingDataError,
    NotSeparableError,
    NoViableLambdaError,
    SingularOperatorError,
)

__version__ = "0.1.0"

from .model import (
    SecondOrderSystem,
    build_mass_spring_chain,
    force_at,
    load_matrix,
    load_system,
    rayleigh_damping,
    save_matrix,
    save_system,
)
from .newmark import IntegratorConfig, IntegratorState, initial_acceleration, simulate, step
from .snapshots import (
    ReducedTrajectoryData,
    TrajectoryData,
    assemble_force_data,
    assemble_opinf_data,
    finite_difference_derivatives,
    load_csv,
    project,
    save_csv,
)
from .pod import (
    PodBasis,
    compute_basis,
    intrusive_reduce,
    mass_normalized_form,
    projection_error,
)
from .opinf import (
    LambdaTrial,
    SolveReport,
    infer,
    nearest_spd,
    ridge_lstsq,
    select_lambda,
    separate_operators,
)
from .copinf import ConstrainedSolveReport, infer_constrained, project_psd
from .evaluate import (
    ErrorSeries,
    OperatorCloseness,
    is_stable,
    operator_closeness,
    pencil_spectrum,
    relative_error,
    save_error_series,
)

__all__ = [
    "__version__",
    # errors
    "MechromError",
    "InvalidParameterError",
    "InvalidInputError",
    "FormatError",
    "MissingDataError",
    "InsufficientDataError",
    "DegenerateInputError",
    "SingularOperatorError",
    "NotSeparableError",
    "IllConditionedModesError",
    "NoViableLambdaError",
    "InvalidComparisonError",
    "DivergenceError",
    # model
    "SecondOrderSystem",
    "build_mass_spring_chain",
    "rayleigh_damping",
    "force_at",
    "save_matrix",
    "load_matrix",
    "save_system",
    "load_system",
    # integration
    "IntegratorConfig",
    "IntegratorState",
    "initial_acceleration",
    "step",
    "simulate",
    # snapshots
    "TrajectoryData",
    "ReducedTrajectoryData",
    "project",
    "assemble_opinf_data",
    "assemble_force_data",
    "finite_difference_derivatives",
    "save_csv",
    "load_csv",
    # basis and projection
    "PodBasis",
    "compute_basis",
    "projection_error",
    "intrusive_reduce",
    "mass_normalized_form",
    # regression
    "SolveReport",
    "LambdaTrial",
    "ridge_lstsq",
    "infer",
    "select_lambda",
    "separate_operators",
    "nearest_spd",
    # constrained regression
    "ConstrainedSolveReport",
    "project_psd",
    "infer_constrained",
    # evaluation
    "ErrorSeries",
    "relative_error",
    "OperatorCloseness",
    "operator_closeness",
    "pencil_spectrum",
    "is_stable",
    "save_error_series",
]
