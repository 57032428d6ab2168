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
    load_matrix,
    load_system,
    rayleigh_damping,
    save_matrix,
    save_system,
)
from .newmark import IntegratorConfig, initial_acceleration, simulate, step
from .snapshots import (
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
    projection_error,
)
from .opinf import (
    LambdaTrial,
    SolveReport,
    infer,
    ridge_lstsq,
    select_lambda,
    separate_operators,
)
from .copinf import ConstrainedSolveReport, infer_constrained, project_psd
from .evaluate import (
    ErrorSeries,
    is_stable,
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
    "DivergenceError",
    # model
    "SecondOrderSystem",
    "build_mass_spring_chain",
    "rayleigh_damping",
    "save_matrix",
    "load_matrix",
    "save_system",
    "load_system",
    # integration
    "IntegratorConfig",
    "initial_acceleration",
    "step",
    "simulate",
    # snapshots
    "TrajectoryData",
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
    # regression
    "SolveReport",
    "LambdaTrial",
    "ridge_lstsq",
    "infer",
    "select_lambda",
    "separate_operators",
    # constrained regression
    "ConstrainedSolveReport",
    "project_psd",
    "infer_constrained",
    # evaluation
    "ErrorSeries",
    "relative_error",
    "pencil_spectrum",
    "is_stable",
    "save_error_series",
]
