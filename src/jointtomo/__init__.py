"""Joint reconstruction of an unknown quantum state and detector from the
statistics of multiple known quantum processes.

The exporter's names (``_SOS_NAMES``) are resolved on first use through the
module's ``__getattr__``, so importing the package does not load
``jointtomo.sos`` or the file formats it writes (``jointtomo.serialize``).
"""

from .basis import (
    OperatorBasis,
    build_basis,
    change_of_basis,
    coherence_to_state,
    devectorize,
    from_coords,
    to_coords,
    vectorize,
)
from .bench import (
    MseRow,
    MseTable,
    PRESET_NAMES,
    Scenario,
    fit_loglog_slope,
    preset,
    run_method_comparison,
    run_mse_experiment,
)
from .channels import (
    FactoredDesign,
    KrausChannel,
    ProcessEnsemble,
    RegressionMatrices,
    TransferMatrix,
    amplitude_damping,
    build_regression_matrices,
    discretize_hamiltonian,
    factor_design,
    hamiltonian_generator,
    haar_unitary,
    is_generalized_unital,
    make_named_channel,
    min_hamiltonian_count,
    numerical_rank,
    pauli,
    pauli_sandwich_processes,
    rank_bound,
    superoperator,
    transfer_matrix,
)
from .errors import DegeneracyError, TomographyError, ValidationError
from .estimator import (
    EstimateResult,
    KroneckerFactorization,
    Stage1Config,
    build_targets_v1,
    combine_state_estimates,
    correct_povm,
    correct_state,
    estimate_joint_v1,
    estimate_joint_v2,
    fix_scale_v1,
    nearest_kronecker,
    project_pure,
    rearrange,
    stage1_solve,
)
from .measurement import (
    DatasetStack,
    DensityMatrix,
    IdealStatistics,
    MeasurementDataset,
    Povm,
    born_probabilities,
    ideal_statistics,
    sample_frequencies,
    simulate_dataset,
    simulate_datasets,
)
from .refine import refine_alternating

__version__ = "0.1.0"

_SOS_NAMES = (
    "SemialgebraicCert",
    "SosProblem",
    "export_sos_problem",
    "in_physical_set",
    "k_coefficients",
    "load_sos_problem",
    "povm_membership",
)


def __getattr__(name):
    if name not in _SOS_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import sos

    value = getattr(sos, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_SOS_NAMES})
