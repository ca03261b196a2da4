"""Singular coupling models at desk scale.

Dense complex block-matrix pipeline from a Hermitian coupling matrix to the
(S, L, H) triple, the grid-discretized punctured-line model with its singular
boundary functionals, and photon-number-graded truncated-Fock verification of
the boundary conditions and the singular action.
"""

from .errors import (
    DimensionMismatch,
    DomainTooSmall,
    InvalidMollifier,
    NonHermitianInput,
    NotInDomain,
    ParseError,
    SingularDressing,
    SizeMismatch,
    SlhkitError,
    SpecMismatch,
    TooLarge,
    ValidationError,
)
from .linalg import (
    cayley,
    channel_blocks,
    channel_projector,
    null_space,
    principal_angles,
)
from .slh import (
    CouplingMatrix,
    GaugeMatrix,
    ScalarGauge,
    SLHResult,
    derived_matrices,
    gauge_reduction_check,
    ito_matrix,
    slh_triple,
    validate_coupling,
)
from .punctured_line import (
    BoundaryPhases,
    GridFunction,
    GridSpec,
    SingularSum,
    SobolevDecomposition,
    apply_iD,
    boundary_phase,
    decompose_sobolev,
    defect_vectors,
    sample,
    scatter_regularized,
    sobolev_inner,
)
from .fock import (
    BoundarySubspace,
    ModeOperators,
    TruncatedFockSpace,
    boundary_kernel,
    build_mode_operators,
    fock_battery,
    scattering_rows,
    stacked_boundary_rows,
)
from .config import ModelConfig, config_from_dict, load_config
from .report import Report, emit_report

__version__ = "0.1.0"
