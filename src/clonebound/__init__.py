"""Mixed-state cloning error bounds and the geometry behind them.

Fidelity and Bures-angle primitives, purification machinery with
controllable overlap, POVM dilation, the closed-form lower bound on the
relative cloning error, a gradient-free unitary search, and randomized
verification of the supporting inequalities.
"""

from .cloning import (
    BoundInput,
    ChainCheck,
    CloneOutcome,
    CloningSetup,
    ProofChainReport,
    absolute_error,
    apply_cloning,
    lower_bound,
    perfect_cloning_setup,
    proof_chain_check,
    relative_error,
    tensor_power,
)
from .errors import (
    BadRank,
    BudgetZero,
    CloneboundError,
    DegeneratePair,
    DimMismatch,
    DimTooLarge,
    DimTooSmall,
    EnvTooSmall,
    IndistinguishablePair,
    InvalidPOVM,
    NonFinite,
    NotDensity,
    NotHermitian,
    NotPSD,
    NotProjector,
    NotUnitary,
    OutOfRange,
    SoundnessViolation,
    TargetOutOfRange,
)
from .linalg import (
    hermitian_eig,
    kron,
    partial_trace,
    sqrt_psd,
    unitary_power,
)
from .measure import (
    POVM,
    DilationResult,
    ProjectiveMeasurement,
    dilated_probabilities,
    naimark_dilate,
    probabilities,
    projector_gap,
    random_povm,
)
from .search import (
    InequalityCheck,
    OptimizerConfig,
    SearchResult,
    SweepRow,
    VerificationReport,
    minimize_relative_error,
    restricted_cloner_search,
    sweep_bound,
    sweep_to_csv,
    sweep_to_json,
    verify_inequalities,
)
from .states import (
    DensityMatrix,
    OverlapUnitaryResult,
    PureState,
    angle,
    angle_pure,
    fidelity,
    max_overlap_unitary,
    overlap_under,
    purifications_with_overlap,
    purify,
    random_density,
    target_overlap_unitary,
    zero_overlap_unitary,
)

__version__ = "0.1.0"
