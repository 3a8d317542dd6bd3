"""Causal analysis of structural VAR processes on their process graph."""

from .errors import (
    ConfoundedTargetError,
    DimensionMismatchError,
    ExplosionError,
    IllConditionedError,
    LatentPresentError,
    NonConvergentError,
    NotIdentifiableError,
    SchemaError,
    SelfPairError,
    SemanticError,
    SingularAtFrequencyError,
    SingularContemporaneousError,
    SvarpgError,
    TooShortError,
)
from .filters import (
    AcsSequence,
    FiniteFilter,
    acs_via_ma_infinity,
    acs_via_sep,
    ccf,
    convolve,
    direct_effect_filter,
    internal_dynamics_filter,
    lambda_infinity,
    tilted_convolve,
    trek_monomial_filter,
)
from .graph import (
    CycleBasis,
    DirectedPath,
    LatentProjection,
    ProcessGraph,
    Trek,
    cycle_basis,
    enumerate_paths,
    enumerate_treks,
    latent_projection,
    unrolled_paths,
)
from .identify import (
    IdentificationResult,
    identify_frontdoor,
    identify_instrument,
    identify_unconfounded_parents,
)
from .model import (
    StabilityReport,
    SvarModel,
    check_stability,
    load_model,
    parse_document,
    parse_model,
    process_graph,
)
from .simulate import SpectralEstimate, Trajectory, simulate, welch_spectrum
from .spectral import (
    RationalTransfer,
    SpectralDecomposition,
    SpectralMatrix,
    SourceDecomposition,
    TransferGrid,
    cctf,
    decompose_by_source,
    decompose_spectrum,
    edge_transfer,
    fourier,
    freq_path_rule_check,
    frequency_grid,
    loop_gain_report,
    spectral_density,
    trek_monomial_function,
)

__version__ = "0.1.0"
