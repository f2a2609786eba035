"""Zero sets of continuous-state branching processes with immigration.

The library classifies the zero set of a CBI process (polar, transient,
or recurrent), evaluates the associated flow, Laplace exponents, and
last-zero density, and simulates the zero set as a Poisson cutout
together with its stable Ornstein-Uhlenbeck analogue.
"""

from .classify import (
    RegVarSummary,
    ZeroSetReport,
    classify_zero_state,
    regvar_summary,
)
from .cutout import (
    CutoutError,
    DurationSampler,
    UncoveredSet,
    cutout_with_sampler,
    empirical_gzero,
    intersect,
    sample_cutout,
    statistics,
)
from .flow import FlowError, FlowSolver, GreyConditionError, solver
from .mechanisms import (
    BranchingMechanism,
    CompoundPoissonImmigration,
    CustomBranching,
    CustomImmigration,
    EvaluationError,
    GammaImmigration,
    ImmigrationMechanism,
    LampertiImmigration,
    MechanismDomainError,
    MechanismParseError,
    QuadraticBranching,
    StableBranching,
    StableImmigration,
    parse_branching,
    parse_immigration,
    parse_mechanism,
)
from .ou import (
    OUClassification,
    ou_classify,
    pushforward_ks,
    sample_ou_cutout,
)
from .zeroset import (
    SubordinatorSummary,
    gzero_density,
    lamperti_kappa,
    laplace_exponent,
    selfsimilar_index,
    subordinator_summary,
)

__version__ = "0.1.0"

__all__ = [
    "BranchingMechanism",
    "CompoundPoissonImmigration",
    "CustomBranching",
    "CustomImmigration",
    "CutoutError",
    "DurationSampler",
    "EvaluationError",
    "FlowError",
    "FlowSolver",
    "GammaImmigration",
    "GreyConditionError",
    "ImmigrationMechanism",
    "LampertiImmigration",
    "MechanismDomainError",
    "MechanismParseError",
    "OUClassification",
    "QuadraticBranching",
    "RegVarSummary",
    "StableBranching",
    "StableImmigration",
    "SubordinatorSummary",
    "UncoveredSet",
    "ZeroSetReport",
    "classify_zero_state",
    "cutout_with_sampler",
    "empirical_gzero",
    "gzero_density",
    "intersect",
    "lamperti_kappa",
    "laplace_exponent",
    "ou_classify",
    "parse_branching",
    "parse_immigration",
    "parse_mechanism",
    "pushforward_ks",
    "regvar_summary",
    "sample_cutout",
    "sample_ou_cutout",
    "selfsimilar_index",
    "solver",
    "statistics",
    "subordinator_summary",
    "__version__",
]
