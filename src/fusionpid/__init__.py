"""Convert multimodal annotations into redundancy/uniqueness/synergy values."""

__version__ = "0.1.0"

from .label_space import LabelSpace, build_label_space, encode, qa_binarize
from .dataset import (
    AnnotationTable,
    CounterfactualRecord,
    DecompositionRecord,
    PartialRecord,
    TripleDataset,
    parse_counterfactual,
    parse_decomposition,
    parse_partial,
    summarize_decomposition,
    triples_from_counterfactual,
    triples_from_partial,
)
from .info import Joint2, Joint3, empirical_joint, information
from .pid import (
    MarginalConstraints,
    PIDResult,
    brute_force_qstar,
    check_consistency,
    constraints_from_joint,
    convert,
    feasible_initial,
    pid_from_joint,
    pid_from_solution,
    solve_qstar,
)
from .agreement import AlphaResult, Ratings, RatingsMatrix, krippendorff_alpha, mean_confidence
from .synth import GateSpec, canonical_joint, sample
