"""fairdist: how much extra bias does a trained classifier add?

The library measures the between-group distance of a dataset twice, once
from the true labels and once from a classifier's predictions, and
reports the ratio minus one (the harmonic fairness measure). An exact
O(n0*n1) computation serves as ground truth; a sorted random-projection
scan approximates it in O(n log n). Standard group measures (demographic
parity, equal opportunity, predictive quality parity, discriminative
risk), validation tooling for the projection bounds, a benchmark
harness, and a CLI round out the package.
"""

from .approx import (
    ApproxParams,
    ProjectionVector,
    approx_set_distance,
    default_m2,
    derived_seed,
    projection_scan_distance,
    sample_l1_unit_vector,
)
from .bench import (
    ComparisonRow,
    SynthSpec,
    pearson,
    relative_difference,
    run_comparison,
    summarize,
    synth_dataset,
)
from .dataset import (
    GroupPartition,
    LabeledDataset,
    LabelSource,
    joint_partition,
    partition_by_attribute,
)
from .errors import (
    ComputationError,
    DataInputError,
    DimensionError,
    EmptyGroup,
    FairdistError,
    InvalidArgument,
    IoError,
    MissingPredictions,
    MissingValue,
    ParseError,
    SchemaMismatch,
    UndefinedCorrelation,
    UndefinedRate,
    UnsupportedAttributeArity,
)
from .exact import DistanceResult, directed_max_min, exact_set_distance
from .io import (
    DatasetSchema,
    ScalingReport,
    load_csv,
    minmax_scale,
    read_int_column,
    render_report,
    write_report,
)
from .measures import (
    FairnessValue,
    GroupRates,
    compute_group_rates,
    demographic_parity,
    discriminative_risk,
    equal_opportunity,
    hfm,
    hfm_distances,
    predictive_quality_parity,
)
from .theory import (
    ProjectionBound,
    SuccessBound,
    approximation_success_bound,
    estimate_scaled_density,
    failure_exponent,
    monte_carlo_projection_probability,
    projection_dominance_bounds,
    suggest_m2,
)

__version__ = "0.1.0"

__all__ = [
    "ApproxParams",
    "ComparisonRow",
    "ComputationError",
    "DataInputError",
    "DatasetSchema",
    "DimensionError",
    "DistanceResult",
    "EmptyGroup",
    "FairdistError",
    "FairnessValue",
    "GroupPartition",
    "GroupRates",
    "InvalidArgument",
    "IoError",
    "LabelSource",
    "LabeledDataset",
    "MissingPredictions",
    "MissingValue",
    "ParseError",
    "ProjectionBound",
    "ProjectionVector",
    "ScalingReport",
    "SchemaMismatch",
    "SuccessBound",
    "SynthSpec",
    "UndefinedCorrelation",
    "UndefinedRate",
    "UnsupportedAttributeArity",
    "approx_set_distance",
    "approximation_success_bound",
    "compute_group_rates",
    "default_m2",
    "demographic_parity",
    "derived_seed",
    "directed_max_min",
    "discriminative_risk",
    "equal_opportunity",
    "estimate_scaled_density",
    "exact_set_distance",
    "failure_exponent",
    "hfm",
    "hfm_distances",
    "joint_partition",
    "load_csv",
    "minmax_scale",
    "monte_carlo_projection_probability",
    "partition_by_attribute",
    "pearson",
    "predictive_quality_parity",
    "projection_dominance_bounds",
    "projection_scan_distance",
    "read_int_column",
    "relative_difference",
    "render_report",
    "run_comparison",
    "sample_l1_unit_vector",
    "summarize",
    "suggest_m2",
    "synth_dataset",
    "write_report",
]
