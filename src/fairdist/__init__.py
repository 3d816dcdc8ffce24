"""fairdist: how much extra bias does a trained classifier add?

The library measures the between-group distance of a dataset twice, once
from the true labels and once from a classifier's predictions, and
reports the ratio minus one (the harmonic fairness measure). The exact
distance comes from an early-break scan, with label-stratified k-d trees
behind it, equal bit for bit to the O(n0*n1) brute-force baseline
`exact_set_distance` on the platforms the README names; a sorted
random-projection scan approximates it in O(n log n). Standard group
measures (demographic parity, equal opportunity, predictive quality
parity, discriminative risk) and a CLI round out the package.

This module exports the public API the README documents. The validation
toolkit for the projection bounds lives in `fairdist.theory`, the
exact-vs-approx benchmark harness in `fairdist.bench`; every other name
is importable from its own module.
"""

from .approx import ApproxParams, approx_set_distance
from .dataset import (
    GroupPartition,
    LabeledDataset,
    LabelSource,
    joint_partition,
    partition_by_attribute,
)
from .errors import ComputationError, DataInputError, FairdistError
from .exact import DistanceResult, exact_set_distance
from .io import DatasetSchema, ScalingReport, load_csv
from .measures import (
    demographic_parity,
    discriminative_risk,
    equal_opportunity,
    hfm,
    hfm_distances,
    predictive_quality_parity,
)

__version__ = "0.1.0"

__all__ = [
    "ApproxParams",
    "ComputationError",
    "DataInputError",
    "DatasetSchema",
    "DistanceResult",
    "FairdistError",
    "GroupPartition",
    "LabelSource",
    "LabeledDataset",
    "ScalingReport",
    "approx_set_distance",
    "demographic_parity",
    "discriminative_risk",
    "equal_opportunity",
    "exact_set_distance",
    "hfm",
    "hfm_distances",
    "joint_partition",
    "load_csv",
    "partition_by_attribute",
    "predictive_quality_parity",
]
