"""Seeded input generator for the benchmark workloads.

The generator belongs to the benchmark, not to the package, so that an
edit to the package's own synthetic-data helpers cannot shift a
workload. The same (spec, seed) always yields the same arrays and the
same CSV bytes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

PRIVILEGED = "Male"
UNPRIVILEGED = "Female"
PRIVILEGED_FRACTION = 0.4
PREDICTION_ACCURACY = 0.8
FLIP_RATE = 0.1


@dataclass(frozen=True)
class InputSpec:
    """Row count, feature count, and the distance between the two group
    centres in the unit box (0 = both groups uniform on the box)."""

    n: int
    n_x: int
    separation: float


@dataclass(frozen=True)
class GeneratedInput:
    """The arrays behind one generated CSV, kept for the reference checks.

    `scaled` is the benchmark's own min-max scaling of `raw`; `male` marks
    the privileged rows; labels and predictions take values 1..2.
    """

    raw: np.ndarray
    scaled: np.ndarray
    male: np.ndarray
    labels: np.ndarray
    predictions: np.ndarray
    flipped: np.ndarray

    @property
    def feature_names(self) -> list[str]:
        return [f"x{j}" for j in range(self.raw.shape[1])]


def column_ranges(n_x: int) -> tuple[np.ndarray, np.ndarray]:
    """Unequal raw ranges per feature (offset, width), so that the
    program's min-max scaling does real work."""
    j = np.arange(n_x)
    offsets = (j - n_x / 2) * 37.5
    widths = 10.0 ** (j % 4 - 1) * (1 + j)
    return offsets, widths


def minmax(raw: np.ndarray) -> np.ndarray:
    """Column-wise (x - min) / (max - min), the rule the program applies."""
    lo = raw.min(axis=0)
    hi = raw.max(axis=0)
    return (raw - lo) / (hi - lo)


def generate(spec: InputSpec, seed: int) -> GeneratedInput:
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, spec.n, spec.n_x])))
    n1 = int(round(spec.n * PRIVILEGED_FRACTION))
    male = np.zeros(spec.n, dtype=bool)
    male[rng.permutation(spec.n)[:n1]] = True

    if spec.separation == 0.0:
        unit = rng.uniform(0.0, 1.0, size=(spec.n, spec.n_x))
    else:
        centres = np.where(male[:, None], 0.5 + spec.separation / 2, 0.5 - spec.separation / 2)
        unit = np.clip(centres + rng.normal(0.0, 0.15, size=(spec.n, spec.n_x)), 0.0, 1.0)
    offsets, widths = column_ranges(spec.n_x)
    raw = offsets + unit * widths

    labels = rng.integers(1, 3, size=spec.n)
    predictions = np.where(rng.random(spec.n) < PREDICTION_ACCURACY, labels, 3 - labels)
    flipped = np.where(rng.random(spec.n) < FLIP_RATE, 3 - predictions, predictions)
    return GeneratedInput(raw, minmax(raw), male, labels, predictions, flipped)


def write_csv(data: GeneratedInput, path: str) -> None:
    """Write the raw table; reals use repr, which round-trips exactly."""
    columns = [list(map(repr, data.raw[:, j].tolist())) for j in range(data.raw.shape[1])]
    columns.append([PRIVILEGED if m else UNPRIVILEGED for m in data.male.tolist()])
    for ints in (data.labels, data.predictions, data.flipped):
        columns.append(list(map(str, ints.tolist())))
    header = data.feature_names + ["sex", "y", "yhat", "yhat_flip"]
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(",".join(header) + "\n")
        handle.write("\n".join(",".join(row) for row in zip(*columns)))
        handle.write("\n")
