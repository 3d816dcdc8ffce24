"""Acceptance suite.

Each test covers one acceptance criterion at its stated tolerance and
prints a single PASS/FAIL line. Run with `pytest -s tests/test_acceptance.py`
to see the lines as they complete.
"""

import contextlib
import math
import os
import subprocess
import sys
import time

import numpy as np

from fairdist import (
    ApproxParams,
    GroupPartition,
    LabelSource,
    approx_set_distance,
    exact_set_distance,
    hfm,
    load_csv,
    partition_by_attribute,
)
from fairdist.approx import (
    _trial_rng,
    default_m2,
    projection_scan_distance,
    sample_l1_unit_vector,
)
from fairdist.bench import SynthSpec, pearson, relative_difference, synth_dataset
from fairdist.io import DatasetSchema
from fairdist.theory import monte_carlo_projection_probability, projection_dominance_bounds

from conftest import TRUE, sweep_datasets, two_group_dataset

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


@contextlib.contextmanager
def criterion(number, description, budget_s):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"FAIL criterion {number}: {description}")
        raise
    elapsed = time.monotonic() - start
    assert elapsed < budget_s, f"criterion {number} took {elapsed:.1f}s, budget {budget_s}s"
    print(f"PASS criterion {number}: {description} ({elapsed:.1f}s)")


def test_criterion_1_overestimation():
    with criterion(1, "approx never undershoots exact by more than 1e-9", 60):
        datasets = sweep_datasets()
        assert len(datasets) >= 200
        for i, ds in enumerate(datasets):
            part = partition_by_attribute(ds, 0)
            source = TRUE if i % 2 else LabelSource.PREDICTIONS
            exact = exact_set_distance(ds, part, source).value
            for m1 in (1, 5, 25):
                for m2 in (1, 3, default_m2(ds.n)):
                    got = approx_set_distance(
                        ds, part, source, ApproxParams(m1=m1, m2=m2, seed=7 * i + m1)
                    )
                    assert got.value >= exact - 1e-9


def test_criterion_2_exact_recovery():
    with criterion(2, "full window recovers the exact distance to 1e-12", 60):
        datasets = sweep_datasets()
        rng = np.random.Generator(np.random.PCG64(5)).integers(0, 2**31, size=len(datasets))
        for i, ds in enumerate(datasets):
            part = partition_by_attribute(ds, 0)
            source = TRUE if i % 2 else LabelSource.PREDICTIONS
            exact = exact_set_distance(ds, part, source).value
            m2 = max(part.sizes)
            for j in range(20):
                w = sample_l1_unit_vector(1 + ds.n_features, _trial_rng(int(rng[i]), j))
                got = projection_scan_distance(ds, part, source, w, m2)
                assert abs(got - exact) <= 1e-12


def test_criterion_3_agreement_at_defaults():
    # generator mix: separated groups, the regime the measure targets.
    # relative error of the approximation shrinks as the distance grows,
    # so fully overlapping groups (distance at nearest-neighbor scale)
    # would probe a different question than value agreement.
    # thresholds (r >= 0.95, median <= 10%) are desk-scale choices.
    with criterion(3, "default-parameter agreement: r >= 0.95, median rel diff <= 10%", 300):
        rng = np.random.Generator(np.random.PCG64(7))
        exact_values, approx_values = [], []
        for _ in range(100):
            n = int(rng.integers(200, 2001))
            spec = SynthSpec(
                n=n,
                n_x=int(rng.integers(1, 9)),
                group_fraction=float(rng.uniform(0.25, 0.75)),
                cluster_separation=float(rng.uniform(0.15, 0.5)),
                seed=int(rng.integers(0, 2**31)),
                n_c=int(rng.choice([2, 3])),
            )
            ds = synth_dataset(spec)
            part = partition_by_attribute(ds, 0)
            exact_values.append(exact_set_distance(ds, part, TRUE).value)
            approx_values.append(
                approx_set_distance(
                    ds, part, TRUE, ApproxParams(m1=25, seed=int(rng.integers(0, 2**31)))
                ).value
            )
        r = pearson(np.array(exact_values), np.array(approx_values))
        rel = np.array(
            [relative_difference(a, e) for a, e in zip(approx_values, exact_values)]
        )
        assert r >= 0.95, f"pearson r {r:.4f} below 0.95"
        assert np.median(rel) <= 0.10, f"median relative difference {np.median(rel):.4f}"


def test_criterion_4_speedup_and_scaling():
    with criterion(4, "approx beats exact at n=50k and scales like n log n", 600):
        big = synth_dataset(SynthSpec(n=50_000, n_x=10, group_fraction=0.5, seed=7))
        part = partition_by_attribute(big, 0)
        approx = approx_set_distance(big, part, TRUE, ApproxParams(m1=25, seed=42))
        exact = exact_set_distance(big, part, TRUE)
        assert approx.elapsed_ns < exact.elapsed_ns, (
            f"approx {approx.elapsed_ns / 1e9:.2f}s not faster than "
            f"exact {exact.elapsed_ns / 1e9:.2f}s"
        )
        cases = {}
        for n in (12_500, 25_000, 50_000):
            ds = synth_dataset(SynthSpec(n=n, n_x=10, group_fraction=0.5, seed=7))
            cases[n] = (ds, partition_by_attribute(ds, 0))
        # min of 3, timed round-robin (every size once per round), so that
        # the machine's slow and fast phases fall on all three sizes alike
        times = dict.fromkeys(cases, math.inf)
        for _ in range(3):
            for n, (ds, p) in cases.items():
                result = approx_set_distance(ds, p, TRUE, ApproxParams(m1=25, seed=42))
                times[n] = min(times[n], result.elapsed_ns)
        assert times[25_000] / times[12_500] <= 2.6
        assert times[50_000] / times[25_000] <= 2.6


def test_criterion_5_projection_probability():
    with criterion(5, "dominance-probability sandwich and Monte Carlo agreement", 120):
        rng = np.random.Generator(np.random.PCG64(11))

        def pair(dim):
            while True:
                v1 = rng.standard_normal(dim)
                v2 = rng.standard_normal(dim)
                if np.linalg.norm(v1) > np.linalg.norm(v2):
                    v1, v2 = v2, v1
                if np.linalg.norm(v1) > 1e-9:
                    return v1, v2

        for _ in range(10_000):
            v1, v2 = pair(2 + int(rng.integers(0, 9)))
            bound = projection_dominance_bounds(v1, v2)
            assert bound.lower <= bound.exact <= bound.upper
        for i in range(100):
            v1, v2 = pair(2 + int(rng.integers(0, 9)))
            bound = projection_dominance_bounds(v1, v2)
            estimate, stderr = monte_carlo_projection_probability(v1, v2, 100_000, seed=900 + i)
            assert abs(estimate - bound.exact) <= 4 * max(stderr, 1e-12)
        equal = projection_dominance_bounds(np.array([3.0, 0.0]), np.array([0.0, 3.0]))
        assert abs(equal.exact - 0.5) <= 1e-12


def test_criterion_6_hfm_degenerate_table():
    with criterion(6, "HFM degenerate-case table is exact", 60):
        assert hfm(0.42, 0.42) == 0.0
        assert hfm(0.0, 0.0) == 0.0
        assert hfm(0.3, 0.0) == math.inf
        assert hfm(0.2, 0.5) < 0.0


def test_criterion_7_baseline_measures_fixture():
    # 12-row fixture, positive label 2, privileged value "Male".
    # Hand count (rows in file order, M = group1, F = group0):
    #   M: (y,yhat) = (2,2) (2,2) (2,2) (1,2) (1,1) (1,1)
    #   F: (y,yhat) = (2,2) (2,1) (1,2) (1,1) (1,1) (1,1)
    # DP:  P(yhat=2|M) = 4/6, P(yhat=2|F) = 2/6        -> |2/3 - 1/3| = 1/3
    # EO:  TPR_M = 3/3,       TPR_F = 1/2              -> |1 - 1/2|   = 1/2
    # PQP: prec_M = 3/4,      prec_F = 1/2             -> |3/4 - 1/2| = 1/4
    # DR:  yhat vs yhat_flip differ on rows 2, 5, 9    -> 3/12        = 1/4
    from fairdist import (
        demographic_parity,
        discriminative_risk,
        equal_opportunity,
        predictive_quality_parity,
    )
    from fairdist.io import read_int_column

    with criterion(7, "DP/EO/PQP/DR match the hand-counted fixture to 1e-12", 60):
        path = os.path.join(FIXTURES, "group_metrics_12.csv")
        schema = DatasetSchema(
            feature_columns=("x1", "x2"),
            sensitive_columns=(("sex", "Male"),),
            label_column="y",
            prediction_column="yhat",
            positive_label=2,
        )
        ds, _ = load_csv(path, schema)
        part = partition_by_attribute(ds, 0)
        assert abs(demographic_parity(ds, part, 2) - 1 / 3) <= 1e-12
        assert abs(equal_opportunity(ds, part, 2) - 1 / 2) <= 1e-12
        assert abs(predictive_quality_parity(ds, part, 2) - 1 / 4) <= 1e-12
        flipped = read_int_column(path, "yhat_flip")
        assert abs(discriminative_risk(ds.predictions, flipped) - 1 / 4) <= 1e-12


def test_criterion_8_metric_properties():
    with criterion(8, "symmetry, identity and triangle inequality hold", 120):
        rng = np.random.Generator(np.random.PCG64(17))

        def random_set(max_size=6):
            size = int(rng.integers(1, max_size))
            return rng.uniform(size=(size, 2)), rng.integers(1, 3, size=size)

        # symmetry: swapping the groups can never change the value
        for _ in range(100):
            (pa, la), (pb, lb) = random_set(), random_set()
            ds, part = two_group_dataset(pa, la, pb, lb)
            swapped = GroupPartition(
                attr_indices=part.attr_indices, group0=part.group1, group1=part.group0, n=part.n
            )
            assert (
                exact_set_distance(ds, part, TRUE).value
                == exact_set_distance(ds, swapped, TRUE).value
            )

        # identity: zero distance exactly for equal point sets
        points = np.array([[0.1, 0.9], [0.4, 0.2]])
        labels = np.array([1, 2])
        ds, part = two_group_dataset(points, labels, points[::-1], labels[::-1])
        assert exact_set_distance(ds, part, TRUE).value == 0.0
        ds2, part2 = two_group_dataset(points, labels, points, np.array([1, 1]))
        assert exact_set_distance(ds2, part2, TRUE).value > 0.0

        # triangle inequality on 500 random triples
        for _ in range(500):
            sets = [random_set() for _ in range(3)]
            d = {}
            for i, j in ((0, 1), (1, 2), (0, 2)):
                ds, part = two_group_dataset(sets[i][0], sets[i][1], sets[j][0], sets[j][1])
                d[i, j] = exact_set_distance(ds, part, TRUE).value
            assert d[0, 2] <= d[0, 1] + d[1, 2] + 1e-9


def test_criterion_9_cli_determinism(tmp_path):
    with criterion(9, "CLI reruns are byte-identical across thread settings", 300):
        dist6 = os.path.join(FIXTURES, "distance_6.csv")
        gm12 = os.path.join(FIXTURES, "group_metrics_12.csv")
        schema6 = ["--features", "x", "--sensitive", "sex", "--privileged", "Male",
                   "--label", "y"]
        schema12 = ["--features", "x1,x2", "--sensitive", "sex", "--privileged", "Male",
                    "--label", "y", "--prediction", "yhat", "--positive-label", "2"]
        invocations = {
            "dist-exact": ["dist", "--input", dist6, *schema6, "--method", "exact"],
            "dist-approx": ["dist", "--input", dist6, *schema6, "--method", "approx",
                            "--m1", "5", "--seed", "3"],
            "hfm": ["hfm", "--input", dist6, *schema6, "--prediction", "yhat",
                    "--alpha", "0.05"],
            "group-metrics": ["group-metrics", "--input", gm12, *schema12,
                              "--prediction-flipped", "yhat_flip"],
            "bench": ["bench", "--count", "4", "--min-n", "40", "--max-n", "100",
                      "--m1", "3", "--with-predictions", "--format", "csv"],
            "verify-theory": ["verify-theory", "--pairs", "4", "--trials", "4000"],
        }
        for name, argv in invocations.items():
            outputs = []
            for run_id, threads in (("a", "1"), ("b", "4")):
                out_file = tmp_path / f"{name}-{run_id}.out"
                env = dict(os.environ)
                env.update(
                    OMP_NUM_THREADS=threads,
                    OPENBLAS_NUM_THREADS=threads,
                    MKL_NUM_THREADS=threads,
                )
                result = subprocess.run(
                    [sys.executable, "-m", "fairdist.cli", *argv, "--out", str(out_file)],
                    env=env,
                    capture_output=True,
                    text=True,
                )
                assert result.returncode == 0, result.stderr
                outputs.append(out_file.read_bytes())
            assert outputs[0] == outputs[1], f"{name} output differs between runs"
