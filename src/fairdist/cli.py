"""Command-line interface.

Subcommands: dist, hfm, group-metrics, bench, verify-theory. Reports are
written as JSON or CSV with bit-stable formatting; by default report
files omit wall-clock fields so identical invocations produce
byte-identical files (pass --timings to include them). Exit codes: 0
success, 2 input/schema error, 3 computation error. Output is plain text
(NO_COLOR is honored trivially; nothing is ever colorized).
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import asdict, fields

import numpy as np

from .approx import DEFAULT_M1, DEFAULT_SEED, ApproxParams, derived_seed
from .bench import SynthSpec, run_comparison, summarize, synth_dataset
from .dataset import LabelSource, joint_partition
from .errors import (
    ComputationError,
    DataInputError,
    InvalidArgument,
    SchemaMismatch,
)
from .io import DatasetSchema, load_csv, render_report, write_report
from .measures import discriminative_risk, group_gaps, hfm, hfm_distances, set_distance
from .theory import (
    ProjectionBound,
    SuccessBound,
    approximation_success_bound,
    monte_carlo_projection_probability,
    projection_dominance_bounds,
    suggest_m2,
)


# they differ between identical runs, so reports carry them only under
# --timings
_WALL_CLOCK_FIELDS = ("elapsed_ns", "exact_ns", "approx_ns", "mean_speedup")


def _comma_list(text: str) -> list[str]:
    return [part.strip() for part in text.split(",") if part.strip()]


def _list_of(kind):
    """An argparse type: a comma-separated list of `kind` values."""

    def parse(text: str) -> list:
        try:
            return [kind(cell) for cell in _comma_list(text)]
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"expected comma-separated {kind.__name__} values, got {text!r}"
            ) from None

    return parse


def _schema_from_args(args) -> DatasetSchema:
    """The schema the options name. A subcommand that computes distances
    needs at least one --features column; group-metrics reads none."""
    features = _comma_list(args.features or "") if args.reads_features else []
    if args.reads_features and not features:
        raise SchemaMismatch(f"{args.command} needs at least one --features column")
    sensitive = _comma_list(args.sensitive or "")
    privileged = _comma_list(args.privileged or "")
    if not args.label:
        raise SchemaMismatch("--label is required")
    if len(privileged) != len(sensitive):
        raise SchemaMismatch("--privileged must list one value per --sensitive column")
    label_values = tuple(_comma_list(args.label_values)) if args.label_values else None
    return DatasetSchema(
        feature_columns=tuple(features),
        sensitive_columns=tuple(zip(sensitive, privileged)),
        label_column=args.label,
        prediction_column=args.prediction,
        positive_label=args.positive_label,
        label_values=label_values,
        prediction_flipped_column=args.prediction_flipped,
    )


def _load(args, needs_predictions: bool):
    """The dataset that --input and the schema options name, and its
    partition by --attr (default: the first sensitive column) or --joint."""
    schema = _schema_from_args(args)
    if needs_predictions and schema.prediction_column is None:
        raise SchemaMismatch(f"{args.command} requires --prediction")
    dataset, _ = load_csv(args.input, schema)
    names = [name for name, _ in schema.sensitive_columns]
    if args.joint:
        attrs = list(range(len(names)))
    elif args.attr is None:
        attrs = [0]
    elif args.attr in names:
        attrs = [names.index(args.attr)]
    else:
        raise SchemaMismatch(f"--attr {args.attr!r} is not a declared sensitive column")
    return dataset, joint_partition(dataset, attrs)


def _reportable(args, report):
    """The report without its _WALL_CLOCK_FIELDS, unless --timings."""
    if args.timings:
        return report
    if isinstance(report, dict):
        return {k: v for k, v in report.items() if k not in _WALL_CLOCK_FIELDS}
    return [_reportable(args, record) for record in report]


def _emit(args, report) -> None:
    report = _reportable(args, report)
    if args.out:
        write_report(report, args.out, args.format)
    else:
        sys.stdout.write(render_report(report, args.format))


def _approx_params(args) -> ApproxParams:
    return ApproxParams(m1=args.m1, m2=args.m2, seed=args.seed)


def cmd_dist(args) -> int:
    source = LabelSource(args.label_source)
    dataset, partition = _load(args, needs_predictions=source is LabelSource.PREDICTIONS)
    result = set_distance(dataset, partition, source, args.method, _approx_params(args))
    _emit(args, result.to_record())
    return 0


def cmd_hfm(args) -> int:
    if args.alpha is not None and not 0.0 <= args.alpha <= 1.0:
        raise InvalidArgument("--alpha must lie in [0, 1]")
    dataset, partition = _load(args, needs_predictions=True)
    d, d_f = hfm_distances(dataset, partition, args.method, _approx_params(args))
    value = hfm(d_f.value, d.value)
    record = {
        "d": d.value,
        "d_f": d_f.value,
        "hfm": value,
        "method": args.method,
        "m1": d.m1,
        "m2": d.m2,
        "seed": None if d.seed is None else args.seed,
    }
    if args.alpha is not None:
        error_rate = float((dataset.predictions != dataset.labels).mean())
        record["alpha"] = args.alpha
        record["error_rate"] = error_rate
        # at alpha = 1 the HFM term has weight 0, also when the HFM is
        # inf (where (1 - alpha) * inf would be NaN)
        hfm_term = (1.0 - args.alpha) * abs(value) if args.alpha < 1.0 else 0.0
        record["combined_score"] = args.alpha * error_rate + hfm_term
    record["elapsed_ns"] = d.elapsed_ns + d_f.elapsed_ns
    _emit(args, record)
    return 0


def cmd_group_metrics(args) -> int:
    dataset, partition = _load(args, needs_predictions=True)
    # with integer-coded labels nothing else bounds the positive label:
    # one that no row carries would report DP 0 and undefined rates
    positive = args.positive_label
    if args.label_values is None and not (
        positive in dataset.labels or positive in dataset.predictions
    ):
        raise SchemaMismatch(
            f"positive label {positive} occurs in neither the label nor the prediction "
            "column; declare the label values with --label-values to use a code no row has"
        )
    gaps = group_gaps(dataset, partition, positive)
    record = {key: "undefined" if gap is None else gap for key, gap in gaps.items()}
    if dataset.predictions_flipped is not None:
        record["discriminative_risk"] = discriminative_risk(
            dataset.predictions, dataset.predictions_flipped
        )
    _emit(args, record)
    return 0


def cmd_bench(args) -> int:
    params = _approx_params(args)
    if args.input:
        schema = _schema_from_args(args)
        datasets = [(path, load_csv(path, schema)[0]) for path in args.input]
    else:
        if args.count < 1:
            raise InvalidArgument("--count must be at least 1")
        if min(args.min_n, args.max_n) < 2:
            raise InvalidArgument("--min-n and --max-n must be at least 2")
        sizes = np.unique(
            np.geomspace(args.min_n, args.max_n, args.count).round().astype(int)
        )
        datasets = []
        for i, n in enumerate(sizes):
            spec = SynthSpec(
                n=int(n),
                n_x=args.nx,
                group_fraction=args.fraction,
                cluster_separation=args.separation,
                seed=args.data_seed + i,
                with_predictions=args.with_predictions,
            )
            datasets.append((f"synth-{i:03d}", synth_dataset(spec)))
    rows = run_comparison(datasets, params)
    _emit(args, [asdict(row) for row in rows])
    sys.stdout.write(render_report(_reportable(args, summarize(rows)), "json"))
    return 0


def _theory_pair(rng: np.random.Generator, dim: int) -> tuple[np.ndarray, np.ndarray]:
    while True:
        v1 = rng.standard_normal(dim)
        v2 = rng.standard_normal(dim)
        if np.linalg.norm(v1) > np.linalg.norm(v2):
            v1, v2 = v2, v1
        if np.linalg.norm(v1) > 1e-9:
            return v1, v2


def cmd_verify_theory(args) -> int:
    if args.max_dim < 2:
        raise InvalidArgument("--max-dim must be at least 2")
    if args.pairs < 0:
        raise InvalidArgument("--pairs must be nonnegative")
    # computed first: the bounds check the grid values, so a bad one
    # stops the command before any Monte Carlo run
    bounds = [
        approximation_success_bound(
            n, k, args.mu, alpha, args.m1, suggest_m2(n, k, args.m1, args.target_lambda)
        )
        for n in args.grid_n
        for k in args.grid_k
        for alpha in args.grid_alpha
    ]
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(args.seed)))
    # equal-length right-angle pair must sit exactly at probability 1/2
    pairs = [("pair-equal", np.array([1.0, 0.0]), np.array([0.0, 1.0]))]
    for i in range(args.pairs):
        dim = 2 + int(rng.integers(0, args.max_dim - 1))
        pairs.append((f"pair-{i}", *_theory_pair(rng, dim)))
    checks = []
    for tag, v1, v2 in pairs:
        bound = projection_dominance_bounds(v1, v2)
        estimate, stderr = monte_carlo_projection_probability(
            v1, v2, args.trials, derived_seed(args.seed, tag)
        )
        checks.append(
            {
                "kind": "projection_check",
                "dim": len(v1),
                **asdict(bound),
                "mc_estimate": estimate,
                "mc_stderr": stderr,
                "sandwich_ok": bound.lower <= bound.exact <= bound.upper,
                "mc_ok": abs(estimate - bound.exact) <= 4.0 * max(stderr, 1e-12),
            }
        )
    # both record kinds share one header (the CSV report has a single
    # one); a field a kind does not have stays None
    header = (
        "kind",
        "dim",
        *(field.name for field in fields(ProjectionBound)),
        "mc_estimate",
        "mc_stderr",
        "sandwich_ok",
        "mc_ok",
        *(field.name for field in fields(SuccessBound)),
    )
    rows = checks + [{"kind": "success_bound", **asdict(bound)} for bound in bounds]
    _emit(args, [dict.fromkeys(header) | row for row in rows])
    failures = sum(not (row["sandwich_ok"] and row["mc_ok"]) for row in checks)
    sys.stdout.write(f"projection checks: {len(checks) - failures}/{len(checks)} ok\n")
    if failures:
        sys.stderr.write(f"{failures} projection check(s) failed\n")
        return 3
    return 0


def _add_schema_options(
    parser: argparse.ArgumentParser, required: bool, reads_features: bool = True
) -> None:
    """The schema flags; with reads_features False (group-metrics),
    --features is optional and _schema_from_args leaves it unread."""
    group = parser.add_argument_group("schema")
    features_help = "comma-separated feature columns"
    if not reads_features:
        features_help = (
            "accepted so that command lines can be shared with dist and hfm, but not "
            "read: the measures use only the sensitive, label and prediction columns, so "
            "a --features name missing from the header or a bad, empty or inf feature "
            "cell does not stop the command"
        )
    group.add_argument("--features", required=required and reads_features, help=features_help)
    parser.set_defaults(reads_features=reads_features)
    group.add_argument(
        "--sensitive", required=required, help="comma-separated sensitive columns"
    )
    group.add_argument(
        "--privileged",
        required=required,
        help="comma-separated privileged cell value per sensitive column",
    )
    group.add_argument("--label", required=required, help="label column")
    group.add_argument("--prediction", help="prediction column")
    group.add_argument(
        "--prediction-flipped",
        help="column of predictions obtained on attribute-flipped data (enables DR)",
    )
    group.add_argument(
        "--positive-label",
        type=int,
        default=1,
        help="encoded label treated as the positive outcome (default 1)",
    )
    group.add_argument(
        "--label-values",
        help="ordered comma-separated raw label values, mapped to 1..n_c by position",
    )


def _add_partition_options(parser: argparse.ArgumentParser) -> None:
    # --attr and --joint name different partitions: both is a usage error
    group = parser.add_argument_group("partition").add_mutually_exclusive_group()
    group.add_argument("--attr", help="sensitive column to split on (default: first)")
    group.add_argument(
        "--joint",
        action="store_true",
        help="group1 = privileged in every sensitive column jointly",
    )


def _add_output_options(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group("output")
    group.add_argument("--out", help="report file (default: stdout)")
    group.add_argument("--format", choices=("json", "csv"), default="json")
    group.add_argument(
        "--timings",
        action="store_true",
        help="include wall-clock fields in the report (breaks byte-identical reruns)",
    )


def _add_approx_options(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group("approximation")
    group.add_argument(
        "--m1", type=int, default=DEFAULT_M1, help=f"projection trials (default {DEFAULT_M1})"
    )
    group.add_argument(
        "--m2",
        type=int,
        default=None,
        help="neighbors per direction (default: ceil(2*log10(n)), at least 1)",
    )
    group.add_argument(
        "--seed", type=int, default=DEFAULT_SEED, help=f"master seed (default {DEFAULT_SEED})"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fairdist",
        description="Between-group set distances and classifier fairness reports.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_dist = sub.add_parser("dist", help="between-group set distance of a CSV dataset")
    p_dist.add_argument("--input", required=True)
    _add_schema_options(p_dist, required=True)
    _add_partition_options(p_dist)
    p_dist.add_argument("--method", choices=("exact", "approx"), default="exact")
    p_dist.add_argument(
        "--label-source",
        choices=("labels", "predictions"),
        default="labels",
        help="which label slot enters the metric",
    )
    _add_approx_options(p_dist)
    _add_output_options(p_dist)
    p_dist.set_defaults(func=cmd_dist)

    p_hfm = sub.add_parser("hfm", help="harmonic fairness measure of the predictions")
    p_hfm.add_argument("--input", required=True)
    _add_schema_options(p_hfm, required=True)
    _add_partition_options(p_hfm)
    p_hfm.add_argument("--method", choices=("exact", "approx"), default="exact")
    p_hfm.add_argument(
        "--alpha",
        type=float,
        default=None,
        help="also report alpha*error_rate + (1-alpha)*|hfm|, alpha in [0, 1]",
    )
    _add_approx_options(p_hfm)
    _add_output_options(p_hfm)
    p_hfm.set_defaults(func=cmd_hfm)

    p_gm = sub.add_parser("group-metrics", help="DP, EO, PQP and optionally DR")
    p_gm.add_argument("--input", required=True)
    _add_schema_options(p_gm, required=True, reads_features=False)
    _add_partition_options(p_gm)
    _add_output_options(p_gm)
    p_gm.set_defaults(func=cmd_group_metrics)

    p_bench = sub.add_parser("bench", help="exact-vs-approx agreement and timing sweep")
    p_bench.add_argument(
        "--input", action="append", help="dataset CSV (repeatable; default: synthetic sweep)"
    )
    _add_schema_options(p_bench, required=False)
    p_bench.add_argument("--count", type=int, default=10, help="synthetic dataset count")
    p_bench.add_argument("--min-n", type=int, default=100)
    p_bench.add_argument("--max-n", type=int, default=1000)
    p_bench.add_argument("--nx", type=int, default=3)
    p_bench.add_argument("--fraction", type=float, default=0.4)
    p_bench.add_argument("--separation", type=float, default=0.0)
    p_bench.add_argument("--with-predictions", action="store_true")
    p_bench.add_argument("--data-seed", type=int, default=0)
    _add_approx_options(p_bench)
    _add_output_options(p_bench)
    p_bench.set_defaults(func=cmd_bench)

    p_vt = sub.add_parser(
        "verify-theory", help="Monte Carlo projection checks and success-bound tables"
    )
    p_vt.add_argument("--pairs", type=int, default=100)
    p_vt.add_argument("--trials", type=int, default=100_000)
    p_vt.add_argument(
        "--max-dim", type=int, default=10, help="largest pair dimension (at least 2)"
    )
    p_vt.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p_vt.add_argument("--grid-n", type=_list_of(int), default="1000,10000,100000")
    p_vt.add_argument("--grid-k", type=_list_of(int), default="3,9")
    p_vt.add_argument("--grid-alpha", type=_list_of(float), default="1,2")
    p_vt.add_argument("--mu", type=float, default=1.0)
    p_vt.add_argument("--m1", type=int, default=DEFAULT_M1)
    p_vt.add_argument("--target-lambda", type=float, default=8.0)
    _add_output_options(p_vt)
    p_vt.set_defaults(func=cmd_verify_theory)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except DataInputError as exc:
        sys.stderr.write(f"input error: {exc}\n")
        return 2
    except ComputationError as exc:
        sys.stderr.write(f"computation error: {exc}\n")
        return 3


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
