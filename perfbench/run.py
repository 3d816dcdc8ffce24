"""End-to-end benchmark of the fairdist CLI, with a separate traced run.

Run from the root of a source checkout (no install step needed):

    python3 perfbench/run.py --workload hfm-approx-50k-nx10 --seed 1 --seconds 40 --trace 0

--trace 0 times fresh `python -m fairdist.cli` processes, one after
another (a closed loop with one client), from process start until the
report is written, and prints the end-to-end metrics. --trace 1 runs the
same pipeline in-process with a span around every public call and prints
the per-layer metrics. Either way every output is checked against
independent references first; the last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

# before numpy loads: input generation and every child process use at
# most two BLAS/OpenMP threads
THREADS = str(min(2, os.cpu_count() or 1))
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = THREADS

import inputs  # noqa: E402
import reference  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = Path(__file__).resolve().parent / ".work"
SETUP_ARGV = [sys.executable, "-c", "import fairdist.cli"]
POSITIVE_LABEL = 2
FLIPPED_COLUMN = "yhat_flip"


@dataclass(frozen=True)
class Workload:
    spec: inputs.InputSpec
    subcommand: tuple[str, ...]

    @property
    def method(self) -> str | None:
        return self.subcommand[2] if self.subcommand[0] == "hfm" else None


# Each workload puts most of its time in one layer: the approx window
# scan, the exact pair scan, or CSV parsing.
WORKLOADS = {
    "hfm-approx-50k-nx10": Workload(
        inputs.InputSpec(50_000, 10, 0.0), ("hfm", "--method", "approx")
    ),
    "hfm-exact-50k-nx3": Workload(inputs.InputSpec(50_000, 3, 0.3), ("hfm", "--method", "exact")),
    "group-metrics-200k-nx10": Workload(
        inputs.InputSpec(200_000, 10, 0.0),
        (
            "group-metrics",
            "--positive-label",
            str(POSITIVE_LABEL),
            "--prediction-flipped",
            FLIPPED_COLUMN,
        ),
    ),
}

UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
    "dist_ratio": "ratio",
    "io.load_csv_s": "s",
    "io.load_csv_rows_per_s": "1/s",
    "io.read_int_column_s": "s",
    "dataset.partition_s": "s",
    "exact.call_s": "s",
    "exact.pairs": "count",
    "exact.pairs_per_s": "1/s",
    "approx.call_s": "s",
    "approx.trial_s": "s",
    "approx.trials": "count",
    "approx.useful_trials": "count",
    "approx.useful_ratio": "ratio",
    "approx.m2": "count",
    "measures.group_metrics_s": "s",
}


def schema_flags(data: inputs.GeneratedInput) -> list[str]:
    return [
        "--features", ",".join(data.feature_names),
        "--sensitive", "sex",
        "--privileged", inputs.PRIVILEGED,
        "--label", "y",
        "--prediction", "yhat",
    ]  # fmt: skip


def child_env() -> dict[str, str]:
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=f"{SRC}{os.pathsep}{path}" if path else str(SRC))


def timed_process(argv: list[str], stderr_path: Path) -> tuple[int, float, float]:
    """Run one process to its end; returns exit code, wall seconds and
    peak RSS in MiB, taken from the rusage of the waited child."""
    env = child_env()
    with open(stderr_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, cwd=ROOT, stdout=err, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


def run_rounds(seconds: float, one_round) -> int:
    """Repeat one_round while the next one is expected to end within
    `seconds`; always at least twice, so that reruns can be compared.
    Returns the number of rounds."""
    start = time.perf_counter()
    rounds = 0
    while True:
        began = time.perf_counter()
        one_round()
        rounds += 1
        now = time.perf_counter()
        if rounds >= 2 and now - start + (now - began) > seconds:
            return rounds


def measure_cli(work: Workload, data, csv_path: Path, refs, seconds: float, tmp: Path):
    """Time fresh CLI processes; returns (metrics, attempted, failed, problems)."""
    report_path = tmp / "report.json"
    argv = [sys.executable, "-m", "fairdist.cli", *work.subcommand, "--input", str(csv_path)]
    argv += schema_flags(data) + ["--out", str(report_path)]
    stderr_path = tmp / "stderr.txt"

    setup, walls, rss, problems = [], [], [], []
    first_report: list[bytes] = []
    failed = 0

    def one_round():
        # set-up is sampled once per round, so that its samples span the
        # run as the invocations' do
        nonlocal failed
        code, wall, _ = timed_process(SETUP_ARGV, stderr_path)
        if code != 0:
            failed += 1
            sys.stderr.write(f"import fairdist.cli failed: {stderr_path.read_text()[-2000:]}\n")
            return
        setup.append(wall)
        report_path.unlink(missing_ok=True)
        code, wall, peak = timed_process(argv, stderr_path)
        if code != 0:
            failed += 1
            sys.stderr.write(f"invocation failed ({code}): {stderr_path.read_text()[-2000:]}\n")
            return
        walls.append(wall)
        rss.append(peak)
        text = report_path.read_bytes()
        if not first_report:
            first_report.append(text)
            report = json.loads(text)
            if work.method:
                problems.extend(reference.check_hfm_report(report, refs, work.method))
            else:
                problems.extend(reference.check_measures_report(report, refs))
        elif text != first_report[0]:
            problems.append("repeated invocations wrote different reports")

    attempted = run_rounds(seconds, one_round)
    if not walls:
        return None, attempted, failed, problems
    metrics = {
        "wall_s": statistics.median(walls),
        "setup_s": statistics.median(setup),
        "peak_rss_mib": statistics.median(rss),
        "dist_ratio": reference.dist_ratio(json.loads(first_report[0]), refs),
    }
    sys.stderr.write(
        f"{len(walls)} invocations, wall_s: "
        + " ".join(f"{w:.3f}" for w in walls)
        + "; setup_s: "
        + " ".join(f"{s:.3f}" for s in setup)
        + "\n"
    )
    return metrics, attempted, failed, problems


def measure_traced(work: Workload, data, csv_path: Path, refs, seconds: float):
    """In-process traced rounds; returns (metrics, attempted, failed, problems)."""
    sys.path.insert(0, str(SRC))
    import traced
    from fairdist.io import DatasetSchema

    schema = DatasetSchema(
        feature_columns=tuple(data.feature_names),
        sensitive_columns=(("sex", inputs.PRIVILEGED),),
        label_column="y",
        prediction_column="yhat",
        positive_label=POSITIVE_LABEL if work.method is None else 1,
    )
    rounds: list = []

    def one_round():
        if work.method:
            rounds.append(traced.hfm_round(str(csv_path), schema, work.method, refs))
        else:
            rounds.append(traced.group_metrics_round(str(csv_path), schema, FLIPPED_COLUMN, refs))

    attempted = run_rounds(seconds, one_round)
    problems = [p for r in rounds for p in r.problems]
    metrics = traced.layer_metrics(rounds, work.spec.n)
    sys.stderr.write(
        f"{attempted} traced rounds, pipeline total in-process (s): "
        + " ".join(f"{r.pipeline_s:.3f}" for r in rounds)
        + "\n"
    )
    return metrics, attempted, 0, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "fairdist" / "cli.py").is_file():
        sys.stderr.write(f"no fairdist sources under {SRC}; run from a source checkout\n")
        return 2

    work = WORKLOADS[args.workload]
    tmp = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    try:
        data = inputs.generate(work.spec, args.seed)
        csv_path = tmp / "input.csv"
        inputs.write_csv(data, str(csv_path))
        if work.method:
            refs = reference.reference_distances(data)
        else:
            refs = reference.reference_measures(data, POSITIVE_LABEL)
        if args.trace:
            outcome = measure_traced(work, data, csv_path, refs, args.seconds)
        else:
            outcome = measure_cli(work, data, csv_path, refs, args.seconds, tmp)
        metrics, attempted, failed, problems = outcome
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()  # only when no other run is using it

    for problem in problems:
        sys.stderr.write(f"check failed: {problem}\n")
    correct = metrics is not None and not problems
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": UNITS[k]} for k, v in metrics.items()}
        if correct
        else {},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
