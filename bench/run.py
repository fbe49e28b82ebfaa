"""Seeded benchmark of the dashmine pipeline.

Usage (from the repository root)::

    python3 bench/run.py --workload corpus-pipeline --seed 1 --seconds 40 --trace 0

A run generates the workload's inputs from ``--seed``, then repeats
measured passes until ``--seconds`` have passed, generating the inputs
twice more on the way to time set-up.  Each pass runs the workload's CLI
stages in a fresh process (``bench/worker.py``), so its peak RSS is its
own, and every pass's artifacts are checked.  With ``--trace 1`` passes alternate between
untraced and traced; the traced ones wrap dashmine's public functions
(``bench/spans.py``) and give the per-layer metrics.  The last line on
stdout is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  A readable report precedes it, and the full record goes to
``bench/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / "_work"
RESULTS = BENCH / "results"

# Each run must end well inside three minutes, whatever --seconds says.
RUN_BUDGET_S = 160.0
# Set-ups per run, spread evenly over it; setup_s is their median.
SETUPS = 3

PIPELINE_KEPT = 600
SCALE_ROWS = 4000
SWEEP_ROWS = 1800
SWEEP_SIZES = list(range(20, 141, 20))


@dataclass(frozen=True)
class Workload:
    name: str
    setup: Callable[[int, Path], dict]
    stages: Callable[[Path, Path], list[list[str]]]
    check: Callable[[Path, Path, dict, list[dict]], tuple[dict, dict]]
    rows: Callable[[dict], int]


def _setup_corpus(seed: int, inputs: Path) -> dict:
    manifest = corpus.write_corpus(seed, PIPELINE_KEPT, inputs / "docs")
    return manifest | {"rows": len(manifest["kept_ids"])}


def _setup_matrix(n_rows: int) -> Callable[[int, Path], dict]:
    def setup(seed: int, inputs: Path) -> dict:
        return corpus.write_matrix(seed, n_rows, inputs / "features_scaled.csv")

    return setup


def _pipeline_stages(inputs: Path, out: Path) -> list[list[str]]:
    o = str(out)
    return [
        ["parse", "--input", str(inputs / "docs"), "--out", o, "--jobs", "1"],
        ["graph", "--input", o, "--out", o, "--jobs", "1"],
        ["analyze", "--input", o, "--out", o, "--jobs", "1"],
        ["features", "--input", o, "--out", o, "--jobs", "1"],
        ["fit-scaler", "--input", f"{o}/features.csv", "--out", o],
        ["scale", "--input", f"{o}/features.csv", "--scaler", f"{o}/scaler.json", "--out", o],
        ["cluster", "--input", f"{o}/features_scaled.csv", "--min-cluster-size", "40", "--out", o],
        ["report", "--input", o, "--out", o, "--csv-tables"],
        ["lint", "--input", o, "--out", o],
    ]


def _scale_stages(inputs: Path, out: Path) -> list[list[str]]:
    matrix = str(inputs / "features_scaled.csv")
    return [["cluster", "--input", matrix, "--min-cluster-size", "10", "--out", str(out)]]


def _sweep_stages(inputs: Path, out: Path) -> list[list[str]]:
    matrix = str(inputs / "features_scaled.csv")
    sweep = f"min_cluster_size={SWEEP_SIZES[0]}..{SWEEP_SIZES[-1]}:{SWEEP_SIZES[1] - SWEEP_SIZES[0]}"
    return [["cluster", "--input", matrix, "--min-samples", "20", "--sweep", sweep, "--out", str(out)]]


# Why each workload exists is recorded in BENCHMARK.json.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "corpus-pipeline",
            _setup_corpus,
            _pipeline_stages,
            lambda out, inputs, props, stages: checks.check_pipeline(out, inputs / "docs", props, stages),
            lambda props: props["rows"],
        ),
        Workload(
            "cluster-scale",
            _setup_matrix(SCALE_ROWS),
            _scale_stages,
            lambda out, inputs, props, stages: checks.check_cluster(out, inputs / "features_scaled.csv"),
            lambda props: props["rows"],
        ),
        Workload(
            "cluster-sweep",
            _setup_matrix(SWEEP_ROWS),
            _sweep_stages,
            lambda out, inputs, props, stages: checks.check_sweep(out, SWEEP_SIZES),
            lambda props: props["rows"] * len(SWEEP_SIZES),
        ),
    )
}

STAGES = ("parse", "graph", "analyze", "features", "fit-scaler", "scale", "cluster", "report", "lint")
# Spans whose busy time is a per-layer metric; those in SPAN_CALLS also
# report their call count.
SPAN_METRICS = (
    "ingest.parse_workbook",
    "ingest.filter_corpus",
    "model.validate",
    "model.dashboard_to_dict",
    "model.dashboard_from_dict",
    "model.graphs_to_dict",
    "model.graphs_from_dict",
    "geometry.build_graphs",
    "analysis.analyze_graphs",
    "analysis.maximal_cliques",
    "analysis.average_shortest_path",
    "features.extract_features",
    "features.matrix_to_csv",
    "features.fit_scaler",
    "features.apply_scaler",
    "features.matrix_from_csv",
    "cluster.hdbscan",
    "cluster.silhouette",
    "cluster.export_dendrogram",
    "cluster.sweep_min_cluster_size",
    "report.summarize_corpus",
    "report.lint_corpus",
)
SPAN_CALLS = {
    "ingest.parse_workbook",
    "model.graphs_from_dict",
    "geometry.build_graphs",
    "analysis.maximal_cliques",
    "analysis.average_shortest_path",
    "cluster.hdbscan",
}


def _fresh(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def _git_sha() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _filesystem(path: Path) -> str:
    """Type of the filesystem holding ``path``, from the mount table."""
    best, fstype = "", "unknown"
    try:
        mounts = Path("/proc/self/mountinfo").read_text().splitlines()
    except OSError:
        return fstype
    for line in mounts:
        left, _, right = line.partition(" - ")
        mount = left.split()[4]
        if (str(path) + "/").startswith(mount.rstrip("/") + "/") and len(mount) > len(best):
            best, fstype = mount, right.split()[0]
    return fstype


def _environment() -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_sha": _git_sha(),
        "workdir_filesystem": _filesystem(WORK),
        "jobs": 1,
    }


def _run_pass(workload: Workload, inputs: Path, out: Path, trace: bool, timeout: float) -> dict:
    """One pass in a fresh worker process; returns the worker's report."""
    spec = WORK / "spec.json"
    spec.write_text(
        json.dumps(
            {
                "src": str(SRC),
                "stages": workload.stages(inputs, out),
                "trace": trace,
                "spans": str(WORK / "spans.json"),
            }
        )
    )
    env = {k: v for k, v in os.environ.items() if not k.startswith("DASHMINE_")}
    proc = subprocess.run(
        [sys.executable, str(BENCH / "worker.py"), str(spec)],
        capture_output=True,
        text=True,
        timeout=timeout,
        env=env,
        cwd=ROOT,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}: {proc.stderr[-2000:]}")
    report = json.loads(proc.stdout.splitlines()[-1])
    report["stderr"] = proc.stderr
    return report


def _layer_table(spans_path: Path) -> dict[str, float]:
    """Per-layer numbers of one traced pass."""
    doc = json.loads(spans_path.read_text())
    spans, counts = doc["spans"], doc["counts"]
    busy: dict[str, float] = {}
    calls: dict[str, int] = {}
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        busy[name] = busy.get(name, 0.0) + (end - start)
        calls[name] = calls.get(name, 0) + 1
        if parent >= 0:
            child_time[parent] += end - start
    table: dict[str, float] = {}
    for stage in STAGES:
        table[f"cli.{stage}.wall_s"] = 0.0
        table[f"cli.{stage}.self_s"] = 0.0
    for i, (name, start, end, _) in enumerate(spans):
        if name.startswith("cli."):
            table[f"{name}.wall_s"] += end - start
            table[f"{name}.self_s"] += end - start - child_time[i]
    for name in SPAN_METRICS:
        table[f"{name}.busy_s"] = busy.get(name, 0.0)
        if name in SPAN_CALLS:
            table[f"{name}.calls"] = calls.get(name, 0)
    for name in ("ingest.parsed", "ingest.kept", "geometry.declared_actions", "geometry.interaction_edges"):
        table[name] = counts.get(name, 0)
    table["ingest.kept_share"] = table["ingest.kept"] / table["ingest.parsed"] if table["ingest.parsed"] else 0.0
    declared = table["geometry.declared_actions"]
    table["geometry.interaction_kept_share"] = table["geometry.interaction_edges"] / declared if declared else 0.0
    return table


def _timed_setup(workload: Workload, seed: int, inputs: Path) -> tuple[dict, float, str]:
    """Generate the inputs into ``inputs``; return their properties, the
    time taken and their sha256."""
    _fresh(inputs)
    start = time.perf_counter()
    props = workload.setup(seed, inputs)
    elapsed = time.perf_counter() - start
    return props, elapsed, checks.digest(inputs)["sha256"]


def _previous_sha(name: str, seed: int, sha: str) -> str:
    """How this run's artifact sha256 compares with earlier records of the
    same workload and seed."""
    earlier = set()
    for path in RESULTS.glob(f"{name}-seed{seed}-trace*.json"):
        earlier.add(json.loads(path.read_text()).get("artifacts_sha256"))
    earlier.discard(None)
    if not earlier:
        return "no earlier record"
    return "matches earlier records" if earlier == {sha} else f"differs from earlier records {sorted(earlier)}"


def run(workload: Workload, seed: int, seconds: float, trace: bool) -> dict:
    begun = time.perf_counter()
    _fresh(WORK)
    inputs, out = WORK / "inputs", WORK / "out"
    props, setup_time, input_sha = _timed_setup(workload, seed, inputs)
    setup_times = [setup_time]

    attempted = failed = 0
    failures: list[str] = []
    passes: list[dict] = []
    layer_tables: list[dict] = []
    shas: set[str] = set()
    artifact_props: dict = {}
    # The run measures for `seconds`, set-up included: a pass starts only
    # if one of the median length so far, with its checks, still fits.
    cycles: list[float] = []

    def room() -> bool:
        if len(passes) < (2 if trace else 1):
            return True
        return time.perf_counter() - begun + statistics.median(cycles) < seconds

    while room():
        cycle_start = time.perf_counter()
        traced = trace and len(passes) % 2 == 1
        _fresh(out)
        timeout = RUN_BUDGET_S - (time.perf_counter() - begun)
        try:
            report = _run_pass(workload, inputs, out, traced, max(timeout, 1.0))
        except (RuntimeError, subprocess.TimeoutExpired, ValueError, IndexError) as exc:
            attempted += 1
            failed += 1
            failures.append(f"pass {len(passes)}: {exc}")
            break
        stages = report["stages"]
        attempted += len(stages)
        bad = [s for s in stages if s["exit"] not in ((0, 1) if s["name"] == "lint" else (0,))]
        if bad:
            failed += len(bad)
            failures += [f"pass {len(passes)}: stage {s['name']} exited {s['exit']}: {report['stderr'][-500:]}" for s in bad]
            break
        try:
            results, artifact_props = workload.check(out, inputs, props, stages)
        except (OSError, KeyError, ValueError, IndexError) as exc:
            results = {"artifacts_readable": f"{type(exc).__name__}: {exc}"}
        attempted += len(results)
        for name, problem in results.items():
            if problem is not None:
                failed += 1
                failures.append(f"pass {len(passes)}: check {name}: {problem}")
        written = checks.digest(out)
        shutil.rmtree(out)
        shas.add(written["sha256"])
        report["traced"] = traced
        passes.append(report | {"written": written})
        if traced:
            layer_tables.append(_layer_table(WORK / "spans.json"))
        # Set up again at even stretches of the run, so that the median
        # set-up time samples the same host speed as the passes do.
        if len(setup_times) < SETUPS and time.perf_counter() - begun >= seconds * len(setup_times) / SETUPS:
            _, setup_time, sha = _timed_setup(workload, seed, WORK / "inputs-again")
            setup_times.append(setup_time)
            attempted += 1
            if sha != input_sha:
                failed += 1
                failures.append(f"pass {len(passes) - 1}: set-up gave different inputs")
        cycles.append(time.perf_counter() - cycle_start)
        if failed or time.perf_counter() - begun > RUN_BUDGET_S:
            break

    attempted += 1
    if len(shas) > 1:
        failed += 1
        failures.append(f"artifacts differ between passes: {sorted(shas)}")

    untraced = [p for p in passes if not p["traced"]]
    record = {
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "environment": _environment(),
        "inputs": {k: v for k, v in props.items() if k != "kept_ids"},
        "setup_s": setup_times,
        "passes": [
            {"traced": p["traced"], "wall_s": p["wall_s"], "peak_rss_mb": p["peak_rss_mb"],
             "stages": {s["name"]: s["wall_s"] for s in p["stages"]}}
            for p in passes
        ],
        "artifacts": artifact_props,
        "artifacts_sha256": sorted(shas)[0] if len(shas) == 1 else None,
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
    }
    if not untraced:
        return record
    wall = statistics.median([p["wall_s"] for p in untraced])
    record["end_to_end"] = {
        "wall_s": (wall, "s"),
        "rows_per_s": (workload.rows(props) / wall, "1/s"),
        "peak_rss_mb": (statistics.median([p["peak_rss_mb"] for p in untraced]), "MB"),
        "setup_s": (statistics.median(setup_times), "s"),
    }
    if layer_tables:
        layers = {name: statistics.median([t[name] for t in layer_tables]) for name in layer_tables[0]}
        traced_wall = statistics.median([p["wall_s"] for p in passes if p["traced"]])
        layers["trace.wall_s"] = traced_wall
        # Each traced pass against the untraced pass just before it, so a
        # drift in host speed over the run cancels out.
        layers["trace.overhead_s"] = statistics.median(
            b["wall_s"] - a["wall_s"] for a, b in zip(passes, passes[1:]) if b["traced"] and not a["traced"]
        )
        written = passes[-1]["written"]
        layers["cli.files_written"] = written["files_written"]
        layers["cli.bytes_written"] = written["bytes_written"]
        for name in ("n_clusters", "noise_share", "nonfinite_stabilities", "condensed_tree_infinity_tokens"):
            layers[f"cluster.{name}"] = artifact_props.get(name, 0)
        layers["report.findings"] = artifact_props.get("findings", 0)
        layers["features.unique_row_share"] = artifact_props.get("unique_row_share", props.get("unique_row_share", 0.0))
        for name in ("documents", "dashboards", "mean_blocks", "max_blocks", "rows"):
            layers[f"input.{name}"] = props.get(name, 0)
        record["per_layer"] = layers
    return record


def _units() -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def _print_report(record: dict, trace: bool) -> dict:
    """Print the readable report; return the metrics of the result line."""
    units = _units()
    print(f"workload {record['workload']}  seed {record['seed']}  trace {int(trace)}")
    print("environment: " + " ".join(f"{k}={v}" for k, v in record["environment"].items()))
    print("inputs: " + " ".join(f"{k}={v}" for k, v in record["inputs"].items()))
    art = record["artifacts"]
    print("artifacts: " + " ".join(f"{k}={v}" for k, v in art.items()))
    if record["artifacts_sha256"]:
        print(f"artifacts_sha256: {record['artifacts_sha256']} ({record['artifacts_sha256_history']})")
    walls = " ".join(f"{p['wall_s']:.3f}{'t' if p['traced'] else ''}" for p in record["passes"])
    print(f"passes: {len(record['passes'])} (wall_s {walls}; t = traced)")
    print(f"setup_s: {' '.join(f'{t:.3f}' for t in record['setup_s'])}")
    for failure in record["failures"]:
        print(f"FAILED {failure}")
    print(f"operations: attempted={record['attempted']} failed={record['failed']}")

    if trace:
        metrics = record.get("per_layer", {})
        kept = metrics.get("ingest.kept", 0)
        if kept:
            for name in ("analysis.maximal_cliques.calls", "model.graphs_from_dict.calls"):
                print(f"observed: {name} = {metrics[name] / kept:.2f} x kept dashboards ({metrics[name]} / {kept})")
        wall = metrics.get("trace.wall_s")
        if wall:
            share = (metrics["cluster.hdbscan.busy_s"] + metrics["cluster.silhouette.busy_s"]) / wall
            print(f"observed: cluster.hdbscan + cluster.silhouette busy = {share:.1%} of traced wall_s")
    else:
        metrics = {name: value for name, (value, _) in record.get("end_to_end", {}).items()}
    for name, value in metrics.items():
        print(f"  {name:<40} {value:>16.6g} {units[name]}")
    return {name: {"value": value, "unit": units[name]} for name, value in metrics.items()}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    record = run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    RESULTS.mkdir(exist_ok=True)
    if record["artifacts_sha256"]:
        record["artifacts_sha256_history"] = _previous_sha(args.workload, args.seed, record["artifacts_sha256"])
    (RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True) + "\n"
    )
    metrics = _print_report(record, bool(args.trace))
    failed = record["failed"]
    print(json.dumps({"correct": failed == 0, "attempted": record["attempted"], "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    if not (SRC / "dashmine" / "cli.py").is_file():
        print(f"error: dashmine sources not found under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import checks
    import corpus

    sys.exit(main())
