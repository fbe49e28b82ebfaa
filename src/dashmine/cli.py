"""Command-line pipeline over a corpus of dashboard documents.

Stages hand off through files, so each is independently re-runnable:

    parse      documents (.xml/.json)  -> dashboards.ndjson
    graph      dashboards.ndjson       -> <id>.graph.json
    analyze    graph files             -> <id>.analysis.json
    features   graph files             -> features.csv
    fit-scaler features.csv            -> scaler.json
    scale      features.csv + scaler   -> features_scaled.csv
    cluster    scaled csv              -> labels.csv + condensed_tree.json
    report     graph files             -> summary.json (+ csv tables)
    lint       graph files             -> findings, newline-delimited JSON

Every stage runs serially in one process.  Every artifact embeds the
fingerprint of the semantic configuration that produced it, so a
pipeline rerun with the same inputs is byte-identical.  Dashboard ids
name per-dashboard files, so every stage that reads dashboards or graph
files rejects ids that are repeated or not safe as file names.
Failures print a machine-readable JSON error on stderr, remove partial
outputs and exit with status 2.  The defaults of
``--out``, ``--format``, ``--min-charts``, ``--tolerance`` and
``--min-cluster-size`` can be overridden with a ``DASHMINE_<OPTION>``
environment variable (e.g. ``DASHMINE_TOLERANCE``).
"""

from __future__ import annotations

import argparse
import csv
import glob
import hashlib
import io
import json
import os
import sys
from pathlib import Path
from typing import Any, Callable, Sequence

from . import analysis, cluster, features, geometry, ingest, model, report
from .errors import DashmineError, SchemaViolation

EXIT_OK = 0
EXIT_FINDINGS = 1
EXIT_ERROR = 2


def _env_default(option: str, fallback, cast: Callable = str):
    raw = os.environ.get(f"DASHMINE_{option.upper()}")
    if raw is None:
        return fallback
    return cast(raw)


def _fingerprint(config: dict[str, Any]) -> str:
    blob = json.dumps(config, sort_keys=True).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()[:12]


class _Outputs:
    """Tracks written files so a failing stage can clean up after itself."""

    def __init__(self):
        self.paths: list[Path] = []

    def write_text(self, path: Path, text: str) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")
        self.paths.append(path)

    def write_json(self, path: Path, doc: Any) -> None:
        self.write_text(path, json.dumps(doc, sort_keys=True, indent=2) + "\n")

    def remove_all(self) -> None:
        for path in self.paths:
            try:
                path.unlink()
            except OSError:
                pass


def _expand_inputs(patterns: Sequence[str], suffixes: tuple[str, ...]) -> list[Path]:
    paths: list[Path] = []
    for pattern in patterns:
        p = Path(pattern)
        if p.is_dir():
            for suffix in suffixes:
                paths.extend(sorted(p.glob(f"*{suffix}")))
        else:
            matches = sorted(glob.glob(pattern))
            if not matches and not p.exists():
                raise FileNotFoundError(f"no input matches {pattern!r}")
            paths.extend(Path(m) for m in matches or [pattern])
    return sorted(set(paths))


def _load_graph_docs(patterns: Sequence[str]) -> list[model.DashboardGraphs]:
    paths = _expand_inputs(patterns, suffixes=(".graph.json",))
    graph_paths = [p for p in paths if p.name.endswith(".graph.json")]
    if not graph_paths:
        raise FileNotFoundError("no *.graph.json inputs found")
    docs = [model.graphs_from_dict(json.loads(p.read_text())) for p in graph_paths]
    _check_ids([g.dashboard_id for g in docs])
    docs.sort(key=lambda g: g.dashboard_id)
    return docs


def _check_ids(ids: Sequence[str]) -> None:
    """Dashboard ids name per-dashboard files (``<id>.graph.json``,
    ``<id>.analysis.json``), so they must be unique and must not reach
    outside the output directory."""
    seen: set[str] = set()
    for dash_id in ids:
        if dash_id in seen:
            raise SchemaViolation(f"duplicate dashboard id across corpus: {dash_id}")
        if dash_id in ("", ".", "..") or "/" in dash_id or "\\" in dash_id:
            raise SchemaViolation(f"dashboard id is not safe as a file name: {dash_id!r}")
        seen.add(dash_id)


# --- stage implementations --------------------------------------------------


def _cmd_parse(args, out: _Outputs) -> int:
    fp = _fingerprint(
        {
            "stage": "parse",
            "format": args.format,
            "lenient": args.lenient,
            "min_charts": args.min_charts,
        }
    )
    paths = _expand_inputs(args.input, suffixes=(".xml", ".json"))

    dashboards: list[model.Dashboard] = []
    for path in paths:
        fmt = args.format
        if fmt == "auto":
            fmt = "json" if path.suffix == ".json" else "xml"
        workbook = ingest.parse_workbook(path.read_bytes(), format=fmt, strict=not args.lenient)
        for dashboard in workbook.dashboards:
            violations = model.validate(dashboard)
            if violations and not args.lenient:
                raise SchemaViolation(
                    "; ".join(violations), path=f"{path.name}:{dashboard.id}"
                )
        dashboards.extend(workbook.dashboards)
    _check_ids([d.id for d in dashboards])
    dashboards = ingest.filter_corpus(dashboards, min_charts=args.min_charts)

    lines = []
    for d in dashboards:
        doc = model.dashboard_to_dict(d)
        doc["_fingerprint"] = fp
        lines.append(json.dumps(doc, sort_keys=True))
    out.write_text(Path(args.out) / "dashboards.ndjson", "\n".join(lines) + ("\n" if lines else ""))
    print(f"parsed {len(paths)} document(s) -> {len(dashboards)} dashboard(s)")
    return EXIT_OK


def _cmd_graph(args, out: _Outputs) -> int:
    fp = _fingerprint({"stage": "graph", "tolerance": args.tolerance})
    tol = geometry.Tolerance(args.tolerance)
    source = Path(args.input)
    if source.is_dir():
        source = source / "dashboards.ndjson"
    dashboards = [
        model.dashboard_from_dict(json.loads(line))
        for line in source.read_text().splitlines()
        if line.strip()
    ]
    _check_ids([d.id for d in dashboards])
    for d in dashboards:
        doc = model.graphs_to_dict(geometry.build_graphs(d, tol))
        doc["_fingerprint"] = fp
        out.write_json(Path(args.out) / f"{d.id}.graph.json", doc)
    print(f"built graphs for {len(dashboards)} dashboard(s)")
    return EXIT_OK


def _cmd_analyze(args, out: _Outputs) -> int:
    fp = _fingerprint({"stage": "analyze"})
    docs = _load_graph_docs(args.input)

    for graphs in docs:
        doc = analysis.analyze_graphs(graphs)
        doc["_fingerprint"] = fp
        out.write_json(Path(args.out) / f"{graphs.dashboard_id}.analysis.json", doc)
    print(f"analyzed {len(docs)} dashboard(s)")
    return EXIT_OK


def _load_manifest(path: str | None) -> features.FeatureManifest:
    if path is None:
        return features.default_manifest()
    return features.FeatureManifest.from_dict(json.loads(Path(path).read_text()))


def _cmd_features(args, out: _Outputs) -> int:
    manifest = _load_manifest(args.manifest)
    fp = _fingerprint(
        {"stage": "features", "manifest": list(manifest.names), "version": manifest.version}
    )
    docs = _load_graph_docs(args.input)
    vectors = [features.extract_features(g, manifest) for g in docs]
    csv_text = features.matrix_to_csv(vectors, manifest, comment=f"config_fingerprint={fp}")
    out.write_text(Path(args.out) / "features.csv", csv_text)
    print(f"extracted {len(vectors)} feature vector(s) x {len(manifest.names)} column(s)")
    return EXIT_OK


def _cmd_fit_scaler(args, out: _Outputs) -> int:
    manifest, vectors = features.matrix_from_csv(Path(args.input).read_text())
    fp = _fingerprint({"stage": "fit-scaler", "manifest": list(manifest.names)})
    scaler = features.fit_scaler(vectors, manifest)
    doc = scaler.to_dict()
    doc["_fingerprint"] = fp
    out.write_json(Path(args.out) / "scaler.json", doc)
    print(f"fitted scaler on {len(vectors)} row(s)")
    return EXIT_OK


def _cmd_scale(args, out: _Outputs) -> int:
    fp = _fingerprint({"stage": "scale"})
    manifest, vectors = features.matrix_from_csv(Path(args.input).read_text())
    scaler = features.Scaler.from_dict(json.loads(Path(args.scaler).read_text()))
    if scaler.manifest.names != manifest.names:
        raise features.ManifestMismatch("scaler manifest does not match the feature CSV header")
    scaled = [features.apply_scaler(scaler, v) for v in vectors]
    csv_text = features.matrix_to_csv(scaled, manifest, comment=f"config_fingerprint={fp}")
    out.write_text(Path(args.out) / "features_scaled.csv", csv_text)
    print(f"scaled {len(scaled)} row(s)")
    return EXIT_OK


def _parse_sweep(spec: str) -> list[int]:
    if "=" in spec:
        key, _, spec = spec.partition("=")
        if key != "min_cluster_size":
            raise ValueError(f"unknown sweep parameter: {key!r}")
    bounds, _, step = spec.partition(":")
    lo, _, hi = bounds.partition("..")
    step_n = int(step) if step else 1
    return list(range(int(lo), int(hi) + 1, step_n))


def _cmd_cluster(args, out: _Outputs) -> int:
    manifest, vectors = features.matrix_from_csv(Path(args.input).read_text(), scaled=True)
    ids = [v.dashboard_id for v in vectors]
    matrix = [list(v.values) for v in vectors]

    if args.sweep:
        sizes = _parse_sweep(args.sweep)
        fp = _fingerprint({"stage": "cluster", "sweep": sizes, "min_samples": args.min_samples})
        rows = cluster.sweep_min_cluster_size(matrix, sizes, min_samples=args.min_samples)
        out.write_json(Path(args.out) / "sweep.json", {"_fingerprint": fp, "settings": rows})
        print(f"swept {len(sizes)} setting(s)")
        return EXIT_OK

    fp = _fingerprint(
        {
            "stage": "cluster",
            "min_cluster_size": args.min_cluster_size,
            "min_samples": args.min_samples,
        }
    )
    params = cluster.ClusterParams(
        min_cluster_size=args.min_cluster_size, min_samples=args.min_samples
    )
    result = cluster.hdbscan(matrix, params)

    buf = io.StringIO()
    buf.write(f"# config_fingerprint={fp}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(("dashboard_id", "label", "stability"))
    for dash_id, label in zip(ids, result.labels):
        stability = repr(result.stabilities[int(label)]) if label != cluster.NOISE else ""
        writer.writerow((dash_id, int(label), stability))
    out.write_text(Path(args.out) / "labels.csv", buf.getvalue())

    tree = cluster.export_dendrogram(result)
    tree["_fingerprint"] = fp
    out.write_json(Path(args.out) / "condensed_tree.json", tree)

    if result.n_clusters >= 2:
        scores = cluster.silhouette(matrix, result.labels)
        out.write_json(
            Path(args.out) / "silhouette.json",
            {
                "_fingerprint": fp,
                "overall": scores.overall,
                "per_cluster": {str(k): v for k, v in scores.per_cluster.items()},
            },
        )
    noise = int((result.labels == cluster.NOISE).sum())
    print(f"clustered {len(ids)} row(s): {result.n_clusters} cluster(s), {noise} noise")
    return EXIT_OK


def _cmd_report(args, out: _Outputs) -> int:
    fp = _fingerprint({"stage": "report"})
    docs = _load_graph_docs(args.input)
    summary = report.summarize_corpus(docs)
    doc = summary.to_dict()
    doc["_fingerprint"] = fp
    out.write_json(Path(args.out) / "summary.json", doc)

    if args.csv_tables:
        block_lines = [f"# config_fingerprint={fp}", "block_type,count,share"]
        for t, c in summary.block_counts.items():
            block_lines.append(f"{t},{c},{repr(summary.block_shares[t])}")
        out.write_text(Path(args.out) / "block_distribution.csv", "\n".join(block_lines) + "\n")

        clique_lines = [f"# config_fingerprint={fp}", "pattern,count"]
        for pattern, count in summary.clique_patterns.items():
            clique_lines.append(f"{pattern},{count}")
        out.write_text(Path(args.out) / "clique_patterns.csv", "\n".join(clique_lines) + "\n")

        edge_lines = [f"# config_fingerprint={fp}", "edge_class,share_of_interactive"]
        for cls, share in summary.edge_class_presence_shares.items():
            edge_lines.append(f"{cls},{repr(share)}")
        out.write_text(Path(args.out) / "edge_class_shares.csv", "\n".join(edge_lines) + "\n")

    print(f"summarized {summary.n_dashboards} dashboard(s)")
    return EXIT_OK


def _cmd_lint(args, out: _Outputs) -> int:
    docs = _load_graph_docs(args.input)
    findings = report.lint_corpus(docs)
    lines = [json.dumps(f.to_dict(), sort_keys=True) for f in findings]
    for line in lines:
        print(line)
    if args.out:
        out.write_text(Path(args.out) / "findings.ndjson", "\n".join(lines) + ("\n" if lines else ""))
    if any(f.severity == "warning" for f in findings):
        return EXIT_FINDINGS
    return EXIT_OK


# --- argument parsing ---------------------------------------------------------


def _add_common(sub: argparse.ArgumentParser, jobs: bool = True) -> None:
    sub.add_argument(
        "--out",
        default=_env_default("OUT", "."),
        help="output directory (default: current directory)",
    )
    if jobs:
        sub.add_argument(
            "--jobs",
            type=int,
            default=1,
            help="accepted for compatibility; has no effect, every stage runs serially",
        )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dashmine",
        description="Convert dashboard documents to block/connection graphs and mine design patterns.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("parse", help="parse workbook XML / canonical JSON into dashboards.ndjson")
    p.add_argument("--input", nargs="+", required=True, help="files, globs or directories")
    p.add_argument(
        "--format",
        choices=("auto", "xml", "json"),
        default=_env_default("FORMAT", "auto"),
        help="input grammar; auto selects by file extension",
    )
    p.add_argument("--lenient", action="store_true", help="downgrade unknown zone kinds instead of failing")
    p.add_argument(
        "--min-charts",
        type=int,
        default=_env_default("MIN_CHARTS", 2, int),
        help="keep dashboards with at least this many charts (default 2)",
    )
    _add_common(p)
    p.set_defaults(func=_cmd_parse)

    p = sub.add_parser("graph", help="build adjacency + interaction graphs per dashboard")
    p.add_argument("--input", required=True, help="dashboards.ndjson (or its directory)")
    p.add_argument(
        "--tolerance",
        type=int,
        default=_env_default("TOLERANCE", geometry.DEFAULT_TOLERANCE_PX, int),
        help="adjoining gap tolerance in pixels (default 10)",
    )
    _add_common(p)
    p.set_defaults(func=_cmd_graph)

    p = sub.add_parser("analyze", help="per-dashboard cliques, paths and degree stats")
    p.add_argument("--input", nargs="+", required=True, help="graph files, globs or directory")
    _add_common(p)
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("features", help="extract the raw feature matrix CSV")
    p.add_argument("--input", nargs="+", required=True, help="graph files, globs or directory")
    p.add_argument("--manifest", help="feature manifest JSON (default: built-in 19 features)")
    _add_common(p)
    p.set_defaults(func=_cmd_features)

    p = sub.add_parser("fit-scaler", help="fit the standard scaler on a feature CSV")
    p.add_argument("--input", required=True, help="features.csv")
    _add_common(p, jobs=False)
    p.set_defaults(func=_cmd_fit_scaler)

    p = sub.add_parser("scale", help="apply a fitted scaler to a feature CSV")
    p.add_argument("--input", required=True, help="features.csv")
    p.add_argument("--scaler", required=True, help="scaler.json")
    _add_common(p, jobs=False)
    p.set_defaults(func=_cmd_scale)

    p = sub.add_parser("cluster", help="density-based clustering of the scaled matrix")
    p.add_argument("--input", required=True, help="features_scaled.csv")
    p.add_argument(
        "--min-cluster-size",
        type=int,
        default=_env_default("MIN_CLUSTER_SIZE", 250, int),
        help="smallest retainable cluster (default 250)",
    )
    p.add_argument(
        "--min-samples",
        type=int,
        default=None,
        help="neighborhood size for core distances (default: min-cluster-size)",
    )
    p.add_argument(
        "--sweep",
        help="grid sweep instead of one run, e.g. min_cluster_size=5..50:5",
    )
    _add_common(p, jobs=False)
    p.set_defaults(func=_cmd_cluster)

    p = sub.add_parser("report", help="corpus summary statistics")
    p.add_argument("--input", nargs="+", required=True, help="graph files, globs or directory")
    p.add_argument("--csv-tables", action="store_true", help="also write CSV tables")
    _add_common(p, jobs=False)
    p.set_defaults(func=_cmd_report)

    p = sub.add_parser("lint", help="graph-structure lint findings (ndjson on stdout)")
    p.add_argument("--input", nargs="+", required=True, help="graph files, globs or directory")
    p.add_argument("--out", default=None, help="directory to also write findings.ndjson into")
    p.set_defaults(func=_cmd_lint)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    out = _Outputs()
    try:
        return args.func(args, out)
    except (DashmineError, OSError, ValueError, KeyError, json.JSONDecodeError) as exc:
        out.remove_all()
        error = {
            "error": type(exc).__name__,
            "message": str(exc),
            "stage": args.command,
        }
        print(json.dumps(error, sort_keys=True), file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
