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

Every stage runs serially in one process.  Every artifact but lint's
``findings.ndjson`` embeds the fingerprint of the semantic configuration
that produced it (:class:`_Outputs`), so a pipeline rerun with the same
inputs is byte-identical.  Dashboard ids name per-dashboard files, so
every stage that reads dashboards or graph files rejects ids that are
repeated or not safe as file names.  Artifacts are written atomically
(temp file, then rename).  Failures print a machine-readable JSON error
on stderr, remove the stage's earlier outputs and exit with status 2.
An input that fails to decode (:func:`_reading`) fails so with a message
that starts with its file name (``file:line`` for a ``dashboards.ndjson``
line); a feature-CSV cell that is not a number is a ``SchemaViolation``,
and ``cluster`` rejects values spread so far that a distance could
overflow (``NonFiniteInput``).  The defaults of ``--out``, ``--format``,
``--min-charts``, ``--tolerance`` and ``--min-cluster-size`` can be
overridden with a ``DASHMINE_<OPTION>`` environment variable (e.g.
``DASHMINE_TOLERANCE``).
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import glob
import hashlib
import io
import json
import os
import sys
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, Sequence

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


def _ndjson(docs: Iterable[dict[str, Any]]) -> str:
    return "".join(json.dumps(doc, sort_keys=True) + "\n" for doc in docs)


def _csv(rows: Iterable[Sequence[Any]]) -> str:
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    return buf.getvalue()


class _Outputs(contextlib.AbstractContextManager):
    """Writes one stage's artifacts into ``directory``, stamped with its
    ``fingerprint``: a ``_fingerprint`` key in each JSON document and NDJSON
    line, a leading ``# config_fingerprint=`` line in each CSV (lint writes
    unstamped text).  Leaving by an exception removes what it wrote."""

    def __init__(self, directory: str, fingerprint: str | None):
        self.directory = Path(directory)
        self.fingerprint = fingerprint
        self.paths: list[Path] = []

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is not None:
            for path in self.paths:
                with contextlib.suppress(OSError):
                    path.unlink()

    def write_text(self, name: str, text: str) -> None:
        """Write through a temp file in the same directory, then rename it
        into place, so a failed write never leaves a partial artifact."""
        path = self.directory / name
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
        try:
            tmp.write_text(text, encoding="utf-8")
            os.replace(tmp, path)
        except BaseException:
            tmp.unlink(missing_ok=True)
            raise
        self.paths.append(path)

    def write_json(self, name: str, doc: dict[str, Any]) -> None:
        stamped = doc | {"_fingerprint": self.fingerprint}
        self.write_text(name, json.dumps(stamped, sort_keys=True, indent=2) + "\n")

    def write_ndjson(self, name: str, docs: Iterable[dict[str, Any]]) -> None:
        self.write_text(name, _ndjson(doc | {"_fingerprint": self.fingerprint} for doc in docs))

    def write_csv(self, name: str, text: str) -> None:
        self.write_text(name, f"# config_fingerprint={self.fingerprint}\n{text}")


@contextlib.contextmanager
def _reading(where: str) -> Iterator[None]:
    """Decode the input ``where`` (a file name, or ``file:line``) inside.

    The package's own errors keep their type, line and column and gain
    ``where`` at the front of their message; a missing key, a value of
    the wrong type or range, or nesting too deep becomes a
    :class:`SchemaViolation` naming ``where``.  Wrap reading and decoding
    only, never a computation, so a program bug never reads as bad input.
    """
    try:
        yield
    except DashmineError as exc:
        exc.args = (f"{where}: {exc}",)
        if isinstance(exc, SchemaViolation):
            exc.path = f"{where}: {exc.path}" if exc.path else where
        raise
    except KeyError as exc:
        raise SchemaViolation(f"missing key {exc}", path=where) from exc
    except (AttributeError, TypeError, ValueError, OverflowError, RecursionError) as exc:
        raise SchemaViolation(f"{type(exc).__name__}: {exc}", path=where) from exc


def _from_json(text: str, from_dict: Callable[[dict], Any]) -> Any:
    """``from_dict`` of a JSON object; runs inside :func:`_reading`."""
    obj = json.loads(text)
    if not isinstance(obj, dict):
        raise SchemaViolation(f"document is a JSON {type(obj).__name__}, not an object")
    return from_dict(obj)


def _read(path: Path, decode: Callable[..., Any], *args: Any) -> Any:
    """``decode(text, *args)`` of the file ``path``, inside :func:`_reading`."""
    with _reading(path.name):
        return decode(path.read_text(), *args)


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
    docs = [_read(p, _from_json, model.graphs_from_dict) for p in graph_paths]
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


def _cmd_parse(args) -> int:
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
        with _reading(path.name):
            dashboards.extend(ingest.parse_workbook(path.read_bytes(), format=fmt, strict=not args.lenient))
    _check_ids([d.id for d in dashboards])
    dashboards = ingest.filter_corpus(dashboards, min_charts=args.min_charts)

    with _Outputs(args.out, fp) as out:
        out.write_ndjson("dashboards.ndjson", map(model.dashboard_to_dict, dashboards))
    print(f"parsed {len(paths)} document(s) -> {len(dashboards)} dashboard(s)")
    return EXIT_OK


def _cmd_graph(args) -> int:
    fp = _fingerprint({"stage": "graph", "tolerance": args.tolerance})
    tol = geometry.Tolerance(args.tolerance)
    source = Path(args.input)
    if source.is_dir():
        source = source / "dashboards.ndjson"
    dashboards = []
    for number, line in enumerate(_read(source, str.splitlines), start=1):
        if line.strip():
            with _reading(f"{source.name}:{number}"):
                dashboards.append(_from_json(line, model.dashboard_from_dict))
    _check_ids([d.id for d in dashboards])
    with _Outputs(args.out, fp) as out:
        for d in dashboards:
            out.write_json(f"{d.id}.graph.json", model.graphs_to_dict(geometry.build_graphs(d, tol)))
    print(f"built graphs for {len(dashboards)} dashboard(s)")
    return EXIT_OK


def _cmd_analyze(args) -> int:
    fp = _fingerprint({"stage": "analyze"})
    docs = _load_graph_docs(args.input)

    with _Outputs(args.out, fp) as out:
        for graphs in docs:
            out.write_json(f"{graphs.dashboard_id}.analysis.json", analysis.analyze_graphs(graphs))
    print(f"analyzed {len(docs)} dashboard(s)")
    return EXIT_OK


def _cmd_features(args) -> int:
    manifest = features.default_manifest()
    if args.manifest is not None:
        manifest = _read(Path(args.manifest), _from_json, features.FeatureManifest.from_dict)
    fp = _fingerprint(
        {"stage": "features", "manifest": list(manifest.names), "version": manifest.version}
    )
    docs = _load_graph_docs(args.input)
    vectors = [features.extract_features(g, manifest) for g in docs]
    with _Outputs(args.out, fp) as out:
        out.write_csv("features.csv", features.matrix_to_csv(vectors, manifest))
    print(f"extracted {len(vectors)} feature vector(s) x {len(manifest.names)} column(s)")
    return EXIT_OK


def _cmd_fit_scaler(args) -> int:
    manifest, vectors = _read(Path(args.input), features.matrix_from_csv)
    fp = _fingerprint({"stage": "fit-scaler", "manifest": list(manifest.names)})
    scaler = features.fit_scaler(vectors, manifest)
    with _Outputs(args.out, fp) as out:
        out.write_json("scaler.json", scaler.to_dict())
    print(f"fitted scaler on {len(vectors)} row(s)")
    return EXIT_OK


def _cmd_scale(args) -> int:
    fp = _fingerprint({"stage": "scale"})
    manifest, vectors = _read(Path(args.input), features.matrix_from_csv)
    scaler = _read(Path(args.scaler), _from_json, features.Scaler.from_dict)
    if scaler.manifest.names != manifest.names:
        raise features.ManifestMismatch("scaler manifest does not match the feature CSV header")
    scaled = [features.apply_scaler(scaler, v) for v in vectors]
    with _Outputs(args.out, fp) as out:
        out.write_csv("features_scaled.csv", features.matrix_to_csv(scaled, manifest))
    print(f"scaled {len(scaled)} row(s)")
    return EXIT_OK


def _parse_sweep(spec: str) -> list[int]:
    """``[min_cluster_size=]LO..HI[:STEP]`` -> the sizes LO, LO+STEP, ... <= HI."""
    grid = spec
    if "=" in grid:
        key, _, grid = grid.partition("=")
        if key != "min_cluster_size":
            raise ValueError(f"unknown sweep parameter: {key!r}")
    bounds, _, step = grid.partition(":")
    lo, _, hi = bounds.partition("..")
    step_n = int(step) if step else 1
    if step_n <= 0:
        raise ValueError(f"sweep step must be positive: {spec!r}")
    sizes = list(range(int(lo), int(hi) + 1, step_n))
    if not sizes:
        raise ValueError(f"sweep range is empty: {spec!r}")
    return sizes


def _cmd_cluster(args) -> int:
    manifest, vectors = _read(Path(args.input), features.matrix_from_csv)
    ids = [v.dashboard_id for v in vectors]
    matrix = [list(v.values) for v in vectors]

    if args.sweep:
        sizes = _parse_sweep(args.sweep)
        fp = _fingerprint({"stage": "cluster", "sweep": sizes, "min_samples": args.min_samples})
        rows = cluster.sweep_min_cluster_size(matrix, sizes, min_samples=args.min_samples)
        with _Outputs(args.out, fp) as out:
            out.write_json("sweep.json", {"settings": rows})
        print(f"swept {len(sizes)} setting(s)")
        return EXIT_OK

    params = {"min_cluster_size": args.min_cluster_size, "min_samples": args.min_samples}
    fp = _fingerprint({"stage": "cluster", **params})
    result = cluster.hdbscan(matrix, cluster.ClusterParams(**params))

    with _Outputs(args.out, fp) as out:
        labels = [("dashboard_id", "label", "stability")]
        for dash_id, label in zip(ids, result.labels):
            stability = repr(result.stabilities[int(label)]) if label != cluster.NOISE else ""
            labels.append((dash_id, int(label), stability))
        out.write_csv("labels.csv", _csv(labels))
        out.write_json("condensed_tree.json", cluster.export_dendrogram(result))

        if result.n_clusters >= 2:
            scores = cluster.silhouette(matrix, result.labels)
            per_cluster = {str(k): v for k, v in scores.per_cluster.items()}
            out.write_json("silhouette.json", {"overall": scores.overall, "per_cluster": per_cluster})
    noise = int((result.labels == cluster.NOISE).sum())
    print(f"clustered {len(ids)} row(s): {result.n_clusters} cluster(s), {noise} noise")
    return EXIT_OK


def _cmd_report(args) -> int:
    fp = _fingerprint({"stage": "report"})
    summary = report.summarize_corpus(_load_graph_docs(args.input))
    with _Outputs(args.out, fp) as out:
        out.write_json("summary.json", summary)
        if args.csv_tables:
            blocks = [(t, c, repr(summary["block_shares"][t])) for t, c in summary["block_counts"].items()]
            out.write_csv("block_distribution.csv", _csv([("block_type", "count", "share"), *blocks]))
            cliques = summary["clique_patterns"].items()
            out.write_csv("clique_patterns.csv", _csv([("pattern", "count"), *cliques]))
            edges = [(cls, repr(share)) for cls, share in summary["edge_class_presence_shares"].items()]
            out.write_csv("edge_class_shares.csv", _csv([("edge_class", "share_of_interactive"), *edges]))
    print(f"summarized {summary['n_dashboards']} dashboard(s)")
    return EXIT_OK


def _cmd_lint(args) -> int:
    findings = report.lint_corpus(_load_graph_docs(args.input))
    text = _ndjson(f.to_dict() for f in findings)
    print(text, end="")
    if args.out:
        with _Outputs(args.out, fingerprint=None) as out:
            out.write_text("findings.ndjson", text)
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
        description="Convert dashboard documents to block/edge graphs and mine design patterns.",
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
    try:
        return args.func(args)
    except (DashmineError, OSError, ValueError, KeyError, TypeError, AttributeError) as exc:
        error = {
            "error": type(exc).__name__,
            "message": str(exc),
            "stage": args.command,
        }
        print(json.dumps(error, sort_keys=True), file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
