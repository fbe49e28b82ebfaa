"""Per-dashboard feature vectors and the corpus-level standard scaler.

The default manifest derives 19 features from the two graphs: one count
or mean per structural quantity, read from the structure record of
:func:`dashmine.analysis.analyze_graphs`, plus 0/1 presence flags for
block types and interaction edge classes.  Manifests are first-class,
versioned artifacts: any subset or reordering of the registered feature
names (including the complementary ``no_*`` absence flags) can be
configured without code changes.

Count-like columns are standard-scaled to zero mean and unit variance
(population standard deviation); presence flags pass through untouched.
"""

from __future__ import annotations

import csv
import io
import itertools
import math
from dataclasses import dataclass
from typing import Any, Mapping, Sequence

import numpy as np

# average_shortest_path and maximal_cliques are not called here, but
# bench/spans.py wraps them by the names features.average_shortest_path
# and features.maximal_cliques, and every traced run fails if either
# name is missing.
from .analysis import analyze_graphs, average_shortest_path, maximal_cliques  # noqa: F401
from .errors import EmptyCorpus, ManifestMismatch, NonFiniteInput
from .model import BlockType, DashboardGraphs, EdgeClass

_BLOCK_FLAGS = {
    "chart": BlockType.CHART,
    "text": BlockType.TEXT,
    "filter": BlockType.FILTER,
    "legend": BlockType.LEGEND,
    "multimedia": BlockType.MULTIMEDIA,
}

_EDGE_FLAGS = {
    "filter_chart_edge": EdgeClass.FILTER_TO_CHART,
    "legend_chart_edge": EdgeClass.LEGEND_TO_CHART,
    "chart_chart_edge": EdgeClass.CHART_TO_CHART,
}


def _build_feature_table(graphs: DashboardGraphs) -> dict[str, float]:
    record = analyze_graphs(graphs)
    adj = record["adjacency"]
    inter = record["interaction"]
    present_types = {b.block_type for b in graphs.nodes}
    present_classes = {e.edge_class for e in graphs.interaction_edges}
    # Clique features consider groups of two or more blocks; a dashboard
    # whose adjacency graph has no edges has no cliques in this sense.
    n_cliques = adj["n_maximal_cliques_min2"]

    table: dict[str, float] = {
        "n_blocks": float(adj["n_nodes"]),
        "adj_n_edges": float(adj["n_edges"]),
        "adj_mean_degree": adj["mean_degree"],
        "int_n_edges": float(inter["n_edges"]),
        "int_mean_degree": inter["mean_degree"],
        "int_mean_in_degree": inter["mean_in_degree"],
        "int_mean_out_degree": inter["mean_out_degree"],
        "adj_mean_shortest_path": adj["mean_shortest_path"],
        "adj_has_cliques": 1.0 if n_cliques else 0.0,
        "adj_n_maximal_cliques": float(n_cliques),
        "adj_mean_clique_size": adj["mean_clique_size_min2"],
    }
    for name, block_type in _BLOCK_FLAGS.items():
        flag = 1.0 if block_type in present_types else 0.0
        table[f"has_{name}"] = flag
        table[f"no_{name}"] = 1.0 - flag
    for name, edge_class in _EDGE_FLAGS.items():
        flag = 1.0 if edge_class in present_classes else 0.0
        table[f"has_{name}"] = flag
        table[f"no_{name}"] = 1.0 - flag
    return table


# Every feature name the extractor can produce; the no_* columns allow
# two-column one-hot manifests.
FEATURE_NAMES: tuple[str, ...] = tuple(
    _build_feature_table(DashboardGraphs(dashboard_id="", nodes=())).keys()
)

DEFAULT_FEATURES: tuple[str, ...] = (
    "n_blocks",
    "has_chart",
    "has_text",
    "has_filter",
    "has_legend",
    "has_multimedia",
    "adj_n_edges",
    "adj_mean_degree",
    "int_n_edges",
    "int_mean_degree",
    "int_mean_in_degree",
    "int_mean_out_degree",
    "has_filter_chart_edge",
    "has_legend_chart_edge",
    "has_chart_chart_edge",
    "adj_mean_shortest_path",
    "adj_has_cliques",
    "adj_n_maximal_cliques",
    "adj_mean_clique_size",
)


def _is_flag(name: str) -> bool:
    return name.startswith(("has_", "no_")) or name == "adj_has_cliques"


@dataclass(frozen=True)
class FeatureManifest:
    """Ordered, named feature columns; flags are exempt from scaling."""

    names: tuple[str, ...]
    version: str = "1"

    def __post_init__(self):
        if len(set(self.names)) != len(self.names):
            raise ValueError("manifest names must be unique")
        unknown = [n for n in self.names if n not in FEATURE_NAMES]
        if unknown:
            raise ValueError(f"unknown feature names: {unknown}")

    @property
    def flags(self) -> tuple[bool, ...]:
        return tuple(_is_flag(n) for n in self.names)

    def to_dict(self) -> dict[str, Any]:
        return {"version": self.version, "names": list(self.names)}

    @classmethod
    def from_dict(cls, obj: Mapping[str, Any]) -> "FeatureManifest":
        return cls(names=tuple(obj["names"]), version=str(obj.get("version", "1")))


def default_manifest() -> FeatureManifest:
    return FeatureManifest(names=DEFAULT_FEATURES)


@dataclass(frozen=True)
class FeatureVector:
    dashboard_id: str
    values: tuple[float, ...]


def extract_features(
    graphs: DashboardGraphs, manifest: FeatureManifest | None = None
) -> FeatureVector:
    """Raw feature vector of one dashboard, ordered per the manifest."""
    manifest = manifest or default_manifest()
    table = _build_feature_table(graphs)
    return FeatureVector(
        dashboard_id=graphs.dashboard_id,
        values=tuple(table[name] for name in manifest.names),
    )


@dataclass(frozen=True)
class Scaler:
    """Column-wise standard scaler fitted on a corpus.

    Flag columns pass through; constant count columns are flagged and
    scaled with a substitute std of 1, mapping them to all-zeros.

    Construction checks one ``mean``, ``std`` and ``constant`` value per
    manifest column (:class:`ManifestMismatch`), then that each mean and
    std is finite (:class:`NonFiniteInput`) and each std positive
    (``ValueError``), naming the column; so every scaler can be applied.
    """

    manifest: FeatureManifest
    mean: tuple[float, ...]
    std: tuple[float, ...]
    constant: tuple[bool, ...]

    def __post_init__(self):
        for key in ("mean", "std", "constant"):
            if len(getattr(self, key)) != len(self.manifest.names):
                raise ManifestMismatch(f"scaler {key} does not hold one value per manifest column")
        for name, mu, sigma in zip(self.manifest.names, self.mean, self.std):
            for key, value in (("mean", mu), ("std", sigma)):
                if not math.isfinite(value):
                    raise NonFiniteInput(f"scaler {key} of column {name!r} is not a finite number")
            if sigma <= 0:
                raise ValueError(f"scaler std of column {name!r} is {sigma!r}, not positive")

    def to_dict(self) -> dict[str, Any]:
        return {
            "manifest": list(self.manifest.names),
            "manifest_version": self.manifest.version,
            "flags": [bool(f) for f in self.manifest.flags],
            "mean": list(self.mean),
            "std": list(self.std),
            "constant": list(self.constant),
        }

    @classmethod
    def from_dict(cls, obj: Mapping[str, Any]) -> "Scaler":
        manifest = FeatureManifest(
            names=tuple(obj["manifest"]), version=str(obj.get("manifest_version", "1"))
        )
        mean = tuple(float(x) for x in obj["mean"])
        std = tuple(float(x) for x in obj["std"])
        return cls(
            manifest=manifest, mean=mean, std=std, constant=tuple(bool(x) for x in obj["constant"])
        )


def fit_scaler(
    vectors: Sequence[FeatureVector], manifest: FeatureManifest | None = None
) -> Scaler:
    """Fit per-column population mean/std on raw vectors.

    Two-pass computation in a fixed order, so the fit is reproducible
    bit-for-bit regardless of how the corpus was assembled.  Flag
    columns are stored as mean 0 and std 1.  A count column whose mean
    or spread overflows fails :class:`Scaler`'s own check, as
    :class:`NonFiniteInput` naming the column.
    """
    manifest = manifest or default_manifest()
    if len(vectors) < 2:
        raise EmptyCorpus("scaler needs at least 2 feature vectors")
    width = len(manifest.names)
    for v in vectors:
        if len(v.values) != width:
            raise ManifestMismatch(
                f"vector for {v.dashboard_id} has {len(v.values)} values, manifest has {width}"
            )
    matrix = np.array([v.values for v in vectors], dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        mean = matrix.mean(axis=0)
        std = matrix.std(axis=0)  # population
    flags = np.array(manifest.flags)
    constant = (std == 0.0) & ~flags
    mean = np.where(flags, 0.0, mean)
    std = np.where(flags | constant, 1.0, std)
    return Scaler(
        manifest=manifest,
        mean=tuple(float(x) for x in mean),
        std=tuple(float(x) for x in std),
        constant=tuple(bool(x) for x in constant),
    )


def apply_scaler(scaler: Scaler, vector: FeatureVector) -> FeatureVector:
    """Scale count columns to (x - mean) / std; flags pass through.

    A result that is not finite, such as a finite value near 1e308 whose
    difference or quotient overflows, raises :class:`NonFiniteInput`
    naming the row and column.
    """
    if len(vector.values) != len(scaler.manifest.names):
        raise ManifestMismatch(
            f"vector for {vector.dashboard_id} does not match the scaler manifest"
        )
    flags = scaler.manifest.flags
    values = tuple(
        x if flag else (x - mu) / sigma
        for x, mu, sigma, flag in zip(vector.values, scaler.mean, scaler.std, flags)
    )
    if not all(map(math.isfinite, values)):
        column = next(name for name, y in zip(scaler.manifest.names, values) if not math.isfinite(y))
        raise NonFiniteInput(
            f"scaled row {vector.dashboard_id!r}, column {column!r} is not a finite number"
        )
    return FeatureVector(dashboard_id=vector.dashboard_id, values=values)


def invert_scaler(scaler: Scaler, vector: FeatureVector) -> FeatureVector:
    """Undo :func:`apply_scaler` (constant columns recover their mean)."""
    flags = scaler.manifest.flags
    values = tuple(
        y if flag else y * sigma + mu
        for y, mu, sigma, flag in zip(vector.values, scaler.mean, scaler.std, flags)
    )
    return FeatureVector(dashboard_id=vector.dashboard_id, values=values)


# --- CSV interchange --------------------------------------------------------


def matrix_to_csv(
    vectors: Sequence[FeatureVector],
    manifest: FeatureManifest | None = None,
    comment: str | None = None,
) -> str:
    """Feature matrix CSV: header ``dashboard_id,<names...>``, one row per
    dashboard, floats in shortest round-trip decimal form."""
    manifest = manifest or default_manifest()
    buf = io.StringIO()
    if comment:
        buf.write(f"# {comment}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(("dashboard_id",) + manifest.names)
    for v in vectors:
        if len(v.values) != len(manifest.names):
            raise ManifestMismatch(f"vector for {v.dashboard_id} does not match the manifest")
        writer.writerow([v.dashboard_id] + [repr(x) for x in v.values])
    return buf.getvalue()


def matrix_from_csv(text: str) -> tuple[FeatureManifest, list[FeatureVector]]:
    """Parse a feature matrix CSV (leading ``#`` comment lines allowed).

    Only the lines before the header are comments; a later row whose
    dashboard id starts with ``#`` is data.  A row with more or fewer
    cells than the header raises :class:`ManifestMismatch` naming the
    row; a cell that is not a number raises ``ValueError`` and a NaN or
    infinite value :class:`NonFiniteInput`, each naming row and column.
    """
    reader = csv.reader(itertools.dropwhile(lambda line: line.startswith("#"), text.splitlines()))
    try:
        header = next(reader)
    except StopIteration:
        raise EmptyCorpus("feature CSV has no header") from None
    if not header or header[0] != "dashboard_id":
        raise ValueError("feature CSV must start with a dashboard_id column")
    manifest = FeatureManifest(names=tuple(header[1:]))
    vectors = []
    for row in reader:
        if not row:
            continue
        if len(row) != len(header):
            raise ManifestMismatch(
                f"feature CSV row {row[0]!r} has {len(row) - 1} values, header has {len(header) - 1}"
            )
        try:
            values = tuple(map(float, row[1:]))
        except ValueError:
            for column, cell in zip(header[1:], row[1:]):
                try:
                    float(cell)
                except ValueError:
                    raise ValueError(
                        f"feature CSV row {row[0]!r}, column {column!r} is not a number: {cell!r}"
                    ) from None
        if not all(map(math.isfinite, values)):
            column = next(name for name, x in zip(header[1:], values) if not math.isfinite(x))
            raise NonFiniteInput(
                f"feature CSV row {row[0]!r}, column {column!r} is not a finite number"
            )
        vectors.append(FeatureVector(dashboard_id=row[0], values=values))
    return manifest, vectors
