"""Schematic representation of dashboard designs.

A dashboard is modeled as a set of *blocks* (its visual elements) plus
two kinds of pairwise edge between blocks: an :class:`AdjacencyEdge` is
spatial (partial overlap, containment, adjoining) and an
:class:`InteractionEdge` is behavioral (a filter, legend or chart
driving a chart).  The two derived graphs over the same node set -- an
undirected adjacency graph and a directed interaction graph -- are
bundled in :class:`DashboardGraphs`, whose nodes are :class:`GraphNode`
records: a block's id, type and, for a chart, its visualization type,
which is all a graph document keeps.

All types are immutable value objects, and the two records that cross
stage boundaries are valid by construction: a :class:`Dashboard` checks
the rules of :func:`validate`, and a :class:`DashboardGraphs` checks its
nodes and edges, each raising :class:`SchemaViolation` naming the
dashboard.  So a dashboard or graph pair that exists is well-formed,
whether it came from a document, a graph file or library code.

:func:`from_json` is the one JSON decoder: every JSON input (a dashboard
document, a ``dashboards.ndjson`` line, a graph file, a feature manifest,
a scaler) goes through it, so each fails with the same error types and
messages.  Its from-dict half, like the workbook XML reader's, runs
inside :func:`decoding`, the one rule that turns a missing key or a bad
value into a :class:`SchemaViolation`.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
from dataclasses import dataclass
from enum import Enum
from typing import Any, Callable, Iterable, Iterator, Mapping, Union

from .errors import MalformedDocument, SchemaViolation


class BlockType(str, Enum):
    """The five kinds of visual element a dashboard block can be."""

    CHART = "chart"
    TEXT = "text"
    FILTER = "filter"
    LEGEND = "legend"
    MULTIMEDIA = "multimedia"


class WidgetType(str, Enum):
    DROPDOWN = "dropdown"
    SLIDER = "slider"
    LIST = "list"
    OTHER = "other"


class MultimediaKind(str, Enum):
    # Besides a document that declares it, only lenient ingestion of an
    # unknown zone kind produces "other".
    IMAGE = "image"
    WEBPAGE = "webpage"
    OTHER = "other"


@dataclass(frozen=True)
class ChartProps:
    # See infer_vis_type for the canonical names; any other is kept verbatim.
    vis_type: str
    marks: tuple[str, ...] = ()
    encodings: tuple[tuple[str, str], ...] = ()
    # Unrecognized type-specific parameters ride along untouched.
    extra: dict = dataclasses.field(default_factory=dict)


@dataclass(frozen=True, eq=True)
class TextProps:
    content: str = ""
    # Open key->value map: formatting parameters are tool-specific.
    # Stored sorted by key so equal maps compare equal.
    formatting: tuple[tuple[str, str], ...] = ()
    extra: dict = dataclasses.field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "formatting", tuple(sorted(self.formatting)))


@dataclass(frozen=True)
class FilterProps:
    widget: WidgetType = WidgetType.OTHER
    field: str = ""
    extra: dict = dataclasses.field(default_factory=dict)


@dataclass(frozen=True)
class LegendProps:
    channel: str = "color"
    extra: dict = dataclasses.field(default_factory=dict)


@dataclass(frozen=True)
class MultimediaProps:
    kind: MultimediaKind = MultimediaKind.IMAGE
    extra: dict = dataclasses.field(default_factory=dict)


DescriptiveProps = Union[ChartProps, TextProps, FilterProps, LegendProps, MultimediaProps]

_PROPS_FOR_TYPE: dict[BlockType, type] = {
    BlockType.CHART: ChartProps,
    BlockType.TEXT: TextProps,
    BlockType.FILTER: FilterProps,
    BlockType.LEGEND: LegendProps,
    BlockType.MULTIMEDIA: MultimediaProps,
}


@dataclass(frozen=True)
class Block:
    """One visual element of a dashboard.

    Coordinates are integer pixels in a top-left-origin system; ``w`` and
    ``h`` must be positive (a dashboard holding a zero-area block fails
    :func:`validate`'s rules; sizes are never clamped).
    """

    id: str
    block_type: BlockType
    x: int
    y: int
    w: int
    h: int
    props: DescriptiveProps


class AdjacencyConfig(str, Enum):
    """How two blocks relate spatially (see the geometry module)."""

    PARTIAL_OVERLAP = "partial_overlap"
    CONTAINMENT = "containment"
    ADJOINING = "adjoining"


class EdgeClass(str, Enum):
    """The three supported interaction edge shapes; all target a chart."""

    FILTER_TO_CHART = "filter_chart"
    LEGEND_TO_CHART = "legend_chart"
    CHART_TO_CHART = "chart_chart"


@dataclass(frozen=True)
class AdjacencyEdge:
    """An undirected spatial edge, stored canonically with ``source < target``."""

    source: str
    target: str
    config: AdjacencyConfig


@dataclass(frozen=True)
class InteractionEdge:
    """A directed interaction edge with its declared type and edge class."""

    source: str
    target: str
    itype: str
    edge_class: EdgeClass


@dataclass(frozen=True)
class ActionRecord:
    """A raw interactivity declaration: source and target block ids plus
    the declared interaction type, exactly as ingested."""

    source: str
    target: str
    action_type: str


@dataclass(frozen=True)
class Dashboard:
    """Blocks and raw action records; construction enforces :func:`validate`."""

    id: str
    blocks: tuple[Block, ...] = ()
    declared_interactions: tuple[ActionRecord, ...] = ()
    width: int | None = None
    height: int | None = None

    def __post_init__(self):
        if violations := validate(self):
            raise SchemaViolation("; ".join(violations), path=f"dashboard {self.id!r}")

    def blocks_by_id(self) -> dict[str, Block]:
        return {b.id: b for b in self.blocks}


@dataclass(frozen=True)
class GraphNode:
    """A block as a graph node: ``vis_type`` is set for charts, else None."""

    id: str
    block_type: BlockType
    vis_type: str | None


@dataclass(frozen=True)
class DashboardGraphs:
    """The paired adjacency and interaction graphs of one dashboard.

    Both graphs share the identical node set (``nodes``); only the edge
    lists differ.  Construction raises :class:`SchemaViolation` naming the
    dashboard for a repeated node id, and naming the edge for an edge
    whose endpoint is not a node, a self-loop, a repeated (source,
    target) pair within either list, an adjacency edge not stored as
    ``source < target``, or an interaction edge whose ``edge_class`` is
    not :func:`classify_interaction` of its endpoints' types.
    """

    dashboard_id: str
    nodes: tuple[GraphNode, ...]
    adjacency_edges: tuple[AdjacencyEdge, ...] = ()
    interaction_edges: tuple[InteractionEdge, ...] = ()

    def __post_init__(self):
        where = f"dashboard {self.dashboard_id!r}"
        types: dict[str, BlockType] = {}
        for node in self.nodes:
            if node.id in types:
                raise SchemaViolation(f"{where}: repeated node id {node.id!r}")
            types[node.id] = node.block_type
        for kind, edges in (("adjacency", self.adjacency_edges), ("interaction", self.interaction_edges)):
            pairs: set[tuple[str, str]] = set()
            for e in edges:
                pair = (e.source, e.target)
                if e.source not in types or e.target not in types:
                    fault = "has an endpoint that is not a node"
                elif e.source == e.target:
                    fault = "is a self-loop"
                elif pair in pairs:
                    fault = "is repeated"
                elif kind == "adjacency" and e.source > e.target:
                    fault = "is not stored with source < target"
                elif kind == "interaction" and e.edge_class is not classify_interaction(
                    types[e.source], types[e.target]
                ):
                    fault = (
                        f"has class {e.edge_class.value!r}, but joins a "
                        f"{types[e.source].value} to a {types[e.target].value}"
                    )
                else:
                    pairs.add(pair)
                    continue
                raise SchemaViolation(f"{where}: {kind} edge {e.source!r} -> {e.target!r} {fault}")

    def nodes_by_id(self) -> dict[str, GraphNode]:
        return {n.id: n for n in self.nodes}


def infer_vis_type(marks: Iterable[str], encodings: Iterable[tuple[str, str]]) -> str:
    """Derive the visualization type from marks and encoding channels.

    Rule table, first match wins:

    1. a ``geo`` encoding is present            -> map
    2. primary mark is ``bar``                  -> bar
    3. primary mark is ``line``                 -> line
    4. primary mark is ``text``, laid out on both row and column -> table
    5. primary mark is ``pie``                  -> pie
    6. primary mark is ``circle``, laid out on both row and column -> scatter
    7. primary mark is ``area``                 -> area
    8. otherwise the primary mark name verbatim (``unknown`` if none)

    The primary mark is the first declared mark.  This is a total
    function: unknown marks never raise.
    """
    marks = tuple(marks)
    channels = {c for c, _ in encodings}
    if "geo" in channels:
        return "map"
    primary = marks[0] if marks else None
    if primary == "bar":
        return "bar"
    if primary == "line":
        return "line"
    if primary == "text" and {"row", "column"} <= channels:
        return "table"
    if primary == "pie":
        return "pie"
    if primary == "circle" and {"row", "column"} <= channels:
        return "scatter"
    if primary == "area":
        return "area"
    return primary if primary is not None else "unknown"


def classify_interaction(source_type: BlockType, target_type: BlockType) -> EdgeClass | None:
    """Map endpoint block types to an interaction edge class.

    Only filter->chart, legend->chart and chart->chart are supported;
    anything else returns None and is dropped by the caller.
    """
    if target_type is not BlockType.CHART:
        return None
    if source_type is BlockType.FILTER:
        return EdgeClass.FILTER_TO_CHART
    if source_type is BlockType.LEGEND:
        return EdgeClass.LEGEND_TO_CHART
    if source_type is BlockType.CHART:
        return EdgeClass.CHART_TO_CHART
    return None


def validate(dashboard: Dashboard) -> list[str]:
    """The rules every :class:`Dashboard` enforces at construction.

    Returns one finding per broken rule, each naming the offending block
    or interaction endpoint: a repeated block id, a block whose ``w`` or
    ``h`` is not positive, props of the wrong variant for the block type,
    a chart whose ``vis_type`` is not what :func:`infer_vis_type` derives
    from its marks and encodings, and an action endpoint that is not a
    block.  An empty list means the dashboard is well-formed.
    """
    violations: list[str] = []
    seen: set[str] = set()
    for block in dashboard.blocks:
        if block.id in seen:
            violations.append(f"duplicate block id: {block.id!r}")
        seen.add(block.id)
        if block.w <= 0 or block.h <= 0:
            violations.append(f"zero-area block: {block.id!r} (w={block.w}, h={block.h})")
        expected = _PROPS_FOR_TYPE[block.block_type]
        if not isinstance(block.props, expected):
            violations.append(
                f"props mismatch for block {block.id!r}: "
                f"{type(block.props).__name__} on a {block.block_type.value} block"
            )
        elif isinstance(block.props, ChartProps):
            inferred = infer_vis_type(block.props.marks, block.props.encodings)
            if block.props.vis_type != inferred:
                violations.append(
                    f"chart type mismatch for block {block.id!r}: "
                    f"declared {block.props.vis_type!r}, marks/encodings imply {inferred!r}"
                )
    for action in dashboard.declared_interactions:
        for endpoint in (action.source, action.target):
            if endpoint not in seen:
                violations.append(f"unknown interaction endpoint: {endpoint!r}")
    return violations


# --- canonical JSON (the interchange format) -------------------------------
#
# {
#   "id": str, "width"?: int, "height"?: int,
#   "blocks": [{"id","type","x","y","w","h","props": {...}}],
#   "interactions": [{"source","target","type"}]
# }
#
# Keys starting with "_" (e.g. the CLI's "_fingerprint") are ignored on input.


_KNOWN_PROP_KEYS: dict[BlockType, frozenset[str]] = {
    t: frozenset(f.name for f in dataclasses.fields(cls)) - {"extra"}
    for t, cls in _PROPS_FOR_TYPE.items()
}


def props_to_dict(props: DescriptiveProps) -> dict[str, Any]:
    if isinstance(props, ChartProps):
        doc: dict[str, Any] = {
            "vis_type": props.vis_type,
            "marks": list(props.marks),
            "encodings": [list(e) for e in props.encodings],
        }
    elif isinstance(props, TextProps):
        doc = {"content": props.content, "formatting": dict(props.formatting)}
    elif isinstance(props, FilterProps):
        doc = {"widget": props.widget.value, "field": props.field}
    elif isinstance(props, LegendProps):
        doc = {"channel": props.channel}
    elif isinstance(props, MultimediaProps):
        doc = {"kind": props.kind.value}
    else:
        raise TypeError(f"unknown props variant: {type(props).__name__}")
    doc.update(props.extra)
    return doc


def _extra_props(block_type: BlockType, obj: Mapping[str, Any]) -> dict[str, Any]:
    known = _KNOWN_PROP_KEYS[block_type]
    return {k: v for k, v in obj.items() if k not in known and not k.startswith("_")}


def props_from_dict(block_type: BlockType, obj: Mapping[str, Any]) -> DescriptiveProps:
    extra = _extra_props(block_type, obj)
    if block_type is BlockType.CHART:
        return ChartProps(
            vis_type=str(obj.get("vis_type", "unknown")),
            marks=tuple(obj.get("marks", ())),
            encodings=tuple((str(c), str(f)) for c, f in obj.get("encodings", ())),
            extra=extra,
        )
    if block_type is BlockType.TEXT:
        formatting = obj.get("formatting", {})
        return TextProps(
            content=str(obj.get("content", "")),
            formatting=tuple(sorted((str(k), str(v)) for k, v in formatting.items())),
            extra=extra,
        )
    if block_type is BlockType.FILTER:
        return FilterProps(
            widget=WidgetType(str(obj.get("widget", "other"))),
            field=str(obj.get("field", "")),
            extra=extra,
        )
    if block_type is BlockType.LEGEND:
        return LegendProps(channel=str(obj.get("channel", "color")), extra=extra)
    return MultimediaProps(kind=MultimediaKind(str(obj.get("kind", "image"))), extra=extra)


def block_to_dict(block: Block) -> dict[str, Any]:
    return {
        "id": block.id,
        "type": block.block_type.value,
        "x": block.x,
        "y": block.y,
        "w": block.w,
        "h": block.h,
        "props": props_to_dict(block.props),
    }


def block_from_dict(obj: Mapping[str, Any]) -> Block:
    block_type = BlockType(str(obj["type"]))
    return Block(
        id=str(obj["id"]),
        block_type=block_type,
        x=int(obj["x"]),
        y=int(obj["y"]),
        w=int(obj["w"]),
        h=int(obj["h"]),
        props=props_from_dict(block_type, obj.get("props", {})),
    )


def dashboard_to_dict(dashboard: Dashboard) -> dict[str, Any]:
    doc: dict[str, Any] = {"id": dashboard.id}
    if dashboard.width is not None:
        doc["width"] = dashboard.width
    if dashboard.height is not None:
        doc["height"] = dashboard.height
    doc["blocks"] = [block_to_dict(b) for b in dashboard.blocks]
    doc["interactions"] = [
        {"source": a.source, "target": a.target, "type": a.action_type}
        for a in dashboard.declared_interactions
    ]
    return doc


def dashboard_from_dict(obj: Mapping[str, Any]) -> Dashboard:
    return Dashboard(
        id=str(obj["id"]),
        width=int(obj["width"]) if "width" in obj else None,
        height=int(obj["height"]) if "height" in obj else None,
        blocks=tuple(block_from_dict(b) for b in obj.get("blocks", ())),
        declared_interactions=tuple(
            ActionRecord(str(a["source"]), str(a["target"]), str(a["type"]))
            for a in obj.get("interactions", ())
        ),
    )


def _node_to_dict(node: GraphNode) -> dict[str, Any]:
    doc = {"id": node.id, "type": node.block_type.value}
    if node.vis_type is not None:
        doc["vis_type"] = node.vis_type
    return doc


def graphs_to_dict(graphs: DashboardGraphs) -> dict[str, Any]:
    """Graph document: each node as ``{"id", "type"}``, plus ``"vis_type"``
    for a chart, and both edge lists; :func:`graphs_from_dict` inverts it."""
    return {
        "dashboard_id": graphs.dashboard_id,
        "nodes": [_node_to_dict(n) for n in graphs.nodes],
        "adjacency": [
            {"source": e.source, "target": e.target, "config": e.config.value}
            for e in graphs.adjacency_edges
        ],
        "interaction": [
            {"source": e.source, "target": e.target, "class": e.edge_class.value, "itype": e.itype}
            for e in graphs.interaction_edges
        ],
    }


def _node_from_dict(obj: Mapping[str, Any]) -> GraphNode:
    block_type = BlockType(str(obj["type"]))
    vis_type = str(obj.get("vis_type", "unknown")) if block_type is BlockType.CHART else None
    return GraphNode(str(obj["id"]), block_type, vis_type)


def graphs_from_dict(obj: Mapping[str, Any]) -> DashboardGraphs:
    """Rebuild a graph pair from a graph document.

    A chart node without a ``vis_type`` reads as ``"unknown"``; a
    non-chart node's ``vis_type`` is ignored.
    """
    return DashboardGraphs(
        dashboard_id=str(obj["dashboard_id"]),
        nodes=tuple(_node_from_dict(n) for n in obj.get("nodes", ())),
        adjacency_edges=tuple(
            AdjacencyEdge(str(e["source"]), str(e["target"]), AdjacencyConfig(str(e["config"])))
            for e in obj.get("adjacency", ())
        ),
        interaction_edges=tuple(
            InteractionEdge(
                str(e["source"]),
                str(e["target"]),
                str(e.get("itype", "filter")),
                EdgeClass(str(e["class"])),
            )
            for e in obj.get("interaction", ())
        ),
    )


# --- decoding -----------------------------------------------------------------


@contextlib.contextmanager
def decoding(path: str | None = None) -> Iterator[None]:
    """Decode inside: a missing key or a value of the wrong type or range
    becomes a :class:`SchemaViolation` at ``path``; the package's own
    errors (a :class:`Dashboard` rule, say) pass through unchanged."""
    try:
        yield
    except KeyError as exc:
        raise SchemaViolation(f"missing key {exc}", path) from exc
    except (AttributeError, TypeError, ValueError, OverflowError, RecursionError) as exc:
        raise SchemaViolation(f"{type(exc).__name__}: {exc}", path) from exc


def from_json(data: str | bytes, from_dict: Callable[[Mapping[str, Any]], Any]) -> Any:
    """``from_dict`` of the JSON object ``data`` (str, or bytes in an encoding ``json`` detects).

    Text that is not JSON, or bytes that do not decode, is a
    :class:`MalformedDocument` (with line and column for a syntax error);
    nesting deeper than the decoder goes, a number ``json`` cannot
    convert, or a document that is not an object is a
    :class:`SchemaViolation`, and the object then goes through
    ``from_dict`` inside :func:`decoding`.
    """
    try:
        obj = json.loads(data)
    except json.JSONDecodeError as exc:
        raise MalformedDocument(f"JSON syntax error: {exc.msg}", exc.lineno, exc.colno) from exc
    except UnicodeDecodeError as exc:
        raise MalformedDocument(f"JSON text is not valid {exc.encoding}: {exc.reason} at byte {exc.start}") from exc
    except RecursionError:
        raise SchemaViolation("JSON nested deeper than the decoder goes") from None
    except ValueError as exc:  # an integer literal longer than int() converts
        raise SchemaViolation(f"ValueError: {exc}") from exc
    if not isinstance(obj, dict):
        raise SchemaViolation(f"document is a JSON {type(obj).__name__}, not an object")
    with decoding():
        return from_dict(obj)
