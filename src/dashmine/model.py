"""Schematic representation of dashboard designs.

A dashboard is modeled as a set of *blocks* (its visual elements) plus
pairwise *connections* between blocks.  Connections are either spatial
(adjacency: partial overlap, containment, adjoining) or behavioral
(interaction: filter/legend/chart driving a chart).  The two derived
graphs over the same node set -- an undirected adjacency graph and a
directed interaction graph -- are bundled in :class:`DashboardGraphs`.

All types are immutable value objects after construction and safe to
share between workers.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from enum import Enum
from typing import Any, Iterable, Mapping, Union


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
    # "other" is produced only by lenient ingestion of unknown zone kinds.
    IMAGE = "image"
    WEBPAGE = "webpage"
    OTHER = "other"


@dataclass(frozen=True)
class ChartType:
    """Visualization type of a chart block.

    :func:`infer_vis_type` yields the canonical names (bar, line, map,
    table, pie, scatter, area); any other name is preserved verbatim
    (bespoke charts such as sankey diagrams stay identifiable instead of
    erroring).
    """

    name: str


@dataclass(frozen=True)
class ChartProps:
    vis_type: ChartType
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
    ``h`` must be positive (zero-area blocks are rejected by
    :func:`validate`, not clamped).
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
class AdjacencyKind:
    config: AdjacencyConfig


@dataclass(frozen=True)
class InteractionKind:
    itype: str
    edge_class: EdgeClass


@dataclass(frozen=True)
class Connection:
    """A typed pairwise relationship between two blocks.

    Adjacency connections are undirected and stored canonically with
    ``source < target``; interaction connections are directed.
    """

    source: str
    target: str
    kind: AdjacencyKind | InteractionKind


@dataclass(frozen=True)
class ActionRecord:
    """A raw interactivity declaration: source and target block ids plus
    the declared interaction type, exactly as ingested."""

    source: str
    target: str
    action_type: str


@dataclass(frozen=True)
class Dashboard:
    id: str
    blocks: tuple[Block, ...] = ()
    declared_interactions: tuple[ActionRecord, ...] = ()
    width: int | None = None
    height: int | None = None

    def blocks_by_id(self) -> dict[str, Block]:
        return {b.id: b for b in self.blocks}


@dataclass(frozen=True)
class DashboardGraphs:
    """The paired adjacency and interaction graphs of one dashboard.

    Both graphs share the identical node set (``nodes``); only the edge
    lists differ.
    """

    dashboard_id: str
    nodes: tuple[Block, ...]
    adjacency_edges: tuple[Connection, ...] = ()
    interaction_edges: tuple[Connection, ...] = ()

    def nodes_by_id(self) -> dict[str, Block]:
        return {b.id: b for b in self.nodes}


def infer_vis_type(marks: Iterable[str], encodings: Iterable[tuple[str, str]]) -> ChartType:
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
        return ChartType("map")
    primary = marks[0] if marks else None
    if primary == "bar":
        return ChartType("bar")
    if primary == "line":
        return ChartType("line")
    if primary == "text" and {"row", "column"} <= channels:
        return ChartType("table")
    if primary == "pie":
        return ChartType("pie")
    if primary == "circle" and {"row", "column"} <= channels:
        return ChartType("scatter")
    if primary == "area":
        return ChartType("area")
    return ChartType(primary if primary is not None else "unknown")


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
    """Check every type invariant; violations are data, not failures.

    Returns an empty list iff the dashboard is well-formed.  Each entry
    names the offending block or connection.
    """
    violations: list[str] = []
    seen: set[str] = set()
    for block in dashboard.blocks:
        if block.id in seen:
            violations.append(f"duplicate block id: {block.id}")
        seen.add(block.id)
        if block.w <= 0 or block.h <= 0:
            violations.append(f"zero-area block: {block.id} (w={block.w}, h={block.h})")
        expected = _PROPS_FOR_TYPE[block.block_type]
        if not isinstance(block.props, expected):
            violations.append(
                f"props mismatch for block {block.id}: "
                f"{type(block.props).__name__} on a {block.block_type.value} block"
            )
        elif isinstance(block.props, ChartProps):
            inferred = infer_vis_type(block.props.marks, block.props.encodings)
            if block.props.vis_type != inferred:
                violations.append(
                    f"chart type mismatch for block {block.id}: "
                    f"declared {block.props.vis_type.name!r}, marks/encodings imply {inferred.name!r}"
                )
    ids = {b.id for b in dashboard.blocks}
    for action in dashboard.declared_interactions:
        for endpoint in (action.source, action.target):
            if endpoint not in ids:
                violations.append(f"unknown interaction endpoint: {endpoint}")
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
    BlockType.CHART: frozenset({"vis_type", "marks", "encodings"}),
    BlockType.TEXT: frozenset({"content", "formatting"}),
    BlockType.FILTER: frozenset({"widget", "field"}),
    BlockType.LEGEND: frozenset({"channel"}),
    BlockType.MULTIMEDIA: frozenset({"kind"}),
}


def props_to_dict(props: DescriptiveProps) -> dict[str, Any]:
    if isinstance(props, ChartProps):
        doc: dict[str, Any] = {
            "vis_type": props.vis_type.name,
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
            vis_type=ChartType(str(obj.get("vis_type", "unknown"))),
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


def graphs_to_dict(graphs: DashboardGraphs) -> dict[str, Any]:
    """Graph document: nodes keep only id and type (geometry is not
    round-tripped; downstream stages never need it)."""
    return {
        "dashboard_id": graphs.dashboard_id,
        "nodes": [{"id": b.id, "type": b.block_type.value} for b in graphs.nodes],
        "adjacency": [
            {"source": e.source, "target": e.target, "config": e.kind.config.value}
            for e in graphs.adjacency_edges
        ],
        "interaction": [
            {
                "source": e.source,
                "target": e.target,
                "class": e.kind.edge_class.value,
                "itype": e.kind.itype,
            }
            for e in graphs.interaction_edges
        ],
    }


def graphs_from_dict(obj: Mapping[str, Any]) -> DashboardGraphs:
    """Rebuild a graph pair from a graph document.

    Node positions/props are absent from graph documents, so nodes are
    reconstructed as unit-square placeholders of the recorded type.
    """
    nodes = []
    for n in obj.get("nodes", ()):
        block_type = BlockType(str(n["type"]))
        nodes.append(
            Block(
                id=str(n["id"]),
                block_type=block_type,
                x=0,
                y=0,
                w=1,
                h=1,
                props=props_from_dict(block_type, {}),
            )
        )
    adjacency = tuple(
        Connection(str(e["source"]), str(e["target"]), AdjacencyKind(AdjacencyConfig(str(e["config"]))))
        for e in obj.get("adjacency", ())
    )
    interaction = tuple(
        Connection(
            str(e["source"]),
            str(e["target"]),
            InteractionKind(itype=str(e.get("itype", "filter")), edge_class=EdgeClass(str(e["class"]))),
        )
        for e in obj.get("interaction", ())
    )
    return DashboardGraphs(
        dashboard_id=str(obj["dashboard_id"]),
        nodes=tuple(nodes),
        adjacency_edges=adjacency,
        interaction_edges=interaction,
    )
