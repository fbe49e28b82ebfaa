"""Parsing of workbook documents into :class:`~dashmine.model.Dashboard` values.

Two input formats are supported:

* a documented XML subset describing whole workbooks
  (``workbook > datasources/worksheets/dashboards``, dashboards holding
  ``zone`` and ``action`` elements), and
* the canonical per-dashboard JSON interchange format defined in
  :mod:`dashmine.model`.

Parsing is strict by default: unknown zone kinds and dangling references
raise :class:`~dashmine.errors.SchemaViolation`.  Lenient mode downgrades
unknown zone kinds to multimedia blocks so heterogeneous corpora survive
ingestion.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import IO, Iterable, Mapping, MutableMapping, Sequence
from xml.etree import ElementTree as ET

from .errors import MalformedDocument, SchemaViolation
from .model import (
    ActionRecord,
    Block,
    BlockType,
    ChartProps,
    ChartType,
    Connection,
    Dashboard,
    FilterProps,
    InteractionKind,
    LegendProps,
    MultimediaKind,
    MultimediaProps,
    TextProps,
    WidgetType,
    classify_interaction,
    dashboard_from_dict,
    infer_vis_type,
)

WORKSHEET_MARKS = ("bar", "line", "circle", "polygon", "text", "square", "pie")
ENCODING_CHANNELS = ("row", "column", "color", "size", "label", "detail", "geo")


@dataclass(frozen=True)
class DataSource:
    name: str
    attributes: tuple[tuple[str, str], ...] = ()


@dataclass(frozen=True)
class Worksheet:
    """A single visualization definition: marks plus channel->field encodings."""

    name: str
    marks: tuple[str, ...] = ()
    encodings: tuple[tuple[str, str], ...] = ()


@dataclass(frozen=True)
class Workbook:
    datasources: tuple[DataSource, ...] = ()
    worksheets: tuple[Worksheet, ...] = ()
    dashboards: tuple[Dashboard, ...] = ()


@dataclass(frozen=True)
class ZoneRecord:
    """Raw attributes of one dashboard zone, straight from the document."""

    id: str
    kind: str
    x: int
    y: int
    w: int
    h: int
    worksheet: str | None = None
    field: str | None = None
    widget: str | None = None
    channel: str | None = None
    media_kind: str | None = None
    text: str = ""


def infer_chart_type(worksheet: Worksheet) -> ChartType:
    """Visualization type of a worksheet; see :func:`dashmine.model.infer_vis_type`."""
    return infer_vis_type(worksheet.marks, worksheet.encodings)


# Zone kinds accepted by the XML subset.  Hyphenated legend kinds such as
# "color-legend" carry the channel in the prefix.
_MEDIA_ZONE_KINDS = {"image": MultimediaKind.IMAGE, "webpage": MultimediaKind.WEBPAGE}


def _block_from_zone(
    zone: ZoneRecord,
    worksheets: Mapping[str, Worksheet],
    path: str,
    strict: bool,
) -> Block:
    kind = zone.kind
    if kind == "chart":
        if not zone.worksheet:
            raise SchemaViolation("chart zone without worksheet reference", path)
        worksheet = worksheets.get(zone.worksheet)
        if worksheet is None:
            raise SchemaViolation(f"unknown worksheet: {zone.worksheet}", path)
        props = ChartProps(
            vis_type=infer_chart_type(worksheet),
            marks=worksheet.marks,
            encodings=worksheet.encodings,
        )
        block_type = BlockType.CHART
    elif kind == "text":
        props = TextProps(content=zone.text)
        block_type = BlockType.TEXT
    elif kind == "filter":
        widget = zone.widget or "other"
        try:
            widget_type = WidgetType(widget)
        except ValueError:
            widget_type = WidgetType.OTHER
        props = FilterProps(widget=widget_type, field=zone.field or "")
        block_type = BlockType.FILTER
    elif kind == "legend" or kind.endswith("-legend"):
        channel = zone.channel or (kind[: -len("-legend")] if kind.endswith("-legend") else "color")
        props = LegendProps(channel=channel)
        block_type = BlockType.LEGEND
    elif kind in _MEDIA_ZONE_KINDS:
        props = MultimediaProps(kind=_MEDIA_ZONE_KINDS[kind])
        block_type = BlockType.MULTIMEDIA
    elif kind == "multimedia":
        try:
            media = MultimediaKind(zone.media_kind or "image")
        except ValueError:
            media = MultimediaKind.OTHER
        props = MultimediaProps(kind=media)
        block_type = BlockType.MULTIMEDIA
    elif strict:
        raise SchemaViolation(f"unknown zone kind: {kind!r}", path)
    else:
        props = MultimediaProps(kind=MultimediaKind.OTHER)
        block_type = BlockType.MULTIMEDIA
    return Block(
        id=zone.id,
        block_type=block_type,
        x=zone.x,
        y=zone.y,
        w=zone.w,
        h=zone.h,
        props=props,
    )


def extract_blocks(
    zones: Sequence[ZoneRecord],
    worksheets: Mapping[str, Worksheet],
    strict: bool = True,
    path: str = "dashboard",
) -> list[Block]:
    """Map zone records to blocks, one per zone.

    Unknown zone kinds raise :class:`SchemaViolation` in strict mode and
    become ``multimedia/other`` blocks in lenient mode.
    """
    return [
        _block_from_zone(zone, worksheets, f"{path}/zone[{i}]", strict)
        for i, zone in enumerate(zones)
    ]


def extract_actions(
    dashboard: Dashboard, counters: MutableMapping[str, int] | None = None
) -> list[Connection]:
    """Turn declared action records into typed interaction connections.

    The edge class is derived from the endpoint block types; actions whose
    endpoints do not form one of the three supported classes are dropped
    (and counted under ``counters["dropped"]`` when a mapping is given).
    Dangling endpoint ids raise :class:`SchemaViolation`.
    """
    by_id = dashboard.blocks_by_id()
    connections: list[Connection] = []
    for action in dashboard.declared_interactions:
        for endpoint in (action.source, action.target):
            if endpoint not in by_id:
                raise SchemaViolation(
                    f"action references unknown block: {endpoint}",
                    f"dashboard[{dashboard.id}]",
                )
        edge_class = classify_interaction(
            by_id[action.source].block_type, by_id[action.target].block_type
        )
        if edge_class is None:
            if counters is not None:
                counters["dropped"] = counters.get("dropped", 0) + 1
            continue
        connections.append(
            Connection(
                source=action.source,
                target=action.target,
                kind=InteractionKind(itype=action.action_type, edge_class=edge_class),
            )
        )
    return connections


def filter_corpus(dashboards: Iterable[Dashboard], min_charts: int = 2) -> list[Dashboard]:
    """Keep dashboards with at least ``min_charts`` chart blocks, in order."""
    if min_charts < 0:
        raise ValueError("min_charts must be >= 0")
    return [
        d
        for d in dashboards
        if sum(1 for b in d.blocks if b.block_type is BlockType.CHART) >= min_charts
    ]


# --- XML subset -------------------------------------------------------------


def _require(element: ET.Element, attr: str, path: str) -> str:
    value = element.get(attr)
    if value is None:
        raise SchemaViolation(f"missing required attribute {attr!r}", path)
    return value


def _int_attr(element: ET.Element, attr: str, path: str) -> int:
    raw = _require(element, attr, path)
    try:
        return int(raw)
    except ValueError:
        raise SchemaViolation(f"attribute {attr!r} is not an integer: {raw!r}", path) from None


def _parse_worksheet(element: ET.Element, path: str) -> Worksheet:
    name = _require(element, "name", path)
    marks = tuple(_require(m, "type", f"{path}/mark") for m in element.findall("mark"))
    encodings = tuple(
        (_require(e, "channel", f"{path}/encoding"), _require(e, "field", f"{path}/encoding"))
        for e in element.findall("encoding")
    )
    if not marks and not encodings:
        raise SchemaViolation("worksheet needs at least one mark or encoding", path)
    for channel, _ in encodings:
        if channel not in ENCODING_CHANNELS:
            raise SchemaViolation(f"unknown encoding channel: {channel!r}", path)
    return Worksheet(name=name, marks=marks, encodings=encodings)


def _parse_zone(element: ET.Element, path: str) -> ZoneRecord:
    return ZoneRecord(
        id=_require(element, "id", path),
        kind=_require(element, "type", path),
        x=_int_attr(element, "x", path),
        y=_int_attr(element, "y", path),
        w=_int_attr(element, "w", path),
        h=_int_attr(element, "h", path),
        worksheet=element.get("worksheet"),
        field=element.get("field"),
        widget=element.get("widget"),
        channel=element.get("channel"),
        media_kind=element.get("kind"),
        text=(element.text or "").strip(),
    )


def _parse_dashboard_xml(
    element: ET.Element,
    worksheets: Mapping[str, Worksheet],
    path: str,
    strict: bool,
) -> Dashboard:
    dash_id = _require(element, "id", path)
    zones = [_parse_zone(z, f"{path}/zone[{i}]") for i, z in enumerate(element.findall("zone"))]
    ids: set[str] = set()
    for i, zone in enumerate(zones):
        if zone.id in ids:
            raise SchemaViolation(f"duplicate zone id: {zone.id}", f"{path}/zone[{i}]")
        ids.add(zone.id)
    blocks = extract_blocks(zones, worksheets, strict=strict, path=path)
    actions = []
    for i, a in enumerate(element.findall("action")):
        apath = f"{path}/action[{i}]"
        record = ActionRecord(
            source=_require(a, "source", apath),
            target=_require(a, "target", apath),
            action_type=_require(a, "type", apath),
        )
        for endpoint in (record.source, record.target):
            if endpoint not in ids:
                raise SchemaViolation(f"action references unknown zone: {endpoint}", apath)
        actions.append(record)
    width = element.get("width")
    height = element.get("height")
    return Dashboard(
        id=dash_id,
        blocks=tuple(blocks),
        declared_interactions=tuple(actions),
        width=int(width) if width is not None else None,
        height=int(height) if height is not None else None,
    )


def _parse_workbook_xml(data: bytes, strict: bool) -> Workbook:
    try:
        root = ET.fromstring(data)
    except ET.ParseError as exc:
        line, column = exc.position
        raise MalformedDocument(f"XML syntax error: {exc.msg.split(':')[0]}", line, column) from exc
    if root.tag != "workbook":
        raise SchemaViolation(f"expected <workbook> root, found <{root.tag}>", "/")

    datasources = []
    for i, ds in enumerate(root.iterfind("datasources/datasource")):
        path = f"datasources/datasource[{i}]"
        attributes = tuple(
            (_require(a, "name", path), _require(a, "datatype", path))
            for a in ds.findall("attribute")
        )
        datasources.append(DataSource(name=_require(ds, "name", path), attributes=attributes))

    worksheets = []
    names: set[str] = set()
    for i, ws in enumerate(root.iterfind("worksheets/worksheet")):
        worksheet = _parse_worksheet(ws, f"worksheets/worksheet[{i}]")
        if worksheet.name in names:
            raise SchemaViolation(f"duplicate worksheet name: {worksheet.name}", "worksheets")
        names.add(worksheet.name)
        worksheets.append(worksheet)
    by_name = {w.name: w for w in worksheets}

    dashboards = tuple(
        _parse_dashboard_xml(d, by_name, f"dashboards/dashboard[{i}]", strict)
        for i, d in enumerate(root.iterfind("dashboards/dashboard"))
    )
    return Workbook(
        datasources=tuple(datasources),
        worksheets=tuple(worksheets),
        dashboards=dashboards,
    )


def _parse_workbook_json(data: bytes) -> Workbook:
    try:
        obj = json.loads(data)
    except json.JSONDecodeError as exc:
        raise MalformedDocument(f"JSON syntax error: {exc.msg}", exc.lineno, exc.colno) from exc
    try:
        dashboard = dashboard_from_dict(obj)
    except (KeyError, TypeError, ValueError) as exc:
        raise SchemaViolation(f"canonical dashboard document invalid: {exc}") from exc
    return Workbook(dashboards=(dashboard,))


def parse_workbook(document: bytes | str | IO[bytes], format: str = "xml", strict: bool = True) -> Workbook:
    """Parse a workbook document.

    ``format`` selects the grammar: ``"xml"`` for the workbook XML subset
    or ``"json"`` for a single canonical dashboard document (wrapped in a
    dashboard-only workbook).  Identical bytes always yield an identical
    workbook.
    """
    if hasattr(document, "read"):
        data = document.read()
    else:
        data = document
    if isinstance(data, str):
        data = data.encode("utf-8")
    if format == "xml":
        return _parse_workbook_xml(data, strict)
    if format == "json":
        return _parse_workbook_json(data)
    raise ValueError(f"unknown format: {format!r}")
