"""Parsing of workbook documents into :class:`~dashmine.model.Dashboard` values.

Two input formats are supported:

* a documented XML subset describing whole workbooks
  (``workbook > datasources/worksheets/dashboards``, dashboards holding
  ``zone`` and ``action`` elements), and
* the canonical per-dashboard JSON interchange format defined in
  :mod:`dashmine.model`.

:func:`parse_workbook` returns the document's dashboards.  Each ``<zone>``
maps straight to a block; datasources are checked but not kept.  Actions
stay raw records: :func:`dashmine.geometry.build_interaction_graph` alone
turns them into interaction edges.

Parsing is strict by default: unknown zone kinds and dangling references
raise :class:`~dashmine.errors.SchemaViolation`.  Lenient mode downgrades
unknown zone kinds to multimedia blocks so heterogeneous corpora survive
ingestion.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import IO, Iterable, Mapping
from xml.etree import ElementTree as ET

from .errors import MalformedDocument, SchemaViolation
from .model import (
    ActionRecord,
    Block,
    BlockType,
    ChartProps,
    Dashboard,
    FilterProps,
    LegendProps,
    MultimediaKind,
    MultimediaProps,
    TextProps,
    WidgetType,
    dashboard_from_dict,
    infer_vis_type,
)

ENCODING_CHANNELS = ("row", "column", "color", "size", "label", "detail", "geo")


@dataclass(frozen=True)
class Worksheet:
    """A single visualization definition: marks plus channel->field encodings."""

    name: str
    marks: tuple[str, ...] = ()
    encodings: tuple[tuple[str, str], ...] = ()


# Zone kinds accepted by the XML subset.  Hyphenated legend kinds such as
# "color-legend" carry the channel in the prefix.
_MEDIA_ZONE_KINDS = {"image": MultimediaKind.IMAGE, "webpage": MultimediaKind.WEBPAGE}


def _block_from_zone(
    element: ET.Element,
    worksheets: Mapping[str, Worksheet],
    path: str,
    strict: bool,
) -> Block:
    """Map one ``<zone>`` element to a block; an unknown kind fails only in strict mode."""
    # This order fixes which missing attribute a faulty zone reports.
    zone_id = _require(element, "id", path)
    kind = _require(element, "type", path)
    x, y, w, h = (_int_attr(element, attr, path) for attr in ("x", "y", "w", "h"))
    if kind == "chart":
        worksheet_name = element.get("worksheet")
        if not worksheet_name:
            raise SchemaViolation("chart zone without worksheet reference", path)
        worksheet = worksheets.get(worksheet_name)
        if worksheet is None:
            raise SchemaViolation(f"unknown worksheet: {worksheet_name}", path)
        props = ChartProps(
            vis_type=infer_vis_type(worksheet.marks, worksheet.encodings),
            marks=worksheet.marks,
            encodings=worksheet.encodings,
        )
        block_type = BlockType.CHART
    elif kind == "text":
        props = TextProps(content=(element.text or "").strip())
        block_type = BlockType.TEXT
    elif kind == "filter":
        widget = element.get("widget") or "other"
        try:
            widget_type = WidgetType(widget)
        except ValueError:
            widget_type = WidgetType.OTHER
        props = FilterProps(widget=widget_type, field=element.get("field") or "")
        block_type = BlockType.FILTER
    elif kind == "legend" or kind.endswith("-legend"):
        channel = element.get("channel") or (kind[: -len("-legend")] if kind.endswith("-legend") else "color")
        props = LegendProps(channel=channel)
        block_type = BlockType.LEGEND
    elif kind in _MEDIA_ZONE_KINDS:
        props = MultimediaProps(kind=_MEDIA_ZONE_KINDS[kind])
        block_type = BlockType.MULTIMEDIA
    elif kind == "multimedia":
        try:
            media = MultimediaKind(element.get("kind") or "image")
        except ValueError:
            media = MultimediaKind.OTHER
        props = MultimediaProps(kind=media)
        block_type = BlockType.MULTIMEDIA
    elif strict:
        raise SchemaViolation(f"unknown zone kind: {kind!r}", path)
    else:
        props = MultimediaProps(kind=MultimediaKind.OTHER)
        block_type = BlockType.MULTIMEDIA
    return Block(id=zone_id, block_type=block_type, x=x, y=y, w=w, h=h, props=props)


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


def _parse_dashboard_xml(
    element: ET.Element,
    worksheets: Mapping[str, Worksheet],
    path: str,
    strict: bool,
) -> Dashboard:
    dash_id = _require(element, "id", path)
    blocks = []
    ids: set[str] = set()
    for i, zone in enumerate(element.findall("zone")):
        zpath = f"{path}/zone[{i}]"
        block = _block_from_zone(zone, worksheets, zpath, strict)
        if block.id in ids:
            raise SchemaViolation(f"duplicate zone id: {block.id}", zpath)
        ids.add(block.id)
        blocks.append(block)
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
    width, height = (
        _int_attr(element, attr, path) if attr in element.attrib else None
        for attr in ("width", "height")
    )
    return Dashboard(
        id=dash_id,
        blocks=tuple(blocks),
        declared_interactions=tuple(actions),
        width=width,
        height=height,
    )


def _parse_workbook_xml(data: bytes, strict: bool) -> tuple[Dashboard, ...]:
    try:
        root = ET.fromstring(data)
    except ET.ParseError as exc:
        line, column = exc.position
        raise MalformedDocument(f"XML syntax error: {exc.msg.split(':')[0]}", line, column) from exc
    if root.tag != "workbook":
        raise SchemaViolation(f"expected <workbook> root, found <{root.tag}>", "/")

    # Datasources must be well-formed, but nothing downstream reads them.
    for i, ds in enumerate(root.iterfind("datasources/datasource")):
        path = f"datasources/datasource[{i}]"
        for a in ds.findall("attribute"):
            _require(a, "name", path)
            _require(a, "datatype", path)
        _require(ds, "name", path)

    worksheets: dict[str, Worksheet] = {}
    for i, ws in enumerate(root.iterfind("worksheets/worksheet")):
        worksheet = _parse_worksheet(ws, f"worksheets/worksheet[{i}]")
        if worksheet.name in worksheets:
            raise SchemaViolation(f"duplicate worksheet name: {worksheet.name}", "worksheets")
        worksheets[worksheet.name] = worksheet

    return tuple(
        _parse_dashboard_xml(d, worksheets, f"dashboards/dashboard[{i}]", strict)
        for i, d in enumerate(root.iterfind("dashboards/dashboard"))
    )


def _parse_workbook_json(data: bytes) -> tuple[Dashboard, ...]:
    try:
        obj = json.loads(data)
    except json.JSONDecodeError as exc:
        raise MalformedDocument(f"JSON syntax error: {exc.msg}", exc.lineno, exc.colno) from exc
    try:
        dashboard = dashboard_from_dict(obj)
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise SchemaViolation(f"canonical dashboard document invalid: {exc}") from exc
    return (dashboard,)


def parse_workbook(document: bytes | str | IO[bytes], format: str = "xml", strict: bool = True) -> tuple[Dashboard, ...]:
    """Parse a workbook document into its dashboards, in document order.

    ``format`` selects the grammar: ``"xml"`` for the workbook XML subset
    or ``"json"`` for a single canonical dashboard document (one
    dashboard).  Identical bytes always yield identical dashboards.
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
