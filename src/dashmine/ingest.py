"""Parsing of workbook documents into :class:`~dashmine.model.Dashboard` values.

Two input formats are supported:

* a documented XML subset describing whole workbooks
  (``workbook > datasources/worksheets/dashboards``, dashboards holding
  ``zone`` and ``action`` elements), and
* the canonical per-dashboard JSON interchange format defined in
  :mod:`dashmine.model`.

:func:`parse_workbook` returns the document's dashboards, all decoded by
:func:`dashmine.model.dashboard_from_dict`: each XML ``<dashboard>`` is
mapped to its canonical document first (``<zone>`` to block, with a
chart's ``vis_type`` inferred from its worksheet; ``<action>`` to
interaction), so every field rule lives in :mod:`dashmine.model` and
fails alike in both formats.  Datasources are checked but not kept.

Only the XML rules stay here: required and integer attributes, worksheet
references and zone kinds.  An unknown zone kind raises
:class:`~dashmine.errors.SchemaViolation`; lenient mode downgrades it,
and nothing else, to a multimedia block of kind ``other``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import IO, Any, Iterable, Mapping
from xml.etree import ElementTree as ET

from .errors import MalformedDocument, SchemaViolation
from .model import BlockType, Dashboard, dashboard_from_dict, infer_vis_type

ENCODING_CHANNELS = ("row", "column", "color", "size", "label", "detail", "geo")


@dataclass(frozen=True)
class Worksheet:
    """A single visualization definition: marks plus channel->field encodings."""

    name: str
    marks: tuple[str, ...] = ()
    encodings: tuple[tuple[str, str], ...] = ()


# Media zone kinds besides "multimedia".  Hyphenated legend kinds such as
# "color-legend" carry the channel in the prefix.
_MEDIA_ZONE_KINDS = ("image", "webpage")


def _props(element: ET.Element, *names: str) -> dict[str, str]:
    """The named attributes that are set; an absent or empty one takes the model's default."""
    return {name: value for name in names if (value := element.get(name))}


def _block_from_zone(
    element: ET.Element,
    worksheets: Mapping[str, Worksheet],
    path: str,
    strict: bool,
) -> dict[str, Any]:
    """Map one ``<zone>`` element to a block document; an unknown kind fails only in strict mode."""
    # This order fixes which missing attribute a faulty zone reports.
    block: dict[str, Any] = {"id": _require(element, "id", path)}
    kind = _require(element, "type", path)
    block.update((attr, _int_attr(element, attr, path)) for attr in ("x", "y", "w", "h"))
    if kind == "chart":
        worksheet_name = element.get("worksheet")
        if not worksheet_name:
            raise SchemaViolation("chart zone without worksheet reference", path)
        worksheet = worksheets.get(worksheet_name)
        if worksheet is None:
            raise SchemaViolation(f"unknown worksheet: {worksheet_name}", path)
        block_type, props = "chart", {
            "vis_type": infer_vis_type(worksheet.marks, worksheet.encodings),
            "marks": worksheet.marks,
            "encodings": worksheet.encodings,
        }
    elif kind == "text":
        block_type, props = "text", {"content": (element.text or "").strip()}
    elif kind == "filter":
        block_type, props = "filter", _props(element, "widget", "field")
    elif kind == "legend" or kind.endswith("-legend"):
        block_type, props = "legend", _props(element, "channel")
        if kind != "legend":
            props.setdefault("channel", kind[: -len("-legend")])
    elif kind in _MEDIA_ZONE_KINDS:
        block_type, props = "multimedia", {"kind": kind}
    elif kind == "multimedia":
        block_type, props = "multimedia", _props(element, "kind")
    elif strict:
        raise SchemaViolation(f"unknown zone kind: {kind!r}", path)
    else:
        block_type, props = "multimedia", {"kind": "other"}
    return block | {"type": block_type, "props": props}


def filter_corpus(dashboards: Iterable[Dashboard], min_charts: int = 2) -> list[Dashboard]:
    """Keep dashboards with at least ``min_charts`` chart blocks, in order."""
    if min_charts < 0:
        raise ValueError("min_charts must be >= 0")
    return [
        d
        for d in dashboards
        if sum(1 for b in d.blocks if b.block_type is BlockType.CHART) >= min_charts
    ]


def _decode(doc: Any, path: str | None = None) -> Dashboard:
    """The one decoder of both formats; a bad field is a :class:`SchemaViolation` at ``path``."""
    try:
        return dashboard_from_dict(doc)
    except (AttributeError, KeyError, TypeError, ValueError, OverflowError) as exc:
        raise SchemaViolation(f"canonical dashboard document invalid: {exc}", path) from exc


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
    doc: dict[str, Any] = {"id": _require(element, "id", path)}
    doc["blocks"] = [
        _block_from_zone(zone, worksheets, f"{path}/zone[{i}]", strict)
        for i, zone in enumerate(element.findall("zone"))
    ]
    doc["interactions"] = [
        {key: _require(a, key, f"{path}/action[{i}]") for key in ("source", "target", "type")}
        for i, a in enumerate(element.findall("action"))
    ]
    doc.update((attr, _int_attr(element, attr, path)) for attr in ("width", "height") if attr in element.attrib)
    return _decode(doc, path)


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
    except UnicodeDecodeError as exc:
        raise MalformedDocument(f"JSON text is not valid {exc.encoding}: {exc.reason} at byte {exc.start}") from exc
    except RecursionError:
        raise SchemaViolation("JSON nested deeper than the decoder goes") from None
    return (_decode(obj),)


def parse_workbook(document: bytes | str | IO[bytes], format: str = "xml", strict: bool = True) -> tuple[Dashboard, ...]:
    """Parse a workbook document into its dashboards, in document order.

    ``format`` selects the grammar: ``"xml"`` for the workbook XML subset
    or ``"json"`` for a single canonical dashboard document (one
    dashboard).  Identical bytes always yield identical dashboards.
    """
    data = document.read() if hasattr(document, "read") else document
    if isinstance(data, str):
        data = data.encode("utf-8")
    if format == "xml":
        return _parse_workbook_xml(data, strict)
    if format == "json":
        return _parse_workbook_json(data)
    raise ValueError(f"unknown format: {format!r}")
