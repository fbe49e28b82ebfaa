from __future__ import annotations

import pytest

from dashmine.errors import MalformedDocument, SchemaViolation
from dashmine.ingest import (
    Worksheet,
    ZoneRecord,
    extract_actions,
    extract_blocks,
    filter_corpus,
    infer_chart_type,
    parse_workbook,
)
from dashmine.model import (
    BlockType,
    ChartType,
    Dashboard,
    EdgeClass,
    FilterProps,
    LegendProps,
    MultimediaKind,
    MultimediaProps,
    WidgetType,
)

from conftest import FIXTURES, load_fixture, make_block

MINIMAL_XML = b"""
<workbook>
  <worksheets>
    <worksheet name="w1"><mark type="bar"/><encoding channel="column" field="A"/></worksheet>
    <worksheet name="w2"><mark type="line"/><encoding channel="column" field="B"/></worksheet>
  </worksheets>
  <dashboards>
    <dashboard id="d1">
      <zone id="z1" type="chart" x="0" y="0" w="100" h="100" worksheet="w1"/>
      <zone id="z2" type="chart" x="100" y="0" w="100" h="100" worksheet="w2"/>
    </dashboard>
  </dashboards>
</workbook>
"""


def test_minimal_xml_workbook():
    wb = parse_workbook(MINIMAL_XML, format="xml")
    assert len(wb.dashboards) == 1
    d = wb.dashboards[0]
    assert len(d.blocks) == 2
    assert d.declared_interactions == ()


def test_fig_a_xml_has_four_charts_and_twelve_actions():
    wb = parse_workbook((FIXTURES / "fig_a.xml").read_bytes(), format="xml")
    d = wb.dashboards[0]
    assert sum(1 for b in d.blocks if b.block_type is BlockType.CHART) == 4
    assert len(d.declared_interactions) == 12


def test_truncated_xml_reports_position():
    with pytest.raises(MalformedDocument) as err:
        parse_workbook(MINIMAL_XML[:80], format="xml")
    assert err.value.line is not None


def test_malformed_json_reports_position():
    with pytest.raises(MalformedDocument) as err:
        parse_workbook(b'{"id": "d", ', format="json")
    assert err.value.line is not None


def test_xml_and_json_fixtures_parse_to_equal_dashboards():
    for name in ("fig_a", "fig_b", "fig_c"):
        from_xml = parse_workbook((FIXTURES / f"{name}.xml").read_bytes(), format="xml")
        assert from_xml.dashboards == (load_fixture(name),)


def test_parsing_is_deterministic():
    data = (FIXTURES / "fig_c.xml").read_bytes()
    assert parse_workbook(data, format="xml") == parse_workbook(data, format="xml")


def test_json_serialize_parse_round_trip(fig_c):
    import json as jsonlib

    from dashmine.model import dashboard_to_dict

    blob = jsonlib.dumps(dashboard_to_dict(fig_c)).encode()
    wb = parse_workbook(blob, format="json")
    assert wb.dashboards == (fig_c,)


def test_missing_required_attribute_names_the_element():
    bad = b'<workbook><dashboards><dashboard id="d"><zone id="z" type="text" x="0" y="0" w="5"/></dashboard></dashboards></workbook>'
    with pytest.raises(SchemaViolation) as err:
        parse_workbook(bad, format="xml")
    assert "h" in str(err.value) and "zone" in str(err.value)


def test_duplicate_zone_id_rejected():
    bad = MINIMAL_XML.replace(b'id="z2"', b'id="z1"')
    with pytest.raises(SchemaViolation) as err:
        parse_workbook(bad, format="xml")
    assert "duplicate zone id" in str(err.value)


# --- extract_blocks -----------------------------------------------------------


def test_filter_zone_maps_to_filter_block():
    zone = ZoneRecord(id="f", kind="filter", x=0, y=0, w=10, h=10, widget="dropdown", field="Region")
    (block,) = extract_blocks([zone], {})
    assert block.block_type is BlockType.FILTER
    assert block.props == FilterProps(widget=WidgetType.DROPDOWN, field="Region")


def test_color_legend_zone_maps_to_legend_block():
    zone = ZoneRecord(id="l", kind="color-legend", x=0, y=0, w=10, h=10)
    (block,) = extract_blocks([zone], {})
    assert block.block_type is BlockType.LEGEND
    assert block.props == LegendProps(channel="color")


def test_unknown_zone_kind_strict_vs_lenient():
    zone = ZoneRecord(id="z", kind="blank", x=0, y=0, w=10, h=10)
    with pytest.raises(SchemaViolation):
        extract_blocks([zone], {}, strict=True)
    (block,) = extract_blocks([zone], {}, strict=False)
    assert block.props == MultimediaProps(kind=MultimediaKind.OTHER)


# --- infer_chart_type ----------------------------------------------------------


def test_infer_chart_type_rule_table():
    bar = Worksheet(name="w", marks=("bar",), encodings=(("column", "Sales"), ("row", "Region")))
    assert infer_chart_type(bar) == ChartType("bar")
    geo = Worksheet(name="w", marks=("circle",), encodings=(("geo", "State"),))
    assert infer_chart_type(geo) == ChartType("map")
    poly = Worksheet(name="w", marks=("polygon",), encodings=(("color", "x"),))
    assert infer_chart_type(poly) == ChartType("polygon")


# --- extract_actions ------------------------------------------------------------


def _dash_with_action(source_type: BlockType, target_type: BlockType) -> Dashboard:
    from dashmine.model import ActionRecord

    return Dashboard(
        id="d",
        blocks=(
            make_block("src", source_type, 0, 0, 10, 10),
            make_block("tgt", target_type, 20, 0, 10, 10),
        ),
        declared_interactions=(ActionRecord("src", "tgt", "highlight"),),
    )


def test_legend_to_chart_action():
    conns = extract_actions(_dash_with_action(BlockType.LEGEND, BlockType.CHART))
    assert len(conns) == 1
    assert conns[0].kind.itype == "highlight"
    assert conns[0].kind.edge_class is EdgeClass.LEGEND_TO_CHART


def test_fig_c_actions_become_eight_connections(fig_c):
    assert len(extract_actions(fig_c)) == 8


def test_unsupported_action_pair_dropped_and_counted():
    counters: dict[str, int] = {}
    conns = extract_actions(_dash_with_action(BlockType.TEXT, BlockType.CHART), counters)
    assert conns == []
    assert counters == {"dropped": 1}


def test_dangling_action_endpoint_raises():
    from dashmine.model import ActionRecord

    d = Dashboard(
        id="d",
        blocks=(make_block("c", BlockType.CHART, 0, 0, 10, 10),),
        declared_interactions=(ActionRecord("c", "ghost", "filter"),),
    )
    with pytest.raises(SchemaViolation):
        extract_actions(d)


def test_edge_class_always_matches_endpoint_types():
    import numpy as np

    from conftest import random_dashboard
    from dashmine.model import classify_interaction

    rng = np.random.default_rng(3)
    for i in range(100):
        d = random_dashboard(rng, f"d{i}")
        by_id = d.blocks_by_id()
        for conn in extract_actions(d):
            expected = classify_interaction(
                by_id[conn.source].block_type, by_id[conn.target].block_type
            )
            assert conn.kind.edge_class == expected


# --- filter_corpus ---------------------------------------------------------------


def _dash_with_charts(dash_id: str, n_charts: int) -> Dashboard:
    blocks = tuple(
        make_block(f"c{i}", BlockType.CHART, 110 * i, 0, 100, 100) for i in range(n_charts)
    )
    return Dashboard(id=dash_id, blocks=blocks)


def test_filter_corpus_keeps_two_or_more_charts():
    one = _dash_with_charts("one", 1)
    two = _dash_with_charts("two", 2)
    assert filter_corpus([one, two], min_charts=2) == [two]


def test_filter_corpus_zero_threshold_is_identity():
    dashboards = [_dash_with_charts(f"d{i}", i) for i in range(4)]
    assert filter_corpus(dashboards, min_charts=0) == dashboards


def test_fig_a_survives_corpus_filter(fig_a):
    assert filter_corpus([fig_a], min_charts=2) == [fig_a]


def test_filter_corpus_idempotent():
    dashboards = [_dash_with_charts(f"d{i}", i) for i in range(6)]
    once = filter_corpus(dashboards, min_charts=2)
    assert filter_corpus(once, min_charts=2) == once
