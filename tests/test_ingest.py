from __future__ import annotations

import pytest

from dashmine.errors import MalformedDocument, SchemaViolation
from dashmine.geometry import build_interaction_graph
from dashmine.ingest import filter_corpus, parse_workbook
from dashmine.model import (
    BlockType,
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


def test_json_block_props_of_the_wrong_shape_is_a_schema_violation():
    doc = b'{"id": "d", "blocks": [{"id": "c", "type": "chart", "x": 0, "y": 0, "w": 5, "h": 5, "props": []}]}'
    with pytest.raises(SchemaViolation):
        parse_workbook(doc, format="json")


@pytest.mark.parametrize("key", ["x", "w"])
def test_json_block_coordinate_out_of_integer_range_is_a_schema_violation(key):
    # 1e999 decodes to an infinite float, which int() cannot convert
    coords = {"x": "0", "y": "0", "w": "5", "h": "5"} | {key: "1e999"}
    block = ", ".join(['"id": "c"', '"type": "chart"'] + [f'"{k}": {v}' for k, v in coords.items()])
    with pytest.raises(SchemaViolation, match="infinity"):
        parse_workbook('{"id": "d", "blocks": [{%s}]}' % block, format="json")


def test_minimal_xml_workbook():
    dashboards = parse_workbook(MINIMAL_XML, format="xml")
    assert len(dashboards) == 1
    d = dashboards[0]
    assert len(d.blocks) == 2
    assert d.declared_interactions == ()


def test_fig_a_xml_has_four_charts_and_twelve_actions():
    (d,) = parse_workbook((FIXTURES / "fig_a.xml").read_bytes(), format="xml")
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
        assert from_xml == (load_fixture(name),)


def test_parsing_is_deterministic():
    data = (FIXTURES / "fig_c.xml").read_bytes()
    assert parse_workbook(data, format="xml") == parse_workbook(data, format="xml")


def test_json_serialize_parse_round_trip(fig_c):
    import json as jsonlib

    from dashmine.model import dashboard_to_dict

    blob = jsonlib.dumps(dashboard_to_dict(fig_c)).encode()
    assert parse_workbook(blob, format="json") == (fig_c,)


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


# --- zones to blocks -------------------------------------------------------------


def _zone_block(zone_attrs: str, strict: bool = True):
    """Parse a one-zone dashboard and return its block."""
    doc = f"<workbook><dashboards><dashboard id='d'><zone {zone_attrs}/></dashboard></dashboards></workbook>"
    (dashboard,) = parse_workbook(doc, format="xml", strict=strict)
    (block,) = dashboard.blocks
    return block


def test_filter_zone_maps_to_filter_block():
    block = _zone_block("id='f' type='filter' x='0' y='0' w='10' h='10' widget='dropdown' field='Region'")
    assert block.block_type is BlockType.FILTER
    assert block.props == FilterProps(widget=WidgetType.DROPDOWN, field="Region")


def test_color_legend_zone_maps_to_legend_block():
    block = _zone_block("id='l' type='color-legend' x='0' y='0' w='10' h='10'")
    assert block.block_type is BlockType.LEGEND
    assert block.props == LegendProps(channel="color")


def test_unknown_zone_kind_strict_vs_lenient():
    zone = "id='z' type='blank' x='0' y='0' w='10' h='10'"
    with pytest.raises(SchemaViolation):
        _zone_block(zone, strict=True)
    block = _zone_block(zone, strict=False)
    assert block.props == MultimediaProps(kind=MultimediaKind.OTHER)


def _fault_doc(zones: str = "", actions: str = "", datasources: str = "", dash_attrs: str = "") -> str:
    """A one-dashboard workbook whose chart zone c1 is valid; the arguments add one fault."""
    return (
        f"<workbook><datasources>{datasources}</datasources><worksheets>"
        "<worksheet name='w1'><mark type='bar'/><encoding channel='column' field='A'/></worksheet>"
        f"</worksheets><dashboards><dashboard id='d'{dash_attrs}>"
        "<zone id='c1' type='chart' x='0' y='0' w='100' h='100' worksheet='w1'/>"
        f"{zones}{actions}</dashboard></dashboards></workbook>"
    )


ZONE = "dashboards/dashboard[0]/zone[1]: "


@pytest.mark.parametrize(
    "doc, message",
    [
        (_fault_doc("<zone type='text' x='0' y='0' w='5' h='5'/>"), ZONE + "missing required attribute 'id'"),
        (_fault_doc("<zone id='t' x='0' y='0' w='5' h='5'/>"), ZONE + "missing required attribute 'type'"),
        (_fault_doc("<zone id='t' type='text' y='0' w='5' h='5'/>"), ZONE + "missing required attribute 'x'"),
        (
            _fault_doc("<zone id='t' type='text' x='0' y='0' w='5px' h='5'/>"),
            ZONE + "attribute 'w' is not an integer: '5px'",
        ),
        (
            _fault_doc("<zone id='c2' type='chart' x='0' y='0' w='5' h='5'/>"),
            ZONE + "chart zone without worksheet reference",
        ),
        (
            _fault_doc("<zone id='c2' type='chart' x='0' y='0' w='5' h='5' worksheet='nope'/>"),
            ZONE + "unknown worksheet: nope",
        ),
        (_fault_doc("<zone id='z' type='blank' x='0' y='0' w='5' h='5'/>"), ZONE + "unknown zone kind: 'blank'"),
        (_fault_doc("<zone id='c1' type='text' x='0' y='0' w='5' h='5'/>"), ZONE + "duplicate zone id: c1"),
        (
            _fault_doc(actions="<action source='c1' target='ghost' type='filter'/>"),
            "dashboards/dashboard[0]/action[0]: action references unknown zone: ghost",
        ),
        (
            _fault_doc(datasources="<datasource><attribute name='A' datatype='string'/></datasource>"),
            "datasources/datasource[0]: missing required attribute 'name'",
        ),
        (
            _fault_doc(datasources="<datasource name='s'><attribute name='A'/></datasource>"),
            "datasources/datasource[0]: missing required attribute 'datatype'",
        ),
    ],
    ids=[
        "zone-id",
        "zone-type",
        "zone-x",
        "zone-w-not-int",
        "chart-no-worksheet",
        "chart-unknown-worksheet",
        "unknown-kind-strict",
        "duplicate-zone-id",
        "dangling-action",
        "datasource-name",
        "datasource-attribute-datatype",
    ],
)
def test_single_fault_documents_keep_their_messages(doc, message):
    with pytest.raises(SchemaViolation) as err:
        parse_workbook(doc, format="xml")
    assert str(err.value) == message


def test_dashboard_size_must_be_integer():
    (d,) = parse_workbook(_fault_doc(dash_attrs=" width='800' height='600'"), format="xml")
    assert (d.width, d.height) == (800, 600)
    for attrs, attr, raw in ((" width='800px'", "width", "800px"), (" height='6e2'", "height", "6e2")):
        with pytest.raises(SchemaViolation) as err:
            parse_workbook(_fault_doc(dash_attrs=attrs), format="xml")
        assert str(err.value) == f"dashboards/dashboard[0]: attribute {attr!r} is not an integer: {raw!r}"


# --- chart type inference at ingest --------------------------------------------

RULE_TABLE_XML = b"""
<workbook>
  <worksheets>
    <worksheet name="bar"><mark type="bar"/><encoding channel="column" field="Sales"/><encoding channel="row" field="Region"/></worksheet>
    <worksheet name="geo"><mark type="circle"/><encoding channel="geo" field="State"/></worksheet>
    <worksheet name="poly"><mark type="polygon"/><encoding channel="color" field="x"/></worksheet>
  </worksheets>
  <dashboards>
    <dashboard id="d1">
      <zone id="z1" type="chart" x="0" y="0" w="100" h="100" worksheet="bar"/>
      <zone id="z2" type="chart" x="100" y="0" w="100" h="100" worksheet="geo"/>
      <zone id="z3" type="chart" x="200" y="0" w="100" h="100" worksheet="poly"/>
    </dashboard>
  </dashboards>
</workbook>
"""


def test_infer_chart_type_rule_table():
    # chart blocks get their visualization type from the referenced worksheet
    blocks = parse_workbook(RULE_TABLE_XML, format="xml")[0].blocks
    assert {b.id: b.props.vis_type for b in blocks} == {
        "z1": "bar",
        "z2": "map",
        "z3": "polygon",
    }


# --- actions to interaction edges --------------------------------------------------


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
    conns = build_interaction_graph(_dash_with_action(BlockType.LEGEND, BlockType.CHART))
    assert len(conns) == 1
    assert conns[0].itype == "highlight"
    assert conns[0].edge_class is EdgeClass.LEGEND_TO_CHART


def test_fig_c_actions_become_eight_connections(fig_c):
    assert len(build_interaction_graph(fig_c)) == 8


def test_unsupported_action_pair_dropped_and_counted():
    counters: dict[str, int] = {}
    conns = build_interaction_graph(_dash_with_action(BlockType.TEXT, BlockType.CHART), counters)
    assert conns == []
    assert counters == {"dropped": 1}


def test_dangling_action_endpoint_raises():
    from dashmine.model import ActionRecord

    # a dashboard with a dangling action never reaches build_interaction_graph
    with pytest.raises(SchemaViolation) as info:
        Dashboard(
            id="d",
            blocks=(make_block("c", BlockType.CHART, 0, 0, 10, 10),),
            declared_interactions=(ActionRecord("c", "ghost", "filter"),),
        )
    assert "'d'" in str(info.value) and "'ghost'" in str(info.value)


def test_edge_class_always_matches_endpoint_types():
    import numpy as np

    from conftest import random_dashboard
    from dashmine.model import classify_interaction

    rng = np.random.default_rng(3)
    for i in range(100):
        d = random_dashboard(rng, f"d{i}")
        by_id = d.blocks_by_id()
        for conn in build_interaction_graph(d):
            expected = classify_interaction(
                by_id[conn.source].block_type, by_id[conn.target].block_type
            )
            assert conn.edge_class == expected


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
