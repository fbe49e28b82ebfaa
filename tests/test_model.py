from __future__ import annotations

import numpy as np
import pytest

from dashmine.model import (
    ActionRecord,
    AdjacencyConfig,
    AdjacencyEdge,
    Block,
    BlockType,
    ChartProps,
    Dashboard,
    DashboardGraphs,
    EdgeClass,
    GraphNode,
    InteractionEdge,
    TextProps,
    dashboard_from_dict,
    dashboard_to_dict,
    from_json,
    graphs_from_dict,
    graphs_to_dict,
    infer_vis_type,
    props_to_dict,
    validate,
)
from dashmine.errors import SchemaViolation
from dashmine.geometry import build_graphs

from conftest import make_block, random_dashboard


def test_validate_duplicate_block_id():
    with pytest.raises(SchemaViolation) as info:
        Dashboard(
            id="d",
            blocks=(
                make_block("b1", BlockType.TEXT, 0, 0, 10, 10),
                make_block("b1", BlockType.TEXT, 20, 0, 10, 10),
            ),
        )
    assert str(info.value) == "dashboard 'd': duplicate block id: 'b1'"


def test_validate_fig_b_is_clean(fig_b):
    assert validate(fig_b) == []


def test_validate_dangling_action_endpoint():
    with pytest.raises(SchemaViolation) as info:
        Dashboard(
            id="d",
            blocks=(make_block("c1", BlockType.CHART, 0, 0, 10, 10),),
            declared_interactions=(ActionRecord("ghost", "c1", "filter"),),
        )
    assert str(info.value) == "dashboard 'd': unknown interaction endpoint: 'ghost'"


def test_validate_rejects_zero_area_blocks():
    with pytest.raises(SchemaViolation) as info:
        Dashboard(id="d", blocks=(make_block("b", BlockType.TEXT, 0, 0, 0, 10),))
    assert str(info.value) == "dashboard 'd': zero-area block: 'b' (w=0, h=10)"


def test_validate_props_variant_must_match_type():
    block = Block(id="b", block_type=BlockType.CHART, x=0, y=0, w=5, h=5, props=TextProps())
    with pytest.raises(SchemaViolation) as info:
        Dashboard(id="d", blocks=(block,))
    assert str(info.value) == "dashboard 'd': props mismatch for block 'b': TextProps on a chart block"


def test_validate_chart_type_consistency():
    props = ChartProps(vis_type="pie", marks=("bar",), encodings=())
    block = Block(id="b", block_type=BlockType.CHART, x=0, y=0, w=5, h=5, props=props)
    with pytest.raises(SchemaViolation) as info:
        Dashboard(id="d", blocks=(block,))
    assert str(info.value) == (
        "dashboard 'd': chart type mismatch for block 'b': declared 'pie', marks/encodings imply 'bar'"
    )


def test_serialization_round_trip_fixtures(fig_a, fig_b, fig_c):
    for d in (fig_a, fig_b, fig_c):
        assert dashboard_from_dict(dashboard_to_dict(d)) == d


def test_serialization_round_trip_random():
    rng = np.random.default_rng(42)
    for i in range(50):
        d = random_dashboard(rng, dash_id=f"d{i}")
        assert dashboard_from_dict(dashboard_to_dict(d)) == d


def test_unrecognized_props_keys_ride_along():
    doc = {
        "id": "d",
        "blocks": [
            {
                "id": "f",
                "type": "filter",
                "x": 0,
                "y": 0,
                "w": 10,
                "h": 10,
                "props": {"widget": "slider", "field": "N", "step": 5, "show_label": True},
            }
        ],
        "interactions": [],
    }
    d = dashboard_from_dict(doc)
    assert d.blocks[0].props.extra == {"step": 5, "show_label": True}
    assert dashboard_to_dict(d) == doc


def test_props_to_dict_rejects_an_unknown_variant():
    with pytest.raises(TypeError, match="unknown props variant: dict"):
        props_to_dict({"kind": "image"})


def test_graph_doc_keeps_interaction_type(fig_graphs):
    doc = graphs_to_dict(fig_graphs["fig_c"])
    itypes = {e["itype"] for e in doc["interaction"]}
    assert itypes == {"filter", "highlight"}


def test_text_formatting_round_trips_as_map():
    props = TextProps(content="hi", formatting=(("size", "12"), ("font", "serif")))
    d = Dashboard(
        id="d",
        blocks=(Block(id="t", block_type=BlockType.TEXT, x=0, y=0, w=5, h=5, props=props),),
    )
    assert dashboard_from_dict(dashboard_to_dict(d)) == d


def test_canonical_adjacency_edge_is_order_independent():
    forward = AdjacencyEdge(*sorted(("b", "a")), AdjacencyConfig.ADJOINING)
    backward = AdjacencyEdge(*sorted(("a", "b")), AdjacencyConfig.ADJOINING)
    assert forward == backward
    assert forward.source < forward.target


def test_graphs_doc_round_trip_preserves_structure(fig_graphs):
    rng = np.random.default_rng(97)
    cases = list(fig_graphs.values())
    cases += [build_graphs(random_dashboard(rng, f"d{i}")) for i in range(300)]
    for graphs in cases:
        doc = graphs_to_dict(graphs)
        back = graphs_from_dict(doc)
        assert back == graphs, graphs.dashboard_id
        # chart nodes carry their visualization type; other nodes only id and type
        assert all(set(n) == {"id", "type", "vis_type"} for n in doc["nodes"] if n["type"] == "chart")
        assert all(set(n) == {"id", "type"} for n in doc["nodes"] if n["type"] != "chart")


def test_graphs_doc_chart_without_vis_type_reads_unknown():
    nodes = [{"id": "c", "type": "chart"}, {"id": "t", "type": "text", "vis_type": "bar"}]
    graphs = graphs_from_dict({"dashboard_id": "d1", "nodes": nodes})
    assert graphs.nodes == (
        GraphNode("c", BlockType.CHART, "unknown"),
        GraphNode("t", BlockType.TEXT, None),
    )


_NODES = (GraphNode("c", BlockType.CHART, "bar"), GraphNode("f", BlockType.FILTER, None))


_ADJ = AdjacencyConfig.ADJOINING
_FC = EdgeClass.FILTER_TO_CHART


@pytest.mark.parametrize(
    "kwargs, fault",
    [
        ({"nodes": _NODES + (GraphNode("c", BlockType.CHART, "line"),)}, "repeated node id 'c'"),
        (
            {"adjacency_edges": (AdjacencyEdge("c", "zz", _ADJ),)},
            "adjacency edge 'c' -> 'zz' has an endpoint that is not a node",
        ),
        (
            {"interaction_edges": (InteractionEdge("zz", "c", "filter", _FC),)},
            "interaction edge 'zz' -> 'c' has an endpoint that is not a node",
        ),
        (
            {"interaction_edges": (InteractionEdge("f", "c", "filter", EdgeClass.LEGEND_TO_CHART),)},
            "interaction edge 'f' -> 'c' has class 'legend_chart'",
        ),
        (
            {"interaction_edges": (InteractionEdge("c", "f", "filter", _FC),)},
            "interaction edge 'c' -> 'f' has class 'filter_chart'",
        ),
        ({"adjacency_edges": (AdjacencyEdge("c", "c", _ADJ),)}, "adjacency edge 'c' -> 'c' is a self-loop"),
        (
            {"interaction_edges": (InteractionEdge("c", "c", "filter", EdgeClass.CHART_TO_CHART),)},
            "interaction edge 'c' -> 'c' is a self-loop",
        ),
        (
            {"adjacency_edges": (AdjacencyEdge("f", "c", _ADJ),)},
            "adjacency edge 'f' -> 'c' is not stored with source < target",
        ),
        (
            {"adjacency_edges": (AdjacencyEdge("c", "f", _ADJ), AdjacencyEdge("c", "f", AdjacencyConfig.CONTAINMENT))},
            "adjacency edge 'c' -> 'f' is repeated",
        ),
        (
            {
                "interaction_edges": (
                    InteractionEdge("f", "c", "filter", _FC),
                    InteractionEdge("f", "c", "highlight", _FC),
                )
            },
            "interaction edge 'f' -> 'c' is repeated",
        ),
    ],
    ids=[
        "repeated-node-id",
        "dangling-adjacency-edge",
        "dangling-interaction-edge",
        "interaction-class-not-implied",
        "interaction-to-non-chart",
        "adjacency-self-loop",
        "interaction-self-loop",
        "adjacency-source-after-target",
        "repeated-adjacency-pair",
        "repeated-interaction-pair",
    ],
)
def test_dashboard_graphs_checks_its_invariants(kwargs, fault):
    with pytest.raises(SchemaViolation) as info:
        DashboardGraphs(**({"dashboard_id": "d1", "nodes": _NODES} | kwargs))
    assert str(info.value).startswith("dashboard 'd1': ")
    assert fault in str(info.value)


def test_dashboard_graphs_accepts_both_directions_of_an_interaction():
    nodes = (GraphNode("a", BlockType.CHART, "bar"), GraphNode("b", BlockType.CHART, "line"))
    edges = tuple(InteractionEdge(s, t, "filter", EdgeClass.CHART_TO_CHART) for s, t in ("ab", "ba"))
    assert DashboardGraphs("d1", nodes, (AdjacencyEdge("a", "b", _ADJ),), edges).interaction_edges == edges


@pytest.mark.parametrize(
    "edges",
    [
        {"adjacency": [{"source": "c", "target": "zz", "config": "adjoining"}]},
        {"interaction": [{"source": "zz", "target": "c", "itype": "filter", "class": "chart_chart"}]},
    ],
)
def test_graphs_doc_rejects_edge_to_missing_node(edges):
    doc = {"dashboard_id": "d1", "nodes": [{"id": "c", "type": "chart"}]} | edges
    with pytest.raises(SchemaViolation) as info:
        graphs_from_dict(doc)
    assert "'d1'" in str(info.value) and "'zz'" in str(info.value)
    assert ("adjacency" in edges) == ("adjacency edge" in str(info.value))


def test_repeated_block_or_node_id_rejected():
    block = make_block("c2", BlockType.CHART, 0, 0, 10, 10)
    with pytest.raises(SchemaViolation) as info:
        build_graphs(Dashboard(id="d1", blocks=(make_block("c1", BlockType.CHART, 20, 0, 10, 10), block, block)))
    assert "'d1'" in str(info.value) and "'c2'" in str(info.value)

    nodes = [{"id": "c1", "type": "chart"}, {"id": "c2", "type": "chart"}, {"id": "c2", "type": "chart"}]
    with pytest.raises(SchemaViolation) as info:
        graphs_from_dict({"dashboard_id": "d1", "nodes": nodes})
    assert "'d1'" in str(info.value) and "'c2'" in str(info.value)


def test_graph_node_sets_identical_everywhere():
    rng = np.random.default_rng(7)
    for i in range(50):
        graphs = build_graphs(random_dashboard(rng, f"d{i}"))
        node_ids = {b.id for b in graphs.nodes}
        adj_ids = {v for e in graphs.adjacency_edges for v in (e.source, e.target)}
        int_ids = {v for e in graphs.interaction_edges for v in (e.source, e.target)}
        assert adj_ids <= node_ids and int_ids <= node_ids


def test_infer_vis_type_rules():
    assert infer_vis_type(["bar"], [("column", "Sales"), ("row", "Region")]) == "bar"
    assert infer_vis_type(["circle"], [("geo", "State")]) == "map"
    assert infer_vis_type(["polygon"], []) == "polygon"
    assert infer_vis_type(["polygon"], [("color", "x")]) == "polygon"
    assert infer_vis_type(["line"], []) == "line"
    assert infer_vis_type(["text"], [("row", "a"), ("column", "b")]) == "table"
    assert infer_vis_type(["text"], [("row", "a")]) == "text"
    assert infer_vis_type(["circle"], [("row", "a"), ("column", "b")]) == "scatter"
    assert infer_vis_type(["circle"], [("color", "a")]) == "circle"
    assert infer_vis_type(["pie"], []) == "pie"
    assert infer_vis_type(["area"], []) == "area"
    assert infer_vis_type([], [("row", "a")]) == "unknown"
    # geo wins over any mark rule
    assert infer_vis_type(["bar"], [("geo", "x")]) == "map"


@pytest.mark.parametrize(
    "text, message",
    [
        ("[" * 100_000 + "]" * 100_000, "JSON nested deeper than the decoder goes"),
        ('{"id": ' + "1" * 5000 + "}", "ValueError: Exceeds the limit"),
        ('"d1"', "document is a JSON str, not an object"),
        ("{}", "missing key 'id'"),
        ('{"id": "d1", "blocks": 5}', "TypeError: 'int' object is not iterable"),
    ],
    ids=["deep", "long-integer", "string", "missing-key", "type"],
)
def test_from_json_faults_are_schema_violations(text, message):
    with pytest.raises(SchemaViolation) as info:
        from_json(text, dashboard_from_dict)
    assert str(info.value).startswith(message)
