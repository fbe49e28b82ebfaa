from __future__ import annotations

import numpy as np
import pytest

from dashmine.errors import SchemaViolation
from dashmine.geometry import (
    Tolerance,
    build_adjacency_graph,
    build_graphs,
    build_interaction_graph,
    detect_adjacency,
    max_possible_interactions,
)
from dashmine.model import (
    ActionRecord,
    AdjacencyConfig,
    AdjacencyEdge,
    BlockType,
    Dashboard,
    EdgeClass,
    InteractionEdge,
    classify_interaction,
)

from conftest import make_block, random_dashboard
from oracles import golden_interaction_graph, rasterized_adjacency


def rect_block(block_id: str, x: int, y: int, w: int, h: int):
    return make_block(block_id, BlockType.TEXT, x, y, w, h)


def detect(a, b, tol=10):
    return detect_adjacency(rect_block("a", *a), rect_block("b", *b), Tolerance(tol))


def test_containment():
    assert detect((0, 0, 100, 100), (10, 10, 20, 20)) is AdjacencyConfig.CONTAINMENT


def test_shared_edge_is_adjoining():
    assert detect((0, 0, 100, 100), (100, 0, 100, 100)) is AdjacencyConfig.ADJOINING
    # zero gap adjoins even with zero tolerance
    assert detect((0, 0, 100, 100), (100, 0, 100, 100), tol=0) is AdjacencyConfig.ADJOINING


def test_distant_blocks_unrelated():
    assert detect((0, 0, 50, 50), (200, 200, 50, 50)) is None


def test_partial_overlap():
    assert detect((0, 0, 100, 100), (50, 50, 100, 100)) is AdjacencyConfig.PARTIAL_OVERLAP


def test_small_gap_adjoins_within_tolerance():
    assert detect((0, 0, 100, 100), (108, 20, 50, 50)) is AdjacencyConfig.ADJOINING
    assert rasterized_adjacency((0, 0, 100, 100), (108, 20, 50, 50), 10) == "adjoining"


def test_gap_just_past_tolerance_is_none():
    assert detect((0, 0, 100, 100), (111, 20, 50, 50)) is None
    assert detect((0, 0, 100, 100), (110, 20, 50, 50)) is AdjacencyConfig.ADJOINING


def test_negative_tolerance_is_rejected():
    with pytest.raises(ValueError, match="tolerance"):
        Tolerance(-1)


def test_corner_touch_is_not_adjacent():
    assert detect((0, 0, 100, 100), (100, 100, 50, 50)) is None


def test_identical_rectangles_are_containment():
    assert detect((5, 5, 40, 40), (5, 5, 40, 40)) is AdjacencyConfig.CONTAINMENT


def _random_rect(rng):
    return (
        int(rng.integers(0, 60)),
        int(rng.integers(0, 60)),
        int(rng.integers(1, 40)),
        int(rng.integers(1, 40)),
    )


def test_agrees_with_rasterization_oracle():
    rng = np.random.default_rng(11)
    for _ in range(300):
        a, b = _random_rect(rng), _random_rect(rng)
        tol = int(rng.choice([0, 5, 10]))
        got = detect(a, b, tol)
        want = rasterized_adjacency(a, b, tol)
        assert (got.value if got else None) == want, (a, b, tol)


def test_symmetry():
    rng = np.random.default_rng(13)
    for _ in range(200):
        a, b = _random_rect(rng), _random_rect(rng)
        tol = Tolerance(int(rng.integers(0, 15)))
        ra = detect_adjacency(rect_block("a", *a), rect_block("b", *b), tol)
        rb = detect_adjacency(rect_block("b", *b), rect_block("a", *a), tol)
        assert ra == rb


def test_tolerance_monotonicity():
    rng = np.random.default_rng(17)
    for _ in range(200):
        a, b = _random_rect(rng), _random_rect(rng)
        t1, t2 = sorted((int(rng.integers(0, 12)), int(rng.integers(0, 12))))
        at_t1 = detect(a, b, t1)
        at_t2 = detect(a, b, t2)
        if at_t1 is AdjacencyConfig.ADJOINING:
            assert at_t2 is AdjacencyConfig.ADJOINING
        if at_t1 in (AdjacencyConfig.CONTAINMENT, AdjacencyConfig.PARTIAL_OVERLAP):
            assert at_t2 is at_t1  # geometry-only classes ignore tolerance


# --- graph construction --------------------------------------------------------


def test_disjoint_blocks_no_edges():
    blocks = [rect_block("a", 0, 0, 10, 10), rect_block("b", 500, 500, 10, 10)]
    assert build_adjacency_graph(blocks) == []


def test_fig_c_adjacency_is_disconnected(fig_graphs):
    graphs = fig_graphs["fig_c"]
    neighbors = {b.id: set() for b in graphs.nodes}
    for e in graphs.adjacency_edges:
        neighbors[e.source].add(e.target)
        neighbors[e.target].add(e.source)
    seen: set[str] = set()
    components = 0
    for v in neighbors:
        if v in seen:
            continue
        components += 1
        stack = [v]
        while stack:
            u = stack.pop()
            if u in seen:
                continue
            seen.add(u)
            stack.extend(neighbors[u])
    assert components >= 2


def test_identical_stacked_rectangles_form_complete_graph():
    n = 5
    blocks = [rect_block(f"r{i}", 10, 10, 50, 50) for i in range(n)]
    edges = build_adjacency_graph(blocks)
    assert len(edges) == n * (n - 1) // 2
    assert all(e.config is AdjacencyConfig.CONTAINMENT for e in edges)


def test_adjacency_graph_order_independent():
    rng = np.random.default_rng(19)
    for i in range(30):
        d = random_dashboard(rng, f"d{i}")
        blocks = list(d.blocks)
        edges = build_adjacency_graph(blocks)
        perm = [blocks[j] for j in rng.permutation(len(blocks))]
        assert build_adjacency_graph(perm) == edges


def test_interaction_graph_dedup_and_self_loops():
    blocks = (
        make_block("C1", BlockType.CHART, 0, 0, 10, 10),
        make_block("C2", BlockType.CHART, 20, 0, 10, 10),
    )
    declared = tuple(ActionRecord(s, t, "filter") for s, t in (("C1", "C2"), ("C1", "C2"), ("C1", "C1")))
    edges = build_interaction_graph(Dashboard(id="d", blocks=blocks, declared_interactions=declared))
    assert [(e.source, e.target) for e in edges] == [("C1", "C2")]


def test_interaction_graph_equals_golden_two_step_path(fig_a, fig_b, fig_c):
    rng = np.random.default_rng(41)
    cases = [fig_a, fig_b, fig_c] + [random_dashboard(rng, f"d{i}") for i in range(300)]
    dropped = self_loops = duplicates = 0
    for d in cases:
        counters: dict[str, int] = {}
        golden_counters: dict[str, int] = {}
        assert build_interaction_graph(d, counters) == golden_interaction_graph(d, golden_counters)
        assert counters == golden_counters
        dropped += counters.get("dropped", 0)
        kinds = {b.id: b.block_type for b in d.blocks}
        keys = [
            (a.source, a.target, classify_interaction(kinds[a.source], kinds[a.target]))
            for a in d.declared_interactions
        ]
        kept = [k for k in keys if k[2] is not None]
        self_loops += sum(1 for s, t, _ in kept if s == t)
        duplicates += len(kept) - len(set(kept))
    # the random cases exercise every rule the two paths must agree on
    assert dropped and self_loops and duplicates

    # a dangling endpoint fails at construction, wherever it sits
    for i, d in enumerate(cases[3:50]):
        actions = list(d.declared_interactions)
        actions.insert(i % (len(actions) + 1), ActionRecord(d.blocks[0].id, "ghost", "filter"))
        with pytest.raises(SchemaViolation) as info:
            Dashboard(id=d.id, blocks=d.blocks, declared_interactions=tuple(actions))
        assert str(info.value) == f"dashboard {d.id!r}: unknown interaction endpoint: 'ghost'"


def test_interaction_graph_empty_for_static_dashboard(fig_graphs):
    assert fig_graphs["fig_b"].interaction_edges == ()


def test_fig_a_has_twelve_chart_chart_edges(fig_graphs):
    edges = fig_graphs["fig_a"].interaction_edges
    assert len(edges) == 12
    assert all(e.edge_class is EdgeClass.CHART_TO_CHART for e in edges)


def test_max_possible_interactions():
    charts = [make_block(f"c{i}", BlockType.CHART, 110 * i, 0, 100, 100) for i in range(4)]
    assert max_possible_interactions(charts) == 12
    assert max_possible_interactions([]) == 0
    mixed = [
        make_block("c1", BlockType.CHART, 0, 0, 10, 10),
        make_block("c2", BlockType.CHART, 20, 0, 10, 10),
        make_block("l1", BlockType.LEGEND, 40, 0, 10, 10),
        make_block("f1", BlockType.FILTER, 60, 0, 10, 10),
        make_block("f2", BlockType.FILTER, 80, 0, 10, 10),
    ]
    assert max_possible_interactions(mixed) == 8


def test_max_possible_matches_legal_edge_enumeration():
    # enumerate every directed edge the three supported classes allow
    rng = np.random.default_rng(23)
    for i in range(50):
        d = random_dashboard(rng, f"d{i}")
        charts = [b.id for b in d.blocks if b.block_type is BlockType.CHART]
        drivers = [
            b.id
            for b in d.blocks
            if b.block_type in (BlockType.FILTER, BlockType.LEGEND)
        ]
        legal = sum(1 for s in charts for t in charts if s != t) + sum(
            1 for _ in drivers for _ in charts
        )
        assert max_possible_interactions(d.blocks) == legal


def test_interaction_bound_on_random_dashboards():
    rng = np.random.default_rng(29)
    for i in range(200):
        d = random_dashboard(rng, f"d{i}")
        graphs = build_graphs(d)
        assert len(graphs.interaction_edges) <= max_possible_interactions(d.blocks)


def test_fig_a_attains_the_bound(fig_a, fig_graphs):
    assert len(fig_graphs["fig_a"].interaction_edges) == max_possible_interactions(fig_a.blocks) == 12


def test_built_graphs_keep_their_invariants(fig_graphs):
    rng = np.random.default_rng(71)
    cases = list(fig_graphs.values())
    cases += [build_graphs(random_dashboard(rng, f"d{i}")) for i in range(200)]
    for graphs in cases:
        by_id = graphs.nodes_by_id()
        assert len(by_id) == len(graphs.nodes)
        adjacency = [(e.source, e.target) for e in graphs.adjacency_edges]
        assert len(set(adjacency)) == len(adjacency)
        for edge in graphs.adjacency_edges:
            assert isinstance(edge, AdjacencyEdge)
            assert edge.source < edge.target  # canonical, no self-loop
            assert edge.source in by_id and edge.target in by_id
        keys = [(e.source, e.target, e.edge_class) for e in graphs.interaction_edges]
        assert len(set(keys)) == len(keys)
        for edge in graphs.interaction_edges:
            assert isinstance(edge, InteractionEdge)
            assert edge.source != edge.target
            source, target = by_id[edge.source], by_id[edge.target]
            assert classify_interaction(source.block_type, target.block_type) is edge.edge_class
