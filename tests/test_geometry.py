from __future__ import annotations

import numpy as np

from dashmine.geometry import (
    Tolerance,
    build_adjacency_graph,
    build_graphs,
    build_interaction_graph,
    detect_adjacency,
    max_possible_interactions,
)
from dashmine.model import (
    AdjacencyConfig,
    AdjacencyKind,
    BlockType,
    Connection,
    EdgeClass,
    InteractionKind,
    classify_interaction,
)

from conftest import make_block, random_dashboard
from oracles import rasterized_adjacency


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
    assert all(e.kind.config is AdjacencyConfig.CONTAINMENT for e in edges)


def test_adjacency_graph_order_independent():
    rng = np.random.default_rng(19)
    for i in range(30):
        d = random_dashboard(rng, f"d{i}")
        blocks = list(d.blocks)
        edges = build_adjacency_graph(blocks)
        perm = [blocks[j] for j in rng.permutation(len(blocks))]
        assert build_adjacency_graph(perm) == edges


def _interaction(source: str, target: str, itype: str = "filter") -> Connection:
    return Connection(
        source=source,
        target=target,
        kind=InteractionKind(itype=itype, edge_class=EdgeClass.CHART_TO_CHART),
    )


def test_interaction_graph_dedup_and_self_loops():
    blocks = [
        make_block("C1", BlockType.CHART, 0, 0, 10, 10),
        make_block("C2", BlockType.CHART, 20, 0, 10, 10),
    ]
    declared = [_interaction("C1", "C2"), _interaction("C1", "C2"), _interaction("C1", "C1")]
    edges = build_interaction_graph(blocks, declared)
    assert [(e.source, e.target) for e in edges] == [("C1", "C2")]


def test_interaction_graph_empty_for_static_dashboard(fig_graphs):
    assert fig_graphs["fig_b"].interaction_edges == ()


def test_fig_a_has_twelve_chart_chart_edges(fig_graphs):
    edges = fig_graphs["fig_a"].interaction_edges
    assert len(edges) == 12
    assert all(e.kind.edge_class is EdgeClass.CHART_TO_CHART for e in edges)


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
            assert isinstance(edge.kind, AdjacencyKind)
            assert edge.source < edge.target  # canonical, no self-loop
            assert edge.source in by_id and edge.target in by_id
        keys = [(e.source, e.target, e.kind.edge_class) for e in graphs.interaction_edges]
        assert len(set(keys)) == len(keys)
        for edge in graphs.interaction_edges:
            assert isinstance(edge.kind, InteractionKind)
            assert edge.source != edge.target
            source, target = by_id[edge.source], by_id[edge.target]
            assert classify_interaction(source.block_type, target.block_type) is edge.kind.edge_class
