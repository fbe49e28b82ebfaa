from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from dashmine.analysis import (
    analyze_graphs,
    average_shortest_path,
    clique_pattern,
    maximal_cliques,
)
from dashmine.geometry import build_graphs
from dashmine.model import BlockType, DashboardGraphs, GraphNode

from conftest import make_block, random_dashboard
from oracles import (
    exhaustive_maximal_cliques,
    floyd_warshall_average,
    golden_adjacency_stats,
    golden_interaction_degree_stats,
    golden_maximal_cliques,
)


def _random_graph(rng, n_max=12):
    n = int(rng.integers(1, n_max + 1))
    ids = [f"n{i}" for i in range(n)]
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < 0.4:
                edges.append((ids[i], ids[j]))
    return ids, edges


def test_triangle_with_pendant_edge():
    ids = ["A", "B", "C", "D"]
    edges = [("A", "B"), ("A", "C"), ("B", "C"), ("C", "D")]
    assert maximal_cliques(ids, edges) == [("A", "B", "C"), ("C", "D")]


def test_isolated_nodes_are_singleton_cliques():
    assert maximal_cliques(["A", "B"], []) == [("A",), ("B",)]


def test_self_loops_are_ignored():
    assert maximal_cliques(["A", "B"], [("A", "A"), ("A", "B")]) == [("A", "B")]


def test_cliques_match_exhaustive_enumeration():
    rng = np.random.default_rng(31)
    for _ in range(100):
        ids, edges = _random_graph(rng, n_max=10)
        got = {frozenset(c) for c in maximal_cliques(ids, edges)}
        index = {v: i for i, v in enumerate(ids)}
        expected = exhaustive_maximal_cliques(
            len(ids), [(index[u], index[v]) for u, v in edges]
        )
        assert {frozenset(ids[i] for i in c) for c in expected} == got


def test_cliques_match_golden_degeneracy_enumeration():
    assert maximal_cliques([], []) == golden_maximal_cliques([], []) == []
    assert maximal_cliques(["a"], []) == golden_maximal_cliques(["a"], []) == [("a",)]
    rng = np.random.default_rng(67)
    for i in range(300):
        graphs = _graphs_of(random_dashboard(rng, f"g{i}"))
        ids = [b.id for b in graphs.nodes]
        pairs = [(e.source, e.target) for e in graphs.adjacency_edges]
        assert maximal_cliques(ids, pairs) == golden_maximal_cliques(ids, pairs)
    for _ in range(250):
        n = int(rng.integers(2, 33))
        density = rng.uniform(0.0, 0.9)
        ids = [f"v{j}" for j in rng.permutation(n)]  # id order differs from index order
        pairs = [
            (ids[i], ids[j]) for i in range(n) for j in range(i + 1, n) if rng.random() < density
        ]
        assert maximal_cliques(ids, pairs) == golden_maximal_cliques(ids, pairs)


def test_a_clique_larger_than_the_recursion_limit_is_enumerated():
    code = (
        "import sys\n"
        "from dashmine.analysis import maximal_cliques\n"
        "sys.setrecursionlimit(200)\n"
        "ids = [f'n{i:03d}' for i in range(300)]\n"
        "edges = [(u, v) for i, u in enumerate(ids) for v in ids[i + 1:]]\n"
        "assert maximal_cliques(ids, edges) == [tuple(ids)]\n"
    )
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert result.returncode == 0, result.stderr


def test_clique_maximality_and_coverage():
    rng = np.random.default_rng(37)
    for _ in range(200):
        ids, edges = _random_graph(rng)
        neighbors = {v: set() for v in ids}
        for u, v in edges:
            neighbors[u].add(v)
            neighbors[v].add(u)
        cliques = maximal_cliques(ids, edges)
        covered = set()
        for clique in cliques:
            members = set(clique)
            covered |= members
            for v in ids:
                if v not in members:
                    assert not members <= neighbors[v], "clique is extendable"
        assert covered == set(ids)


def test_cliques_invariant_under_relabeling():
    rng = np.random.default_rng(41)
    for _ in range(50):
        ids, edges = _random_graph(rng)
        mapping = {v: f"x{i:03d}" for i, v in enumerate(rng.permutation(ids))}
        relabeled = maximal_cliques(
            [mapping[v] for v in ids], [(mapping[u], mapping[v]) for u, v in edges]
        )
        original = maximal_cliques(ids, edges)
        assert {frozenset(mapping[v] for v in c) for c in original} == {
            frozenset(c) for c in relabeled
        }


def test_clique_pattern_is_canonical():
    blocks = {
        "C1": GraphNode("C1", BlockType.CHART, "bar"),
        "C2": GraphNode("C2", BlockType.CHART, "line"),
        "F1": GraphNode("F1", BlockType.FILTER, None),
        "M1": GraphNode("M1", BlockType.MULTIMEDIA, None),
    }
    assert clique_pattern(["C1", "C2", "F1"], blocks) == "chart|chart|filter"
    assert clique_pattern(["F1", "C2", "C1"], blocks) == "chart|chart|filter"
    assert clique_pattern(["M1"], blocks) == "multimedia"


def test_path_graph_average():
    ids = ["A", "B", "C"]
    edges = [("A", "B"), ("B", "C")]
    assert average_shortest_path(ids, edges) == 4 / 3


def test_edgeless_graph_average_is_zero():
    assert average_shortest_path(["A", "B", "C"], []) == 0.0


def test_average_path_matches_floyd_warshall():
    rng = np.random.default_rng(43)
    for _ in range(100):
        ids, edges = _random_graph(rng, n_max=30)
        index = {v: i for i, v in enumerate(ids)}
        expected = floyd_warshall_average(len(ids), [(index[u], index[v]) for u, v in edges])
        assert average_shortest_path(ids, edges) == expected


def test_complete_graph_average_is_one():
    ids = [f"n{i}" for i in range(6)]
    edges = [(ids[i], ids[j]) for i in range(6) for j in range(i + 1, 6)]
    assert average_shortest_path(ids, edges) == 1.0


def _graphs_of(dashboard):
    return build_graphs(dashboard)


def test_fig_a_interaction_degree_means(fig_graphs):
    stats = analyze_graphs(fig_graphs["fig_a"])["interaction"]
    assert stats["mean_in_degree"] == stats["mean_out_degree"] == 3.0


def test_fig_b_interaction_degree_zero(fig_graphs):
    stats = analyze_graphs(fig_graphs["fig_b"])["interaction"]
    assert stats["mean_in_degree"] == stats["mean_out_degree"] == 0.0


def test_star_out_degree():
    from dashmine.model import ActionRecord, Dashboard

    blocks = (
        make_block("F", BlockType.FILTER, 0, 0, 10, 10),
        make_block("C1", BlockType.CHART, 20, 0, 10, 10),
        make_block("C2", BlockType.CHART, 40, 0, 10, 10),
        make_block("C3", BlockType.CHART, 60, 0, 10, 10),
    )
    actions = tuple(ActionRecord("F", f"C{i}", "filter") for i in (1, 2, 3))
    graphs = _graphs_of(Dashboard(id="star", blocks=blocks, declared_interactions=actions))
    stats = analyze_graphs(graphs)["interaction"]
    assert stats["mean_out_degree"] == 0.75
    assert stats["mean_in_degree"] == 0.75


def test_in_degree_equals_out_degree_always():
    rng = np.random.default_rng(47)
    for i in range(100):
        stats = analyze_graphs(_graphs_of(random_dashboard(rng, f"d{i}")))["interaction"]
        assert stats["mean_in_degree"] == stats["mean_out_degree"]


def test_adjacency_mean_degree_identity():
    rng = np.random.default_rng(53)
    for i in range(50):
        graphs = _graphs_of(random_dashboard(rng, f"d{i}"))
        stats = analyze_graphs(graphs)["adjacency"]
        if stats["n_nodes"]:
            assert stats["mean_degree"] == 2 * stats["n_edges"] / stats["n_nodes"]


def test_stats_invariant_under_relabeling():
    rng = np.random.default_rng(59)
    d = random_dashboard(rng, "orig")
    graphs = _graphs_of(d)
    mapping = {b.id: f"z{i:03d}" for i, b in enumerate(d.blocks)}
    from dataclasses import replace

    renamed = DashboardGraphs(
        dashboard_id="renamed",
        nodes=tuple(replace(b, id=mapping[b.id]) for b in graphs.nodes),
        adjacency_edges=tuple(
            replace(e, source=min(mapping[e.source], mapping[e.target]),
                    target=max(mapping[e.source], mapping[e.target]))
            for e in graphs.adjacency_edges
        ),
        interaction_edges=tuple(
            replace(e, source=mapping[e.source], target=mapping[e.target])
            for e in graphs.interaction_edges
        ),
    )
    a, b = analyze_graphs(graphs)["adjacency"], analyze_graphs(renamed)["adjacency"]
    keys = ("n_edges", "mean_degree", "mean_shortest_path", "n_maximal_cliques")
    assert [a[k] for k in keys] == [b[k] for k in keys]


def test_analysis_document_counts_cliques_both_ways():
    from dashmine.model import AdjacencyConfig, AdjacencyEdge

    # one edge a--b plus an isolated node
    graphs = DashboardGraphs(
        dashboard_id="d",
        nodes=(
            GraphNode("a", BlockType.CHART, "bar"),
            GraphNode("b", BlockType.CHART, "bar"),
            GraphNode("iso", BlockType.MULTIMEDIA, None),
        ),
        adjacency_edges=(AdjacencyEdge("a", "b", AdjacencyConfig.ADJOINING),),
    )
    doc = analyze_graphs(graphs)
    assert doc["adjacency"]["n_maximal_cliques"] == 2  # {a,b} and {iso}
    assert doc["adjacency"]["n_maximal_cliques_min2"] == 1
    assert doc["clique_patterns"] == {"chart|chart": 1, "multimedia": 1}


def test_structure_record_matches_golden_stats(fig_graphs):
    rng = np.random.default_rng(61)
    cases = [DashboardGraphs(dashboard_id="empty", nodes=()), *fig_graphs.values()]
    cases += [_graphs_of(random_dashboard(rng, f"g{i}")) for i in range(300)]
    for graphs in cases:
        doc = analyze_graphs(graphs)
        adj, inter = doc["adjacency"], doc["interaction"]
        for key, value in golden_adjacency_stats(graphs).items():
            assert adj[key] == value, (graphs.dashboard_id, key)
        for key, value in golden_interaction_degree_stats(graphs).items():
            assert inter[key] == value, (graphs.dashboard_id, key)
        cliques = maximal_cliques(
            [b.id for b in graphs.nodes], [(e.source, e.target) for e in graphs.adjacency_edges]
        )
        nontrivial = [c for c in cliques if len(c) >= 2]
        assert adj["n_maximal_cliques_min2"] == len(nontrivial)
        assert adj["mean_clique_size_min2"] == (
            sum(len(c) for c in nontrivial) / len(nontrivial) if nontrivial else 0.0
        )
        assert doc["cliques"] == [list(c) for c in cliques]
