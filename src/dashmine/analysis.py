"""Structural analysis of dashboard graphs.

Maximal cliques (recurring layout groupings), unweighted shortest
paths, and degree statistics, gathered per dashboard by
:func:`analyze_graphs`.  All functions are pure and invariant under node
relabeling; outputs are canonically sorted so results do not depend on
input order.
"""

from __future__ import annotations

from typing import Any, Iterable, Mapping, Sequence

from .model import Block, DashboardGraphs


def _adjacency_sets(
    node_ids: Sequence[str], edges: Iterable[tuple[str, str]]
) -> dict[str, set[str]]:
    neighbors: dict[str, set[str]] = {v: set() for v in node_ids}
    for u, v in edges:
        if u == v:
            continue
        neighbors[u].add(v)
        neighbors[v].add(u)
    return neighbors


def _degeneracy_order(neighbors: Mapping[str, set[str]]) -> list[str]:
    """Order vertices by repeatedly removing a minimum-degree vertex.

    Ties resolve to the lexicographically smallest id, which makes the
    clique enumeration deterministic.
    """
    degree = {v: len(ns) for v, ns in neighbors.items()}
    remaining = set(neighbors)
    order = []
    while remaining:
        v = min(remaining, key=lambda u: (degree[u], u))
        order.append(v)
        remaining.remove(v)
        for w in neighbors[v]:
            if w in remaining:
                degree[w] -= 1
    return order


def maximal_cliques(
    node_ids: Sequence[str], edges: Iterable[tuple[str, str]]
) -> list[tuple[str, ...]]:
    """All maximal cliques of a simple undirected graph.

    Bron-Kerbosch with pivoting, seeded along a degeneracy ordering.
    Isolated nodes yield size-1 cliques.  Cliques are returned as sorted
    member tuples, largest first (ties by member ids).
    """
    neighbors = _adjacency_sets(node_ids, edges)
    cliques: list[tuple[str, ...]] = []

    def expand(r: set[str], p: set[str], x: set[str]) -> None:
        if not p and not x:
            cliques.append(tuple(sorted(r)))
            return
        pivot = max(sorted(p | x), key=lambda u: len(p & neighbors[u]))
        for v in sorted(p - neighbors[pivot]):
            expand(r | {v}, p & neighbors[v], x & neighbors[v])
            p.remove(v)
            x.add(v)

    order = _degeneracy_order(neighbors)
    position = {v: i for i, v in enumerate(order)}
    for v in order:
        later = {w for w in neighbors[v] if position[w] > position[v]}
        earlier = {w for w in neighbors[v] if position[w] < position[v]}
        expand({v}, later, earlier)

    cliques.sort(key=lambda c: (-len(c), c))
    return cliques


def clique_pattern(clique: Iterable[str], blocks: Mapping[str, Block] | Sequence[Block]) -> str:
    """Canonical block-type pattern of a clique, e.g. ``chart|chart|filter``.

    Any permutation of the same type multiset yields the same string.
    """
    if not isinstance(blocks, Mapping):
        blocks = {b.id: b for b in blocks}
    return "|".join(sorted(blocks[v].block_type.value for v in clique))


def average_shortest_path(node_ids: Sequence[str], edges: Iterable[tuple[str, str]]) -> float:
    """Mean unweighted shortest-path length over reachable ordered pairs.

    BFS from every node; adjacent blocks contribute length one.  Pairs
    with no path are excluded; a graph with no reachable pair (e.g. no
    edges) scores 0.
    """
    neighbors = _adjacency_sets(node_ids, edges)
    total = 0
    count = 0
    for start in node_ids:
        dist = {start: 0}
        frontier = [start]
        while frontier:
            nxt = []
            for u in frontier:
                for w in neighbors[u]:
                    if w not in dist:
                        dist[w] = dist[u] + 1
                        nxt.append(w)
            frontier = nxt
        total += sum(dist.values())
        count += len(dist) - 1
    return total / count if count else 0.0


def analyze_graphs(graphs: DashboardGraphs) -> dict[str, Any]:
    """Per-dashboard structure record: degrees, paths, cliques, patterns.

    This is the one definition of the structural quantities; the
    ``analyze`` stage writes it and the feature extractor reads it.
    Degree means divide by the total node count, isolated nodes
    included, so the interaction graph's in- and out-degree means both
    equal edges/nodes.  Path and clique fields describe the undirected
    adjacency graph.  Clique counts are reported both with and without
    singleton cliques (isolated blocks), since layout summaries usually
    care about groups of two or more.
    """
    node_ids = [b.id for b in graphs.nodes]
    pairs = [(e.source, e.target) for e in graphs.adjacency_edges]
    n = len(node_ids)
    m = len(pairs)
    k = len(graphs.interaction_edges)
    cliques = maximal_cliques(node_ids, pairs)
    nontrivial = [c for c in cliques if len(c) >= 2]
    blocks = graphs.nodes_by_id()
    patterns: dict[str, int] = {}
    for clique in cliques:
        pattern = clique_pattern(clique, blocks)
        patterns[pattern] = patterns.get(pattern, 0) + 1
    per_node = k / n if n else 0.0
    return {
        "dashboard_id": graphs.dashboard_id,
        "adjacency": {
            "n_nodes": n,
            "n_edges": m,
            "mean_degree": 2 * m / n if n else 0.0,
            "mean_shortest_path": average_shortest_path(node_ids, pairs),
            "n_maximal_cliques": len(cliques),
            "n_maximal_cliques_min2": len(nontrivial),
            "mean_clique_size": sum(len(c) for c in cliques) / len(cliques) if cliques else 0.0,
            "mean_clique_size_min2": (
                sum(len(c) for c in nontrivial) / len(nontrivial) if nontrivial else 0.0
            ),
        },
        "interaction": {
            "n_nodes": n,
            "n_edges": k,
            "mean_degree": 2 * k / n if n else 0.0,
            "mean_in_degree": per_node,
            "mean_out_degree": per_node,
        },
        "cliques": [list(c) for c in cliques],
        "clique_patterns": dict(sorted(patterns.items())),
    }
