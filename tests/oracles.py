"""Independent brute-force oracles the tests check the library against.

Each oracle deliberately takes a different route than the implementation
it verifies: pixel-grid rasterization instead of interval arithmetic,
exhaustive subset enumeration instead of Bron-Kerbosch, Floyd-Warshall
instead of BFS, plain loops instead of vectorized silhouette, and a
pure-Python Prim scan for MST weights.  The golden copies at the end are
the exception: frozen earlier versions of two clusterer loops, of the
per-dashboard structural statistics, of the degeneracy-ordered clique
enumeration, of the two-step action-to-edge path and of the corpus
summary and lint records, kept for bit-for-bit comparison.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from statistics import median

import numpy as np

from dashmine.analysis import average_shortest_path, clique_pattern, maximal_cliques
from dashmine.errors import SchemaViolation
from dashmine.geometry import max_possible_interactions
from dashmine.model import (
    BlockType,
    EdgeClass,
    InteractionEdge,
    classify_interaction,
)


# --- adjacency: half-pixel rasterization ------------------------------------


def _axis_points(lo: int, hi: int) -> np.ndarray:
    # Half-pixel lattice; exact for integer rectangle corners and integer
    # dilations (strict interiors of unit intervals contain n + 0.5).
    return np.arange(2 * lo, 2 * hi + 1) / 2.0


def rasterized_adjacency(a, b, tol: int):
    """Grid-sampled re-derivation of the adjacency classification.

    ``a`` and ``b`` are (x, y, w, h) integer rectangles.  Returns one of
    "containment" | "partial_overlap" | "adjoining" | None.
    """
    ax, ay, aw, ah = a
    bx, by, bw, bh = b
    lo_x = min(ax, bx) - tol - 1
    hi_x = max(ax + aw, bx + bw) + tol + 1
    lo_y = min(ay, by) - tol - 1
    hi_y = max(ay + ah, by + bh) + tol + 1
    xs = _axis_points(lo_x, hi_x)
    ys = _axis_points(lo_y, hi_y)

    def closed(rect, dilate=0):
        x, y, w, h = rect
        mx = (xs >= x - dilate) & (xs <= x + w + dilate)
        my = (ys >= y - dilate) & (ys <= y + h + dilate)
        return mx[:, None] & my[None, :]

    def interior(rect):
        x, y, w, h = rect
        mx = (xs > x) & (xs < x + w)
        my = (ys > y) & (ys < y + h)
        return mx[:, None] & my[None, :]

    mask_a, mask_b = closed(a), closed(b)
    if not (mask_b & ~mask_a).any() or not (mask_a & ~mask_b).any():
        return "containment"
    if (interior(a) & interior(b)).any():
        return "partial_overlap"

    strict_x = ((xs > ax) & (xs < ax + aw) & (xs > bx) & (xs < bx + bw)).any()
    strict_y = ((ys > ay) & (ys < ay + ah) & (ys > by) & (ys < by + bh)).any()
    if (closed(a, dilate=tol) & mask_b).any() and (strict_x or strict_y):
        return "adjoining"
    return None


# --- cliques: exhaustive subset enumeration ----------------------------------


def exhaustive_maximal_cliques(n: int, edges: list[tuple[int, int]]) -> set[frozenset[int]]:
    """All maximal cliques of a graph on nodes 0..n-1 via 2^n enumeration."""
    adj = [0] * n
    for u, v in edges:
        if u != v:
            adj[u] |= 1 << v
            adj[v] |= 1 << u

    def is_clique(mask: int) -> bool:
        m = mask
        while m:
            v = (m & -m).bit_length() - 1
            m &= m - 1
            if mask & ~(adj[v] | (1 << v)):
                return False
        return True

    cliques = [mask for mask in range(1, 1 << n) if is_clique(mask)]
    maximal = set()
    for mask in cliques:
        extendable = any(
            not (mask >> v) & 1 and (mask & ~adj[v]) == 0 for v in range(n)
        )
        if not extendable:
            maximal.add(frozenset(v for v in range(n) if (mask >> v) & 1))
    return maximal


# --- shortest paths: Floyd-Warshall ------------------------------------------


def floyd_warshall_average(n: int, edges: list[tuple[int, int]]) -> float:
    """Mean all-pairs distance over reachable ordered pairs (0 when none)."""
    dist = np.full((n, n), np.inf)
    np.fill_diagonal(dist, 0.0)
    for u, v in edges:
        if u != v:
            dist[u, v] = 1.0
            dist[v, u] = 1.0
    for k in range(n):
        dist = np.minimum(dist, dist[:, k, None] + dist[None, k, :])
    off = ~np.eye(n, dtype=bool)
    reachable = np.isfinite(dist) & off
    count = int(reachable.sum())
    return float(dist[reachable].sum()) / count if count else 0.0


# --- MST: pure-Python Prim over an explicit matrix ----------------------------


def _naive_euclidean(p: list[float], q: list[float]) -> float:
    # plain sqrt-of-sum (math.dist uses a scaled algorithm that can differ
    # in the last ulp from vectorized implementations)
    return math.sqrt(sum((a - b) ** 2 for a, b in zip(p, q)))


def mutual_reachability_matrix(points: list[list[float]], min_samples: int) -> list[list[float]]:
    n = len(points)
    dist = [[_naive_euclidean(points[i], points[j]) for j in range(n)] for i in range(n)]
    core = [sorted(row)[min_samples - 1] for row in dist]
    return [
        [max(core[i], core[j], dist[i][j]) for j in range(n)]
        for i in range(n)
    ]


def prim_mst_weights(weights: list[list[float]]) -> list[float]:
    """Sorted edge weights of the MST, by repeated full scans."""
    n = len(weights)
    in_tree = [False] * n
    in_tree[0] = True
    best = [weights[0][u] for u in range(n)]
    picked = []
    for _ in range(n - 1):
        v = min((i for i in range(n) if not in_tree[i]), key=lambda i: best[i])
        picked.append(best[v])
        in_tree[v] = True
        for u in range(n):
            if not in_tree[u] and weights[v][u] < best[u]:
                best[u] = weights[v][u]
    return sorted(picked)


# --- silhouette: plain nested loops ------------------------------------------


def brute_silhouette(points, labels) -> dict[int, float] | None:
    """Per-point silhouette via explicit loops; returns point -> score for
    non-noise points."""
    points = [list(map(float, p)) for p in points]
    labels = list(labels)
    clusters = sorted({c for c in labels if c != -1})
    members = {c: [i for i, l in enumerate(labels) if l == c] for c in clusters}
    scores: dict[int, float] = {}
    for c in clusters:
        for i in members[c]:
            if len(members[c]) == 1:
                scores[i] = 0.0
                continue
            a = sum(math.dist(points[i], points[j]) for j in members[c] if j != i) / (
                len(members[c]) - 1
            )
            b = min(
                sum(math.dist(points[i], points[j]) for j in members[o]) / len(members[o])
                for o in clusters
                if o != c
            )
            denom = max(a, b)
            scores[i] = (b - a) / denom if denom > 0 else 0.0
    return scores


# --- golden copies: the clusterer's original per-row loops --------------------
#
# Frozen copies of ``cluster._mutual_reachability_mst`` and
# ``cluster.silhouette`` as they were before Prim was restricted to the
# out-of-tree vertices and silhouette was reduced in tiles, and of
# ``cluster._core_distances`` as it was before it ran over unique rows.
# They are not independent oracles: they use the same distance kernel on
# purpose, so the rewrites can be held to bit-for-bit equality with them.


def _golden_row_distances(X: np.ndarray, i: int) -> np.ndarray:
    diff = X - X[i]
    return np.sqrt(np.einsum("ij,ij->i", diff, diff))


def golden_core_distances(X: np.ndarray, min_samples: int) -> np.ndarray:
    """Per-row loop: partition each full distance row."""
    n = X.shape[0]
    core = np.empty(n)
    for i in range(n):
        d = _golden_row_distances(X, i)
        core[i] = np.partition(d, min_samples - 1)[min_samples - 1]
    return core


def golden_mutual_reachability_mst(X: np.ndarray, core: np.ndarray) -> np.ndarray:
    """Prim over every vertex each step, in-tree ones masked afterwards."""
    n = X.shape[0]
    in_tree = np.zeros(n, dtype=bool)
    best_w = np.full(n, np.inf)
    best_src = np.zeros(n, dtype=np.intp)
    edges = np.empty((n - 1, 3))
    current = 0
    in_tree[0] = True
    for k in range(n - 1):
        d = _golden_row_distances(X, current)
        reach = np.maximum(np.maximum(core, core[current]), d)
        closer = ~in_tree & (reach < best_w)
        best_w[closer] = reach[closer]
        best_src[closer] = current
        candidate = np.where(in_tree, np.inf, best_w)
        nxt = int(np.argmin(candidate))
        edges[k] = (best_src[nxt], nxt, best_w[nxt])
        in_tree[nxt] = True
        current = nxt
    return edges


def golden_silhouette(X: np.ndarray, labels) -> tuple[dict[int, float], float]:
    """Per-point silhouette over full distance rows; returns
    (per-cluster means, overall mean)."""
    labels = np.asarray(labels, dtype=int)
    cluster_labels = sorted(int(c) for c in np.unique(labels) if c != -1)
    members = {c: np.flatnonzero(labels == c) for c in cluster_labels}
    scores = np.zeros(X.shape[0])
    for c in cluster_labels:
        idx = members[c]
        own_size = idx.shape[0]
        for i in idx:
            d = _golden_row_distances(X, int(i))
            if own_size == 1:
                scores[i] = 0.0
                continue
            a = (d[idx].sum()) / (own_size - 1)  # exclude self (distance 0)
            b = min(d[members[o]].mean() for o in cluster_labels if o != c)
            denom = max(a, b)
            scores[i] = (b - a) / denom if denom > 0 else 0.0

    per_cluster = {c: float(scores[members[c]].mean()) for c in cluster_labels}
    pooled = np.concatenate([members[c] for c in cluster_labels])
    return per_cluster, float(scores[pooled].mean())


# Frozen copies of ``analysis.adjacency_stats``,
# ``analysis.interaction_degree_stats`` and
# ``features._build_feature_table`` as they were before the structure
# record of ``analysis.analyze_graphs`` became their one definition.
# Like the clusterer copies above, they call the library's clique and
# path kernels on purpose: they hold the consolidation to equality, not
# the kernels to correctness.


def golden_adjacency_stats(graphs) -> dict:
    node_ids = [b.id for b in graphs.nodes]
    pairs = [(e.source, e.target) for e in graphs.adjacency_edges]
    n = len(node_ids)
    m = len(pairs)
    cliques = maximal_cliques(node_ids, pairs)
    return {
        "n_nodes": n,
        "n_edges": m,
        "mean_degree": 2 * m / n if n else 0.0,
        "mean_shortest_path": average_shortest_path(node_ids, pairs),
        "n_maximal_cliques": len(cliques),
        "mean_clique_size": sum(len(c) for c in cliques) / len(cliques) if cliques else 0.0,
    }


def golden_interaction_degree_stats(graphs) -> dict:
    n = len(graphs.nodes)
    m = len(graphs.interaction_edges)
    per_node = m / n if n else 0.0
    return {
        "n_nodes": n,
        "n_edges": m,
        "mean_degree": 2 * m / n if n else 0.0,
        "mean_in_degree": per_node,
        "mean_out_degree": per_node,
    }


def golden_feature_table(graphs) -> dict[str, float]:
    block_flags = {
        "chart": BlockType.CHART,
        "text": BlockType.TEXT,
        "filter": BlockType.FILTER,
        "legend": BlockType.LEGEND,
        "multimedia": BlockType.MULTIMEDIA,
    }
    edge_flags = {
        "filter_chart_edge": EdgeClass.FILTER_TO_CHART,
        "legend_chart_edge": EdgeClass.LEGEND_TO_CHART,
        "chart_chart_edge": EdgeClass.CHART_TO_CHART,
    }
    node_ids = [b.id for b in graphs.nodes]
    n = len(node_ids)
    adj_pairs = [(e.source, e.target) for e in graphs.adjacency_edges]
    adj_edges = len(adj_pairs)
    int_edges = len(graphs.interaction_edges)
    present_types = {b.block_type for b in graphs.nodes}
    present_classes = {e.edge_class for e in graphs.interaction_edges}
    cliques = [c for c in maximal_cliques(node_ids, adj_pairs) if len(c) >= 2]

    table: dict[str, float] = {
        "n_blocks": float(n),
        "adj_n_edges": float(adj_edges),
        "adj_mean_degree": 2 * adj_edges / n if n else 0.0,
        "int_n_edges": float(int_edges),
        "int_mean_degree": 2 * int_edges / n if n else 0.0,
        "int_mean_in_degree": int_edges / n if n else 0.0,
        "int_mean_out_degree": int_edges / n if n else 0.0,
        "adj_mean_shortest_path": average_shortest_path(node_ids, adj_pairs),
        "adj_has_cliques": 1.0 if cliques else 0.0,
        "adj_n_maximal_cliques": float(len(cliques)),
        "adj_mean_clique_size": (
            sum(len(c) for c in cliques) / len(cliques) if cliques else 0.0
        ),
    }
    for name, block_type in block_flags.items():
        flag = 1.0 if block_type in present_types else 0.0
        table[f"has_{name}"] = flag
        table[f"no_{name}"] = 1.0 - flag
    for name, edge_class in edge_flags.items():
        flag = 1.0 if edge_class in present_classes else 0.0
        table[f"has_{name}"] = flag
        table[f"no_{name}"] = 1.0 - flag
    return table


# --- golden copy: maximal cliques seeded along a degeneracy ordering ----------
#
# Frozen copy of ``analysis.maximal_cliques`` as it was before the
# degeneracy ordering and the per-vertex outer loop gave way to a single
# pivoting Bron-Kerbosch call.  Both enumerate every maximal clique once
# and sort the result, so their outputs must be equal.


def _golden_degeneracy_order(neighbors: dict[str, set[str]]) -> list[str]:
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


def golden_maximal_cliques(node_ids, edges) -> list[tuple[str, ...]]:
    neighbors: dict[str, set[str]] = {v: set() for v in node_ids}
    for u, v in edges:
        if u == v:
            continue
        neighbors[u].add(v)
        neighbors[v].add(u)
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

    order = _golden_degeneracy_order(neighbors)
    position = {v: i for i, v in enumerate(order)}
    for v in order:
        later = {w for w in neighbors[v] if position[w] > position[v]}
        earlier = {w for w in neighbors[v] if position[w] < position[v]}
        expand({v}, later, earlier)

    cliques.sort(key=lambda c: (-len(c), c))
    return cliques


# --- golden copy: actions -> interaction edges in two steps ------------------
#
# Frozen copies of ``ingest.extract_actions`` and of the edge-list form of
# ``geometry.build_interaction_graph`` as they were before the two became
# one pass over the declared actions.  The first checks endpoints,
# classifies and drops unsupported pairs; the second prunes self-loops and
# duplicates and sorts.  Composed, they must give the same edges and
# counters as the one-pass builder.


def golden_extract_actions(dashboard, counters=None) -> list:
    by_id = dashboard.blocks_by_id()
    edges = []
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
        edges.append(InteractionEdge(action.source, action.target, action.action_type, edge_class))
    return edges


def golden_prune_interactions(blocks, declared) -> list:
    ids = {b.id for b in blocks}
    seen: set[tuple[str, str, str]] = set()
    edges = []
    for edge in declared:
        if edge.source == edge.target:
            continue
        if edge.source not in ids or edge.target not in ids:
            raise ValueError(f"interaction endpoint not among blocks: {edge.source}->{edge.target}")
        key = (edge.source, edge.target, edge.edge_class.value)
        if key in seen:
            continue
        seen.add(key)
        edges.append(edge)
    edges.sort(key=lambda e: (e.source, e.target, e.edge_class.value))
    return edges


def golden_interaction_graph(dashboard, counters=None) -> list:
    declared = golden_extract_actions(dashboard, counters)
    return golden_prune_interactions(dashboard.blocks, declared)


# --- golden copy: the corpus summary and lint records ------------------------
#
# Frozen copies of ``report.summarize_corpus(...).to_dict()`` and of
# ``report.lint`` as they were when the summary was a ``CorpusSummary``
# record with ``Distribution`` and ``OverlapBreakdown`` parts, and each
# ``LintFinding`` carried its severity as a field.  The summary document
# and every finding's ``to_dict()`` must equal theirs.


def _golden_mode(values):
    counts = {}
    for v in values:
        counts[v] = counts.get(v, 0) + 1
    if not counts:
        return None
    top = max(counts.values())
    return min(v for v, c in counts.items() if c == top)


@dataclass(frozen=True)
class _GoldenDistribution:
    min: float
    max: float
    median: float
    mode: float

    @classmethod
    def of(cls, values):
        return cls(
            min=float(min(values)),
            max=float(max(values)),
            median=float(median(values)),
            mode=float(_golden_mode(values)),
        )

    def to_dict(self):
        return {"min": self.min, "max": self.max, "median": self.median, "mode": self.mode}


@dataclass(frozen=True)
class _GoldenOverlap:
    n_interactions: int
    n_overlapping: int
    by_class: dict

    @property
    def fraction(self):
        return self.n_overlapping / self.n_interactions if self.n_interactions else 0.0


@dataclass(frozen=True)
class _GoldenSummary:
    n_dashboards: int
    block_counts: dict
    block_shares: dict
    blocks_per_dashboard: _GoldenDistribution
    chart_type_presence_shares: dict
    n_interactive: int
    interactive_share: float
    interaction_edges_dist: _GoldenDistribution | None
    saturation_mean_per_dashboard: float | None
    saturation_median: float | None
    saturation_mode: float | None
    saturation_pooled: float | None
    edge_class_presence_shares: dict
    interaction_type_counts: dict
    clique_patterns: dict
    overlap: _GoldenOverlap

    def to_dict(self):
        return {
            "n_dashboards": self.n_dashboards,
            "block_counts": self.block_counts,
            "block_shares": self.block_shares,
            "blocks_per_dashboard": self.blocks_per_dashboard.to_dict(),
            "chart_type_presence_shares": self.chart_type_presence_shares,
            "n_interactive": self.n_interactive,
            "interactive_share": self.interactive_share,
            "interaction_edges": (
                self.interaction_edges_dist.to_dict() if self.interaction_edges_dist else None
            ),
            "saturation": {
                "mean_per_dashboard": self.saturation_mean_per_dashboard,
                "median": self.saturation_median,
                "mode": self.saturation_mode,
                "pooled": self.saturation_pooled,
            },
            "edge_class_presence_shares": self.edge_class_presence_shares,
            "interaction_type_counts": self.interaction_type_counts,
            "clique_patterns": self.clique_patterns,
            "adjacency_interaction_overlap": {
                "n_interactions": self.overlap.n_interactions,
                "n_overlapping": self.overlap.n_overlapping,
                "fraction": self.overlap.fraction,
                "by_class": self.overlap.by_class,
            },
        }


def _golden_overlap(graphs):
    adjacent_pairs = {(e.source, e.target) for e in graphs.adjacency_edges}
    count = 0
    by_class = {cls.value: 0 for cls in EdgeClass}
    for edge in graphs.interaction_edges:
        key = tuple(sorted((edge.source, edge.target)))
        if key in adjacent_pairs:
            count += 1
            by_class[edge.edge_class.value] += 1
    return count, by_class


def golden_summary(corpus) -> dict:
    block_counts = {t.value: 0 for t in BlockType}
    blocks_per_dashboard = []
    chart_type_presence = {}
    interactive_edge_counts = []
    saturations = []
    pooled_realized = 0
    pooled_possible = 0
    edge_class_presence = {cls.value: 0 for cls in EdgeClass}
    itype_counts = {}
    patterns = {}
    overlap_total = 0
    overlap_by_class = {cls.value: 0 for cls in EdgeClass}
    interactions_total = 0

    for graphs in corpus:
        blocks_per_dashboard.append(len(graphs.nodes))
        for block in graphs.nodes:
            block_counts[block.block_type.value] += 1
        seen_types = set()
        for block in graphs.nodes:
            if block.block_type is BlockType.CHART:
                seen_types.add(block.vis_type)
        for name in seen_types:
            chart_type_presence[name] = chart_type_presence.get(name, 0) + 1

        n_edges = len(graphs.interaction_edges)
        interactions_total += n_edges
        possible = max_possible_interactions(graphs.nodes)
        if n_edges > 0:
            interactive_edge_counts.append(n_edges)
            if possible > 0:
                saturations.append(Fraction(n_edges, possible))
            pooled_realized += n_edges
            pooled_possible += possible
            present = {e.edge_class.value for e in graphs.interaction_edges}
            for cls in present:
                edge_class_presence[cls] += 1
            for e in graphs.interaction_edges:
                itype_counts[e.itype] = itype_counts.get(e.itype, 0) + 1

        node_ids = [b.id for b in graphs.nodes]
        pairs = [(e.source, e.target) for e in graphs.adjacency_edges]
        blocks = graphs.nodes_by_id()
        for clique in maximal_cliques(node_ids, pairs):
            pattern = clique_pattern(clique, blocks)
            patterns[pattern] = patterns.get(pattern, 0) + 1

        count, by_class = _golden_overlap(graphs)
        overlap_total += count
        for cls, c in by_class.items():
            overlap_by_class[cls] += c

    n = len(corpus)
    n_interactive = len(interactive_edge_counts)
    total_blocks = sum(block_counts.values())
    return _GoldenSummary(
        n_dashboards=n,
        block_counts=block_counts,
        block_shares={
            t: (c / total_blocks if total_blocks else 0.0) for t, c in block_counts.items()
        },
        blocks_per_dashboard=_GoldenDistribution.of(blocks_per_dashboard),
        chart_type_presence_shares={
            t: c / n for t, c in sorted(chart_type_presence.items())
        },
        n_interactive=n_interactive,
        interactive_share=n_interactive / n,
        interaction_edges_dist=(
            _GoldenDistribution.of(interactive_edge_counts) if interactive_edge_counts else None
        ),
        saturation_mean_per_dashboard=(
            float(sum(saturations) / len(saturations)) if saturations else None
        ),
        saturation_median=float(median(saturations)) if saturations else None,
        saturation_mode=float(_golden_mode(saturations)) if saturations else None,
        saturation_pooled=(
            pooled_realized / pooled_possible if pooled_possible else None
        ),
        edge_class_presence_shares={
            cls: (c / n_interactive if n_interactive else 0.0)
            for cls, c in edge_class_presence.items()
        },
        interaction_type_counts=dict(sorted(itype_counts.items())),
        clique_patterns=dict(sorted(patterns.items())),
        overlap=_GoldenOverlap(
            n_interactions=interactions_total,
            n_overlapping=overlap_total,
            by_class=overlap_by_class,
        ),
    ).to_dict()


_GOLDEN_LINT_NAMES = {
    "R1": "partial-scope-filter",
    "R2": "orphan-legend",
    "R3": "isolated-block",
    "R4": "static-with-widgets",
}


@dataclass(frozen=True)
class _GoldenFinding:
    rule: str
    severity: str
    dashboard_id: str
    subjects: tuple
    message: str

    def to_dict(self):
        return {
            "rule": self.rule,
            "name": _GOLDEN_LINT_NAMES[self.rule],
            "severity": self.severity,
            "dashboard_id": self.dashboard_id,
            "subjects": list(self.subjects),
            "message": self.message,
        }


def golden_lint(graphs) -> list[dict]:
    findings = []
    dash = graphs.dashboard_id
    chart_ids = {b.id for b in graphs.nodes if b.block_type is BlockType.CHART}
    adjacency_of = {b.id: set() for b in graphs.nodes}
    for e in graphs.adjacency_edges:
        adjacency_of[e.source].add(e.target)
        adjacency_of[e.target].add(e.source)
    interaction_touch = {b.id: 0 for b in graphs.nodes}
    targets_of = {}
    for e in graphs.interaction_edges:
        interaction_touch[e.source] += 1
        interaction_touch[e.target] += 1
        targets_of.setdefault(e.source, set()).add(e.target)

    for block in graphs.nodes:
        if block.block_type is BlockType.FILTER:
            wired = targets_of.get(block.id, set()) & chart_ids
            if wired and wired < chart_ids:
                missing = sorted(chart_ids - wired)
                findings.append(
                    _GoldenFinding(
                        rule="R1",
                        severity="warning",
                        dashboard_id=dash,
                        subjects=(block.id,),
                        message=(
                            f"filter {block.id} drives {len(wired)} of {len(chart_ids)} charts"
                            f" (not wired: {', '.join(missing)})"
                        ),
                    )
                )
        if block.block_type is BlockType.LEGEND:
            adjacent_charts = adjacency_of[block.id] & chart_ids
            if interaction_touch[block.id] == 0 and not adjacent_charts:
                findings.append(
                    _GoldenFinding(
                        rule="R2",
                        severity="warning",
                        dashboard_id=dash,
                        subjects=(block.id,),
                        message=f"legend {block.id} is connected to no chart, spatially or interactively",
                    )
                )
        if not adjacency_of[block.id]:
            findings.append(
                _GoldenFinding(
                    rule="R3",
                    severity="info",
                    dashboard_id=dash,
                    subjects=(block.id,),
                    message=f"block {block.id} has no spatial neighbors",
                )
            )

    widgets = sorted(
        b.id
        for b in graphs.nodes
        if b.block_type in (BlockType.FILTER, BlockType.LEGEND)
    )
    if widgets and not graphs.interaction_edges:
        findings.append(
            _GoldenFinding(
                rule="R4",
                severity="warning",
                dashboard_id=dash,
                subjects=tuple(widgets),
                message=f"dashboard has {len(widgets)} filter/legend block(s) but no interactions",
            )
        )

    findings.sort(key=lambda f: (f.rule, f.dashboard_id, f.subjects))
    return [f.to_dict() for f in findings]
