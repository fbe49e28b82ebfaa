"""Independent brute-force oracles the tests check the library against.

Each oracle deliberately takes a different route than the implementation
it verifies: pixel-grid rasterization instead of interval arithmetic,
exhaustive subset enumeration instead of Bron-Kerbosch, Floyd-Warshall
instead of BFS, plain loops instead of vectorized silhouette, and a
pure-Python Prim scan for MST weights.  The golden copies at the end are
the exception: frozen earlier versions of two clusterer loops and of the
per-dashboard structural statistics, kept for bit-for-bit comparison.
"""

from __future__ import annotations

import math

import numpy as np

from dashmine.analysis import average_shortest_path, maximal_cliques
from dashmine.model import BlockType, EdgeClass


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
# out-of-tree vertices and silhouette was reduced in tiles.  They are not
# independent oracles: they use the same distance kernel on purpose, so
# the rewrites can be held to bit-for-bit equality with them.


def _golden_row_distances(X: np.ndarray, i: int) -> np.ndarray:
    diff = X - X[i]
    return np.sqrt(np.einsum("ij,ij->i", diff, diff))


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
    present_classes = {e.kind.edge_class for e in graphs.interaction_edges}
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
