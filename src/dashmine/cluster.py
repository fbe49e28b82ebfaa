"""Density-based clustering of feature matrices, implemented from scratch.

The pipeline follows the classic hierarchical density-based scheme:

1. core distance of each point = distance to its ``min_samples``-th
   nearest neighbor (the point itself counts as the first), computed
   once per unique row over the unique rows weighted by multiplicity,
2. mutual reachability d_mr(a, b) = max(core(a), core(b), d(a, b)),
3. minimum spanning tree of the complete mutual-reachability graph
   (Prim's algorithm; each step measures the newest tree vertex against
   the vertices still outside the tree only, no spatial index),
4. single-linkage hierarchy from the MST edges in ascending weight order,
5. condensation of the hierarchy at ``min_cluster_size``,
6. excess-of-mass cluster selection by stability,
7. points under no selected cluster are labeled noise (-1).

Steps 1-4 depend on ``min_samples`` alone and build the hierarchy
(:func:`_hierarchy`); steps 5-7 are the only ones that read
``min_cluster_size`` (:func:`_select`), so a sweep over sizes shares one
hierarchy per ``min_samples``.

Distances are exact O(n^2); determinism everywhere via ascending-index
tie-breaking.  A spatial index would speed up step 1-3 on large corpora
but is deliberately left out.  Every distance, in clustering and in
silhouette, comes from the one kernel :func:`_row_distances`, so skipping
distances that are not needed never changes the bits of those that are.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Sequence

import numpy as np

from .errors import FewerThanTwoClusters, NonFiniteInput, TooFewRows

NOISE = -1


@dataclass(frozen=True)
class ClusterParams:
    """``min_samples`` defaults to ``min_cluster_size`` when omitted."""

    min_cluster_size: int = 250
    min_samples: int | None = None

    def __post_init__(self):
        if self.min_cluster_size < 2:
            raise ValueError("min_cluster_size must be >= 2")
        if self.min_samples is not None and self.min_samples < 1:
            raise ValueError("min_samples must be >= 1")

    @property
    def effective_min_samples(self) -> int:
        return self.min_samples if self.min_samples is not None else self.min_cluster_size


@dataclass
class SilhouetteScores:
    per_cluster: dict[int, float]
    overall: float


@dataclass
class ClusterResult:
    """Flat labels plus the condensed hierarchy they were selected from.

    ``labels`` holds -1 for noise and dense ids 0..K-1 otherwise;
    ``condensed_tree`` rows are (parent, child, lambda, child_size) with
    point children < n and cluster ids >= n.
    """

    labels: np.ndarray
    stabilities: dict[int, float]
    condensed_tree: list[tuple[int, int, float, int]]
    selected: tuple[int, ...]
    cluster_ids: dict[int, int]  # label -> condensed-tree cluster id
    n_points: int

    @property
    def n_clusters(self) -> int:
        return len(self.selected)


def _as_matrix(matrix: Any) -> np.ndarray:
    X = np.asarray(matrix, dtype=float)
    if X.ndim == 1:
        X = X.reshape(-1, 1)
    if not np.isfinite(X).all():
        raise NonFiniteInput("matrix contains NaN or infinite values")
    return X


def _row_distances(X: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Euclidean distances from row vector ``x`` to every row of ``X``."""
    diff = X - x
    return np.sqrt(np.einsum("ij,ij->i", diff, diff))


def _core_distances(X: np.ndarray, min_samples: int) -> np.ndarray:
    """Distance from each row to its ``min_samples``-th nearest row.

    Identical rows share their distances, so each unique row is measured
    against the unique rows only.  The ``min(min_samples, m)`` nearest of
    them, ordered by (distance, index), hold the answer: it is the first
    whose cumulative multiplicity reaches ``min_samples``.  Every value
    is a ``_row_distances`` result, so the bits equal a per-row loop over
    all n rows.
    """
    U, inverse, counts = np.unique(X, axis=0, return_inverse=True, return_counts=True)
    m = U.shape[0]
    k = min(min_samples, m)
    core_u = np.empty(m)
    for u in range(m):
        d = _row_distances(U, U[u])
        nearest = np.sort(np.argpartition(d, k - 1)[:k])
        nearest = nearest[np.argsort(d[nearest], kind="stable")]
        reached = np.searchsorted(np.cumsum(counts[nearest]), min_samples)
        core_u[u] = d[nearest[reached]]
    return core_u[inverse.reshape(-1)]


# Share of dead (already in-tree) entries in Prim's out-of-tree arrays at
# which they are compacted away.
_COMPACT_SHARE = 1 / 8


def _mutual_reachability_mst(X: np.ndarray, core: np.ndarray) -> np.ndarray:
    """Prim's MST over the implicit mutual-reachability graph.

    Returns (n-1, 3) rows (a, b, weight) in the order the vertices b join
    the tree, which starts at vertex 0.  Ties are broken deterministically:
    the next vertex is the lowest-index one among those of minimum
    candidate weight, and its edge runs to the earliest-joined tree vertex
    that offered that weight, because a candidate edge is only replaced
    by a strictly lighter one.

    Only vertices still outside the tree are measured against each new
    tree vertex.  They are kept in ascending-index arrays (ids, rows,
    core distances, best weight and its source); a vertex that joins is
    marked dead and the arrays are compacted once dead entries exceed
    ``_COMPACT_SHARE`` of them.  Ascending order keeps ``np.argmin``'s
    first-minimum rule equal to the lowest-index rule.
    """
    n = X.shape[0]
    edges = np.empty((n - 1, 3))
    ids = np.arange(1, n)
    rows = X[1:]
    core_out = core[1:]
    best_w = np.full(n - 1, np.inf)
    best_src = np.zeros(n - 1, dtype=np.intp)
    alive = np.ones(n - 1, dtype=bool)
    dead = 0
    current = 0
    for k in range(n - 1):
        d = _row_distances(rows, X[current])
        reach = np.maximum(np.maximum(core_out, core[current]), d)
        closer = alive & (reach < best_w)
        best_w[closer] = reach[closer]
        best_src[closer] = current
        j = int(np.argmin(best_w))
        current = int(ids[j])
        edges[k] = (best_src[j], current, best_w[j])
        best_w[j] = np.inf
        alive[j] = False
        dead += 1
        if dead > _COMPACT_SHARE * ids.shape[0]:
            ids, rows, core_out = ids[alive], rows[alive], core_out[alive]
            best_w, best_src = best_w[alive], best_src[alive]
            alive = np.ones(ids.shape[0], dtype=bool)
            dead = 0
    return edges


def _single_linkage(mst_edges: np.ndarray) -> np.ndarray:
    """Union-find dendrogram: rows (left, right, distance, size), cluster
    ids n..2n-2 assigned in merge order."""
    order = np.argsort(mst_edges[:, 2], kind="stable")
    edges = mst_edges[order]
    n = edges.shape[0] + 1
    parent = np.arange(2 * n - 1, dtype=np.intp)
    size = np.ones(2 * n - 1, dtype=np.intp)

    def find(x: int) -> int:
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    Z = np.empty((n - 1, 4))
    for i in range(n - 1):
        ra = find(int(edges[i, 0]))
        rb = find(int(edges[i, 1]))
        new = n + i
        Z[i] = (ra, rb, edges[i, 2], size[ra] + size[rb])
        parent[ra] = parent[rb] = new
        size[new] = size[ra] + size[rb]
    return Z


def _bfs_nodes(Z: np.ndarray, start: int) -> list[int]:
    n = Z.shape[0] + 1
    result = []
    frontier = [start]
    while frontier:
        result.extend(frontier)
        frontier = [
            int(child)
            for node in frontier
            if node >= n
            for child in Z[node - n, 0:2]
        ]
    return result


def _condense(Z: np.ndarray, min_cluster_size: int) -> list[tuple[int, int, float, int]]:
    """Collapse the dendrogram into clusters of >= min_cluster_size.

    Walking from the root, a split where both sides are big creates two
    new cluster ids; a split where one side is small sheds that side's
    points at the split's lambda (1/distance) while the big side keeps
    the current cluster id.  The root is relabeled n.
    """
    n = Z.shape[0] + 1
    root = 2 * n - 2
    relabel = np.empty(2 * n - 1, dtype=np.intp)
    relabel[root] = n
    next_label = n + 1
    ignore = np.zeros(2 * n - 1, dtype=bool)
    rows: list[tuple[int, int, float, int]] = []

    for node in _bfs_nodes(Z, root):
        if node < n or ignore[node]:
            continue
        left, right = int(Z[node - n, 0]), int(Z[node - n, 1])
        dist = Z[node - n, 2]
        lam = 1.0 / dist if dist > 0.0 else np.inf
        left_size = int(Z[left - n, 3]) if left >= n else 1
        right_size = int(Z[right - n, 3]) if right >= n else 1
        label = int(relabel[node])

        if left_size >= min_cluster_size and right_size >= min_cluster_size:
            for child, child_size in ((left, left_size), (right, right_size)):
                relabel[child] = next_label
                rows.append((label, next_label, lam, child_size))
                next_label += 1
        else:
            shed = []
            if left_size < min_cluster_size:
                shed.append(left)
            else:
                relabel[left] = label
            if right_size < min_cluster_size:
                shed.append(right)
            else:
                relabel[right] = label
            for side in shed:
                for sub in _bfs_nodes(Z, side):
                    ignore[sub] = True
                    if sub < n:
                        rows.append((label, sub, lam, 1))
    return rows


def _compute_stability(
    rows: Sequence[tuple[int, int, float, int]], n: int
) -> dict[int, float]:
    """Excess of mass per cluster: sum over members of
    (lambda at which the member leaves - lambda at cluster birth)."""
    birth: dict[int, float] = {n: 0.0}
    for _, child, lam, _ in rows:
        if child >= n:
            birth[child] = lam
    stability: dict[int, float] = {}
    for parent, _, lam, size in rows:
        stability[parent] = stability.get(parent, 0.0) + (lam - birth[parent]) * size
    return stability


def _select_eom(
    rows: Sequence[tuple[int, int, float, int]],
    stability: dict[int, float],
    n: int,
) -> set[int]:
    """Bottom-up excess-of-mass selection.

    A cluster is kept when its own stability is at least the combined
    stability of its selected children; otherwise it passes the combined
    value upward.  The root is never a candidate, except as a fallback
    when nothing else is selectable (e.g. all points identical), in
    which case the result is a single all-points cluster.
    """
    children_of: dict[int, list[int]] = {}
    for parent, child, _, _ in rows:
        if child >= n:
            children_of.setdefault(parent, []).append(child)

    candidates = sorted((c for c in stability if c != n), reverse=True)
    selected = {c: True for c in candidates}
    running = dict(stability)
    for node in candidates:
        combined = sum(running[c] for c in children_of.get(node, ()))
        if combined > running[node]:
            selected[node] = False
            running[node] = combined
        else:
            frontier = list(children_of.get(node, ()))
            while frontier:
                child = frontier.pop()
                selected[child] = False
                frontier.extend(children_of.get(child, ()))
    chosen = {c for c, keep in selected.items() if keep}
    if not chosen:
        chosen = {n}
    return chosen


def _assign_labels(
    rows: Sequence[tuple[int, int, float, int]],
    selected: set[int],
    n: int,
) -> tuple[np.ndarray, dict[int, int]]:
    parent_of = {child: parent for parent, child, _, _ in rows}
    label_of_cluster = {cid: label for label, cid in enumerate(sorted(selected))}
    labels = np.full(n, NOISE, dtype=int)
    for point in range(n):
        node = parent_of.get(point)
        while node is not None and node not in selected:
            node = parent_of.get(node)
        if node is not None:
            labels[point] = label_of_cluster[node]
    cluster_ids = {label: cid for cid, label in label_of_cluster.items()}
    return labels, cluster_ids


def _check_rows(n: int, params: ClusterParams) -> None:
    if n < params.min_cluster_size:
        raise TooFewRows(f"{n} rows < min_cluster_size={params.min_cluster_size}")
    if n < params.effective_min_samples:
        raise TooFewRows(f"{n} rows < min_samples={params.effective_min_samples}")


def _hierarchy(X: np.ndarray, min_samples: int) -> np.ndarray:
    """Steps 1-4: the single-linkage dendrogram of mutual reachability."""
    core = _core_distances(X, min_samples)
    return _single_linkage(_mutual_reachability_mst(X, core))


def _select(Z: np.ndarray, min_cluster_size: int) -> ClusterResult:
    """Steps 5-7: condense ``Z`` at ``min_cluster_size`` and label."""
    n = Z.shape[0] + 1
    rows = _condense(Z, min_cluster_size)
    stability = _compute_stability(rows, n)
    selected = _select_eom(rows, stability, n)
    labels, cluster_ids = _assign_labels(rows, selected, n)
    stabilities = {label: float(stability[cid]) for label, cid in cluster_ids.items()}
    return ClusterResult(
        labels=labels,
        stabilities=stabilities,
        condensed_tree=rows,
        selected=tuple(sorted(selected)),
        cluster_ids=cluster_ids,
        n_points=n,
    )


def hdbscan(matrix: Any, params: ClusterParams = ClusterParams()) -> ClusterResult:
    """Cluster rows of ``matrix``; see the module docstring for the steps.

    Raises :class:`TooFewRows` when the matrix has fewer rows than
    ``min_cluster_size`` (or than ``min_samples``) and
    :class:`NonFiniteInput` on NaN/inf values.
    """
    X = _as_matrix(matrix)
    _check_rows(X.shape[0], params)
    return _select(_hierarchy(X, params.effective_min_samples), params.min_cluster_size)


# Rows of one cluster whose distances silhouette computes and reduces
# together.
_SILHOUETTE_TILE = 16


def silhouette(matrix: Any, labels: Sequence[int]) -> SilhouetteScores:
    """Mean silhouette per cluster and overall, noise rows excluded.

    s(i) = (b - a) / max(a, b) with a = mean intra-cluster distance and
    b = smallest mean distance to another cluster; singleton clusters
    score 0, as does the degenerate all-zero case.

    Distances are taken to clustered rows only, gathered in label order
    so that each cluster is one contiguous column span; a cluster's rows
    are scored in tiles, with one sum or mean per cluster per tile.
    """
    X = _as_matrix(matrix)
    labels = np.asarray(labels, dtype=int)
    if labels.shape[0] != X.shape[0]:
        raise ValueError("labels length does not match matrix rows")
    cluster_labels = sorted(int(c) for c in np.unique(labels) if c != NOISE)
    if len(cluster_labels) < 2:
        raise FewerThanTwoClusters("silhouette needs at least two non-noise clusters")

    members = {c: np.flatnonzero(labels == c) for c in cluster_labels}
    pooled = np.concatenate([members[c] for c in cluster_labels])
    Xp = X[pooled]
    bounds = np.cumsum([0] + [members[c].shape[0] for c in cluster_labels]).tolist()
    spans = list(zip(bounds[:-1], bounds[1:]))
    scores = np.zeros(X.shape[0])
    for own, (lo, hi) in enumerate(spans):
        own_size = hi - lo
        if own_size == 1:
            continue  # singleton clusters score 0
        others = [span for o, span in enumerate(spans) if o != own]
        for start in range(lo, hi, _SILHOUETTE_TILE):
            stop = min(start + _SILHOUETTE_TILE, hi)
            D = np.stack([_row_distances(Xp, x) for x in Xp[start:stop]])
            a_tile = D[:, lo:hi].sum(axis=1) / (own_size - 1)  # exclude self (distance 0)
            b_tile = np.min([D[:, o_lo:o_hi].mean(axis=1) for o_lo, o_hi in others], axis=0)
            for i, a, b in zip(pooled[start:stop], a_tile, b_tile):
                denom = max(a, b)
                scores[i] = (b - a) / denom if denom > 0 else 0.0

    per_cluster = {c: float(scores[members[c]].mean()) for c in cluster_labels}
    return SilhouetteScores(per_cluster=per_cluster, overall=float(scores[pooled].mean()))


def export_dendrogram(result: ClusterResult) -> dict[str, Any]:
    """Condensed cluster tree as a plot-ready JSON document.

    Nodes are the condensed cluster ids (points excluded), topologically
    sorted parents-first; each node carries its stability, size and
    whether excess-of-mass selection kept it.
    """
    n = result.n_points
    size_of: dict[int, int] = {n: n}
    parent_of: dict[int, int] = {}
    birth: dict[int, float] = {n: 0.0}
    for parent, child, lam, child_size in result.condensed_tree:
        if child >= n:
            parent_of[child] = parent
            size_of[child] = child_size
            birth[child] = lam
    stability = _compute_stability(result.condensed_tree, n)
    selected = set(result.selected)

    node_ids = sorted(size_of)  # ids increase root-first, so this is topological
    nodes = [
        {
            "id": cid,
            "size": size_of[cid],
            "stability": stability.get(cid, 0.0),
            "selected": cid in selected,
        }
        for cid in node_ids
    ]
    edges = [
        {"parent": parent_of[cid], "child": cid, "lambda": birth[cid]}
        for cid in node_ids
        if cid in parent_of
    ]
    return {"root": n, "nodes": nodes, "edges": edges}


def sweep_min_cluster_size(
    matrix: Any, sizes: Sequence[int], min_samples: int | None = None
) -> list[dict[str, Any]]:
    """Grid sweep over min_cluster_size: cluster count and coverage each.

    Each setting equals :func:`hdbscan` run alone at that size.  Core
    distances, the MST and the single-linkage hierarchy depend on
    ``min_samples`` only, so they are built once per distinct effective
    ``min_samples``: once for the whole sweep when ``min_samples`` is
    given, once per size when it defaults to the size.  Condensation and
    selection run per size.
    """
    X = _as_matrix(matrix)
    hierarchies: dict[int, np.ndarray] = {}
    results = []
    for size in sizes:
        params = ClusterParams(min_cluster_size=size, min_samples=min_samples)
        _check_rows(X.shape[0], params)
        ms = params.effective_min_samples
        if ms not in hierarchies:
            hierarchies[ms] = _hierarchy(X, ms)
        outcome = _select(hierarchies[ms], size)
        covered = int((outcome.labels != NOISE).sum())
        results.append(
            {
                "min_cluster_size": int(size),
                "n_clusters": outcome.n_clusters,
                "coverage": covered / outcome.labels.shape[0],
            }
        )
    return results
