"""Density-based clustering of feature matrices, implemented from scratch.

The pipeline follows the classic hierarchical density-based scheme:

1. core distance of each point = distance to its ``min_samples``-th
   nearest neighbor (the point itself counts as the first), computed
   once per unique row over the unique rows weighted by multiplicity;
   for k = min(min_samples, unique rows) <= 32 each unordered pair of
   unique rows is measured once, in blocks of 32 rows,
2. mutual reachability d_mr(a, b) = max(core(a), core(b), d(a, b)),
3. minimum spanning tree of the complete mutual-reachability graph
   (Prim's algorithm over groups of identical rows: only a group's
   first row to join is measured, against the groups with no row in the
   tree yet; no spatial index),
4. single-linkage hierarchy from the MST edges in ascending weight order,
5. condensation of the hierarchy at ``min_cluster_size``,
6. excess-of-mass cluster selection by stability,
7. points under no selected cluster are labeled noise (-1).

Steps 1-4 depend on ``min_samples`` alone and build the hierarchy
(:func:`_hierarchy`); steps 5-7 are the only ones that read
``min_cluster_size`` (:func:`_select`), so a sweep over sizes shares one
hierarchy per ``min_samples``.

Distances are exact, O(m^2) in the m unique rows: steps 1 and 3 and
the silhouette measure each distinct row, not each row, and step 1 each
unordered pair once when ``min_samples`` is small.  Determinism
everywhere via ascending-index tie-breaking.  A spatial index would
speed up steps 1-3 on large corpora but is deliberately left out.  Every
distance, in clustering and in silhouette, comes from the one kernel
:func:`_row_distances` on the same rows, and d(a, b) = d(b, a) bit for
bit, so skipping distances that are not needed, or taking one from the
other end of the pair, never changes the bits of those that are used.
"""

from __future__ import annotations

import heapq
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


# Unique rows per block of the symmetric core-distance pass, which runs
# when k = min(min_samples, unique rows) is at most this; above it the
# per-row loop measured faster (k = 40 and k = 250).
_CORE_BLOCK = 32
# Later rows whose candidates one merge step updates together; bounds the
# merge's scratch arrays.
_MERGE_ROWS = 128


def _core_distances(X: np.ndarray, min_samples: int) -> np.ndarray:
    """Distance from each row to its ``min_samples``-th nearest row.

    Identical rows share their distances, so each unique row is measured
    against the unique rows only.  The ``k = min(min_samples, m)``
    nearest of them hold the answer: ordered by distance, it is the
    first whose cumulative multiplicity reaches ``min_samples``.  Every
    value is a ``_row_distances`` result, so the bits equal a per-row
    loop over all n rows.
    """
    U, inverse, counts = np.unique(X, axis=0, return_inverse=True, return_counts=True)
    k = min(min_samples, U.shape[0])
    if k <= _CORE_BLOCK:
        core_u = _core_distances_symmetric(U, counts, min_samples, k)
    else:
        core_u = _core_distances_per_row(U, counts, min_samples, k)
    return core_u[inverse.reshape(-1)]


def _core_distances_per_row(
    U: np.ndarray, counts: np.ndarray, min_samples: int, k: int
) -> np.ndarray:
    """Each unique row against all unique rows, one row at a time."""
    m = U.shape[0]
    core_u = np.empty(m)
    for u in range(m):
        d = _row_distances(U, U[u])
        nearest = np.sort(np.argpartition(d, k - 1)[:k])
        nearest = nearest[np.argsort(d[nearest], kind="stable")]
        reached = np.searchsorted(np.cumsum(counts[nearest]), min_samples)
        core_u[u] = d[nearest[reached]]
    return core_u


def _core_distances_symmetric(
    U: np.ndarray, counts: np.ndarray, min_samples: int, k: int
) -> np.ndarray:
    """Each unordered pair of unique rows measured once, for small k.

    Rows go in blocks of ``_CORE_BLOCK``; each block row is measured
    against the rows from the block's start onward, and d(i, j) = d(j, i)
    bit for bit because (a - b)^2 = (b - a)^2.  A later row keeps the k
    smallest (distance, multiplicity) candidates the blocks before it
    offered, partitioned so that the k-th smallest is last, and merges a
    block's column only where the column's minimum beats that k-th
    candidate.  When its own block comes, those candidates and its own
    measured row give its core distance: ordered by distance, the first
    whose cumulative multiplicity reaches ``min_samples``.
    """
    m = U.shape[0]
    core_u = np.empty(m)
    cand_d = np.full((m, k), np.inf)
    cand_w = np.zeros((m, k), dtype=counts.dtype)
    block = np.empty((min(_CORE_BLOCK, m), m))
    for lo in range(0, m, _CORE_BLOCK):
        hi = min(lo + _CORE_BLOCK, m)
        tail = U[lo:]
        near = min(k, m - lo)
        D = block[: hi - lo, : m - lo]
        nearest = np.empty((hi - lo, near), dtype=np.intp)
        for r in range(hi - lo):
            D[r] = _row_distances(tail, U[lo + r])
            nearest[r] = np.argpartition(D[r], near - 1)[:near]
        d = np.concatenate([cand_d[lo:hi], np.take_along_axis(D, nearest, axis=1)], axis=1)
        w = np.concatenate([cand_w[lo:hi], counts[lo + nearest]], axis=1)
        order = np.argsort(d, axis=1, kind="stable")
        reached = (np.cumsum(np.take_along_axis(w, order, axis=1), axis=1) < min_samples).sum(axis=1)
        core_u[lo:hi] = np.take_along_axis(d, order, axis=1)[np.arange(hi - lo), reached]

        later = D[:, hi - lo :]
        beats = hi + np.flatnonzero(later.min(axis=0) < cand_d[hi:, k - 1])
        for part in range(0, beats.shape[0], _MERGE_ROWS):
            rows = beats[part : part + _MERGE_ROWS]
            _keep_nearest(cand_d, cand_w, rows, later[:, rows - hi].T, counts[lo:hi])
    return core_u


def _keep_nearest(
    cand_d: np.ndarray, cand_w: np.ndarray, rows: np.ndarray, d: np.ndarray, w: np.ndarray
) -> None:
    """Merge new distances ``d`` (one row per entry of ``rows``), of
    multiplicities ``w``, into those rows' candidates, keeping the k
    smallest with the k-th last."""
    k = cand_d.shape[1]
    d = np.concatenate([cand_d[rows], d], axis=1)
    w = np.concatenate([cand_w[rows], np.broadcast_to(w, d[:, k:].shape)], axis=1)
    keep = np.argpartition(d, k - 1, axis=1)[:, :k]
    cand_d[rows] = np.take_along_axis(d, keep, axis=1)
    cand_w[rows] = np.take_along_axis(w, keep, axis=1)


# Share of dead (already joined) entries in Prim's fresh-group arrays at
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

    Identical rows must have equal core distances (``ValueError``
    otherwise), and then they always carry the same candidate edge, so
    Prim runs over groups of identical rows.  A group is fresh until its
    first (lowest-index) row joins, at weight w; only then is that row
    measured, against the fresh groups only.  Its mates' reach drops to
    their core distance c, taken strictly, so from then on they wait at
    weight c with the joiner as source if w > c, or keep the joiner's
    edge if w = c; nothing can beat c, and every later mate's distances
    equal the first's, so no later mate is measured.  The next vertex is
    the least (weight, index) among the fresh groups' first rows and the
    waiting groups' next rows, so the edges equal the full-row Prim's.

    Fresh groups are kept in arrays ordered by first row, so
    ``np.argmin``'s first-minimum rule is the lowest-index rule; a group
    that joins is marked dead and the arrays are compacted once dead
    entries exceed ``_COMPACT_SHARE`` of them.  Waiting groups sit in a
    heap keyed by (weight, next row).
    """
    n = X.shape[0]
    inverse, counts = np.unique(X, axis=0, return_inverse=True, return_counts=True)[1:]
    inverse = inverse.reshape(-1)
    members = np.argsort(inverse, kind="stable")  # each group's rows, ascending
    end = np.cumsum(counts)
    nxt = end - counts  # position in ``members`` of each group's next row
    first = members[nxt]
    core_u = core[first]
    if not np.array_equal(core_u[inverse], core):
        raise ValueError("core distances differ between identical rows")

    gid = np.argsort(first)
    first_f = first[gid]
    rows, core_f = X[first_f], core_u[gid]
    best_w = np.full(gid.shape[0], np.inf)
    best_src = np.zeros(gid.shape[0], dtype=np.intp)
    alive = np.ones(gid.shape[0], dtype=bool)
    n_fresh, dead = gid.shape[0], 0
    waiting: list[tuple[float, int, int, int]] = []  # (weight, next row, group, source)

    edges = np.empty((n - 1, 3))
    # Step k adds the k-th vertex to the tree, by edges[k - 1]: the first
    # row of fresh slot j at weight w, or, when j is -1, the next row of
    # the first waiting group.  Vertex 0 starts the tree.
    j, w = 0, np.inf
    for k in range(n):
        if j >= 0:
            x, g = int(first_f[j]), int(gid[j])
            if k:
                edges[k - 1] = (best_src[j], x, w)
            nxt[g] += 1
            if nxt[g] < end[g]:
                source = x if w > core_u[g] else int(best_src[j])
                heapq.heappush(waiting, (float(core_u[g]), int(members[nxt[g]]), g, source))
            alive[j] = False
            best_w[j] = np.inf
            n_fresh -= 1
            dead += 1
            if n_fresh:
                d = _row_distances(rows, rows[j])
                reach = np.maximum(np.maximum(core_f, core_f[j]), d)
                closer = alive & (reach < best_w)
                best_w[closer] = reach[closer]
                best_src[closer] = x
                if dead > _COMPACT_SHARE * gid.shape[0]:
                    gid, rows, core_f, first_f = gid[alive], rows[alive], core_f[alive], first_f[alive]
                    best_w, best_src = best_w[alive], best_src[alive]
                    alive = np.ones(gid.shape[0], dtype=bool)
                    dead = 0
                jf = int(np.argmin(best_w))
        else:
            c, x, g, source = heapq.heappop(waiting)
            edges[k - 1] = (source, x, c)
            nxt[g] += 1
            if nxt[g] < end[g]:
                heapq.heappush(waiting, (c, int(members[nxt[g]]), g, source))
        if k == n - 1:
            break
        if waiting and (not n_fresh or waiting[0][:2] < (float(best_w[jf]), int(first_f[jf]))):
            j = -1
        else:
            j, w = jf, best_w[jf]
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
    so that each cluster is one contiguous column span.  A row's a and b
    depend only on its values and its cluster, so each distinct row of a
    cluster is scored once and its score copied to its duplicates.  A
    cluster's distinct rows are scored in tiles, with one sum or mean per
    cluster per tile, each over every row of that cluster's span.
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
    row_group = np.unique(Xp, axis=0, return_inverse=True)[1].reshape(-1)
    bounds = np.cumsum([0] + [members[c].shape[0] for c in cluster_labels]).tolist()
    spans = list(zip(bounds[:-1], bounds[1:]))
    scores = np.zeros(X.shape[0])
    for own, (lo, hi) in enumerate(spans):
        own_size = hi - lo
        if own_size == 1:
            continue  # singleton clusters score 0
        others = [span for o, span in enumerate(spans) if o != own]
        _, distinct, copies = np.unique(row_group[lo:hi], return_index=True, return_inverse=True)
        distinct_scores = np.zeros(distinct.shape[0])
        for start in range(0, distinct.shape[0], _SILHOUETTE_TILE):
            tile = lo + distinct[start : start + _SILHOUETTE_TILE]
            D = np.stack([_row_distances(Xp, Xp[i]) for i in tile])
            a = D[:, lo:hi].sum(axis=1) / (own_size - 1)  # exclude self (distance 0)
            b = np.min([D[:, o_lo:o_hi].mean(axis=1) for o_lo, o_hi in others], axis=0)
            denom = np.maximum(a, b)
            out = distinct_scores[start : start + tile.shape[0]]
            np.divide(b - a, denom, out=out, where=denom > 0)
        scores[pooled[lo:hi]] = distinct_scores[copies.reshape(-1)]

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
