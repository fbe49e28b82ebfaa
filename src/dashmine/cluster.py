"""Density-based clustering of feature matrices, implemented from scratch.

The pipeline follows the classic hierarchical density-based scheme:

1. core distance of each point = distance to its ``min_samples``-th
   nearest neighbor (the point itself counts as the first), computed
   once per unique row over the unique rows weighted by multiplicity,
   one flag pattern (below) at a time: its rows measure their own
   pattern and then the other patterns, ring by ring in blocks of 32
   rows, until a bound settles them,
2. mutual reachability d_mr(a, b) = max(core(a), core(b), d(a, b)),
3. minimum spanning tree of the complete mutual-reachability graph
   (Prim's algorithm over groups of identical rows: only a group's
   first row to join is measured, against the groups with no row in the
   tree yet whose lower bound could still lighten their edge),
4. single-linkage hierarchy from the MST edges in ascending weight order,
5. condensation of the hierarchy at ``min_cluster_size``,
6. excess-of-mass cluster selection by stability,
7. points under no selected cluster are labeled noise (-1).

Steps 1-4 depend on ``min_samples`` alone and build the hierarchy
(:func:`_hierarchy`); steps 5-7 are the only ones that read
``min_cluster_size`` (:func:`_select`), so a sweep over sizes shares one
hierarchy per ``min_samples``.

Steps 4-7 run over plain Python lists.  The dendrogram is a list of
``(left, right, distance, size)`` tuples, and one selection visits each
of its nodes at most once.  Condensation emits its rows in the order of
a breadth-first walk of the whole dendrogram that skips the nodes below
a shed side, with each shed side's points listed level by level.  That
order is part of the contract: each stability is a floating-point sum
over the rows in order, and selection compares those sums.

Distances are exact, O(m^2) in the m unique rows: steps 1 and 3 and
the silhouette measure each distinct row, not each row.  Determinism
everywhere via ascending-index tie-breaking.  Every distance, in
clustering and in silhouette, comes from the one kernel
:func:`_row_distances` on the same rows, so skipping distances that
are not needed never changes the bits of those that are used.

The one distance bound steps 1 and 3 use is exact in floating point.  A
flag column is one whose every value is exactly 0.0 or 1.0, found from
the matrix itself; rows share a flag pattern when they agree on every
flag column.  For two rows whose patterns differ in h flags, h of the
squared terms the kernel sums are exactly 1.0 and every other term is
>= 0.  Rounding is monotone, so each partial sum, in any summation
order, is >= the number of flag terms in it, and so is the computed
sum; ``sqrt`` is monotone too, so the computed distance is >= fl(sqrt(h)).
A row whose k-th nearest candidate is at most fl(sqrt(h)) therefore
keeps its core distance whatever the rows h flags away hold, ties
included, since only the k-th value is read; and a Prim candidate edge
whose weight is at most max(core_a, core_b, fl(sqrt(h))) keeps it, since
only a strictly lighter edge replaces it.  Beyond that bound no spatial
index is used.
"""
from __future__ import annotations

import heapq
from collections import deque
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
    """``matrix`` as a 2-D float array whose every distance is finite.

    NaN or infinite values raise :class:`NonFiniteInput`, and so do
    finite values spread so far that a distance could overflow.  The
    check is conservative.  Let s be the largest computed column span
    (max - min) over the d columns.  Rounding is monotone, so every
    difference the kernel computes within a column is at most s, every
    squared term at most fl(s^2) and the sum of d terms, in any order, at
    most d * s^2 * (1 + d * 2^-52) roughly.  Requiring s <= sqrt(max / 2d),
    with max the largest double, leaves a factor of 2 for that rounding:
    every distance stays below sqrt(max), about 1.3e154, and the sum of
    fewer than 1e150 of them (a silhouette mean) stays finite too.
    """
    X = np.asarray(matrix, dtype=float)
    if X.ndim == 1:
        X = X.reshape(-1, 1)
    if not np.isfinite(X).all():
        raise NonFiniteInput("matrix contains NaN or infinite values")
    if X.size:
        with np.errstate(over="ignore"):
            span = X.max(axis=0) - X.min(axis=0)
        if span.max() > np.sqrt(np.finfo(float).max / (2 * X.shape[1])):
            raise NonFiniteInput("matrix values spread so far that a distance between rows could overflow")
    return X


def _row_distances(X: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Euclidean distances from row vector ``x`` to every row of ``X``."""
    diff = X - x
    return np.sqrt(np.einsum("ij,ij->i", diff, diff))


# Unique rows measured together against one ring of flag patterns, the
# own pattern being ring 0; :func:`_unique_rows` keeps at most one flag
# pattern per this many unique rows.
_CORE_BLOCK = 32


@dataclass(frozen=True)
class _UniqueRows:
    """The distinct rows of a matrix and their flag patterns.

    ``values`` holds the distinct rows, ``inverse`` maps each matrix row
    to its distinct row and ``counts`` gives each distinct row's
    multiplicity.  A flag column holds only 0.0 and 1.0; ``pattern`` is
    each distinct row's pattern id over the flag columns, ascending, so
    each pattern's rows are one contiguous slice, and ``bound[p, q]`` =
    fl(sqrt(h)) for patterns ``p`` and ``q`` that differ in h flags, a
    lower bound on the distance between their rows (see the module
    docstring).
    """

    values: np.ndarray
    inverse: np.ndarray
    counts: np.ndarray
    pattern: np.ndarray
    bound: np.ndarray


def _unique_rows(X: np.ndarray) -> _UniqueRows:
    U, inverse, counts = np.unique(X, axis=0, return_inverse=True, return_counts=True)
    # At most one pattern per _CORE_BLOCK distinct rows: each pattern and
    # each ring costs kernel calls of its own, so a 0/1 column that would
    # split the rows finer is left out of the patterns.
    max_patterns = max(1, U.shape[0] // _CORE_BLOCK)
    pattern = np.zeros(U.shape[0], dtype=np.intp)
    flag_cols = []
    for c in np.flatnonzero(((U == 0.0) | (U == 1.0)).all(axis=0)):
        ids, split = np.unique(2 * pattern + (U[:, c] == 1.0), return_inverse=True)
        if ids.shape[0] <= max_patterns:
            pattern = split
            flag_cols.append(c)
    order = np.argsort(pattern, kind="stable")
    rank = np.empty_like(order)
    rank[order] = np.arange(order.shape[0])
    U, counts, pattern = U[order], counts[order], pattern[order]
    flags = U[np.unique(pattern, return_index=True)[1]][:, flag_cols]
    hamming = sum((f[:, None] != f for f in flags.T), np.zeros((flags.shape[0],) * 2))
    return _UniqueRows(U, rank[inverse.reshape(-1)], counts, pattern, np.sqrt(hamming))


def _core_distances(rows: _UniqueRows, min_samples: int) -> np.ndarray:
    """Distance from each distinct row to its ``min_samples``-th nearest row.

    Identical rows share their distances, so each distinct row is
    measured against the distinct rows only.  The ``k = min(min_samples,
    m)`` nearest of them hold the answer: ordered by distance, it is the
    first whose cumulative multiplicity reaches ``min_samples``.  Every
    value is a ``_row_distances`` result, so the bits equal a per-row
    loop over all n rows.

    Flag patterns go one at a time, each with its own k nearest
    (distance, multiplicity) candidates per row.  The patterns h flags
    away form ring h, whose rows are at distance >= fl(sqrt(h)); ring 0
    is the row's own pattern.  Rings are measured in order of h, in
    blocks of ``_CORE_BLOCK`` rows, and only by the rows whose k-th
    candidate still exceeds the ring's bound, since no farther row can
    change a k-th value at or below it.  With no flag column there is
    one pattern and only ring 0.  The ``np.inf`` that marks an empty
    candidate slot is never a distance, because :func:`_as_matrix`
    rejects every matrix whose distances could overflow.
    """
    k = min(min_samples, rows.values.shape[0])
    U, counts = rows.values, rows.counts
    starts = np.searchsorted(rows.pattern, np.arange(rows.bound.shape[0] + 1))
    spans = list(zip(starts[:-1].tolist(), starts[1:].tolist()))
    block = np.empty((min(_CORE_BLOCK, U.shape[0]), U.shape[0]))
    core = np.empty(U.shape[0])
    for bound, (lo, hi) in zip(rows.bound, spans):
        cand_d = np.full((hi - lo, k), np.inf)
        cand_w = np.zeros((hi - lo, k), dtype=counts.dtype)
        unsettled = np.arange(hi - lo)
        for ring_bound in sorted(set(bound.tolist())):
            unsettled = unsettled[cand_d[unsettled, k - 1] > ring_bound]
            if not unsettled.shape[0]:
                break
            in_ring = np.flatnonzero(bound == ring_bound)
            ring = np.concatenate([np.arange(*spans[q]) for q in in_ring])
            V, w = U[ring], counts[ring]
            for part in range(0, unsettled.shape[0], _CORE_BLOCK):
                measured = unsettled[part : part + _CORE_BLOCK]
                _keep_nearest(cand_d, cand_w, measured, U[lo + measured], V, w, block)

        by_distance = np.argsort(cand_d, axis=1, kind="stable")
        reached = (np.cumsum(np.take_along_axis(cand_w, by_distance, axis=1), axis=1) < min_samples).sum(axis=1)
        core[lo:hi] = np.take_along_axis(cand_d, by_distance, axis=1)[np.arange(hi - lo), reached]
    return core


def _keep_nearest(
    cand_d: np.ndarray,
    cand_w: np.ndarray,
    rows: np.ndarray,
    X: np.ndarray,
    V: np.ndarray,
    w: np.ndarray,
    block: np.ndarray,
) -> None:
    """Measure each row of ``X`` against ``V``, whose rows have
    multiplicities ``w``, into the top of ``block``, and merge its
    ``min(k, len(V))`` nearest into the candidates of the matching entry
    of ``rows``, keeping the k smallest with the k-th last."""
    k = cand_d.shape[1]
    D = block[: X.shape[0], : V.shape[0]]
    for r, x in enumerate(X):
        D[r] = _row_distances(V, x)
    near = min(k, V.shape[0])
    at = np.arange(X.shape[0])[:, None]
    nearest = np.argpartition(D, near - 1, axis=1)[:, :near]
    d = np.concatenate([cand_d[rows], D[at, nearest]], axis=1)
    merged_w = np.concatenate([cand_w[rows], w[nearest]], axis=1)
    keep = (at, np.argpartition(d, k - 1, axis=1)[:, :k])
    cand_d[rows] = d[keep]
    cand_w[rows] = merged_w[keep]


# Share of dead (already joined) entries in Prim's fresh-group arrays at
# which they are compacted away.
_COMPACT_SHARE = 1 / 8


def _mutual_reachability_mst(rows: _UniqueRows, core: np.ndarray) -> np.ndarray:
    """Prim's MST over the implicit mutual-reachability graph.

    ``core`` holds one core distance per distinct row.  Returns (n-1, 3)
    rows (a, b, weight) in the order the vertices b join the tree, which
    starts at vertex 0.  Ties are broken deterministically: the next
    vertex is the lowest-index one among those of minimum candidate
    weight, and its edge runs to the earliest-joined tree vertex that
    offered that weight, because a candidate edge is only replaced by a
    strictly lighter one.

    Identical rows have equal core distances and always carry the same
    candidate edge, so Prim runs over groups of identical rows.  A group
    is fresh until its first (lowest-index) row joins, at weight w; only
    then is that row measured, against the fresh groups only.  Its
    mates' reach drops to their core distance c, taken strictly, so from
    then on they wait at weight c with the joiner as source if w > c, or
    keep the joiner's edge if w = c; nothing can beat c, and every later
    mate's distances equal the first's, so no later mate is measured.
    All its mates start waiting as soon as the first row joins.  The next
    vertex is the least (weight, index) among the fresh groups' first
    rows and the waiting rows, so the edges equal the full-row Prim's.

    The joiner x measures only the fresh groups v whose lower bound
    max(core_v, core_x, fl(sqrt(h))) is below their candidate weight,
    h being the flags v and x differ in (0 within a pattern): the reach
    is at least that bound, so no skipped group could have taken the
    strictly lighter edge an update needs.

    Fresh groups are kept in arrays ordered by first row, so
    ``np.argmin``'s first-minimum rule is the lowest-index rule; a group
    that joins is marked dead (infinite core and weight) and the arrays
    are compacted once dead entries exceed ``_COMPACT_SHARE`` of them.
    Waiting rows sit in a heap keyed by (weight, row).
    """
    counts = rows.counts
    n = rows.inverse.shape[0]
    members = np.argsort(rows.inverse, kind="stable")  # each group's rows, ascending
    start = np.cumsum(counts) - counts  # position in ``members`` of each group's first row
    first = members[start]

    gid = np.argsort(first)
    first_f = first[gid]
    values, core_f, pattern_f = rows.values[gid], core[gid], rows.pattern[gid]
    best_w = np.full(gid.shape[0], np.inf)
    best_src = np.zeros(gid.shape[0], dtype=np.intp)
    n_fresh, dead = gid.shape[0], 0
    waiting: list[tuple[float, int, int]] = []  # (weight, row, source)

    edges = np.empty((n - 1, 3))
    # Step k adds the k-th vertex to the tree, by edges[k - 1]: the first
    # row of fresh slot j at weight w, or, when j is -1, the first waiting
    # row.  Vertex 0 starts the tree.
    j, w = 0, np.inf
    for k in range(n):
        if j >= 0:
            x, g = int(first_f[j]), int(gid[j])
            if k:
                edges[k - 1] = (best_src[j], x, w)
            source = x if w > core[g] else int(best_src[j])
            for mate in members[start[g] + 1 : start[g] + counts[g]].tolist():
                heapq.heappush(waiting, (float(core[g]), mate, source))
            # The slot is dead from now on: its infinite core makes every
            # reach and lower bound to it infinite, so it is never updated.
            core_x, core_f[j], best_w[j] = core_f[j], np.inf, np.inf
            n_fresh -= 1
            dead += 1
            if n_fresh:
                lower = np.maximum(core_f, rows.bound[pattern_f[j]][pattern_f])
                np.maximum(lower, core_x, out=lower)
                near = (lower < best_w).nonzero()[0]
                reach = np.maximum(lower[near], _row_distances(values.take(near, axis=0), values[j]))
                lighter = reach < best_w[near]
                closer = near[lighter]
                best_w[closer] = reach[lighter]
                best_src[closer] = x
                if dead > _COMPACT_SHARE * gid.shape[0]:
                    alive = core_f < np.inf
                    gid, first_f, values = gid[alive], first_f[alive], values[alive]
                    core_f, pattern_f = core_f[alive], pattern_f[alive]
                    best_w, best_src = best_w[alive], best_src[alive]
                    dead = 0
                jf = int(best_w.argmin())
        else:
            c, x, source = heapq.heappop(waiting)
            edges[k - 1] = (source, x, c)
        if k == n - 1:
            break
        if waiting and (not n_fresh or waiting[0][:2] < (float(best_w[jf]), int(first_f[jf]))):
            j = -1
        else:
            j, w = jf, best_w[jf]
    return edges


def _single_linkage(mst_edges: np.ndarray) -> list[tuple[int, int, float, int]]:
    """Union-find dendrogram: rows (left, right, distance, size), cluster
    ids n..2n-2 assigned in merge order."""
    edges = mst_edges[np.argsort(mst_edges[:, 2], kind="stable")].tolist()
    n = len(edges) + 1
    parent = list(range(2 * n - 1))
    size = [1] * n

    def find(x: int) -> int:
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    Z = []
    for new, (a, b, dist) in enumerate(edges, start=n):
        ra, rb = find(int(a)), find(int(b))
        merged = size[ra] + size[rb]
        Z.append((ra, rb, dist, merged))
        parent[ra] = parent[rb] = new
        size.append(merged)
    return Z


def _condense(
    Z: Sequence[tuple[int, int, float, int]], min_cluster_size: int
) -> list[tuple[int, int, float, int]]:
    """Collapse the dendrogram into clusters of >= min_cluster_size.

    Walking from the root, a split where both sides are big creates two
    new cluster ids; a split where one side is small sheds that side's
    points at the split's lambda (1/distance) while the big side keeps
    the current cluster id.  The root is relabeled n.

    Kept nodes go through a FIFO queue and each shed side is listed
    breadth-first, once, which gives the row order the module docstring
    requires.
    """
    n = len(Z) + 1
    next_label = n + 1
    rows: list[tuple[int, int, float, int]] = []
    queue = deque([(2 * n - 2, n)])  # (dendrogram node, its cluster id)
    while queue:
        node, label = queue.popleft()
        left, right, dist, _ = Z[node - n]
        lam = 1.0 / dist if dist > 0.0 else np.inf
        left_size = Z[left - n][3] if left >= n else 1
        right_size = Z[right - n][3] if right >= n else 1

        if left_size >= min_cluster_size and right_size >= min_cluster_size:
            for child, child_size in ((left, left_size), (right, right_size)):
                rows.append((label, next_label, lam, child_size))
                queue.append((child, next_label))
                next_label += 1
            continue
        for side, side_size in ((left, left_size), (right, right_size)):
            if side_size >= min_cluster_size:
                queue.append((side, label))
                continue
            shed = [side]
            for sub in shed:  # grows as it goes: breadth-first, level by level
                if sub < n:
                    rows.append((label, sub, lam, 1))
                else:
                    shed += Z[sub - n][:2]
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
    """Label each point by the nearest selected cluster above it, or noise.

    A cluster's row precedes every row below it, since cluster ids grow
    root-first, so one pass resolves each cluster's nearest selected
    ancestor (itself included) before any row that needs it.
    """
    label_of_cluster = {cid: label for label, cid in enumerate(sorted(selected))}
    owner = {n: label_of_cluster.get(n, NOISE)}
    labels = [NOISE] * n
    for parent, child, _, _ in rows:
        if child < n:
            labels[child] = owner[parent]
        else:
            owner[child] = label_of_cluster.get(child, owner[parent])
    cluster_ids = {label: cid for cid, label in label_of_cluster.items()}
    return np.array(labels, dtype=int), cluster_ids


def _check_rows(n: int, params: ClusterParams) -> None:
    if n < params.min_cluster_size:
        raise TooFewRows(f"{n} rows < min_cluster_size={params.min_cluster_size}")
    if n < params.effective_min_samples:
        raise TooFewRows(f"{n} rows < min_samples={params.effective_min_samples}")


def _hierarchy(rows: _UniqueRows, min_samples: int) -> list[tuple[int, int, float, int]]:
    """Steps 1-4: the single-linkage dendrogram of mutual reachability."""
    core = _core_distances(rows, min_samples)
    return _single_linkage(_mutual_reachability_mst(rows, core))


def _select(Z: Sequence[tuple[int, int, float, int]], min_cluster_size: int) -> ClusterResult:
    """Steps 5-7: condense ``Z`` at ``min_cluster_size`` and label."""
    n = len(Z) + 1
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
    return _select(_hierarchy(_unique_rows(X), params.effective_min_samples), params.min_cluster_size)


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
    cluster's distinct rows are scored in tiles: each tile row is
    measured against the distinct clustered rows only, and ``np.take``
    copies those distances out to every clustered row's column, in C
    order, so each sum or mean per cluster per tile runs over every row
    of that cluster's span exactly as if every row had been measured.
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
    Up, row_group = np.unique(Xp, axis=0, return_inverse=True)
    row_group = row_group.reshape(-1)
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
            D_u = np.stack([_row_distances(Up, Xp[i]) for i in tile])
            D = np.take(D_u, row_group, axis=1)  # C order, so the sums add as before
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
    rows = _unique_rows(X)
    hierarchies: dict[int, list[tuple[int, int, float, int]]] = {}
    results = []
    for size in sizes:
        params = ClusterParams(min_cluster_size=size, min_samples=min_samples)
        _check_rows(X.shape[0], params)
        ms = params.effective_min_samples
        if ms not in hierarchies:
            hierarchies[ms] = _hierarchy(rows, ms)
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
