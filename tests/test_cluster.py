from __future__ import annotations

import dataclasses
import functools
import math
import tracemalloc

import numpy as np
import pytest

from dashmine import cluster
from dashmine.cluster import (
    ClusterParams,
    _core_distances,
    _mutual_reachability_mst,
    _row_distances,
    _unique_rows,
    export_dendrogram,
    hdbscan,
    silhouette,
    sweep_min_cluster_size,
)
from dashmine.errors import FewerThanTwoClusters, NonFiniteInput, TooFewRows
from dashmine.features import apply_scaler, default_manifest, extract_features, fit_scaler
from dashmine.geometry import build_graphs

from conftest import blob_matrix, canonical_partition, random_dashboard
from oracles import (
    brute_silhouette,
    golden_assign_labels,
    golden_compute_stability,
    golden_condense,
    golden_core_distances,
    golden_mutual_reachability_mst,
    golden_select_eom,
    golden_silhouette,
    golden_single_linkage,
    mutual_reachability_matrix,
    prim_mst_weights,
)

CENTERS_3 = [[0.0, 0.0], [60.0, 0.0], [0.0, 60.0]]


def _agreement(labels, truth) -> float:
    """Best-case fraction of blob points whose label matches truth under
    the optimal label bijection (greedy by overlap)."""
    labels = np.asarray(labels)
    truth = np.asarray(truth)
    blob_rows = truth >= 0
    pairs: dict[tuple[int, int], int] = {}
    for l, t in zip(labels[blob_rows], truth[blob_rows]):
        pairs[(int(l), int(t))] = pairs.get((int(l), int(t)), 0) + 1
    used_l: set[int] = set()
    used_t: set[int] = set()
    matched = 0
    for (l, t), count in sorted(pairs.items(), key=lambda kv: -kv[1]):
        if l == -1 or l in used_l or t in used_t:
            continue
        used_l.add(l)
        used_t.add(t)
        matched += count
    return matched / int(blob_rows.sum())


def test_three_blobs_recovered_exactly():
    X, truth = blob_matrix(0, CENTERS_3, per_blob=100)
    result = hdbscan(X, ClusterParams(min_cluster_size=15))
    assert result.n_clusters == 3
    assert _agreement(result.labels, truth) >= 0.95
    assert not (result.labels == -1).any()  # no blob member is noise


def test_identical_points_form_single_cluster():
    X = np.zeros((30, 3))
    result = hdbscan(X, ClusterParams(min_cluster_size=5))
    assert result.n_clusters == 1
    assert set(result.labels.tolist()) == {0}


def test_background_scatter_is_mostly_noise():
    X, truth = blob_matrix(1, CENTERS_3, per_blob=100, background=30)
    result = hdbscan(X, ClusterParams(min_cluster_size=15))
    background = result.labels[truth == -1]
    assert result.n_clusters == 3
    assert np.mean(background == -1) >= 0.8


def test_exact_agreement_with_reference_implementation():
    sklearn_cluster = pytest.importorskip("sklearn.cluster")

    def make(seed):
        rng = np.random.default_rng(seed)
        k = int(rng.integers(2, 5))
        dim = int(rng.integers(2, 8))
        centers = rng.uniform(-100, 100, size=(k, dim))
        while (
            min(
                np.linalg.norm(a - b)
                for i, a in enumerate(centers)
                for b in centers[i + 1 :]
            )
            < 60
        ):
            centers = rng.uniform(-100, 100, size=(k, dim))
        sizes = rng.integers(60, 140, size=k)
        return np.vstack(
            [rng.normal(c, 1.0, size=(s, dim)) for c, s in zip(centers, sizes)]
        )

    for seed in (0, 1, 2, 3, 4):
        X = make(seed)
        mine = hdbscan(X, ClusterParams(min_cluster_size=15)).labels
        reference = sklearn_cluster.HDBSCAN(min_cluster_size=15, algorithm="brute").fit(X).labels_
        assert canonical_partition(mine) == canonical_partition(reference), f"seed {seed}"


def test_selected_cluster_sizes_respect_minimum():
    X, _ = blob_matrix(5, CENTERS_3, per_blob=80, background=40)
    params = ClusterParams(min_cluster_size=20)
    result = hdbscan(X, params)
    for label in range(result.n_clusters):
        assert int((result.labels == label).sum()) >= params.min_cluster_size


def test_labels_are_dense():
    X, _ = blob_matrix(6, CENTERS_3, per_blob=60, background=20)
    result = hdbscan(X, ClusterParams(min_cluster_size=15))
    non_noise = sorted(set(result.labels.tolist()) - {-1})
    assert non_noise == list(range(result.n_clusters))


def test_row_permutation_equivariance():
    X, _ = blob_matrix(7, CENTERS_3, per_blob=60)
    rng = np.random.default_rng(7)
    perm = rng.permutation(X.shape[0])
    base = hdbscan(X, ClusterParams(min_cluster_size=12)).labels
    permuted = hdbscan(X[perm], ClusterParams(min_cluster_size=12)).labels
    assert canonical_partition(base[perm]) == canonical_partition(permuted)


def test_euclidean_isometry_invariance():
    X, _ = blob_matrix(8, CENTERS_3, per_blob=60)
    theta = 0.7
    rotation = np.array(
        [[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]]
    )
    base = hdbscan(X, ClusterParams(min_cluster_size=12)).labels
    moved = hdbscan(X @ rotation.T + np.array([13.0, -4.5]), ClusterParams(min_cluster_size=12)).labels
    assert canonical_partition(base) == canonical_partition(moved)


def test_mst_matches_brute_force_prim():
    rng = np.random.default_rng(9)
    for n in (20, 60, 200):
        # 2D keeps float summation order identical on both routes
        X = rng.uniform(-50, 50, size=(n, 2))
        min_samples = 5
        rows = _unique_rows(X)
        mst = _mutual_reachability_mst(rows, _core_distances(rows, min_samples))
        weights = mutual_reachability_matrix(X.tolist(), min_samples)
        expected = prim_mst_weights(weights)
        assert sorted(mst[:, 2].tolist()) == expected
        assert math.fsum(mst[:, 2]) == math.fsum(expected)


def _tie_heavy_matrix(rng, n: int, width: int = 19) -> np.ndarray:
    """Rounded integer draws with whole rows repeated: many equal
    distances and many zero distances."""
    X = rng.integers(-2, 3, size=(n, width)).astype(float)
    repeats = rng.integers(0, n, size=n // 3)
    X[rng.integers(0, n, size=repeats.shape[0])] = X[repeats]
    return X


def _duplicate_heavy_matrix(rng, n: int, n_distinct: int, width: int = 19) -> np.ndarray:
    """``n`` rows drawn from ``n_distinct`` rows of scaled-feature-like
    values, so most rows repeat and multiplicities vary."""
    base = np.round(rng.normal(size=(n_distinct, width)), 2)
    return base[rng.integers(0, n_distinct, size=n)]


def _core(X: np.ndarray, min_samples: int) -> np.ndarray:
    """Core distance of each row of ``X``."""
    rows = _unique_rows(X)
    return _core_distances(rows, min_samples)[rows.inverse]


def _golden_mst_agrees(X: np.ndarray, min_samples: int) -> bool:
    rows = _unique_rows(X)
    core = _core_distances(rows, min_samples)
    mst = _mutual_reachability_mst(rows, core)
    return np.array_equal(mst, golden_mutual_reachability_mst(X, core[rows.inverse]))


def _grouped_ends(X: np.ndarray) -> np.ndarray:
    """``X`` with vertex 0 and the last vertex each in a group of
    identical rows, so Prim's start and its final join both involve
    duplicates."""
    X = X.copy()
    X[X.shape[0] // 2] = X[0]
    X[-1] = X[1]
    return X


def test_mst_is_bit_identical_to_golden_prim():
    rng = np.random.default_rng(17)
    # Every size from 2 to 40 crosses each early compaction point of the
    # out-of-tree arrays; the larger sizes run many compactions.
    matrices = [_tie_heavy_matrix(rng, n) for n in list(range(2, 41)) + [63, 64, 65, 257, 600]]
    matrices.append(np.zeros((50, 19)))  # every weight ties
    # Duplicate-heavy: groups of identical rows join through their first
    # row and then wait at their core distance; with few distinct rows
    # many groups hold min_samples rows or more, so their core is 0.
    matrices += [
        _grouped_ends(_duplicate_heavy_matrix(rng, n, d))
        for n, d in ((3, 2), (12, 3), (40, 6), (90, 12), (200, 30), (400, 150), (600, 60))
    ]
    matrices += [_grouped_ends(_tie_heavy_matrix(rng, n)) for n in (5, 33, 300)]
    zero_cores = 0
    for X in matrices:
        n = X.shape[0]
        for min_samples in {1, min(3, n), min(10, n)}:
            zero_cores += int(min_samples > 1 and (_core(X, min_samples) == 0).any())
            assert _golden_mst_agrees(X, min_samples), (n, min_samples)
    assert zero_cores > 0  # some group holds at least min_samples > 1 rows


def test_core_distances_are_bit_identical_to_golden_per_row_loop():
    rng = np.random.default_rng(23)
    matrices = [rng.integers(-1, 2, size=(n, 3)).astype(float) for n in range(2, 61)]
    matrices += [_tie_heavy_matrix(rng, n) for n in (2, 7, 31, 60)]
    matrices += [_duplicate_heavy_matrix(rng, n, d) for n, d in ((40, 3), (80, 12), (100, 40))]
    matrices.append(np.full((25, 19), 0.75))  # every row identical
    for X in matrices:
        n = X.shape[0]
        for min_samples in range(1, n + 1):
            got = _core(X, min_samples)
            assert np.array_equal(got, golden_core_distances(X, min_samples)), (n, min_samples)

    # Larger matrices, with k on both sides of the block size, several
    # blocks of unique rows and multiplicities that decide which neighbor
    # is the min_samples-th.
    larger = [
        _duplicate_heavy_matrix(rng, 300, 120),
        _duplicate_heavy_matrix(rng, 450, 400),
        _duplicate_heavy_matrix(rng, 600, 45),
        _tie_heavy_matrix(rng, 500),
    ]
    for X in larger:
        for min_samples in (1, 2, 10, 31, 32, 33, 40):
            got = _core(X, min_samples)
            assert np.array_equal(got, golden_core_distances(X, min_samples)), (
                X.shape[0],
                min_samples,
            )


def _pipeline_matrix(seed: int, n: int) -> np.ndarray:
    """Scaled feature rows of ``n`` random dashboards, as the pipeline
    computes them: nine 0/1 flag columns among 19."""
    rng = np.random.default_rng(seed)
    manifest = default_manifest()
    vectors = [
        extract_features(build_graphs(random_dashboard(rng, f"d{i}")), manifest) for i in range(n)
    ]
    scaler = fit_scaler(vectors, manifest)
    return np.array([apply_scaler(scaler, v).values for v in vectors])


@functools.cache
def _flag_matrices() -> dict[str, np.ndarray]:
    """Matrices for the flag-pattern bounds: each kind of 0/1 column
    the clusterer may meet, and none."""
    rng = np.random.default_rng(43)
    continuous = _duplicate_heavy_matrix(rng, 300, 220, width=6)
    flags = rng.integers(0, 2, size=(300, 3)).astype(float)
    return {
        "pipeline": _pipeline_matrix(41, 300),
        # Every distance is exactly some fl(sqrt(h)), so candidates tie the bounds.
        "all_flags": rng.integers(0, 2, size=(300, 8)).astype(float),
        # More flag patterns than one per 32 distinct rows: some flag
        # columns go unused.
        "many_flags": np.column_stack([continuous, rng.integers(0, 2, size=(300, 10))]),
        # A count column that happens to hold only 0 and 1.
        "one_zero_one_count": np.column_stack([continuous, rng.integers(0, 2, size=300)]),
        "constant_zero": np.column_stack([continuous, np.zeros(300), flags]),
        "one_pattern": np.column_stack([continuous, np.ones((300, 2))]),
        "no_flags": continuous,
    }


FLAG_MIN_SAMPLES = (1, 2, 10, 32, 33, 250)


def test_flag_pattern_bounds_keep_core_and_mst_bit_identical():
    for name, X in _flag_matrices().items():
        for min_samples in FLAG_MIN_SAMPLES:
            got = _core(X, min_samples)
            assert np.array_equal(got, golden_core_distances(X, min_samples)), (name, min_samples)
            assert _golden_mst_agrees(X, min_samples), (name, min_samples)


def test_flag_pattern_bounds_keep_silhouette_bit_identical():
    for name, X in _flag_matrices().items():
        for min_samples in FLAG_MIN_SAMPLES:
            result = hdbscan(X, ClusterParams(min_cluster_size=10, min_samples=min_samples))
            if result.n_clusters >= 2:
                _assert_silhouette_is_golden(X, result.labels)
        labels = np.random.default_rng(len(name)).integers(-1, 4, size=X.shape[0])
        _assert_silhouette_is_golden(X, labels)


def test_flag_patterns_come_from_the_matrix():
    matrices = _flag_matrices()
    patterns = {name: _unique_rows(X).bound.shape[0] for name, X in matrices.items()}
    assert patterns["one_zero_one_count"] == 2  # not a manifest flag, still a bound
    without_zero = np.delete(matrices["constant_zero"], 6, axis=1)
    assert patterns["constant_zero"] == _unique_rows(without_zero).bound.shape[0] > 1
    assert patterns["one_pattern"] == patterns["no_flags"] == 1
    assert 1 < patterns["many_flags"] <= 300 // cluster._CORE_BLOCK
    bound = _unique_rows(matrices["all_flags"]).bound
    assert np.array_equal(bound, bound.T) and (np.diag(bound) == 0).all()
    assert set(np.unique(bound)) <= {math.sqrt(h) for h in range(9)}


def _dendrogram_rows(Z) -> list[tuple[int, int, str, int]]:
    """Dendrogram rows, from an array or a list, as (left, right,
    distance in hex, size)."""
    return [(int(left), int(right), float(d).hex(), int(size)) for left, right, d, size in Z]


def _condensed_rows(rows) -> list[tuple[int, int, str, int]]:
    return [(int(p), int(c), float(lam).hex(), int(size)) for p, c, lam, size in rows]


def _hex_values(values: dict) -> dict[int, str]:
    return {int(key): float(value).hex() for key, value in values.items()}


def _assert_steps_4_to_7_are_golden(X: np.ndarray, min_samples: int, sizes) -> None:
    rows = _unique_rows(X)
    mst = _mutual_reachability_mst(rows, _core_distances(rows, min_samples))
    Z, golden_Z = cluster._single_linkage(mst), golden_single_linkage(mst)
    n = X.shape[0]
    assert _dendrogram_rows(Z) == _dendrogram_rows(golden_Z), (n, min_samples)
    for size in sizes:
        got = cluster._select(Z, size)
        condensed = golden_condense(golden_Z, size)
        stability = golden_compute_stability(condensed, n)
        selected = golden_select_eom(condensed, stability, n)
        labels, cluster_ids = golden_assign_labels(condensed, selected, n)
        where = (n, min_samples, size)
        assert _condensed_rows(got.condensed_tree) == _condensed_rows(condensed), where
        assert _hex_values(cluster._compute_stability(got.condensed_tree, n)) == _hex_values(
            stability
        ), where
        assert got.selected == tuple(sorted(selected)), where
        assert got.cluster_ids == cluster_ids, where
        assert got.labels.dtype == labels.dtype and np.array_equal(got.labels, labels), where
        assert _hex_values(got.stabilities) == _hex_values(
            {label: stability[cid] for label, cid in cluster_ids.items()}
        ), where


def test_linkage_condensation_and_selection_are_bit_identical_to_golden():
    rng = np.random.default_rng(53)
    matrices = [_tie_heavy_matrix(rng, n) for n in (2, 3, 5, 17, 64, 300)]
    shapes = ((12, 3), (40, 6), (200, 30), (600, 60))
    duplicates = [_duplicate_heavy_matrix(rng, n, d) for n, d in shapes]
    matrices += duplicates
    matrices += list(_flag_matrices().values())
    pipeline = _flag_matrices()["pipeline"]
    matrices += [pipeline[:n] for n in (4, 37, 150)]
    matrices.append(np.full((30, 4), 0.5))  # every row identical: the root fallback
    for X in matrices:
        n = X.shape[0]
        for min_samples in sorted({1, min(5, n)}):
            _assert_steps_4_to_7_are_golden(X, min_samples, sorted({2, max(2, n // 2), n}))
    # The benchmark's sweep: sizes 20..140:20 at min_samples 20.
    for X in (pipeline, duplicates[-1]):
        _assert_steps_4_to_7_are_golden(X, 20, range(20, 141, 20))


def test_sweep_rows_equal_hdbscan_run_alone():
    X, _ = blob_matrix(21, CENTERS_3, per_blob=50, background=40)
    sizes = [4, 8, 15, 30, 60]
    for min_samples in (6, None):
        rows = sweep_min_cluster_size(X, sizes, min_samples=min_samples)
        assert [r["min_cluster_size"] for r in rows] == sizes
        for size, row in zip(sizes, rows):
            alone = hdbscan(X, ClusterParams(min_cluster_size=size, min_samples=min_samples))
            coverage = int((alone.labels != -1).sum()) / alone.labels.shape[0]
            assert (row["n_clusters"], row["coverage"]) == (alone.n_clusters, coverage)


def test_sweep_raises_too_few_rows_at_the_same_setting():
    X, _ = blob_matrix(22, CENTERS_3, per_blob=10, background=0)  # 30 rows
    cases = [
        ([10, 20, 40, 50], None, "30 rows < min_cluster_size=40"),
        ([10, 20], 31, "30 rows < min_samples=31"),
        ([5, 31], 31, "30 rows < min_samples=31"),
        ([20, 25, 31], 3, "30 rows < min_cluster_size=31"),
    ]
    for sizes, min_samples, message in cases:
        with pytest.raises(TooFewRows) as info:
            sweep_min_cluster_size(X, sizes, min_samples=min_samples)
        assert str(info.value) == message


def test_sweep_builds_hierarchy_once_per_min_samples(monkeypatch):
    calls = {"core": 0, "mst": 0}

    def counted(key, fn):
        def wrapper(*args):
            calls[key] += 1
            return fn(*args)

        return wrapper

    monkeypatch.setattr(cluster, "_core_distances", counted("core", cluster._core_distances))
    monkeypatch.setattr(
        cluster, "_mutual_reachability_mst", counted("mst", cluster._mutual_reachability_mst)
    )
    X, _ = blob_matrix(24, CENTERS_3, per_blob=30, background=10)
    sizes = [5, 10, 15, 20]
    sweep_min_cluster_size(X, sizes, min_samples=5)
    assert calls == {"core": 1, "mst": 1}
    sweep_min_cluster_size(X, sizes)
    assert calls == {"core": 1 + len(sizes), "mst": 1 + len(sizes)}


def test_stability_dominates_selected_descendants():
    for seed in (10, 11, 12):
        X, _ = blob_matrix(seed, CENTERS_3, per_blob=80, background=30)
        result = hdbscan(X, ClusterParams(min_cluster_size=15))
        from dashmine.cluster import _compute_stability

        stability = _compute_stability(result.condensed_tree, result.n_points)
        children_of: dict[int, list[int]] = {}
        for parent, child, _, _ in result.condensed_tree:
            if child >= result.n_points:
                children_of.setdefault(parent, []).append(child)
        selected = set(result.selected)

        def selected_descendant_sum(node) -> float:
            total = 0.0
            for child in children_of.get(node, ()):
                if child in selected:
                    total += stability[child]
                else:
                    total += selected_descendant_sum(child)
            return total

        for cluster_id in selected:
            if cluster_id == result.n_points:  # fallback root has no competitor
                continue
            assert stability[cluster_id] >= selected_descendant_sum(cluster_id) - 1e-9


def test_too_few_rows_and_non_finite_errors():
    with pytest.raises(TooFewRows):
        hdbscan(np.zeros((3, 2)), ClusterParams(min_cluster_size=5))
    bad = np.zeros((10, 2))
    bad[4, 1] = np.nan
    with pytest.raises(NonFiniteInput):
        hdbscan(bad, ClusterParams(min_cluster_size=5))


def test_finite_values_whose_distances_could_overflow_are_rejected():
    # 1e308 apart overflows the squared difference; the empty-candidate
    # sentinel of the core-distance pass would then collide with it
    X, truth = blob_matrix(7, [[0.0, 0.0], [20.0, 20.0]], per_blob=20)
    far = X.copy()
    far[0, 0] = 1e308
    for call in (
        lambda M: hdbscan(M, ClusterParams(min_cluster_size=5)),
        lambda M: sweep_min_cluster_size(M, [5, 6]),
        lambda M: silhouette(M, truth),
    ):
        with pytest.raises(NonFiniteInput, match="overflow"):
            call(far)
    # a spread well inside the bound still clusters
    near = X.copy()
    near[0, 0] = 1e150
    hdbscan(near, ClusterParams(min_cluster_size=5))


def test_silhouette_labels_must_match_the_rows():
    X = np.array([[0.0, 0.0]] * 3 + [[100.0, 0.0]] * 3)
    with pytest.raises(ValueError, match="labels length"):
        silhouette(X, [0, 0, 0, 1, 1])


def test_cluster_params_validation():
    with pytest.raises(ValueError):
        ClusterParams(min_cluster_size=1)
    with pytest.raises(ValueError):
        ClusterParams(min_cluster_size=5, min_samples=0)
    assert ClusterParams(min_cluster_size=9).effective_min_samples == 9


# --- silhouette ---------------------------------------------------------------


def test_two_tight_far_clusters_score_one():
    X = np.array([[0.0, 0.0]] * 3 + [[100.0, 0.0]] * 3)
    labels = [0, 0, 0, 1, 1, 1]
    scores = silhouette(X, labels)
    assert abs(scores.overall - 1.0) < 1e-6
    assert abs(scores.per_cluster[0] - 1.0) < 1e-6


def test_silhouette_matches_brute_force():
    rng = np.random.default_rng(13)
    for _ in range(5):
        n = int(rng.integers(20, 120))
        X = rng.normal(0, 10, size=(n, 3))
        labels = rng.integers(-1, 3, size=n)
        if len({c for c in labels.tolist() if c != -1}) < 2:
            labels[:2] = [0, 1]
        scores = silhouette(X, labels)
        expected = brute_silhouette(X.tolist(), labels.tolist())
        by_cluster: dict[int, list[float]] = {}
        for i, s in expected.items():
            by_cluster.setdefault(int(labels[i]), []).append(s)
        for c, values in by_cluster.items():
            assert abs(scores.per_cluster[c] - sum(values) / len(values)) < 1e-9
        assert abs(scores.overall - sum(expected.values()) / len(expected)) < 1e-9


def _assert_silhouette_is_golden(X, labels):
    scores = silhouette(X, labels)
    per_cluster, overall = golden_silhouette(np.asarray(X, dtype=float), labels)
    assert scores.per_cluster == per_cluster
    assert scores.overall == overall


def test_silhouette_is_bit_identical_to_golden_on_tiny_inputs():
    _assert_silhouette_is_golden(np.array([[0.0], [3.0]]), [0, 1])
    _assert_silhouette_is_golden(np.array([[0.0], [1.0], [3.0]]), [0, 0, 1])
    _assert_silhouette_is_golden(np.array([[0.0], [1.0], [3.0]]), [1, 0, 1])
    _assert_silhouette_is_golden(np.array([[0.0], [1.0], [3.0]]), [0, -1, 1])


def test_silhouette_is_bit_identical_to_golden_on_tie_heavy_matrices():
    rng = np.random.default_rng(19)
    # Cluster sizes straddle the 16-row tile: 1, 15, 16, 17, 33.
    for sizes in ([1, 1], [1, 15, 16], [16, 17, 1, 33], [40, 2, 1, 1, 3]):
        labels = np.repeat(np.arange(len(sizes)), sizes)
        for noise in (0, 5, 3 * sum(sizes)):  # none, a little, noise-heavy
            full = np.concatenate([labels, np.full(noise, -1)])
            full = full[rng.permutation(full.shape[0])]
            X = _tie_heavy_matrix(rng, full.shape[0])
            _assert_silhouette_is_golden(X, full)


def test_silhouette_is_bit_identical_to_golden_when_rows_repeat():
    rng = np.random.default_rng(29)
    for n, n_distinct in ((30, 4), (120, 15), (400, 60)):
        X = _duplicate_heavy_matrix(rng, n, n_distinct)
        # Identical rows get different labels, so their scores differ by cluster.
        labels = rng.integers(-1, 4, size=n)
        _assert_silhouette_is_golden(X, labels)
        # Identical rows share a label, so each cluster holds duplicates.
        _, group = np.unique(X, axis=0, return_inverse=True)
        _assert_silhouette_is_golden(X, group.reshape(-1) % 3)


def test_silhouette_is_bit_identical_to_golden_on_clusterer_output():
    rng = np.random.default_rng(23)
    for n in (300, 700):
        X = _tie_heavy_matrix(rng, n)
        result = hdbscan(X, ClusterParams(min_cluster_size=5))
        assert result.n_clusters >= 2
        _assert_silhouette_is_golden(X, result.labels)


def test_equidistant_point_scores_zero():
    X = np.array(
        [[0.0, 0.0]] * 3 + [[10.0, 0.0]] * 3 + [[5.0, 0.0]]
    )
    labels = [0, 0, 0, 1, 1, 1, 0]
    scores = silhouette(X, labels)
    expected = brute_silhouette(X.tolist(), labels)
    assert abs(expected[6]) < 1e-9


def test_silhouette_excludes_noise_and_needs_two_clusters():
    X = np.array([[0.0], [0.1], [50.0], [50.1], [999.0]])
    scores = silhouette(X, [0, 0, 1, 1, -1])
    assert set(scores.per_cluster) == {0, 1}
    with pytest.raises(FewerThanTwoClusters):
        silhouette(X, [0, 0, 0, 0, -1])


# --- dendrogram -----------------------------------------------------------------


def test_dendrogram_leaves_are_selected_clusters():
    X, _ = blob_matrix(14, CENTERS_3, per_blob=100)
    result = hdbscan(X, ClusterParams(min_cluster_size=15))
    tree = export_dendrogram(result)
    parents = {e["parent"] for e in tree["edges"]}
    leaves = {n["id"] for n in tree["nodes"]} - parents
    assert leaves == set(result.selected)
    assert len(tree["edges"]) == len(tree["nodes"]) - 1


def test_single_cluster_dendrogram_is_root_only():
    X = np.zeros((20, 2))
    result = hdbscan(X, ClusterParams(min_cluster_size=5))
    tree = export_dendrogram(result)
    assert len(tree["nodes"]) == 1
    assert tree["edges"] == []
    assert tree["nodes"][0]["id"] == tree["root"]


def test_dendrogram_is_topologically_sorted():
    X, _ = blob_matrix(15, CENTERS_3, per_blob=80, background=20)
    result = hdbscan(X, ClusterParams(min_cluster_size=15))
    tree = export_dendrogram(result)
    seen = set()
    order = [n["id"] for n in tree["nodes"]]
    parent_of = {e["child"]: e["parent"] for e in tree["edges"]}
    for node in order:
        if node in parent_of:
            assert parent_of[node] in seen
        seen.add(node)


def test_sweep_reports_counts_and_coverage():
    X, _ = blob_matrix(16, CENTERS_3, per_blob=60, background=30)
    rows = sweep_min_cluster_size(X, [10, 20, 40])
    assert [r["min_cluster_size"] for r in rows] == [10, 20, 40]
    for row in rows:
        assert 0.0 <= row["coverage"] <= 1.0
        assert row["n_clusters"] >= 1


# --- distance work -------------------------------------------------------------


def _counted_kernel(monkeypatch) -> list[tuple[np.ndarray, np.ndarray]]:
    """Record the (rows, row) arguments of every ``_row_distances`` call."""
    calls: list[tuple[np.ndarray, np.ndarray]] = []
    kernel = cluster._row_distances

    def counted(X, x):
        calls.append((X, x))
        return kernel(X, x)

    monkeypatch.setattr(cluster, "_row_distances", counted)
    return calls


def test_each_distinct_row_pair_is_measured_once(monkeypatch):
    calls = _counted_kernel(monkeypatch)

    def lengths() -> list[int]:
        return [X.shape[0] for X, _ in calls]

    rng = np.random.default_rng(37)
    X = _duplicate_heavy_matrix(rng, 400, 150)
    rows = _unique_rows(X)
    m = rows.values.shape[0]
    assert rows.bound.shape == (1, 1)  # no 0/1 column: one flag pattern

    # One pattern, so ring 0 is every distinct row: each distinct row
    # once, against the distinct rows.
    core = _core_distances(rows, 10)
    assert lengths() == [m] * m

    # k above the block size: the same pass, the same counts.
    calls.clear()
    _core_distances(rows, 40)
    assert lengths() == [m] * m

    # Prim: only each group's first row is measured, against groups, not
    # rows, and never against its own dead slot; the last group to join
    # has no fresh group left to measure.
    calls.clear()
    _mutual_reachability_mst(rows, core)
    assert len(calls) == m - 1
    assert max(lengths()) == m - 1 < X.shape[0]

    # Silhouette: each distinct row of each non-singleton cluster once,
    # against the distinct clustered rows.
    labels = rng.integers(-1, 5, size=X.shape[0])
    labels[:2] = [5, 6]  # two singleton clusters, scored 0 unmeasured
    calls.clear()
    silhouette(X, labels)
    clustered = labels != -1
    sizes = np.bincount(labels[clustered])
    distinct = {
        (int(c), X[i].tobytes()) for i, c in enumerate(labels) if c != -1 and sizes[c] > 1
    }
    assert len(calls) == len(distinct)
    assert set(lengths()) == {np.unique(X[clustered], axis=0).shape[0]}


def test_flag_pattern_bounds_skip_settled_rings(monkeypatch):
    calls = _counted_kernel(monkeypatch)
    rng = np.random.default_rng(47)
    continuous = np.round(rng.normal(scale=0.3, size=(600, 8)), 2)
    flags = (rng.random((600, 3)) < [0.5, 0.3, 0.1]).astype(float)
    X = np.column_stack([continuous, flags])
    rows = _unique_rows(X)
    m = rows.values.shape[0]
    one_pattern = dataclasses.replace(
        rows, pattern=np.zeros(m, dtype=np.intp), bound=np.zeros((1, 1))
    )
    assert rows.bound.shape == (8, 8)

    for k in (10, 40):  # k on both sides of the block size
        measured = {}
        for name, view in (("flags", rows), ("hidden", one_pattern)):
            calls.clear()
            core = _core_distances(view, k)
            core_calls = list(calls)
            calls.clear()
            _mutual_reachability_mst(view, core)
            measured[name] = (
                sum(V.shape[0] for V, _ in core_calls),
                sum(V.shape[0] for V, _ in calls),
            )
            if name == "flags":
                flag_core_calls = core_calls
        # With the flags hidden no pattern bound skips a row or a group.
        assert measured["flags"][0] < measured["hidden"][0]
        assert measured["flags"][1] < measured["hidden"][1]

        # A row measures the patterns h flags away only while the k-th
        # nearest of the rows fewer than h flags away is beyond fl(sqrt(h)).
        flag_of = {row.tobytes(): f for row, f in zip(rows.values, rows.values[:, -3:])}
        rings = 0
        for V, x in flag_core_calls:
            (h,) = {int(np.sum(f != x[-3:])) for f in V[:, -3:]}
            rings += h > 0
            hamming = np.array([np.sum(f != x[-3:]) for f in flag_of.values()])
            assert {v.tobytes() for v in V} == {
                key for key, d in zip(flag_of, hamming) if d == h
            }  # the whole ring
            closer = rows.values[hamming < h]
            nearest = np.sort(_row_distances(closer, x))
            assert closer.shape[0] < k or nearest[k - 1] > math.sqrt(h)
        assert rings > 0


def test_core_distance_candidates_live_one_pattern_at_a_time():
    rng = np.random.default_rng(53)
    continuous = np.round(rng.normal(size=(1200, 6)), 1)
    flags = (rng.random((1200, 4)) < 0.5).astype(float)
    rows = _unique_rows(np.column_stack([continuous, flags]))
    m, k = rows.values.shape[0], 250
    assert rows.bound.shape == (16, 16)

    tracemalloc.start()
    try:
        _core_distances(rows, k)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # One (distance, weight) table over every distinct row would take
    # m * k * 16 bytes; one pattern's table takes about a sixteenth.
    assert peak < m * k * 16 / 2
