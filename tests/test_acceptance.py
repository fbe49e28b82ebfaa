"""Acceptance suite: one test per release criterion.

Each test prints a single ``PASS criterion N`` line with its wall time
and asserts both the behavior and the time budget.  Run with::

    pytest tests/test_acceptance.py -v -s
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from dashmine.cli import main
from dashmine.cluster import ClusterParams, hdbscan, silhouette
from dashmine.features import apply_scaler, default_manifest, extract_features, fit_scaler
from dashmine.geometry import (
    Tolerance,
    build_graphs,
    detect_adjacency,
    max_possible_interactions,
)
from dashmine.analysis import analyze_graphs, average_shortest_path, maximal_cliques
from dashmine.model import BlockType, Dashboard, ActionRecord

from conftest import (
    FIXTURES,
    blob_matrix,
    canonical_partition,
    load_fixture,
    make_block,
    random_dashboard,
)
from oracles import (
    brute_silhouette,
    exhaustive_maximal_cliques,
    floyd_warshall_average,
    rasterized_adjacency,
)


class _Timer:
    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.start


def _report(number: int, label: str, timer: _Timer, budget: float) -> None:
    print(f"PASS criterion {number}: {label} ({timer.elapsed:.2f}s < {budget:.0f}s)")
    assert timer.elapsed < budget, f"criterion {number} exceeded {budget}s"


def test_criterion_1_fixture_suite():
    with _Timer() as t:
        graphs = {name: build_graphs(load_fixture(name)) for name in ("fig_a", "fig_b", "fig_c")}
        assert len(graphs["fig_a"].interaction_edges) == 12
        assert len(graphs["fig_b"].interaction_edges) == 0
        assert len(graphs["fig_c"].interaction_edges) == 8

        c = graphs["fig_c"]
        neighbors = {b.id: set() for b in c.nodes}
        for e in c.adjacency_edges:
            neighbors[e.source].add(e.target)
            neighbors[e.target].add(e.source)
        components, seen = 0, set()
        for v in neighbors:
            if v in seen:
                continue
            components += 1
            stack = [v]
            while stack:
                u = stack.pop()
                if u not in seen:
                    seen.add(u)
                    stack.extend(neighbors[u])
        assert components >= 2
    _report(1, "fixture interaction graphs 12/0/8, fixture C disconnected", t, 1.0)


def test_criterion_2_interaction_bound():
    with _Timer() as t:
        rng = np.random.default_rng(2024)
        for i in range(1000):
            d = random_dashboard(rng, f"d{i}")
            graphs = build_graphs(d)
            assert len(graphs.interaction_edges) <= max_possible_interactions(d.blocks)
        fig_a = build_graphs(load_fixture("fig_a"))
        assert len(fig_a.interaction_edges) == max_possible_interactions(fig_a.nodes) == 12
    _report(2, "interaction bound holds on 1000 synthetic dashboards, tight on fixture A", t, 5.0)


def test_criterion_3_adjacency_oracle():
    with _Timer() as t:
        rng = np.random.default_rng(3033)
        checked = 0
        for _ in range(1000):
            a = (int(rng.integers(0, 60)), int(rng.integers(0, 60)),
                 int(rng.integers(1, 40)), int(rng.integers(1, 40)))
            b = (int(rng.integers(0, 60)), int(rng.integers(0, 60)),
                 int(rng.integers(1, 40)), int(rng.integers(1, 40)))
            for tol in (0, 5, 10):
                got = detect_adjacency(
                    make_block("a", BlockType.TEXT, *a),
                    make_block("b", BlockType.TEXT, *b),
                    Tolerance(tol),
                )
                want = rasterized_adjacency(a, b, tol)
                assert (got.value if got else None) == want, (a, b, tol)
                checked += 1
        assert checked == 3000
    _report(3, "adjacency agrees with rasterization oracle on 1000 pairs x 3 tolerances", t, 10.0)


def test_criterion_4_clique_oracle():
    with _Timer() as t:
        rng = np.random.default_rng(4044)
        for _ in range(500):
            n = int(rng.integers(1, 13))
            ids = [f"n{i}" for i in range(n)]
            density = rng.uniform(0.1, 0.9)
            edges = [
                (ids[i], ids[j])
                for i in range(n)
                for j in range(i + 1, n)
                if rng.random() < density
            ]
            got = {frozenset(c) for c in maximal_cliques(ids, edges)}
            index = {v: i for i, v in enumerate(ids)}
            expected = exhaustive_maximal_cliques(n, [(index[u], index[v]) for u, v in edges])
            assert got == {frozenset(ids[i] for i in c) for c in expected}
    _report(4, "maximal cliques equal exhaustive enumeration on 500 graphs", t, 30.0)


def test_criterion_5_shortest_path_oracle():
    with _Timer() as t:
        rng = np.random.default_rng(5055)
        for _ in range(200):
            n = int(rng.integers(1, 31))
            ids = [f"n{i}" for i in range(n)]
            edges = [
                (ids[i], ids[j])
                for i in range(n)
                for j in range(i + 1, n)
                if rng.random() < 0.25
            ]
            index = {v: i for i, v in enumerate(ids)}
            expected = floyd_warshall_average(n, [(index[u], index[v]) for u, v in edges])
            assert abs(average_shortest_path(ids, edges) - expected) <= 1e-12
    _report(5, "average shortest path equals Floyd-Warshall on 200 graphs", t, 10.0)


def test_criterion_6_scaler():
    with _Timer() as t:
        manifest = default_manifest()
        rng = np.random.default_rng(6066)
        vectors = [
            extract_features(build_graphs(random_dashboard(rng, f"d{i}")), manifest)
            for i in range(40)
        ]
        scaler = fit_scaler(vectors, manifest)
        matrix = np.array([apply_scaler(scaler, v).values for v in vectors])
        for i in range(len(manifest.names)):
            if manifest.flags[i]:
                continue
            if scaler.constant[i]:
                assert np.all(matrix[:, i] == 0.0)
            else:
                assert abs(matrix[:, i].mean()) < 1e-9
                assert abs(matrix[:, i].std() - 1.0) < 1e-9
    _report(6, "scaled columns have zero mean / unit variance, constants map to zero", t, 1.0)


def test_criterion_7_hdbscan_recovery():
    with _Timer() as t:
        centers = [[0.0, 0.0], [60.0, 0.0], [0.0, 60.0]]
        X, truth = blob_matrix(7077, centers, per_blob=100)
        result = hdbscan(X, ClusterParams(min_cluster_size=15))
        assert result.n_clusters == 3
        assert not (result.labels == -1).any()
        agree = 0
        mapping: dict[int, int] = {}
        for label, true in zip(result.labels, truth):
            mapping.setdefault(int(true), int(label))
            agree += int(mapping[int(true)] == int(label))
        assert len(set(mapping.values())) == 3
        assert agree / len(truth) >= 0.95

        Xb, truth_b = blob_matrix(1, centers, per_blob=100, background=30)
        noisy = hdbscan(Xb, ClusterParams(min_cluster_size=15))
        background = noisy.labels[truth_b == -1]
        assert np.mean(background == -1) >= 0.8

        sklearn_cluster = pytest.importorskip("sklearn.cluster")
        for seed in (0, 1, 2, 3, 4):
            rng = np.random.default_rng(seed)
            k = int(rng.integers(2, 5))
            dim = int(rng.integers(2, 8))
            blob_centers = rng.uniform(-100, 100, size=(k, dim))
            while (
                min(
                    np.linalg.norm(p - q)
                    for i, p in enumerate(blob_centers)
                    for q in blob_centers[i + 1 :]
                )
                < 60
            ):
                blob_centers = rng.uniform(-100, 100, size=(k, dim))
            sizes = rng.integers(60, 140, size=k)
            Xs = np.vstack(
                [rng.normal(c, 1.0, size=(s, dim)) for c, s in zip(blob_centers, sizes)]
            )
            mine = hdbscan(Xs, ClusterParams(min_cluster_size=15)).labels
            ref = sklearn_cluster.HDBSCAN(min_cluster_size=15, algorithm="brute").fit(Xs).labels_
            assert canonical_partition(mine) == canonical_partition(ref), f"seed {seed}"
    _report(7, "blob recovery, background noise, and reference equality on 5 seeds", t, 30.0)


def test_criterion_8_silhouette_oracle():
    with _Timer() as t:
        rng = np.random.default_rng(8088)
        for n in (50, 200, 500):
            X = rng.normal(0, 10, size=(n, 4))
            labels = rng.integers(-1, 4, size=n)
            labels[:2] = [0, 1]
            scores = silhouette(X, labels)
            expected = brute_silhouette(X.tolist(), labels.tolist())
            overall = sum(expected.values()) / len(expected)
            assert abs(scores.overall - overall) < 1e-9
            by_cluster: dict[int, list[float]] = {}
            for i, s in expected.items():
                by_cluster.setdefault(int(labels[i]), []).append(s)
            for c, values in by_cluster.items():
                assert abs(scores.per_cluster[c] - sum(values) / len(values)) < 1e-9
    _report(8, "silhouette equals brute-force computation up to 500 rows", t, 5.0)


def test_criterion_9_pipeline_determinism(tmp_path):
    with _Timer() as t:
        artifacts: list[dict[str, bytes]] = []
        for run, jobs in (("run1", 1), ("run2", 4)):
            out = tmp_path / run
            inputs = [str(FIXTURES / f"fig_{x}.json") for x in ("a", "b", "c")]
            assert main(["parse", "--input", *inputs, "--out", str(out), "--jobs", str(jobs)]) == 0
            assert main(["graph", "--input", str(out), "--out", str(out), "--jobs", str(jobs)]) == 0
            assert main(["analyze", "--input", str(out), "--out", str(out), "--jobs", str(jobs)]) == 0
            assert main(["features", "--input", str(out), "--out", str(out), "--jobs", str(jobs)]) == 0
            assert main(["fit-scaler", "--input", str(out / "features.csv"), "--out", str(out)]) == 0
            assert main([
                "scale", "--input", str(out / "features.csv"),
                "--scaler", str(out / "scaler.json"), "--out", str(out),
            ]) == 0
            assert main([
                "cluster", "--input", str(out / "features_scaled.csv"),
                "--min-cluster-size", "2", "--out", str(out),
            ]) == 0
            assert main(["report", "--input", str(out), "--out", str(out), "--csv-tables"]) == 0
            assert main(["lint", "--input", str(out), "--out", str(out)]) in (0, 1)
            artifacts.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
        first, second = artifacts
        assert first.keys() == second.keys()
        for name in first:
            assert first[name] == second[name], f"{name} differs between --jobs runs"
    _report(9, "full pipeline byte-identical across --jobs 1 and 4", t, 10.0)


def test_criterion_10_lint_partial_scope_filter():
    with _Timer() as t:
        from dashmine.report import lint

        def dashboard(wired: int) -> Dashboard:
            blocks = [make_block("f", BlockType.FILTER, 0, 0, 100, 40)]
            blocks += [
                make_block(f"c{i}", BlockType.CHART, 0, 50 + 110 * i, 100, 100) for i in range(3)
            ]
            actions = tuple(ActionRecord("f", f"c{i}", "filter") for i in range(wired))
            return Dashboard(id="d", blocks=tuple(blocks), declared_interactions=actions)

        partial = lint(build_graphs(dashboard(2)))
        assert [f.rule for f in partial] == ["R1"]
        assert lint(build_graphs(dashboard(3))) == []
    _report(10, "partial-scope filter flagged once and clearable", t, 1.0)


def test_criterion_11_invariant_suites():
    with _Timer() as t:
        rng = np.random.default_rng(1111)

        def rect():
            return (int(rng.integers(0, 80)), int(rng.integers(0, 80)),
                    int(rng.integers(1, 50)), int(rng.integers(1, 50)))

        # adjacency symmetry
        for _ in range(200):
            a, b = rect(), rect()
            tol = Tolerance(int(rng.integers(0, 15)))
            block_a = make_block("a", BlockType.TEXT, *a)
            block_b = make_block("b", BlockType.TEXT, *b)
            assert detect_adjacency(block_a, block_b, tol) == detect_adjacency(block_b, block_a, tol)

        # tolerance monotonicity
        from dashmine.model import AdjacencyConfig

        for _ in range(200):
            a, b = rect(), rect()
            t1, t2 = sorted((int(rng.integers(0, 12)), int(rng.integers(0, 12))))
            block_a = make_block("a", BlockType.TEXT, *a)
            block_b = make_block("b", BlockType.TEXT, *b)
            at_t1 = detect_adjacency(block_a, block_b, Tolerance(t1))
            at_t2 = detect_adjacency(block_a, block_b, Tolerance(t2))
            if at_t1 is AdjacencyConfig.ADJOINING:
                assert at_t2 is AdjacencyConfig.ADJOINING
            if at_t1 in (AdjacencyConfig.CONTAINMENT, AdjacencyConfig.PARTIAL_OVERLAP):
                assert at_t2 is at_t1

        # clique maximality
        for _ in range(200):
            n = int(rng.integers(1, 12))
            ids = [f"n{i}" for i in range(n)]
            edges = [
                (ids[i], ids[j])
                for i in range(n)
                for j in range(i + 1, n)
                if rng.random() < 0.4
            ]
            neighbors = {v: set() for v in ids}
            for u, v in edges:
                neighbors[u].add(v)
                neighbors[v].add(u)
            for clique in maximal_cliques(ids, edges):
                members = set(clique)
                for v in ids:
                    if v not in members:
                        assert not members <= neighbors[v]

        # relabeling invariance of adjacency graphs + stats
        for i in range(200):
            d = random_dashboard(rng, f"d{i}")
            graphs = build_graphs(d)
            stats = analyze_graphs(graphs)["adjacency"]
            from dataclasses import replace

            mapping = {
                str(orig): f"r{j:03d}"
                for j, orig in enumerate(rng.permutation([b.id for b in d.blocks]))
            }
            renamed = Dashboard(
                id=d.id,
                blocks=tuple(replace(b, id=mapping[b.id]) for b in d.blocks),
                declared_interactions=tuple(
                    replace(a, source=mapping[a.source], target=mapping[a.target])
                    for a in d.declared_interactions
                ),
            )
            renamed_stats = analyze_graphs(build_graphs(renamed))["adjacency"]
            keys = ("n_edges", "mean_degree", "mean_shortest_path")
            assert [stats[k] for k in keys] == [renamed_stats[k] for k in keys]

        # feature extraction invariant under block permutation
        manifest = default_manifest()
        for i in range(200):
            d = random_dashboard(rng, f"p{i}")
            base = extract_features(build_graphs(d), manifest).values
            order = rng.permutation(len(d.blocks))
            shuffled = Dashboard(
                id=d.id,
                blocks=tuple(d.blocks[j] for j in order),
                declared_interactions=d.declared_interactions,
            )
            assert extract_features(build_graphs(shuffled), manifest).values == base
    _report(11, "five invariant suites, 200 random cases each", t, 60.0)
