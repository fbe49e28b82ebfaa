from __future__ import annotations

import warnings

import numpy as np
import pytest

from dashmine.errors import EmptyCorpus, ManifestMismatch, NonFiniteInput
from dashmine.features import (
    FEATURE_NAMES,
    FeatureManifest,
    FeatureVector,
    Scaler,
    apply_scaler,
    default_manifest,
    extract_features,
    fit_scaler,
    invert_scaler,
    matrix_from_csv,
    matrix_to_csv,
)
from dashmine.geometry import build_graphs
from dashmine.model import BlockType, Dashboard, DashboardGraphs

from conftest import make_block, random_dashboard
from oracles import golden_feature_table

MANIFEST = default_manifest()
COL = {name: i for i, name in enumerate(MANIFEST.names)}


def test_default_manifest_has_19_unique_columns():
    assert len(MANIFEST.names) == 19
    assert len(set(MANIFEST.names)) == 19


def test_fig_b_features(fig_graphs):
    v = extract_features(fig_graphs["fig_b"])
    assert v.values[COL["int_n_edges"]] == 0
    assert v.values[COL["has_filter_chart_edge"]] == 0
    assert v.values[COL["has_legend_chart_edge"]] == 0
    assert v.values[COL["has_chart_chart_edge"]] == 0
    assert v.values[COL["has_text"]] == 1
    assert v.values[COL["has_multimedia"]] == 1


def test_fig_a_features(fig_graphs):
    v = extract_features(fig_graphs["fig_a"])
    assert v.values[COL["has_chart"]] == 1
    assert v.values[COL["has_text"]] == 0
    assert v.values[COL["has_chart_chart_edge"]] == 1
    assert v.values[COL["int_n_edges"]] == 12


def test_edgeless_two_block_dashboard():
    d = Dashboard(
        id="d",
        blocks=(
            make_block("a", BlockType.TEXT, 0, 0, 10, 10),
            make_block("b", BlockType.TEXT, 500, 500, 10, 10),
        ),
    )
    v = extract_features(build_graphs(d))
    assert v.values[COL["n_blocks"]] == 2
    assert v.values[COL["adj_mean_shortest_path"]] == 0
    assert v.values[COL["adj_has_cliques"]] == 0
    assert v.values[COL["adj_n_maximal_cliques"]] == 0
    assert v.values[COL["adj_mean_clique_size"]] == 0


def test_features_invariant_under_permutation_and_relabel():
    rng = np.random.default_rng(61)
    for i in range(50):
        d = random_dashboard(rng, f"d{i}")
        base = extract_features(build_graphs(d))
        order = rng.permutation(len(d.blocks))
        renamed = {b.id: f"q{j:03d}" for j, b in enumerate(d.blocks)}
        from dataclasses import replace

        permuted = Dashboard(
            id=d.id,
            blocks=tuple(replace(d.blocks[j], id=renamed[d.blocks[j].id]) for j in order),
            declared_interactions=tuple(
                replace(a, source=renamed[a.source], target=renamed[a.target])
                for a in d.declared_interactions
            ),
        )
        assert extract_features(build_graphs(permuted)).values == base.values


def test_presence_flags_are_binary_before_and_after_scaling():
    rng = np.random.default_rng(67)
    vectors = [
        extract_features(build_graphs(random_dashboard(rng, f"d{i}"))) for i in range(30)
    ]
    scaler = fit_scaler(vectors)
    flag_cols = [i for i, is_flag in enumerate(MANIFEST.flags) if is_flag]
    for v in vectors:
        scaled = apply_scaler(scaler, v)
        for i in flag_cols:
            assert v.values[i] in (0.0, 1.0)
            assert scaled.values[i] == v.values[i]


def test_interaction_edges_imply_has_chart():
    rng = np.random.default_rng(71)
    for i in range(100):
        v = extract_features(build_graphs(random_dashboard(rng, f"d{i}")))
        if v.values[COL["int_n_edges"]] > 0:
            assert v.values[COL["has_chart"]] == 1


def _vec(dash_id, values):
    return FeatureVector(dashboard_id=dash_id, values=tuple(float(x) for x in values))


def _manifest2():
    return FeatureManifest(names=("n_blocks", "adj_n_edges"))


def test_fit_scaler_population_moments():
    manifest = _manifest2()
    scaler = fit_scaler([_vec("a", [2, 5]), _vec("b", [4, 5])], manifest)
    assert scaler.mean[0] == 3.0
    assert scaler.std[0] == 1.0  # population std of [2, 4]
    assert scaler.constant == (False, True)
    assert scaler.std[1] == 1.0  # substituted


def test_constant_column_scales_to_zero():
    manifest = _manifest2()
    vectors = [_vec(f"d{i}", [5, i]) for i in range(3)]
    scaler = fit_scaler(vectors, manifest)
    assert scaler.constant[0]
    for v in vectors:
        assert apply_scaler(scaler, v).values[0] == 0.0


def test_transformed_moments_are_standard():
    rng = np.random.default_rng(73)
    vectors = [
        extract_features(build_graphs(random_dashboard(rng, f"d{i}"))) for i in range(40)
    ]
    scaler = fit_scaler(vectors)
    matrix = np.array([apply_scaler(scaler, v).values for v in vectors])
    for i, name in enumerate(MANIFEST.names):
        if MANIFEST.flags[i] or scaler.constant[i]:
            continue
        assert abs(matrix[:, i].mean()) < 1e-9, name
        assert abs(matrix[:, i].std() - 1.0) < 1e-9, name


def test_apply_scaler_single_value():
    manifest = _manifest2()
    scaler = fit_scaler([_vec("a", [2, 0]), _vec("b", [4, 1])], manifest)
    scaled = apply_scaler(scaler, _vec("x", [4, 1]))
    assert scaled.values[0] == 1.0  # (4 - 3) / 1


def test_scaling_round_trip():
    rng = np.random.default_rng(79)
    vectors = [
        extract_features(build_graphs(random_dashboard(rng, f"d{i}"))) for i in range(25)
    ]
    scaler = fit_scaler(vectors)
    for v in vectors:
        back = invert_scaler(scaler, apply_scaler(scaler, v))
        if not any(scaler.constant):
            assert all(abs(x - y) <= 1e-12 for x, y in zip(back.values, v.values))
        else:
            for i, (x, y) in enumerate(zip(back.values, v.values)):
                if not scaler.constant[i]:
                    assert abs(x - y) <= 1e-12


def test_fit_scaler_needs_two_vectors():
    with pytest.raises(EmptyCorpus):
        fit_scaler([_vec("a", [1, 2])], _manifest2())


@pytest.mark.parametrize(
    "column", [[1e308, -1e308] * 2, [1e308] * 4], ids=["std-overflows", "mean-overflows"]
)
def test_fit_scaler_rejects_moments_that_overflow(column):
    vectors = [_vec(f"d{i}", [x, i]) for i, x in enumerate(column)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the check reports it, not a numpy warning
        with pytest.raises(NonFiniteInput) as info:
            fit_scaler(vectors, _manifest2())
    assert "'n_blocks'" in str(info.value)


@pytest.mark.parametrize(
    "mean, std, value",
    [
        ((0.0, 0.0), (1.0, 0.5), 1e308),
        ((0.0, -1e308), (1.0, 1.0), 1e308),
        ((0.0, 0.0), (1.0, 1.0), float("nan")),
    ],
    ids=["quotient-overflows", "difference-overflows", "nan-cell"],
)
def test_apply_scaler_rejects_a_result_that_is_not_finite_naming_row_and_column(mean, std, value):
    scaler = Scaler(manifest=_manifest2(), mean=mean, std=std, constant=(False, False))
    with pytest.raises(NonFiniteInput) as info:
        apply_scaler(scaler, _vec("d7", [3.0, value]))
    assert "'d7'" in str(info.value) and "'adj_n_edges'" in str(info.value)
    # a finite result is unchanged
    assert apply_scaler(scaler, _vec("d7", [3.0, 1e300])).values[1] == (1e300 - mean[1]) / std[1]


def test_manifest_mismatch_detected():
    scaler = fit_scaler([_vec("a", [2, 0]), _vec("b", [4, 1])], _manifest2())
    with pytest.raises(ManifestMismatch):
        apply_scaler(scaler, FeatureVector("x", (1.0, 2.0, 3.0)))


def test_two_column_one_hot_manifest_is_configurable():
    manifest = FeatureManifest(names=("has_chart", "no_chart", "n_blocks"))
    rng = np.random.default_rng(83)
    v = extract_features(build_graphs(random_dashboard(rng)), manifest)
    assert v.values[0] + v.values[1] == 1.0


def test_unknown_manifest_name_rejected():
    with pytest.raises(ValueError):
        FeatureManifest(names=("n_blocks", "definitely_not_a_feature"))


def test_csv_round_trip():
    rng = np.random.default_rng(89)
    vectors = [
        extract_features(build_graphs(random_dashboard(rng, f"d{i}"))) for i in range(10)
    ]
    text = matrix_to_csv(vectors, MANIFEST, comment="config_fingerprint=abc123")
    manifest_back, vectors_back = matrix_from_csv(text)
    assert manifest_back.names == MANIFEST.names
    assert [v.dashboard_id for v in vectors_back] == [v.dashboard_id for v in vectors]
    for a, b in zip(vectors, vectors_back):
        assert a.values == b.values  # repr round-trip is exact


def test_manifest_json_round_trip():
    doc = MANIFEST.to_dict()
    assert FeatureManifest.from_dict(doc) == MANIFEST


def test_csv_round_trip_keeps_ids_that_start_with_hash():
    ids = ["plain", "#hash", "# spaced"]
    width = len(MANIFEST.names)
    vectors = [
        FeatureVector(dashboard_id=d, values=tuple(float(k + j) for j in range(width)))
        for k, d in enumerate(ids)
    ]
    text = matrix_to_csv(vectors, MANIFEST, comment="config_fingerprint=abc123")
    _, vectors_back = matrix_from_csv(text)
    assert [v.dashboard_id for v in vectors_back] == ids
    assert [v.values for v in vectors_back] == [v.values for v in vectors]


def test_every_feature_column_matches_golden_table(fig_graphs):
    all_columns = FeatureManifest(names=FEATURE_NAMES)
    rng = np.random.default_rng(67)
    cases = [DashboardGraphs(dashboard_id="empty", nodes=()), *fig_graphs.values()]
    cases += [build_graphs(random_dashboard(rng, f"g{i}")) for i in range(300)]
    for graphs in cases:
        golden = golden_feature_table(graphs)
        assert FEATURE_NAMES == tuple(golden)
        values = extract_features(graphs, all_columns).values
        for name, value in zip(FEATURE_NAMES, values):
            assert value == golden[name], (graphs.dashboard_id, name)


@pytest.mark.parametrize("token", ["nan", "inf", "-inf"])
def test_csv_with_a_non_finite_value_is_rejected_naming_row_and_column(token):
    width = len(MANIFEST.names)
    vectors = [FeatureVector(f"d{k}", tuple(float(k + j) for j in range(width))) for k in range(3)]
    lines = matrix_to_csv(vectors, MANIFEST).splitlines()
    cells = lines[2].split(",")
    cells[1 + COL["adj_n_edges"]] = token
    lines[2] = ",".join(cells)
    with pytest.raises(NonFiniteInput) as info:
        matrix_from_csv("\n".join(lines) + "\n")
    assert "'d1'" in str(info.value) and "'adj_n_edges'" in str(info.value)


@pytest.mark.parametrize("key", ["mean", "std"])
def test_scaler_document_with_non_finite_moments_is_rejected(key):
    vectors = [_vec("a", [1.0, 0.0]), _vec("b", [3.0, 1.0])]
    doc = fit_scaler(vectors, _manifest2()).to_dict()
    doc[key] = [float("nan"), doc[key][1]]
    with pytest.raises(NonFiniteInput) as info:
        Scaler.from_dict(doc)
    assert key in str(info.value)


@pytest.mark.parametrize(
    "edit, error, fragment",
    [
        (lambda cells: cells[:-1], ManifestMismatch, "row 'd1' has 18 values, header has 19"),
        (lambda cells: cells + ["1.0"], ManifestMismatch, "row 'd1' has 20 values, header has 19"),
        (
            lambda cells: cells[:1 + COL["adj_n_edges"]] + ["abc"] + cells[2 + COL["adj_n_edges"]:],
            ValueError,
            "row 'd1', column 'adj_n_edges' is not a number: 'abc'",
        ),
    ],
    ids=["short-row", "long-row", "not-a-number"],
)
def test_csv_row_must_hold_one_number_per_header_column(edit, error, fragment):
    width = len(MANIFEST.names)
    vectors = [FeatureVector(f"d{k}", tuple(float(k + j) for j in range(width))) for k in range(3)]
    lines = matrix_to_csv(vectors, MANIFEST).splitlines()
    lines[2] = ",".join(edit(lines[2].split(",")))
    with pytest.raises(error) as info:
        matrix_from_csv("\n".join(lines) + "\n")
    assert fragment in str(info.value)


@pytest.mark.parametrize(
    "kwargs, error, fragment",
    [
        ({"mean": (1.0,)}, ManifestMismatch, "scaler mean does not hold one value per manifest column"),
        ({"std": (1.0, 1.0, 1.0)}, ManifestMismatch, "scaler std does not hold"),
        ({"constant": ()}, ManifestMismatch, "scaler constant does not hold"),
        ({"mean": (0.0, float("inf"))}, NonFiniteInput, "scaler mean of column 'adj_n_edges'"),
        ({"std": (float("nan"), 1.0)}, NonFiniteInput, "scaler std of column 'n_blocks'"),
        ({"std": (1.0, 0.0)}, ValueError, "scaler std of column 'adj_n_edges' is 0.0"),
        ({"std": (-2.0, 1.0)}, ValueError, "scaler std of column 'n_blocks' is -2.0"),
    ],
    ids=["short-mean", "long-std", "empty-constant", "inf-mean", "nan-std", "zero-std", "negative-std"],
)
def test_scaler_checks_itself(kwargs, error, fragment):
    fields = {"mean": (0.0, 0.0), "std": (1.0, 1.0), "constant": (False, False)} | kwargs
    with pytest.raises(error) as info:
        Scaler(manifest=_manifest2(), **fields)
    assert fragment in str(info.value)
    doc = {"manifest": list(_manifest2().names)} | {k: list(v) for k, v in fields.items()}
    with pytest.raises(error):
        Scaler.from_dict(doc)


def test_fit_scaler_stores_an_overflowing_flag_column_as_mean_0_std_1():
    manifest = FeatureManifest(names=("n_blocks", "has_chart"))
    vectors = [_vec(f"d{i}", [i, 1e308 if i % 2 else -1e308]) for i in range(4)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        scaler = fit_scaler(vectors, manifest)
    assert (scaler.mean[1], scaler.std[1], scaler.constant[1]) == (0.0, 1.0, False)
