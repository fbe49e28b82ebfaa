from __future__ import annotations

import dataclasses
import json

import numpy as np
import pytest

from dashmine.errors import EmptyCorpus
from dashmine.geometry import build_graphs
from dashmine.model import ActionRecord, BlockType, Dashboard
from dashmine.report import (
    interaction_adjacency_overlap,
    lint,
    lint_corpus,
    summarize_corpus,
    _mode,
)

from conftest import make_block, random_dashboard
from oracles import golden_lint, golden_summary


def _filter_dashboard(n_charts: int, wired: int) -> Dashboard:
    """One filter driving ``wired`` of ``n_charts`` stacked charts."""
    blocks = [make_block("f", BlockType.FILTER, 0, 0, 100, 40)]
    for i in range(n_charts):
        blocks.append(make_block(f"c{i}", BlockType.CHART, 0, 50 + 110 * i, 100, 100))
    actions = tuple(ActionRecord("f", f"c{i}", "filter") for i in range(wired))
    return Dashboard(id="filtered", blocks=tuple(blocks), declared_interactions=actions)


def test_fixture_corpus_interactivity(fig_graphs):
    summary = summarize_corpus(list(fig_graphs.values()))
    assert summary["n_dashboards"] == 3
    assert summary["n_interactive"] == 2  # fig_b is static
    assert summary["interactive_share"] == pytest.approx(2 / 3)


def test_single_dashboard_saturation_is_full(fig_graphs):
    summary = summarize_corpus([fig_graphs["fig_a"]])
    assert summary["saturation"]["mean_per_dashboard"] == 1.0
    assert summary["saturation"]["pooled"] == 1.0
    assert summary["saturation"]["mode"] == 1.0


def test_static_corpus_has_zero_interactive_share(fig_graphs):
    summary = summarize_corpus([fig_graphs["fig_b"]])
    assert summary["n_interactive"] == 0
    assert summary["interactive_share"] == 0.0
    assert summary["interaction_edges"] is None
    assert summary["saturation"]["mean_per_dashboard"] is None


def test_block_counts_sum_to_total(fig_graphs):
    summary = summarize_corpus(list(fig_graphs.values()))
    assert sum(summary["block_counts"].values()) == sum(
        len(g.nodes) for g in fig_graphs.values()
    )
    assert all(0.0 <= share <= 1.0 for share in summary["block_shares"].values())


def test_chart_type_presence_counts_each_dashboard_once(fig_graphs):
    summary = summarize_corpus(list(fig_graphs.values()))
    # bar charts appear in all three showcase dashboards
    assert summary["chart_type_presence_shares"]["bar"] == 1.0
    # two pie charts in fig_a still count as one dashboard
    assert summary["chart_type_presence_shares"]["pie"] == pytest.approx(1 / 3)


def test_summary_is_permutation_invariant(fig_graphs):
    docs = list(fig_graphs.values())
    assert summarize_corpus(docs) == summarize_corpus(docs[::-1])


def test_summary_merge_equals_whole():
    rng = np.random.default_rng(97)
    corpus = [build_graphs(random_dashboard(rng, f"d{i}")) for i in range(20)]
    whole = summarize_corpus(corpus)
    left = summarize_corpus(corpus[:7])
    right = summarize_corpus(corpus[7:])
    for t in whole["block_counts"]:
        assert whole["block_counts"][t] == left["block_counts"][t] + right["block_counts"][t]
    assert whole["n_interactive"] == left["n_interactive"] + right["n_interactive"]
    assert whole["adjacency_interaction_overlap"]["n_overlapping"] == (
        left["adjacency_interaction_overlap"]["n_overlapping"] + right["adjacency_interaction_overlap"]["n_overlapping"]
    )
    merged_patterns: dict[str, int] = dict(left["clique_patterns"])
    for pattern, count in right["clique_patterns"].items():
        merged_patterns[pattern] = merged_patterns.get(pattern, 0) + count
    assert whole["clique_patterns"] == merged_patterns


def _equivalence_corpora(fig_graphs):
    """The fixtures, 300 random dashboards (whole and in slices of ten), and
    a corpus with no interactive dashboard."""
    rng = np.random.default_rng(113)
    dashboards = [random_dashboard(rng, f"d{i}") for i in range(300)]
    randoms = [build_graphs(d) for d in dashboards]
    static = [fig_graphs["fig_b"]] + [
        build_graphs(dataclasses.replace(d, declared_interactions=())) for d in dashboards[:30]
    ]
    slices = [randoms[i : i + 10] for i in range(0, len(randoms), 10)]
    return [list(fig_graphs.values()), randoms, static, *slices]


def test_summary_document_equals_golden_record(fig_graphs):
    corpora = _equivalence_corpora(fig_graphs)
    for corpus in corpora:
        doc, golden = summarize_corpus(corpus), golden_summary(corpus)
        assert doc == golden
        assert json.dumps(doc) == json.dumps(golden)  # key order too: the CSV tables follow it
    static = summarize_corpus(corpora[2])
    assert static["n_interactive"] == 0
    assert static["interaction_edges"] is None
    assert set(static["saturation"].values()) == {None}


def test_lint_findings_equal_golden_copy(fig_graphs):
    rules = set()
    for corpus in _equivalence_corpora(fig_graphs)[:3]:
        for graphs in corpus:
            findings = [f.to_dict() for f in lint(graphs)]
            assert findings == golden_lint(graphs)
            rules.update(f["rule"] for f in findings)
    assert rules == {"R1", "R2", "R3", "R4"}


def test_empty_corpus_raises():
    with pytest.raises(EmptyCorpus):
        summarize_corpus([])


def test_mode_resolves_ties_to_smallest():
    assert _mode([3, 1, 3, 1, 2]) == 1
    assert _mode([5]) == 5


def test_interaction_type_counts(fig_graphs):
    summary = summarize_corpus(list(fig_graphs.values()))
    # fig_a: 12 filter actions; fig_c: 4 filter + 4 highlight
    assert summary["interaction_type_counts"] == {"filter": 16, "highlight": 4}


def test_overlap_direct_cases(fig_graphs):
    # fig_a: all 12 interactions are between charts; 5 chart pairs adjacent,
    # each contributing both directions -> 10 overlapping edges
    count, by_class = interaction_adjacency_overlap(fig_graphs["fig_a"])
    assert count == 10
    assert by_class["chart_chart"] == 10
    # static dashboard: nothing to overlap
    count_b, _ = interaction_adjacency_overlap(fig_graphs["fig_b"])
    assert count_b == 0


def test_overlap_matches_nested_loop_oracle():
    rng = np.random.default_rng(101)
    for i in range(100):
        graphs = build_graphs(random_dashboard(rng, f"d{i}"))
        count, by_class = interaction_adjacency_overlap(graphs)
        brute = 0
        brute_classes = {k: 0 for k in by_class}
        for interaction in graphs.interaction_edges:
            for adjacency in graphs.adjacency_edges:
                if {interaction.source, interaction.target} == {
                    adjacency.source,
                    adjacency.target,
                }:
                    brute += 1
                    brute_classes[interaction.edge_class.value] += 1
        assert count == brute
        assert by_class == brute_classes
        assert count <= len(graphs.interaction_edges)


# --- lint -----------------------------------------------------------------------


def test_partial_scope_filter_flagged_and_clearable():
    partial = build_graphs(_filter_dashboard(3, wired=2))
    findings = lint(partial)
    assert [f.rule for f in findings] == ["R1"]
    assert findings[0].severity == "warning"

    full = build_graphs(_filter_dashboard(3, wired=3))
    assert lint(full) == []


def test_static_dashboard_without_widgets_is_clean():
    d = Dashboard(
        id="plain",
        blocks=(
            make_block("t", BlockType.TEXT, 0, 0, 200, 40),
            make_block("c1", BlockType.CHART, 0, 50, 100, 100),
            make_block("c2", BlockType.CHART, 100, 50, 100, 100),
        ),
    )
    assert lint(build_graphs(d)) == []


def test_floating_legend_gets_orphan_and_isolated():
    d = Dashboard(
        id="floaty",
        blocks=(
            make_block("c1", BlockType.CHART, 0, 0, 100, 100),
            make_block("c2", BlockType.CHART, 100, 0, 100, 100),
            make_block("lg", BlockType.LEGEND, 600, 600, 50, 50),
        ),
        declared_interactions=(ActionRecord("c1", "c2", "filter"),),
    )
    findings = lint(build_graphs(d))
    assert [(f.rule, f.subjects) for f in findings] == [
        ("R2", ("lg",)),
        ("R3", ("lg",)),
    ]


def test_fig_b_flags_widgets_without_interactions(fig_graphs):
    findings = lint(fig_graphs["fig_b"])
    assert [f.rule for f in findings] == ["R4"]
    assert findings[0].subjects == ("region_legend",)


def test_fig_a_and_fig_c_lint_clean(fig_graphs):
    assert lint(fig_graphs["fig_a"]) == []
    assert lint(fig_graphs["fig_c"]) == []


def test_lint_is_pure_and_sorted():
    rng = np.random.default_rng(103)
    corpus = [build_graphs(random_dashboard(rng, f"d{i}")) for i in range(20)]
    first = lint_corpus(corpus)
    second = lint_corpus(list(reversed(corpus)))
    assert first == second
    keys = [(f.rule, f.dashboard_id, f.subjects) for f in first]
    assert keys == sorted(keys)
