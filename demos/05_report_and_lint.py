"""
Corpus reports and design linting
==================================

Corpus-level descriptive statistics (block shares, interactivity,
interaction saturation, clique-pattern frequencies, adjacency/interaction
overlap) plus structural lint rules that flag suspicious wiring, such as
a filter that drives only some of the charts around it.
"""

import json
from pathlib import Path

from dashmine import build_graphs, dashboard_from_dict, lint, summarize_corpus
from dashmine.model import ActionRecord, BlockType, Dashboard, FilterProps
from dashmine.model import Block

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

corpus = []
for name in ("fig_a", "fig_b", "fig_c"):
    dashboard = dashboard_from_dict(json.loads((FIXTURES / f"{name}.json").read_text()))
    corpus.append(build_graphs(dashboard))

summary = summarize_corpus(corpus)  # the summary.json document, as a dict
print(f"{summary['n_dashboards']} dashboards, "
      f"{sum(summary['block_counts'].values())} blocks total")
print("block shares:", {t: round(s, 2) for t, s in summary["block_shares"].items()})
print(f"interactive: {summary['n_interactive']} ({summary['interactive_share']:.0%})")
print(f"interaction saturation, mean per dashboard: "
      f"{summary['saturation']['mean_per_dashboard']:.2f}")
print(f"interactions on spatially adjacent pairs: "
      f"{summary['adjacency_interaction_overlap']['fraction']:.0%}")
print("clique patterns:", summary["clique_patterns"])

# lint findings on the showcase corpus: fig_b has a legend but no
# interactions at all, which trips the static-with-widgets rule (a
# finding's severity comes from the rule table, LINT_RULES)
print("\nfindings on the showcase corpus:")
for graphs in corpus:
    for finding in lint(graphs):
        print(f"  [{finding.severity}] {finding.rule} {finding.dashboard_id}: {finding.message}")

# the classic defect: a centrally placed filter wired to only two of the
# three charts it sits next to
def chart(block_id, y):
    from dashmine.model import ChartProps
    props = ChartProps(vis_type="bar", marks=("bar",), encodings=(("column", "f"),))
    return Block(id=block_id, block_type=BlockType.CHART, x=0, y=y, w=100, h=100, props=props)

flawed = Dashboard(
    id="flawed",
    blocks=(
        Block(id="f", block_type=BlockType.FILTER, x=0, y=0, w=100, h=40,
              props=FilterProps(field="Region")),
        chart("c0", 50), chart("c1", 160), chart("c2", 270),
    ),
    declared_interactions=(
        ActionRecord("f", "c0", "filter"),
        ActionRecord("f", "c1", "filter"),
    ),
)
print("\nfindings on the flawed dashboard:")
for finding in lint(build_graphs(flawed)):
    print(f"  [{finding.severity}] {finding.rule}: {finding.message}")
