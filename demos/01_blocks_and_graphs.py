"""
Blocks, edges, and the two dashboard graphs
============================================

Every dashboard is modeled as typed blocks (chart, text, filter, legend,
multimedia) plus two graphs over them: an undirected adjacency graph for
spatial structure and a directed interaction graph for behavior.  A
graph node is a GraphNode: the block's id, type and, for a chart, its
visualization type; geometry stays on the dashboard's blocks.  Each
edge is a flat record: an AdjacencyEdge carries its spatial ``config``,
an InteractionEdge its ``edge_class`` and declared ``itype``.  This
walkthrough loads the three showcase dashboards and prints both graphs.
"""

import json
from pathlib import Path

from dashmine import build_graphs, dashboard_from_dict
from dashmine.errors import SchemaViolation

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

for name in ("fig_a", "fig_b", "fig_c"):
    dashboard = dashboard_from_dict(json.loads((FIXTURES / f"{name}.json").read_text()))

    print(f"=== {dashboard.id} ===")
    print(f"blocks ({len(dashboard.blocks)}):")
    for block in dashboard.blocks:
        print(f"  {block.id:<16} {block.block_type.value:<11} "
              f"at ({block.x},{block.y}) size {block.w}x{block.h}")

    # graph nodes keep a block's id and type, plus a chart's vis_type
    graphs = build_graphs(dashboard)
    print("chart nodes:", {n.id: n.vis_type for n in graphs.nodes if n.vis_type is not None})

    print(f"adjacency edges ({len(graphs.adjacency_edges)}):")
    for edge in graphs.adjacency_edges:
        print(f"  {edge.source} -- {edge.target}  [{edge.config.value}]")

    print(f"interaction edges ({len(graphs.interaction_edges)}):")
    for edge in graphs.interaction_edges:
        print(f"  {edge.source} -> {edge.target}  [{edge.edge_class.value}, {edge.itype}]")
    print()

# The first dashboard is fully interlinked: four charts, twelve directed
# edges, which is exactly the upper bound (charts-1+legends+filters)*charts.
from dashmine import max_possible_interactions

fig_a = dashboard_from_dict(json.loads((FIXTURES / "fig_a.json").read_text()))
print("fig_a saturates its interaction bound:",
      len(build_graphs(fig_a).interaction_edges), "==",
      max_possible_interactions(fig_a.blocks))

# A Dashboard checks itself when it is built, so a document that breaks
# one of the rules (here, two blocks sharing an id) never becomes one.
doc = json.loads((FIXTURES / "fig_b.json").read_text())
doc["blocks"].append(dict(doc["blocks"][0]))
try:
    dashboard_from_dict(doc)
except SchemaViolation as exc:
    print("rejected:", exc)
