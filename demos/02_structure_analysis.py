"""
Structural analysis: cliques, patterns, paths, degrees
=======================================================

The adjacency graph summarizes layout: maximal cliques are groups of
mutually-near blocks, and their type patterns ("chart|chart|filter")
recur across dashboards.  The interaction graph yields degree
statistics.  Shortest paths measure how many spatial hops separate
blocks.  ``analyze_graphs`` gathers all of these into one structure
record per dashboard; the feature extractor reads the same record.
"""

import json
from pathlib import Path

from dashmine import (
    analyze_graphs,
    average_shortest_path,
    build_graphs,
    clique_pattern,
    dashboard_from_dict,
)

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def load(name):
    return build_graphs(dashboard_from_dict(json.loads((FIXTURES / f"{name}.json").read_text())))


for name in ("fig_a", "fig_b", "fig_c"):
    graphs = load(name)
    doc = analyze_graphs(graphs)
    adj, inter = doc["adjacency"], doc["interaction"]

    print(f"=== {name} ===")
    blocks = graphs.nodes_by_id()
    for clique in doc["cliques"]:
        print(f"  clique {tuple(clique)}  pattern={clique_pattern(clique, blocks)}")
    print(f"  mean adjacency degree: {adj['mean_degree']:.2f}")
    print(f"  mean shortest path:    {adj['mean_shortest_path']:.3f}")
    print(f"  mean in/out degree:    {inter['mean_in_degree']:.2f}")
    print()

# A hand-checkable case: a path graph A-B-C averages (1+1+1+1+2+2)/6 = 4/3.
print("path graph A-B-C mean distance:",
      average_shortest_path(["A", "B", "C"], [("A", "B"), ("B", "C")]))

# The analysis document also counts each pattern per dashboard.
doc = analyze_graphs(load("fig_c"))
print("\nfig_c analysis document keys:", sorted(doc))
print("fig_c clique patterns:", doc["clique_patterns"])
