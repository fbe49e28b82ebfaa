"""Graph-based mining of dashboard designs.

Dashboards are decomposed into five kinds of blocks and two graphs over
them: an undirected adjacency graph (spatial layout) and a directed
interaction graph (which blocks drive which).  On top of that sit
structural analyses (cliques, paths, degrees), a feature extractor with
a corpus standard scaler, a from-scratch density-based clusterer, corpus
summary reports and lint checks, plus a file-based CLI pipeline.
"""

from .analysis import (
    analyze_graphs,
    average_shortest_path,
    clique_pattern,
    maximal_cliques,
)
from .cluster import (
    ClusterParams,
    ClusterResult,
    SilhouetteScores,
    export_dendrogram,
    hdbscan,
    silhouette,
    sweep_min_cluster_size,
)
from .features import (
    FeatureManifest,
    FeatureVector,
    Scaler,
    apply_scaler,
    default_manifest,
    extract_features,
    fit_scaler,
)
from .geometry import (
    Tolerance,
    build_adjacency_graph,
    build_graphs,
    build_interaction_graph,
    detect_adjacency,
    max_possible_interactions,
)
from .ingest import Worksheet, filter_corpus, parse_workbook
from .model import (
    ActionRecord,
    AdjacencyConfig,
    AdjacencyEdge,
    Block,
    BlockType,
    ChartProps,
    Dashboard,
    DashboardGraphs,
    EdgeClass,
    FilterProps,
    GraphNode,
    InteractionEdge,
    LegendProps,
    MultimediaProps,
    TextProps,
    dashboard_from_dict,
    dashboard_to_dict,
    graphs_from_dict,
    graphs_to_dict,
    validate,
)
from .report import (
    LintFinding,
    interaction_adjacency_overlap,
    lint,
    lint_corpus,
    summarize_corpus,
)

__version__ = "0.1.0"
