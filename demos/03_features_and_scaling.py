"""
Feature vectors and corpus standard scaling
============================================

Each dashboard becomes a 19-column vector: structural counts and means
plus 0/1 presence flags for block types and interaction edge classes.
Every column is scaled as (x - mean) / std over the corpus (population
variance); flag columns are stored and checked as mean 0 and std 1, so
the one formula leaves them unchanged.
"""

import json
from pathlib import Path

import numpy as np

from dashmine import (
    apply_scaler,
    build_graphs,
    dashboard_from_dict,
    default_manifest,
    extract_features,
    fit_scaler,
)

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

manifest = default_manifest()
vectors = []
for name in ("fig_a", "fig_b", "fig_c"):
    dashboard = dashboard_from_dict(json.loads((FIXTURES / f"{name}.json").read_text()))
    vectors.append(extract_features(build_graphs(dashboard), manifest))

print("feature columns:", ", ".join(manifest.names))
print()
for v in vectors:
    rendered = ", ".join(f"{x:g}" for x in v.values)
    print(f"{v.dashboard_id}: [{rendered}]")

scaler = fit_scaler(vectors, manifest)
scaled = [apply_scaler(scaler, v) for v in vectors]

# after scaling, every non-constant count column is centered with unit
# variance; flags are still exactly 0 or 1
matrix = np.array([v.values for v in scaled])
print("\ncolumn means after scaling (flags keep their raw shares):")
for i, name in enumerate(manifest.names):
    kind = "flag" if manifest.flags[i] else ("const" if scaler.constant[i] else "scaled")
    print(f"  {name:<24} {kind:<7} mean={matrix[:, i].mean():+.3f}")
