"""In-memory spans around calls into dashmine's modules.

:func:`install` replaces public functions with timing wrappers at the
names where their callers look them up: the module attributes ``cli``
calls through (``ingest.parse_workbook``, ``cluster.hdbscan``, ...) and
the names other modules imported with ``from .analysis import ...`` or
``from .model import ...`` (``features.maximal_cliques``,
``report.maximal_cliques``, ``ingest.dashboard_from_dict``).  Each span
keeps its name, start, end and parent; counts taken at the same
boundaries (dashboards in and out of the corpus filter, declared actions
and kept interaction edges) ride along.  Nothing is written until
:meth:`Tracer.dump`.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import Counter
from pathlib import Path
from typing import Callable


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.counts: Counter[str] = Counter()
        self._stack = [-1]

    def _open(self, name: str) -> int:
        index = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1])
        self.ends.append(0.0)
        self._stack.append(index)
        self.starts.append(time.perf_counter())
        return index

    def _close(self, index: int) -> None:
        self.ends[index] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn: Callable, count: Callable | None = None) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
            if count is not None:
                self.counts.update(count(args, result))
            return result

        return wrapper

    def dump(self, path: Path) -> None:
        spans = [
            [name, start, end, parent]
            for name, start, end, parent in zip(self.names, self.starts, self.ends, self.parents)
        ]
        path.write_text(json.dumps({"spans": spans, "counts": dict(self.counts)}))


def _filter_counts(args, result) -> dict[str, int]:
    return {"ingest.parsed": len(args[0]), "ingest.kept": len(result)}


def _graph_counts(args, result) -> dict[str, int]:
    return {
        "geometry.declared_actions": len(args[0].declared_interactions),
        "geometry.interaction_edges": len(result.interaction_edges),
    }


# (module looked up by the caller, attribute, counts taken from the call)
# Functions with no span of their own anywhere (``geometry`` calling
# ``extract_actions``, ``report`` calling ``clique_pattern`` and
# ``max_possible_interactions``) stay unwrapped at every call site, so
# their time counts toward their caller's span.
WRAPPED = (
    ("ingest", "parse_workbook", None),
    ("ingest", "filter_corpus", _filter_counts),
    ("ingest", "dashboard_from_dict", None),
    ("model", "validate", None),
    ("model", "dashboard_to_dict", None),
    ("model", "dashboard_from_dict", None),
    ("model", "graphs_to_dict", None),
    ("model", "graphs_from_dict", None),
    ("geometry", "build_graphs", _graph_counts),
    ("analysis", "analyze_graphs", None),
    ("analysis", "maximal_cliques", None),
    ("analysis", "average_shortest_path", None),
    ("features", "maximal_cliques", None),
    ("features", "average_shortest_path", None),
    ("features", "extract_features", None),
    ("features", "matrix_to_csv", None),
    ("features", "matrix_from_csv", None),
    ("features", "fit_scaler", None),
    ("features", "apply_scaler", None),
    ("report", "maximal_cliques", None),
    ("report", "summarize_corpus", None),
    ("report", "lint_corpus", None),
    ("cluster", "hdbscan", None),
    ("cluster", "silhouette", None),
    ("cluster", "export_dendrogram", None),
    ("cluster", "sweep_min_cluster_size", None),
)


def install(tracer: Tracer) -> None:
    """Wrap every function in :data:`WRAPPED`; spans are named after the
    module that defines the function, whichever module it is called from."""
    for module_name, attr, count in WRAPPED:
        module = importlib.import_module(f"dashmine.{module_name}")
        fn = getattr(module, attr)
        home = fn.__module__.rpartition(".")[2]
        setattr(module, attr, tracer.wrap(f"{home}.{attr}", fn, count))
