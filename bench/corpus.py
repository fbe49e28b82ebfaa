"""Seeded synthetic inputs for the benchmark.

Two generators, both pure functions of their seed:

* :func:`write_corpus` writes a corpus of dashboard documents: canonical
  JSON files (one dashboard each) and workbook XML files (several
  dashboards each, in the grammar of ``fixtures/*.xml``).  Dashboards
  follow four design archetypes (a chart grid with a filter column, a big
  chart with legends, a text-heavy story, charts with overlaid widgets),
  have a long-tailed block count and carry noisy action records
  (duplicates, self-loops and endpoints no edge class supports).  About
  80% of dashboards have two or more charts, so they survive the default
  ``--min-charts 2`` filter.
* :func:`write_matrix` writes a pre-scaled feature matrix CSV in the
  layout of ``features_scaled.csv``: the rows dashmine's own ``graph``,
  ``features`` and ``scale`` functions give for dashboards from the same
  generator, so its duplicate rows and clusters are the program's.

Both return a manifest of the properties of what they wrote.
"""

from __future__ import annotations

import json
from pathlib import Path
from xml.sax.saxutils import escape

import numpy as np
from dashmine.features import apply_scaler, default_manifest, extract_features, fit_scaler, matrix_to_csv
from dashmine.geometry import build_graphs
from dashmine.model import dashboard_from_dict

# (marks, encodings, vis_type) with vis_type as dashmine.model.infer_vis_type
# derives it, so canonical JSON documents pass strict validation.
CHART_SPECS = (
    (("bar",), (("column", "Region"), ("row", "Sales")), "bar"),
    (("line",), (("column", "Date"), ("row", "Sales")), "line"),
    (("pie",), (("color", "Segment"), ("size", "Sales")), "pie"),
    (("circle",), (("column", "Profit"), ("row", "Sales")), "scatter"),
    (("circle",), (("geo", "Country"), ("size", "Sales")), "map"),
    (("text",), (("column", "Region"), ("row", "Segment")), "table"),
    (("square",), (("column", "Region"), ("row", "Segment"), ("color", "Profit")), "square"),
    (("polygon",), (("geo", "Country"), ("color", "Profit")), "map"),
)
WIDGETS = ("dropdown", "slider", "list", "other")
FIELDS = ("Region", "Segment", "Date", "Country")
ARCHETYPES = ("grid", "big_chart", "story", "overlay")
ARCHETYPE_WEIGHTS = (0.35, 0.25, 0.22, 0.18)
XML_DOCUMENT_SHARE = 0.3


def _long_tail(rng: np.random.Generator, scale: float, cap: int) -> int:
    """Non-negative integer with a lognormal tail, capped."""
    return min(cap, int(rng.lognormal(np.log(scale), 0.75)))


_GAPS = (0, 0, 4, 8, 12, 20, 40)


def _gap(rng: np.random.Generator) -> int:
    """Gap between neighbouring blocks: often touching, sometimes just
    inside or outside the default 10 px adjoining tolerance."""
    return _GAPS[int(rng.integers(len(_GAPS)))]


class _Layout:
    def __init__(self, rng: np.random.Generator):
        self.rng = rng
        self.blocks: list[dict] = []
        self.counts = {"chart": 0, "text": 0, "filter": 0, "legend": 0, "multimedia": 0}

    def add(self, kind: str, x: int, y: int, w: int, h: int) -> str:
        self.counts[kind] += 1
        block_id = f"{kind[0]}{self.counts[kind]}"
        block = {"id": block_id, "type": kind, "x": int(x), "y": int(y), "w": max(1, int(w)), "h": max(1, int(h))}
        rng = self.rng
        if kind == "chart":
            block["spec"] = int(rng.integers(len(CHART_SPECS)))
        elif kind == "text":
            block["content"] = " ".join(["lorem ipsum dolor"] * int(rng.integers(1, 6)))
        elif kind == "filter":
            block["widget"] = WIDGETS[int(rng.integers(len(WIDGETS)))]
            block["field"] = FIELDS[int(rng.integers(len(FIELDS)))]
        elif kind == "legend":
            block["channel"] = "color" if rng.random() < 0.7 else "size"
        else:
            block["media"] = "image" if rng.random() < 0.8 else "webpage"
        self.blocks.append(block)
        return block_id

    def ids(self, kind: str) -> list[str]:
        return [b["id"] for b in self.blocks if b["type"] == kind]


def _grid(lay: _Layout) -> None:
    rng = lay.rng
    n_charts = 2 + _long_tail(rng, 2.5, 30)
    cols = int(rng.integers(1, 5))
    n_filters = int(rng.integers(1, 6))
    fx, fw = 0, int(rng.integers(120, 200))
    y = 0
    if rng.random() < 0.6:
        lay.add("text", 0, 0, 1000, 50)
        y = 50 + _gap(rng)
    fy = y
    for _ in range(n_filters):
        h = int(rng.integers(30, 60))
        lay.add("filter", fx, fy, fw, h)
        fy += h + _gap(rng)
    x0 = fw + _gap(rng)
    cw, ch = int(rng.integers(150, 300)), int(rng.integers(120, 240))
    for i in range(n_charts):
        r, c = divmod(i, cols)
        lay.add("chart", x0 + c * (cw + _gap(rng)), y + r * (ch + _gap(rng)), cw, ch)
    if rng.random() < 0.3:
        lay.add("legend", x0 + cols * (cw + 10), y, 100, 60)


def _big_chart(lay: _Layout) -> None:
    rng = lay.rng
    bw, bh = int(rng.integers(500, 900)), int(rng.integers(300, 500))
    lay.add("chart", 0, 0, bw, bh)
    ly = 0
    for _ in range(int(rng.integers(1, 4))):
        lay.add("legend", bw + _gap(rng), ly, 120, 80)
        ly += 80 + _gap(rng)
    n_small = 1 + _long_tail(rng, 1.6, 12) if rng.random() < 0.85 else 0
    sw = max(1, bw // max(1, n_small))
    for i in range(n_small):
        lay.add("chart", i * sw, bh + _gap(rng), sw - _gap(rng), 200)
    if rng.random() < 0.4:
        lay.add("text", 0, bh + 210, bw, 60)


def _story(lay: _Layout) -> None:
    rng = lay.rng
    n_text = 2 + _long_tail(rng, 2.5, 20)
    n_charts = int(rng.choice((0, 1, 1, 2, 3)))
    n_media = int(rng.integers(0, 3))
    kinds = ["text"] * n_text + ["chart"] * n_charts + ["multimedia"] * n_media
    rng.shuffle(kinds)
    y = 0
    for kind in kinds:
        h = int(rng.integers(40, 200))
        lay.add(kind, int(rng.integers(0, 40)), y, int(rng.integers(400, 800)), h)
        y += h + _gap(rng)


def _overlay(lay: _Layout) -> None:
    rng = lay.rng
    n_charts = 1 + _long_tail(rng, 2.0, 16)
    cols = int(rng.integers(1, 4))
    cw, ch = int(rng.integers(250, 400)), int(rng.integers(200, 300))
    for i in range(n_charts):
        r, c = divmod(i, cols)
        x, y = c * (cw + _gap(rng)), r * (ch + _gap(rng))
        lay.add("chart", x, y, cw, ch)
        # Widgets floating on top of the chart: contained or straddling its edge.
        if rng.random() < 0.5:
            lay.add("legend", x + cw - 90, y + int(rng.integers(-20, 20)) + 10, 100, 50)
        if rng.random() < 0.4:
            lay.add("filter", x + 10, y + 10, 120, 30)
    if rng.random() < 0.5:
        lay.add("multimedia", int(rng.integers(0, cols * cw)), int(rng.integers(0, 200)), 150, 150)


_BUILDERS = {"grid": _grid, "big_chart": _big_chart, "story": _story, "overlay": _overlay}


def _actions(lay: _Layout) -> list[tuple[str, str, str]]:
    """Declared actions: plausible ones plus noise the graph stage prunes."""
    rng = lay.rng
    charts, filters, legends = lay.ids("chart"), lay.ids("filter"), lay.ids("legend")
    others = lay.ids("text") + lay.ids("multimedia")
    actions = []
    for f in filters:
        for c in charts:
            if rng.random() < 0.7:
                actions.append((f, c, "filter"))
    for leg in legends:
        for c in charts:
            if rng.random() < 0.5:
                actions.append((leg, c, "highlight"))
    for a in charts:
        for b in charts:
            if a != b and rng.random() < 0.15:
                actions.append((a, b, "filter" if rng.random() < 0.7 else "highlight"))
    if actions:
        for _ in range(int(rng.integers(0, 3))):
            actions.append(actions[int(rng.integers(len(actions)))])
    if charts and rng.random() < 0.2:
        c = charts[int(rng.integers(len(charts)))]
        actions.append((c, c, "filter"))
    if charts and (others or filters) and rng.random() < 0.25:
        pool = others + filters
        src = pool[int(rng.integers(len(pool)))]
        actions.append((charts[int(rng.integers(len(charts)))], src, "filter"))
        if others:
            actions.append((others[int(rng.integers(len(others)))], charts[0], "highlight"))
    return actions


def _random_dashboard(rng: np.random.Generator) -> tuple[list[dict], list[tuple[str, str, str]]]:
    """Blocks and declared actions of one dashboard of a random archetype."""
    archetype = ARCHETYPES[int(rng.choice(len(ARCHETYPES), p=ARCHETYPE_WEIGHTS))]
    lay = _Layout(rng)
    _BUILDERS[archetype](lay)
    return lay.blocks, _actions(lay)


def _n_charts(blocks: list[dict]) -> int:
    return sum(1 for b in blocks if b["type"] == "chart")


def _dashboard_doc(dash_id: str, blocks: list[dict], actions) -> dict:
    """A dashboard in the canonical JSON format."""
    out_blocks = []
    for b in blocks:
        if b["type"] == "chart":
            marks, encodings, vis = CHART_SPECS[b["spec"]]
            props = {"vis_type": vis, "marks": list(marks), "encodings": [list(e) for e in encodings]}
        elif b["type"] == "text":
            props = {"content": b["content"], "formatting": {}}
        elif b["type"] == "filter":
            props = {"widget": b["widget"], "field": b["field"]}
        elif b["type"] == "legend":
            props = {"channel": b["channel"]}
        else:
            props = {"kind": b["media"]}
        out_blocks.append({k: b[k] for k in ("id", "type", "x", "y", "w", "h")} | {"props": props})
    return {
        "id": dash_id,
        "width": 1600,
        "height": 1200,
        "blocks": out_blocks,
        "interactions": [{"source": s, "target": t, "type": k} for s, t, k in actions],
    }


def _zone_xml(b: dict) -> str:
    geo = f'x="{b["x"]}" y="{b["y"]}" w="{b["w"]}" h="{b["h"]}"'
    if b["type"] == "chart":
        return f'<zone id="{b["id"]}" type="chart" {geo} worksheet="ws{b["spec"]}"/>'
    if b["type"] == "text":
        return f'<zone id="{b["id"]}" type="text" {geo}>{escape(b["content"])}</zone>'
    if b["type"] == "filter":
        return f'<zone id="{b["id"]}" type="filter" widget="{b["widget"]}" field="{b["field"]}" {geo}/>'
    if b["type"] == "legend":
        return f'<zone id="{b["id"]}" type="{b["channel"]}-legend" {geo}/>'
    return f'<zone id="{b["id"]}" type="{b["media"]}" {geo}/>'


def _xml_document(dashboards: list[tuple[str, list[dict], list]]) -> str:
    lines = ["<workbook>", "  <datasources>", '    <datasource name="sales">']
    for field in FIELDS + ("Sales", "Profit"):
        lines.append(f'      <attribute name="{field}" datatype="string"/>')
    lines += ["    </datasource>", "  </datasources>", "  <worksheets>"]
    for i, (marks, encodings, _) in enumerate(CHART_SPECS):
        lines.append(f'    <worksheet name="ws{i}">')
        lines += [f'      <mark type="{m}"/>' for m in marks]
        lines += [f'      <encoding channel="{c}" field="{f}"/>' for c, f in encodings]
        lines.append("    </worksheet>")
    lines += ["  </worksheets>", "  <dashboards>"]
    for dash_id, blocks, actions in dashboards:
        lines.append(f'    <dashboard id="{dash_id}" width="1600" height="1200">')
        lines += ["      " + _zone_xml(b) for b in blocks]
        lines += [f'      <action source="{s}" target="{t}" type="{k}"/>' for s, t, k in actions]
        lines.append("    </dashboard>")
    lines += ["  </dashboards>", "</workbook>"]
    return "\n".join(lines) + "\n"


def write_corpus(seed: int, n_kept: int, out_dir: Path) -> dict:
    """Write documents into ``out_dir`` until exactly ``n_kept`` dashboards
    have at least two charts (the ones ``parse --min-charts 2`` keeps), so
    every seed gives the pipeline the same number of rows.

    Returns the manifest: the kept ids and the corpus properties.
    """
    rng = np.random.default_rng([seed, 1])
    out_dir.mkdir(parents=True, exist_ok=True)
    n_dash = n_documents = n_actions = n_xml = 0
    kept: list[str] = []
    block_counts: list[int] = []
    while len(kept) < n_kept:
        xml = rng.random() < XML_DOCUMENT_SHARE
        members = []
        for _ in range(int(rng.integers(1, 6)) if xml else 1):
            if len(kept) == n_kept:
                break
            dash_id = f"d{n_dash:06d}"
            n_dash += 1
            blocks, actions = _random_dashboard(rng)
            members.append((dash_id, blocks, actions))
            block_counts.append(len(blocks))
            n_actions += len(actions)
            if _n_charts(blocks) >= 2:
                kept.append(dash_id)
        if xml:
            n_xml += 1
            (out_dir / f"doc{n_documents:06d}.xml").write_text(_xml_document(members))
        else:
            doc = _dashboard_doc(*members[0])
            (out_dir / f"doc{n_documents:06d}.json").write_text(json.dumps(doc, indent=1) + "\n")
        n_documents += 1
    return {
        "documents": n_documents,
        "xml_documents": n_xml,
        "dashboards": n_dash,
        "kept_ids": kept,
        "kept_share": len(kept) / n_dash,
        "mean_blocks": float(np.mean(block_counts)),
        "max_blocks": int(max(block_counts)),
        "declared_actions": n_actions,
    }


def write_matrix(seed: int, n_rows: int, out_path: Path) -> dict:
    """Write the scaled feature matrix of ``n_rows`` generated dashboards,
    in the layout of ``features_scaled.csv``; return its properties.

    The dashboards come from the same generator as :func:`write_corpus`,
    and only those with two or more charts are kept, as ``parse
    --min-charts 2`` keeps them.  Their rows are computed by dashmine's
    own functions, as the ``graph``, ``features``, ``fit-scaler`` and
    ``scale`` stages compute them, so the matrix's duplicate rows and
    cluster shape are those the program gives on the corpus workload.
    """
    rng = np.random.default_rng([seed, 2])
    manifest = default_manifest()
    vectors = []
    block_counts: list[int] = []
    n_dash = 0
    while len(vectors) < n_rows:
        blocks, actions = _random_dashboard(rng)
        n_dash += 1
        block_counts.append(len(blocks))
        if _n_charts(blocks) < 2:
            continue
        doc = _dashboard_doc(f"r{len(vectors):06d}", blocks, actions)
        vectors.append(extract_features(build_graphs(dashboard_from_dict(doc)), manifest))
    scaler = fit_scaler(vectors, manifest)
    scaled = [apply_scaler(scaler, v) for v in vectors]
    out_path.parent.mkdir(parents=True, exist_ok=True)
    out_path.write_text(matrix_to_csv(scaled, manifest, comment=f"config_fingerprint=bench-seed-{seed}"))
    return {
        "dashboards": n_dash,
        "rows": n_rows,
        "kept_share": n_rows / n_dash,
        "mean_blocks": float(np.mean(block_counts)),
        "max_blocks": int(max(block_counts)),
        "unique_row_share": len({v.values for v in scaled}) / n_rows,
    }
