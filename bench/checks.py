"""Output checks on one pass of a workload.

Each ``check_*`` function reads the artifacts a pass left in ``out`` and
returns ``(checks, props)``: ``checks`` maps a check name to ``None``
when it held or to a message saying what was wrong, and ``props`` holds
numbers read off the artifacts (cluster count, noise share, ...).
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path


def read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    """Header and rows of a dashmine CSV, ``#`` comment lines skipped."""
    lines = [line for line in path.read_text().splitlines() if not line.startswith("#")]
    rows = list(csv.reader(lines))
    return rows[0], [r for r in rows[1:] if r]


def digest(out: Path) -> dict:
    """sha256 over every artifact (relative name and bytes), plus counts."""
    h = hashlib.sha256()
    n_files = n_bytes = 0
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        data = path.read_bytes()
        h.update(path.relative_to(out).as_posix().encode() + b"\0" + data + b"\0")
        n_files += 1
        n_bytes += len(data)
    return {"sha256": h.hexdigest(), "files_written": n_files, "bytes_written": n_bytes}


def _json_parses(out: Path) -> str | None:
    for path in sorted(out.glob("*.json")):
        try:
            json.loads(path.read_text())
        except ValueError as exc:
            return f"{path.name}: {exc}"
    for path in sorted(out.glob("*.ndjson")):
        for i, line in enumerate(path.read_text().splitlines()):
            try:
                json.loads(line)
            except ValueError as exc:
                return f"{path.name} line {i + 1}: {exc}"
    return None


def _labels(out: Path, ids: list[str], min_clusters: int) -> tuple[dict, dict]:
    """Checks on labels.csv, condensed_tree.json and silhouette.json."""
    checks: dict[str, str | None] = {}
    _, rows = read_csv(out / "labels.csv")
    tree_text = (out / "condensed_tree.json").read_text()
    k = sum(1 for node in json.loads(tree_text)["nodes"] if node["selected"])
    labels = [int(r[1]) for r in rows]
    checks["label_rows_match_input"] = (
        None if [r[0] for r in rows] == ids else f"labels.csv has {len(rows)} rows for {len(ids)} inputs"
    )
    bad = [x for x in labels if not -1 <= x < k]
    used = sorted(set(labels) - {-1})
    checks["labels_in_range"] = (
        None if not bad and used == list(range(k)) else f"labels {sorted(set(bad))[:5]} / used {used[:5]} for k={k}"
    )
    checks["enough_clusters"] = None if k >= min_clusters else f"{k} cluster(s), need {min_clusters}"
    silhouette = out / "silhouette.json"
    if k >= 2:
        overall = json.loads(silhouette.read_text())["overall"] if silhouette.exists() else None
        ok = overall is not None and -1.0 <= overall <= 1.0
        checks["silhouette_written"] = None if ok else f"silhouette overall {overall!r}"
    else:
        checks["silhouette_written"] = "silhouette.json with < 2 clusters" if silhouette.exists() else None
    props = {
        "n_clusters": k,
        "noise_share": labels.count(-1) / len(labels),
        "nonfinite_stabilities": sum(1 for r in rows if r[2] and not math.isfinite(float(r[2]))),
        "condensed_tree_infinity_tokens": tree_text.count("Infinity"),
    }
    return checks, props


def check_pipeline(out: Path, docs: Path, manifest: dict, stages: list[dict]) -> tuple[dict, dict]:
    kept = manifest["kept_ids"]
    n_kept = len(kept)
    checks: dict[str, str | None] = {"json_parses": _json_parses(out)}

    reported = stages[0]["stdout"].split()
    n_docs = len(list(docs.iterdir()))
    counts = {  # name: (found, expected)
        "documents on disk": (n_docs, manifest["documents"]),
        "documents parsed": (int(reported[1]), manifest["documents"]),
        "dashboards kept": (int(reported[4]), n_kept),
    }
    ndjson = (out / "dashboards.ndjson").read_text().splitlines()
    id_lists = {
        "dashboards.ndjson": [json.loads(line)["id"] for line in ndjson],
        "graph files": sorted(p.name[: -len(".graph.json")] for p in out.glob("*.graph.json")),
        "analysis files": sorted(p.name[: -len(".analysis.json")] for p in out.glob("*.analysis.json")),
        "features.csv": [r[0] for r in read_csv(out / "features.csv")[1]],
        "features_scaled.csv": [r[0] for r in read_csv(out / "features_scaled.csv")[1]],
    }
    problems = [f"{name}={found}" for name, (found, expected) in counts.items() if found != expected]
    problems += [f"{name} has {len(ids)} ids" for name, ids in id_lists.items() if sorted(ids) != kept]
    summary = json.loads((out / "summary.json").read_text())
    if summary["n_dashboards"] != n_kept:
        problems.append(f"summary.json n_dashboards={summary['n_dashboards']}")
    checks["counts_reconcile"] = "; ".join(problems) + f" (expected {n_kept} kept)" if problems else None

    label_checks, props = _labels(out, id_lists["features_scaled.csv"], min_clusters=1)
    checks.update(label_checks)
    scaled_rows = read_csv(out / "features_scaled.csv")[1]
    props["unique_row_share"] = len({tuple(r[1:]) for r in scaled_rows}) / len(scaled_rows)
    props["findings"] = len((out / "findings.ndjson").read_text().splitlines())
    return checks, props


def check_cluster(out: Path, matrix: Path) -> tuple[dict, dict]:
    ids = [r[0] for r in read_csv(matrix)[1]]
    checks: dict[str, str | None] = {"json_parses": _json_parses(out)}
    label_checks, props = _labels(out, ids, min_clusters=2)
    checks.update(label_checks)
    return checks, props


def check_sweep(out: Path, sizes: list[int]) -> tuple[dict, dict]:
    checks: dict[str, str | None] = {"json_parses": _json_parses(out)}
    settings = json.loads((out / "sweep.json").read_text())["settings"]
    got = [s["min_cluster_size"] for s in settings]
    bad = [s for s in settings if s["n_clusters"] < 0 or not 0.0 <= s["coverage"] <= 1.0]
    checks["sweep_settings"] = None if got == sizes and not bad else f"settings {got}, out of range {bad[:2]}"
    counts = sorted(s["n_clusters"] for s in settings)
    checks["enough_clusters"] = None if counts[-1] >= 2 else f"cluster counts {counts}"
    noise = sorted(1.0 - s["coverage"] for s in settings)
    props = {"n_clusters": counts[len(counts) // 2], "noise_share": noise[len(noise) // 2]}
    return checks, props
