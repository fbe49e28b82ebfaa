from __future__ import annotations

import csv
import json
from pathlib import Path

import pytest

from dashmine.cli import main
from dashmine.features import FeatureVector, default_manifest, matrix_to_csv

from conftest import FIXTURES


def run_pipeline(workdir: Path, jobs: int = 1, min_cluster_size: int = 2) -> dict[str, bytes]:
    """Full pipeline over the showcase fixtures; returns artifact bytes."""
    out = workdir
    inputs = [str(FIXTURES / f"fig_{x}.json") for x in ("a", "b", "c")]
    assert main(["parse", "--input", *inputs, "--out", str(out), "--jobs", str(jobs)]) == 0
    assert (
        main(
            [
                "graph",
                "--input",
                str(out / "dashboards.ndjson"),
                "--out",
                str(out),
                "--jobs",
                str(jobs),
            ]
        )
        == 0
    )
    assert main(["analyze", "--input", str(out), "--out", str(out), "--jobs", str(jobs)]) == 0
    assert main(["features", "--input", str(out), "--out", str(out), "--jobs", str(jobs)]) == 0
    assert main(["fit-scaler", "--input", str(out / "features.csv"), "--out", str(out)]) == 0
    assert (
        main(
            [
                "scale",
                "--input",
                str(out / "features.csv"),
                "--scaler",
                str(out / "scaler.json"),
                "--out",
                str(out),
            ]
        )
        == 0
    )
    assert (
        main(
            [
                "cluster",
                "--input",
                str(out / "features_scaled.csv"),
                "--min-cluster-size",
                str(min_cluster_size),
                "--out",
                str(out),
            ]
        )
        == 0
    )
    assert main(["report", "--input", str(out), "--out", str(out), "--csv-tables"]) == 0
    lint_code = main(["lint", "--input", str(out), "--out", str(out)])
    assert lint_code in (0, 1)
    return {
        p.name: p.read_bytes()
        for p in sorted(out.iterdir())
        if p.is_file()
    }


def test_graph_stage_edge_counts(tmp_path):
    artifacts = run_pipeline(tmp_path)
    expected = {"fig_a": 12, "fig_b": 0, "fig_c": 8}
    for dash_id, n_edges in expected.items():
        doc = json.loads(artifacts[f"{dash_id}.graph.json"])
        assert len(doc["interaction"]) == n_edges


def test_pipeline_is_byte_identical_across_jobs(tmp_path):
    first = run_pipeline(tmp_path / "run1", jobs=1)
    second = run_pipeline(tmp_path / "run2", jobs=4)
    assert first.keys() == second.keys()
    for name in first:
        assert first[name] == second[name], f"artifact {name} differs across --jobs"


def test_artifacts_embed_fingerprint(tmp_path):
    artifacts = run_pipeline(tmp_path)
    assert json.loads(artifacts["fig_a.graph.json"])["_fingerprint"]
    assert json.loads(artifacts["summary.json"])["_fingerprint"]
    assert artifacts["features.csv"].decode().startswith("# config_fingerprint=")
    assert artifacts["labels.csv"].decode().startswith("# config_fingerprint=")
    first_line = artifacts["dashboards.ndjson"].decode().splitlines()[0]
    assert json.loads(first_line)["_fingerprint"]


def test_lint_exit_codes(tmp_path, capsys):
    out = tmp_path
    assert main(["parse", "--input", str(FIXTURES / "fig_b.json"), "--out", str(out)]) == 0
    assert main(["graph", "--input", str(out), "--out", str(out)]) == 0
    # fig_b carries a legend but no interactions -> R4 warning -> exit 1
    assert main(["lint", "--input", str(out)]) == 1
    findings = [json.loads(line) for line in capsys.readouterr().out.splitlines() if line.startswith("{")]
    assert any(f["rule"] == "R4" for f in findings)

    clean = tmp_path / "clean"
    assert main(["parse", "--input", str(FIXTURES / "fig_a.json"), "--out", str(clean)]) == 0
    assert main(["graph", "--input", str(clean), "--out", str(clean)]) == 0
    assert main(["lint", "--input", str(clean)]) == 0


def test_pipeline_error_is_machine_readable(tmp_path, capsys):
    code = main(["parse", "--input", str(tmp_path / "missing.xml"), "--out", str(tmp_path)])
    assert code == 2
    err = capsys.readouterr().err
    doc = json.loads(err.strip().splitlines()[-1])
    assert doc["stage"] == "parse"
    assert "message" in doc and "error" in doc


def test_failed_stage_removes_partial_outputs(tmp_path):
    bad = tmp_path / "bad.xml"
    bad.write_text("<workbook><dashboards><dashboard id='d'><zone id='z' type='nope' "
                   "x='0' y='0' w='5' h='5'/></dashboard></dashboards></workbook>")
    good = FIXTURES / "fig_a.json"
    code = main(["parse", "--input", str(good), str(bad), "--out", str(tmp_path / "out")])
    assert code == 2
    assert not (tmp_path / "out" / "dashboards.ndjson").exists()


@pytest.mark.parametrize("bad_id", ["sub/dir", "back\\slash", "", ".", ".."])
def test_parse_rejects_ids_unsafe_as_file_names(tmp_path, capsys, bad_id):
    # An id such as "sub/dir" would put its graph file in a subdirectory,
    # where the later stages never look for it.
    docs = tmp_path / "docs"
    docs.mkdir()
    fig_a = json.loads((FIXTURES / "fig_a.json").read_text())
    for i, dash_id in enumerate(("a", "b", "c", bad_id)):
        (docs / f"doc{i}.json").write_text(json.dumps(fig_a | {"id": dash_id}))
    out = tmp_path / "out"
    assert main(["parse", "--input", str(docs), "--out", str(out)]) == 2
    error = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert (error["error"], error["stage"]) == ("SchemaViolation", "parse")
    assert not out.exists()


def test_later_stages_reject_unsafe_and_duplicate_ids(tmp_path):
    fig_a = json.loads((FIXTURES / "fig_a.json").read_text())
    out = tmp_path / "out"
    for ids in (("a", "sub/dir"), ("a", "a")):
        ndjson = tmp_path / "dashboards.ndjson"
        ndjson.write_text("".join(json.dumps(fig_a | {"id": i}) + "\n" for i in ids))
        assert main(["graph", "--input", str(ndjson), "--out", str(out)]) == 2
        assert not out.exists()

    graphs = tmp_path / "graphs"
    graphs.mkdir()
    nodes = {"nodes": [{"id": "c", "type": "chart"}]}
    (graphs / "a.graph.json").write_text(json.dumps(nodes | {"dashboard_id": "a"}))
    for bad_id in ("../escape", "a"):
        (graphs / "b.graph.json").write_text(json.dumps(nodes | {"dashboard_id": bad_id}))
        for stage in ("analyze", "features", "report", "lint"):
            assert main([stage, "--input", str(graphs), "--out", str(out)]) == 2
        assert not out.exists()


def test_lenient_mode_downgrades_unknown_zone(tmp_path):
    wb = tmp_path / "odd.xml"
    wb.write_text(
        "<workbook><worksheets>"
        "<worksheet name='w1'><mark type='bar'/><encoding channel='column' field='A'/></worksheet>"
        "<worksheet name='w2'><mark type='line'/><encoding channel='column' field='B'/></worksheet>"
        "</worksheets><dashboards><dashboard id='d'>"
        "<zone id='c1' type='chart' x='0' y='0' w='100' h='100' worksheet='w1'/>"
        "<zone id='c2' type='chart' x='100' y='0' w='100' h='100' worksheet='w2'/>"
        "<zone id='z' type='widget-bar' x='200' y='0' w='50' h='50'/>"
        "</dashboard></dashboards></workbook>"
    )
    assert main(["parse", "--input", str(wb), "--out", str(tmp_path)]) == 2
    assert main(["parse", "--input", str(wb), "--lenient", "--out", str(tmp_path)]) == 0
    doc = json.loads((tmp_path / "dashboards.ndjson").read_text().splitlines()[0])
    kinds = {b["id"]: b["type"] for b in doc["blocks"]}
    assert kinds["z"] == "multimedia"


def test_min_charts_filter_applies(tmp_path):
    assert (
        main(
            [
                "parse",
                "--input",
                str(FIXTURES / "fig_b.json"),
                "--min-charts",
                "3",
                "--out",
                str(tmp_path),
            ]
        )
        == 0
    )
    assert (tmp_path / "dashboards.ndjson").read_text() == ""


def test_env_var_overrides_default(tmp_path, monkeypatch):
    monkeypatch.setenv("DASHMINE_MIN_CHARTS", "3")
    assert main(["parse", "--input", str(FIXTURES / "fig_b.json"), "--out", str(tmp_path)]) == 0
    assert (tmp_path / "dashboards.ndjson").read_text() == ""


def test_cluster_sweep(tmp_path):
    out = tmp_path
    inputs = [str(FIXTURES / f"fig_{x}.json") for x in ("a", "b", "c")]
    assert main(["parse", "--input", *inputs, "--out", str(out)]) == 0
    assert main(["graph", "--input", str(out), "--out", str(out)]) == 0
    assert main(["features", "--input", str(out), "--out", str(out)]) == 0
    assert main(["fit-scaler", "--input", str(out / "features.csv"), "--out", str(out)]) == 0
    assert (
        main(
            [
                "scale",
                "--input",
                str(out / "features.csv"),
                "--scaler",
                str(out / "scaler.json"),
                "--out",
                str(out),
            ]
        )
        == 0
    )
    assert (
        main(
            [
                "cluster",
                "--input",
                str(out / "features_scaled.csv"),
                "--sweep",
                "min_cluster_size=2..3:1",
                "--out",
                str(out),
            ]
        )
        == 0
    )
    doc = json.loads((out / "sweep.json").read_text())
    assert [row["min_cluster_size"] for row in doc["settings"]] == [2, 3]



def test_labels_csv_round_trips_ids_with_commas(tmp_path):
    manifest = default_manifest()
    width = len(manifest.names)
    ids = ["d0", "with,comma", 'say "hi"', "d3", "d4,x", "d5"]
    centers = [0.0, 0.0, 0.0, 50.0, 50.0, 50.0]
    vectors = [
        FeatureVector(d, tuple(c + 0.1 * k + j for j in range(width)), scaled=True)
        for k, (d, c) in enumerate(zip(ids, centers))
    ]
    matrix = tmp_path / "features_scaled.csv"
    matrix.write_text(matrix_to_csv(vectors, manifest))
    args = ["cluster", "--input", str(matrix), "--min-cluster-size", "2", "--out", str(tmp_path)]
    assert main(args) == 0
    lines = (tmp_path / "labels.csv").read_text().splitlines()
    assert lines[0].startswith("# config_fingerprint=")
    rows = list(csv.reader(lines[1:]))
    assert rows[0] == ["dashboard_id", "label", "stability"]
    assert [r[0] for r in rows[1:]] == ids
    assert all(len(r) == 3 for r in rows[1:])
    # ids that need no quoting are written as before
    for line, row in zip(lines[2:], rows[1:]):
        if "," not in row[0] and '"' not in row[0]:
            assert line == ",".join(row)


def test_xml_inputs_give_same_graphs_as_json(tmp_path):
    xml_out = tmp_path / "xml"
    json_out = tmp_path / "json"
    xml_inputs = [str(FIXTURES / f"fig_{x}.xml") for x in ("a", "b", "c")]
    json_inputs = [str(FIXTURES / f"fig_{x}.json") for x in ("a", "b", "c")]
    for inputs, out in ((xml_inputs, xml_out), (json_inputs, json_out)):
        assert main(["parse", "--input", *inputs, "--out", str(out)]) == 0
        assert main(["graph", "--input", str(out), "--out", str(out)]) == 0
    for name in ("fig_a", "fig_b", "fig_c"):
        assert (xml_out / f"{name}.graph.json").read_bytes() == (
            json_out / f"{name}.graph.json"
        ).read_bytes()


def test_analysis_artifact_contents(tmp_path):
    artifacts = run_pipeline(tmp_path)
    doc = json.loads(artifacts["fig_a.analysis.json"])
    assert doc["interaction"]["n_edges"] == 12
    assert doc["interaction"]["mean_in_degree"] == 3.0
    summary = json.loads(artifacts["summary.json"])
    assert summary["n_interactive"] == 2
    assert summary["n_dashboards"] == 3
