from __future__ import annotations

import csv
import json
import re
import shutil
from pathlib import Path

import pytest

from dashmine.cli import main
from dashmine.features import FeatureVector, default_manifest, matrix_to_csv
from dashmine.geometry import build_graphs
from dashmine import cluster, report
from dashmine.report import summarize_corpus

from conftest import FIXTURES, load_fixture


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


def test_report_stage_summary_equals_in_memory_summary(tmp_path):
    # The graph documents between the stages must keep what the report
    # reads, chart types included.
    artifacts = run_pipeline(tmp_path)
    written = json.loads(artifacts["summary.json"])
    del written["_fingerprint"]
    corpus = [build_graphs(load_fixture(f"fig_{x}")) for x in ("a", "b", "c")]
    expected = json.loads(json.dumps(summarize_corpus(corpus)))
    assert written["chart_type_presence_shares"] == expected["chart_type_presence_shares"]
    assert written == expected


def _two_cluster_matrix(path: Path) -> None:
    """Six rows in two far-apart groups, so clustering finds two clusters."""
    width = len(default_manifest().names)
    vectors = [
        FeatureVector(f"d{k}", tuple(c + 0.1 * k + j for j in range(width)))
        for k, c in enumerate([0.0, 0.0, 0.0, 50.0, 50.0, 50.0])
    ]
    path.write_text(matrix_to_csv(vectors, default_manifest()))


def test_artifacts_embed_fingerprint(tmp_path):
    artifacts = run_pipeline(tmp_path / "run")
    matrix = tmp_path / "two.csv"
    _two_cluster_matrix(matrix)
    for flags in (["--min-cluster-size", "3"], ["--sweep", "2..3"]):
        assert main(["cluster", "--input", str(matrix), *flags, "--out", str(tmp_path / "two")]) == 0
    artifacts |= {p.name: p.read_bytes() for p in (tmp_path / "two").iterdir()}

    fingerprint = re.compile(r"[0-9a-f]{12}")
    json_docs = [name for name in artifacts if name.endswith(".json")]
    assert {"scaler.json", "condensed_tree.json", "silhouette.json", "sweep.json"} <= set(json_docs)
    assert {"fig_a.graph.json", "fig_a.analysis.json", "summary.json"} <= set(json_docs)
    for name in json_docs:
        assert fingerprint.fullmatch(json.loads(artifacts[name])["_fingerprint"]), name
    csvs = [name for name in artifacts if name.endswith(".csv")]
    assert len(csvs) == 6  # features, features_scaled, labels and the three report tables
    for name in csvs:
        first_line = artifacts[name].decode().splitlines()[0]
        assert fingerprint.fullmatch(first_line.removeprefix("# config_fingerprint=")), name
    for line in artifacts["dashboards.ndjson"].decode().splitlines():
        assert fingerprint.fullmatch(json.loads(line)["_fingerprint"])

    # lint's findings are the one artifact without a fingerprint
    corpus = [build_graphs(load_fixture(f"fig_{x}")) for x in ("a", "b", "c")]
    findings = [json.dumps(f.to_dict(), sort_keys=True) for f in report.lint_corpus(corpus)]
    assert artifacts["findings.ndjson"].decode() == "\n".join(findings) + "\n"
    assert "_fingerprint" not in artifacts["findings.ndjson"].decode()
    assert set(artifacts) == set(json_docs) | set(csvs) | {"dashboards.ndjson", "findings.ndjson"}


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


def test_analyze_and_lint_reject_edge_to_missing_node(tmp_path, capsys):
    graphs = tmp_path / "graphs"
    graphs.mkdir()
    doc = {
        "dashboard_id": "d1",
        "nodes": [{"id": "c", "type": "chart"}],
        "adjacency": [{"source": "c", "target": "zz", "config": "adjoining"}],
    }
    (graphs / "d1.graph.json").write_text(json.dumps(doc))
    out = tmp_path / "out"
    for stage in ("analyze", "lint"):
        assert main([stage, "--input", str(graphs), "--out", str(out)]) == 2
        error = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert (error["error"], error["stage"]) == ("SchemaViolation", stage)
        assert "'d1'" in error["message"] and "'zz'" in error["message"]
        assert "d1.graph.json" in error["message"]
        assert not out.exists()


MALFORMED_GRAPH_DOCS = {
    "truncated-json": '{"nodes": []',
    "no-dashboard-id": '{"nodes": []}',
    "node-without-type": '{"dashboard_id": "d1", "nodes": [{"id": "c"}]}',
    "unknown-node-type": '{"dashboard_id": "d1", "nodes": [{"id": "c", "type": "bogus"}]}',
    "array-document": "[]",
    "node-not-an-object": '{"dashboard_id": "d1", "nodes": [1]}',
}


@pytest.mark.parametrize("case", sorted(MALFORMED_GRAPH_DOCS))
def test_malformed_graph_document_is_a_schema_violation_naming_the_file(tmp_path, capsys, case):
    graphs = tmp_path / "graphs"
    graphs.mkdir()
    (graphs / "d1.graph.json").write_text(MALFORMED_GRAPH_DOCS[case])
    out = tmp_path / "out"
    for stage in ("analyze", "lint"):
        assert main([stage, "--input", str(graphs), "--out", str(out)]) == 2
        error = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert (error["error"], error["stage"]) == ("SchemaViolation", stage)
        assert error["message"].startswith("d1.graph.json: ")
        assert not out.exists()


def test_malformed_dashboard_line_is_a_schema_violation_naming_file_and_line(tmp_path, capsys):
    good = {"id": "d1", "blocks": []}
    (tmp_path / "dashboards.ndjson").write_text(json.dumps(good) + "\n[1, 2]\n")
    out = tmp_path / "out"
    assert main(["graph", "--input", str(tmp_path), "--out", str(out)]) == 2
    error = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert (error["error"], error["stage"]) == ("SchemaViolation", "graph")
    assert error["message"].startswith("dashboards.ndjson:2: ")
    assert not out.exists()


def _last_error(capsys) -> dict:
    return json.loads(capsys.readouterr().err.strip().splitlines()[-1])


def _only_error(capsys) -> dict:
    """The stage's one stderr line, a JSON error (so no traceback either)."""
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1, lines
    return json.loads(lines[0])


def test_graph_rejects_a_dashboard_that_parse_rejects(tmp_path, capsys):
    # a zero-width chart declared pie over bar marks: two of validate's rules
    chart = {"id": "c1", "type": "chart", "x": 0, "y": 0, "w": 0, "h": 10,
             "props": {"vis_type": "pie", "marks": ["bar"]}}
    doc = {"id": "d1", "blocks": [chart]}
    (tmp_path / "dashboards.ndjson").write_text(json.dumps(doc) + "\n")
    (tmp_path / "d1.json").write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert main(["graph", "--input", str(tmp_path), "--out", str(out)]) == 2
    error = _only_error(capsys)
    assert (error["error"], error["stage"]) == ("SchemaViolation", "graph")
    assert error["message"].startswith("dashboards.ndjson:1: dashboard 'd1': ")
    assert not list(out.glob("*.graph.json"))
    # parse reports the same findings, after the document's file name
    assert main(["parse", "--input", str(tmp_path / "d1.json"), "--min-charts", "0", "--out", str(out)]) == 2
    parse_error = _only_error(capsys)
    assert parse_error["message"].startswith("d1.json: dashboard 'd1': ")
    assert parse_error["message"].partition(": ")[2] == error["message"].partition(": ")[2]
    assert not (out / "dashboards.ndjson").exists()


@pytest.mark.parametrize(
    "doc, fault",
    [
        (
            {
                "dashboard_id": "d1",
                "nodes": [{"id": "c1", "type": "chart", "vis_type": "bar"}, {"id": "t1", "type": "text"}],
                "adjacency": [
                    {"source": "t1", "target": "c1", "config": "adjoining"},
                    {"source": "c1", "target": "c1", "config": "containment"},
                ],
                "interaction": [{"source": "c1", "target": "t1", "class": "filter_chart", "itype": "filter"}],
            },
            "adjacency edge 't1' -> 'c1' is not stored with source < target",
        ),
        (
            {
                "dashboard_id": "d1",
                "nodes": [{"id": "c1", "type": "chart", "vis_type": "bar"}, {"id": "t1", "type": "text"}],
                "adjacency": [{"source": "c1", "target": "c1", "config": "containment"}],
            },
            "adjacency edge 'c1' -> 'c1' is a self-loop",
        ),
        (
            {
                "dashboard_id": "d1",
                "nodes": [{"id": "c1", "type": "chart", "vis_type": "bar"}, {"id": "t1", "type": "text"}],
                "interaction": [{"source": "c1", "target": "t1", "class": "filter_chart", "itype": "filter"}],
            },
            "interaction edge 'c1' -> 't1' has class 'filter_chart'",
        ),
    ],
    ids=["all-three", "self-loop", "class-without-filter"],
)
def test_graph_document_whose_edges_contradict_its_nodes_fails(tmp_path, capsys, doc, fault):
    graphs = tmp_path / "graphs"
    graphs.mkdir()
    (graphs / "d1.graph.json").write_text(json.dumps(doc))
    for stage in ("analyze", "features", "report", "lint"):
        out = tmp_path / stage
        assert main([stage, "--input", str(graphs), "--out", str(out)]) == 2
        error = _only_error(capsys)
        assert (error["error"], error["stage"]) == ("SchemaViolation", stage)
        assert error["message"].startswith("d1.graph.json: dashboard 'd1': ")
        assert fault in error["message"]
        assert not out.exists()


@pytest.mark.parametrize(
    "name, text, error_type, where",
    [
        ("d1.json", '{"id":\n', "MalformedDocument", "d1.json: JSON syntax error: "),
        (
            "wb.xml",
            "<workbook><dashboards><dashboard id='d1'>"
            "<zone id='z' type='blank' x='0' y='0' w='10' h='10'/>"
            "</dashboard></dashboards></workbook>",
            "SchemaViolation",
            "wb.xml: dashboards/dashboard[0]/zone[0]: unknown zone kind: 'blank'",
        ),
    ],
    ids=["truncated-json", "blank-xml-zone"],
)
def test_parse_errors_name_the_document(tmp_path, capsys, name, text, error_type, where):
    (tmp_path / name).write_text(text)
    out = tmp_path / "out"
    assert main(["parse", "--input", str(tmp_path / name), "--out", str(out)]) == 2
    error = _only_error(capsys)
    assert (error["error"], error["stage"]) == (error_type, "parse")
    assert error["message"].startswith(where)
    if error_type == "MalformedDocument":
        assert error["message"].endswith("(line 2, column 1)")
    assert not out.exists()


def test_parse_rejects_json_block_props_of_the_wrong_shape(tmp_path, capsys):
    block = {"id": "c1", "type": "chart", "x": 0, "y": 0, "w": 10, "h": 10, "props": []}
    (tmp_path / "d1.json").write_text(json.dumps({"id": "d1", "blocks": [block]}))
    out = tmp_path / "out"
    assert main(["parse", "--input", str(tmp_path / "d1.json"), "--out", str(out)]) == 2
    error = _last_error(capsys)
    assert (error["error"], error["stage"]) == ("SchemaViolation", "parse")
    assert not out.exists()


def _fixture_graphs(tmp_path: Path) -> Path:
    work = tmp_path / "work"
    inputs = [str(FIXTURES / f"fig_{x}.json") for x in ("a", "b", "c")]
    assert main(["parse", "--input", *inputs, "--out", str(work)]) == 0
    assert main(["graph", "--input", str(work), "--out", str(work)]) == 0
    return work


@pytest.mark.parametrize("manifest", ['{"names": 5}', "[1]"], ids=["names-not-a-list", "array"])
def test_features_rejects_manifest_of_the_wrong_shape(tmp_path, capsys, manifest):
    work = _fixture_graphs(tmp_path)
    (tmp_path / "manifest.json").write_text(manifest)
    out = tmp_path / "out"
    argv = ["features", "--input", str(work), "--manifest", str(tmp_path / "manifest.json")]
    assert main(argv + ["--out", str(out)]) == 2
    error = _last_error(capsys)
    assert (error["error"], error["stage"]) == ("SchemaViolation", "features")
    assert error["message"].startswith("manifest.json: ")
    assert not out.exists()


def test_scale_rejects_scaler_of_the_wrong_shape(tmp_path, capsys):
    work = _fixture_graphs(tmp_path)
    assert main(["features", "--input", str(work), "--out", str(work)]) == 0
    (tmp_path / "scaler.json").write_text("[]")
    out = tmp_path / "out"
    argv = ["scale", "--input", str(work / "features.csv"), "--scaler", str(tmp_path / "scaler.json")]
    assert main(argv + ["--out", str(out)]) == 2
    error = _last_error(capsys)
    assert (error["error"], error["stage"]) == ("SchemaViolation", "scale")
    assert error["message"].startswith("scaler.json: ")
    assert not out.exists()


@pytest.mark.parametrize(
    "key, edit",
    [("std", lambda v: [0.0] + v[1:]), ("mean", lambda v: v[:-1])],
    ids=["zero-std", "short-mean"],
)
def test_scale_rejects_a_scaler_that_cannot_be_applied(tmp_path, capsys, key, edit):
    work = _fixture_graphs(tmp_path)
    assert main(["features", "--input", str(work), "--out", str(work)]) == 0
    assert main(["fit-scaler", "--input", str(work / "features.csv"), "--out", str(work)]) == 0
    doc = json.loads((work / "scaler.json").read_text())
    doc[key] = edit(doc[key])
    (tmp_path / "scaler.json").write_text(json.dumps(doc))
    out = tmp_path / "out"
    argv = ["scale", "--input", str(work / "features.csv"), "--scaler", str(tmp_path / "scaler.json")]
    assert main(argv + ["--out", str(out)]) == 2
    error = _only_error(capsys)
    assert error["stage"] == "scale"
    assert f"scaler {key}" in error["message"]
    assert not (out / "features_scaled.csv").exists()


@pytest.mark.parametrize(
    "edit, error_type, fragment",
    [
        (lambda cells: cells[:-1], "ManifestMismatch", "has 18 values, header has 19"),
        (
            lambda cells: cells[:2] + ["abc"] + cells[3:],
            "SchemaViolation",
            "column 'has_chart' is not a number: 'abc'",
        ),
    ],
    ids=["last-value-cut", "cell-not-a-number"],
)
def test_feature_rows_must_hold_one_number_per_column(tmp_path, capsys, edit, error_type, fragment):
    work = tmp_path / "work"
    run_pipeline(work)
    lines = (work / "features_scaled.csv").read_text().splitlines()
    bad = lines[:2] + [",".join(edit(line.split(","))) for line in lines[2:]]
    (tmp_path / "bad.csv").write_text("\n".join(bad) + "\n")
    first_id = lines[2].split(",")[0]
    out = tmp_path / "out"
    stages = {
        "cluster": ["cluster", "--input", str(tmp_path / "bad.csv"), "--min-cluster-size", "2"],
        "fit-scaler": ["fit-scaler", "--input", str(tmp_path / "bad.csv")],
    }
    for stage, argv in stages.items():
        assert main(argv + ["--out", str(out)]) == 2
        error = _only_error(capsys)
        assert (error["error"], error["stage"]) == (error_type, stage)
        assert f"row {first_id!r}" in error["message"] and fragment in error["message"]
        assert not out.exists()


def test_fit_scaler_and_scale_reject_non_finite_features(tmp_path, capsys):
    work = _fixture_graphs(tmp_path)
    assert main(["features", "--input", str(work), "--out", str(work)]) == 0
    assert main(["fit-scaler", "--input", str(work / "features.csv"), "--out", str(work)]) == 0
    lines = (work / "features.csv").read_text().splitlines()
    row = lines[-1].split(",")
    row[1] = "nan"
    (tmp_path / "bad.csv").write_text("\n".join(lines[:-1] + [",".join(row)]) + "\n")
    out = tmp_path / "out"
    stages = {
        "fit-scaler": ["fit-scaler", "--input", str(tmp_path / "bad.csv")],
        "scale": ["scale", "--input", str(tmp_path / "bad.csv"), "--scaler", str(work / "scaler.json")],
    }
    for stage, argv in stages.items():
        assert main(argv + ["--out", str(out)]) == 2
        error = _last_error(capsys)
        assert (error["error"], error["stage"]) == ("NonFiniteInput", stage)
        assert f"{row[0]!r}" in error["message"] and "'n_blocks'" in error["message"]
        assert not out.exists()


def test_scale_rejects_a_value_whose_scaled_form_overflows(tmp_path, capsys):
    work = _fixture_graphs(tmp_path)
    assert main(["features", "--input", str(work), "--out", str(work)]) == 0
    assert main(["fit-scaler", "--input", str(work / "features.csv"), "--out", str(work)]) == 0
    lines = (work / "features.csv").read_text().splitlines()
    header = next(line for line in lines if not line.startswith("#")).split(",")
    column = header.index("adj_mean_shortest_path")
    bad = []
    for line in lines:
        cells = line.split(",")
        if cells[0] == "fig_a":
            cells[column] = "1e308"
        bad.append(",".join(cells))
    assert bad != lines
    (tmp_path / "bad.csv").write_text("\n".join(bad) + "\n")
    out = tmp_path / "out"
    argv = ["scale", "--input", str(tmp_path / "bad.csv"), "--scaler", str(work / "scaler.json")]
    assert main(argv + ["--out", str(out)]) == 2
    error = _only_error(capsys)
    assert (error["error"], error["stage"]) == ("NonFiniteInput", "scale")
    assert "'fig_a'" in error["message"] and "'adj_mean_shortest_path'" in error["message"]
    assert not out.exists()


def test_fit_scaler_rejects_a_column_whose_spread_overflows(tmp_path, capsys):
    width = len(default_manifest().names)
    vectors = [
        FeatureVector(f"d{i}", (1e308 if i % 2 else -1e308,) + (1.0,) * (width - 1))
        for i in range(4)
    ]
    (tmp_path / "features.csv").write_text(matrix_to_csv(vectors, default_manifest()))
    out = tmp_path / "out"
    assert main(["fit-scaler", "--input", str(tmp_path / "features.csv"), "--out", str(out)]) == 2
    error = _last_error(capsys)
    assert (error["error"], error["stage"]) == ("NonFiniteInput", "fit-scaler")
    assert "'n_blocks'" in error["message"]
    assert not (out / "scaler.json").exists()


@pytest.mark.parametrize("exc", [TypeError, AttributeError])
@pytest.mark.parametrize(
    "stage, module, target",
    [("lint", report, "lint_corpus"), ("cluster", cluster, "export_dendrogram")],
)
def test_stage_crash_follows_the_error_contract(
    tmp_path, capsys, monkeypatch, exc, stage, module, target
):
    work = tmp_path / "work"
    run_pipeline(work)
    out = tmp_path / "out"
    argv = {
        "lint": ["lint", "--input", str(work), "--out", str(out)],
        "cluster": [
            "cluster",
            "--input",
            str(work / "features_scaled.csv"),
            "--min-cluster-size",
            "2",
            "--out",
            str(out),
        ],
    }[stage]

    def crash(*args, **kwargs):
        raise exc("stage bug")

    monkeypatch.setattr(module, target, crash)
    assert main(argv) == 2  # for lint, exit 1 would read as findings
    error = _last_error(capsys)
    assert (error["error"], error["stage"], error["message"]) == (exc.__name__, stage, "stage bug")
    # cluster had written labels.csv before the crash; it is removed again
    assert not out.exists() or not any(out.iterdir())


def test_repeated_block_id_fails_graph_and_later_stages(tmp_path, capsys):
    chart = {"type": "chart", "x": 0, "y": 0, "w": 10, "h": 10, "props": {"vis_type": "bar", "marks": ["bar"]}}
    doc = {"id": "d1", "blocks": [chart | {"id": "c1"}, chart | {"id": "c2"}, chart | {"id": "c2"}]}
    (tmp_path / "d1.json").write_text(json.dumps(doc))
    out = tmp_path / "out"
    # --lenient only downgrades unknown zone kinds; validation findings fail parse
    assert main(["parse", "--input", str(tmp_path / "d1.json"), "--lenient", "--out", str(out)]) == 2
    error = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert (error["error"], error["stage"]) == ("SchemaViolation", "parse")
    assert "duplicate block id: 'c2'" in error["message"]
    assert not out.exists()
    # graph must reject such a dashboard too, however it got into the file
    out.mkdir()
    (out / "dashboards.ndjson").write_text(json.dumps(doc) + "\n")
    assert main(["graph", "--input", str(out), "--out", str(out)]) == 2
    assert not list(out.glob("*.graph.json"))
    errors = {"graph": capsys.readouterr().err}

    graphs = tmp_path / "graphs"
    graphs.mkdir()
    nodes = [{"id": i, "type": "chart"} for i in ("c1", "c2", "c2")]
    (graphs / "d1.graph.json").write_text(json.dumps({"dashboard_id": "d1", "nodes": nodes}))
    for stage in ("analyze", "features", "lint"):
        assert main([stage, "--input", str(graphs), "--out", str(tmp_path / stage)]) == 2
        assert not (tmp_path / stage).exists()
        errors[stage] = capsys.readouterr().err
    for stage, err in errors.items():
        error = json.loads(err.strip().splitlines()[-1])
        assert (error["error"], error["stage"]) == ("SchemaViolation", stage)
        assert "'d1'" in error["message"] and "'c2'" in error["message"]


def test_failed_write_leaves_no_artifact_or_temp_file(tmp_path, capsys):
    graphs = tmp_path / "graphs"
    graphs.mkdir()
    # a lone surrogate survives JSON decoding but cannot be encoded as UTF-8
    doc = {"dashboard_id": "d\ud800", "nodes": [{"id": "c", "type": "chart"}]}
    (graphs / "d.graph.json").write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert main(["features", "--input", str(graphs), "--out", str(out)]) == 2
    error = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert error["error"] == "UnicodeEncodeError"
    assert list(out.iterdir()) == []


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


@pytest.mark.parametrize(
    "spec",
    ["min_cluster_size=40..20", "20..40:-5", "min_cluster_size=20..40:0"],
)
def test_cluster_sweep_rejects_empty_range_and_bad_step(tmp_path, capsys, spec):
    matrix = tmp_path / "features_scaled.csv"
    manifest = default_manifest()
    width = len(manifest.names)
    rows = [FeatureVector(f"d{i}", (float(i % 3),) * width) for i in range(30)]
    matrix.write_text(matrix_to_csv(rows, manifest))
    out = tmp_path / "out"
    assert main(["cluster", "--input", str(matrix), "--sweep", spec, "--out", str(out)]) == 2
    error = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert (error["error"], error["stage"]) == ("ValueError", "cluster")
    assert repr(spec) in error["message"]
    assert not (out / "sweep.json").exists()


def test_labels_csv_round_trips_ids_with_commas(tmp_path):
    manifest = default_manifest()
    width = len(manifest.names)
    ids = ["d0", "with,comma", 'say "hi"', "d3", "d4,x", "d5"]
    centers = [0.0, 0.0, 0.0, 50.0, 50.0, 50.0]
    vectors = [
        FeatureVector(d, tuple(c + 0.1 * k + j for j in range(width)))
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


# JSON nested deeper than the decoder goes
DEEP = "[" * 100_000 + "]" * 100_000


def _first_block_x(doc_text: str, literal: str) -> str:
    """The dashboard document with its first block's x written as ``literal``."""
    doc = json.loads(doc_text)
    doc["blocks"][0]["x"] = "@x@"
    return json.dumps(doc).replace('"@x@"', literal)


def _line(text: str, number: int, edit) -> str:
    lines = text.splitlines()
    lines[number - 1] = edit(lines[number - 1])
    return "\n".join(lines) + "\n"


def _first_cell(text: str, cell: str) -> str:
    """The feature CSV with its first row's first value replaced."""
    lines = text.splitlines()
    row = next(i for i, line in enumerate(lines) if line.startswith("fig_a,"))
    lines[row] = ",".join(["fig_a", cell] + lines[row].split(",")[2:])
    return "\n".join(lines) + "\n"


def _short_mean(text: str) -> str:
    doc = json.loads(text)
    return json.dumps(doc | {"mean": doc["mean"][:-1]})


PARSE = ["parse", "--input", "{i}/d1.json"]
GRAPH = ["graph", "--input", "{i}/dashboards.ndjson"]
SCALE = ["scale", "--input", "{i}/features.csv", "--scaler", "{i}/scaler.json"]
# case: (argv, with {i} for the inputs directory; the file rewritten; its
# new text from the old; the error type; the message's prefix)
DECODE_FAILURES = {
    "parse-deep": (PARSE, "d1.json", lambda _: DEEP, "SchemaViolation", "d1.json: "),
    "parse-1e999-x": (
        PARSE, "d1.json", lambda old: _first_block_x(old, "1e999"), "SchemaViolation", "d1.json: "
    ),
    "graph-deep": (
        GRAPH,
        "dashboards.ndjson",
        lambda old: _line(old, 2, lambda _: DEEP),
        "SchemaViolation",
        "dashboards.ndjson:2: ",
    ),
    "graph-1e999-x": (
        GRAPH,
        "dashboards.ndjson",
        lambda old: _line(old, 1, lambda line: _first_block_x(line, "1e999")),
        "SchemaViolation",
        "dashboards.ndjson:1: ",
    ),
    **{
        f"{stage}-deep": (
            [stage, "--input", "{i}"], "fig_a.graph.json", lambda _: DEEP, "SchemaViolation", "fig_a.graph.json: "
        )
        for stage in ("analyze", "features", "report", "lint")
    },
    "features-deep-manifest": (
        ["features", "--input", "{i}", "--manifest", "{i}/manifest.json"],
        "manifest.json",
        lambda _: DEEP,
        "SchemaViolation",
        "manifest.json: ",
    ),
    "fit-scaler-cell": (
        ["fit-scaler", "--input", "{i}/features.csv"],
        "features.csv",
        lambda old: _first_cell(old, "abc"),
        "SchemaViolation",
        "features.csv: ",
    ),
    "scale-cell": (SCALE, "features.csv", lambda old: _first_cell(old, "abc"), "SchemaViolation", "features.csv: "),
    "scale-deep-scaler": (SCALE, "scaler.json", lambda _: DEEP, "SchemaViolation", "scaler.json: "),
    "scale-short-mean": (SCALE, "scaler.json", _short_mean, "ManifestMismatch", "scaler.json: scaler mean "),
    "cluster-cell": (
        ["cluster", "--input", "{i}/features_scaled.csv", "--min-cluster-size", "2"],
        "features_scaled.csv",
        lambda old: _first_cell(old, "abc"),
        "SchemaViolation",
        "features_scaled.csv: ",
    ),
}


@pytest.fixture(scope="module")
def pipeline_inputs(tmp_path_factory) -> Path:
    """Every stage's inputs, from the fixtures: a JSON and an XML document
    (``d1.json``, ``d1.xml``), the pipeline's artifacts and the default
    manifest."""
    work = tmp_path_factory.mktemp("inputs")
    run_pipeline(work)
    for suffix in (".json", ".xml"):
        shutil.copy(FIXTURES / f"fig_c{suffix}", work / f"d1{suffix}")
    (work / "manifest.json").write_text(json.dumps(default_manifest().to_dict()))
    return work


@pytest.mark.parametrize("case", list(DECODE_FAILURES))
def test_input_that_fails_to_decode_exits_2_naming_its_file(tmp_path, capsys, pipeline_inputs, case):
    argv, name, edit, error_type, prefix = DECODE_FAILURES[case]
    inputs = tmp_path / "inputs"
    shutil.copytree(pipeline_inputs, inputs)
    (inputs / name).write_text(edit((inputs / name).read_text()))
    out = tmp_path / "out"
    assert main([arg.replace("{i}", str(inputs)) for arg in argv] + ["--out", str(out)]) == 2
    error = _only_error(capsys)
    assert (error["error"], error["stage"]) == (error_type, argv[0])
    assert error["message"].startswith(prefix)
    assert not out.exists()


@pytest.mark.parametrize("case", list(DECODE_FAILURES))
def test_decode_failure_cases_run_on_the_unedited_inputs(tmp_path, pipeline_inputs, case):
    # each case above differs from a working run in its one rewritten file
    argv = [arg.replace("{i}", str(pipeline_inputs)) for arg in DECODE_FAILURES[case][0]]
    assert main(argv + ["--out", str(tmp_path / "out")]) in ((0, 1) if argv[0] == "lint" else (0,))


def test_cluster_rejects_finite_values_whose_distances_could_overflow(tmp_path, capsys, pipeline_inputs):
    for value, code in (("1e308", 2), ("1e150", 0)):
        matrix = tmp_path / f"{value}.csv"
        matrix.write_text(_first_cell((pipeline_inputs / "features_scaled.csv").read_text(), value))
        out = tmp_path / f"out-{value}"
        assert main(["cluster", "--input", str(matrix), "--min-cluster-size", "2", "--out", str(out)]) == code
        if code == 2:
            error = _only_error(capsys)
            assert (error["error"], error["stage"]) == ("NonFiniteInput", "cluster")
            assert "overflow" in error["message"]
            assert not out.exists()
