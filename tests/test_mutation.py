"""Seeded mutation test of the CLI's error contract.

Every stage's input is built from the fixtures (a JSON and an XML
document, ``dashboards.ndjson``, graph files, a manifest, ``scaler.json``
and the feature CSVs) and from seeded random dashboards (conftest's
``random_dashboard``: mixed block types, noisy actions) written as
canonical JSON documents, ``dashboards.ndjson`` and graph files.  Each
is then mutated one way at a time: a key dropped, a value of another
type, a list swapped for an object or back, the text cut short, a
non-finite, huge or tiny number, an odd unicode string (ids included),
or a value nested 100,000 deep (XML: 10,000 elements deep).
Each mutated input runs through ``cli.main`` in-process, and must meet
the contract:

* the exit code is 0 or 2 (0, 1 or 2 for ``lint``),
* exit 2 comes with exactly one line on stderr, a JSON error,
* nothing raises out of ``main`` (no traceback),
* a stage that exits 2 leaves no output behind.

``CASES`` (90) mutations per target over the 12 fixture targets of
``TARGETS``, and ``RANDOM_CASES`` (240) over the 4 random-dashboard
targets of ``RANDOM_TARGETS``: 2,040 cases in all, drawn from a fixed
seed.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import re
import shutil
from pathlib import Path
from typing import Callable

import numpy as np
import pytest

from dashmine.cli import main
from dashmine.geometry import build_graphs
from dashmine.model import dashboard_to_dict, graphs_to_dict

from conftest import random_dashboard

from test_cli import pipeline_inputs  # noqa: F401  (the inputs every case mutates)

SEED = 2023
CASES = 90
RANDOM_CASES = 240
RANDOM_DASHBOARDS = 12

DEEP_JSON = "[" * 100_000 + "]" * 100_000
# JSON literals, spliced into a document in place of one of its values
OTHER_TYPES = ["null", "true", "false", "0", "-1", "1.5", '"text"', "[]", "{}", "[1, 2]", '{"k": 1}']
ODD_NUMBERS = [
    "1e999", "-1e999", "NaN", "Infinity", "-Infinity", "1e308", "-1e308", "5e-324", "-0.0",
    str(10**30), str(10**400), "1" + "0" * 5000,
]
ODD_STRINGS = [
    json.dumps(s)
    for s in (
        "", " ", ".", "..", "a/b", "a\\b", "#hash", "with,comma", 'say "hi"', "é", "\u00a0",
        "\u202e", "\U0001f642", "\ud800", "x" * 1000, "line\nbreak", "nul\x00",
    )
]
# cell texts for the feature CSVs
ODD_CELLS = [
    "abc", "", "1e999", "nan", "inf", "-inf", "1e308", "-1e308", "1" * 400, "0x10", " 1",
    "1_000", "\uff11", "\U0001f642", '"1"', "1,2",
]
ODD_XML_VALUES = [
    "1e999", "NaN", "-1", "0", "", "1" * 400, "abc", "é", "&bogus;", "<", "\U0001f642", "1.5", " 5",
]
_SENTINEL = "\x00mutation\x00"


def _nodes(value, path=()):
    """Every (path, value) of a decoded JSON value, the root first."""
    yield path, value
    children = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
    for step, child in children:
        yield from _nodes(child, path + (step,))


def _replace(root, path, new):
    if not path:
        return new
    parent = root
    for step in path[:-1]:
        parent = parent[step]
    parent[path[-1]] = new
    return root


def mutate_json(text: str, rng: random.Random) -> tuple[str, str]:
    """One mutation of a JSON document, and its description."""
    kind = rng.choice(["drop-key", "swap-container", "type", "number", "string", "deep", "truncate"])
    if kind == "truncate":
        cut = rng.randrange(len(text))
        return text[:cut], f"truncated at {cut}"
    doc = json.loads(text)
    nodes = list(_nodes(doc))
    if kind == "drop-key":
        path, obj = rng.choice([(p, v) for p, v in nodes if isinstance(v, dict) and v])
        key = rng.choice(sorted(obj))
        del obj[key]
        return json.dumps(doc), f"dropped {path + (key,)}"
    if kind == "swap-container":
        path, obj = rng.choice([(p, v) for p, v in nodes if isinstance(v, (dict, list))])
        new = list(obj.values()) if isinstance(obj, dict) else {str(i): v for i, v in enumerate(obj)}
        return json.dumps(_replace(doc, path, new)), f"swapped the container at {path}"
    literals = {"type": OTHER_TYPES, "number": ODD_NUMBERS, "string": ODD_STRINGS, "deep": [DEEP_JSON]}[kind]
    literal = rng.choice(literals)
    strings = [(p, v) for p, v in nodes if isinstance(v, str)]
    path, _ = rng.choice(strings if kind == "string" and strings else nodes)
    mutated = json.dumps(_replace(doc, path, _SENTINEL)).replace(json.dumps(_SENTINEL), literal)
    return mutated, f"{kind} {literal[:24]!r} at {path}"


def mutate_ndjson(text: str, rng: random.Random) -> tuple[str, str]:
    lines = text.splitlines()
    number = rng.randrange(len(lines))
    kind = rng.choice(["line", "line", "line", "repeat", "blank"])
    if kind == "repeat":
        lines.insert(number, lines[number])
        return "\n".join(lines) + "\n", f"repeated line {number + 1}"
    if kind == "blank":
        lines.insert(number, rng.choice(["", "   ", "\t"]))
        return "\n".join(lines) + "\n", f"blank line before {number + 1}"
    lines[number], what = mutate_json(lines[number], rng)
    return "\n".join(lines) + "\n", f"line {number + 1}: {what}"


_ATTRIBUTE = re.compile(r"""(\w+)=("[^"]*"|'[^']*')""")


def mutate_xml(text: str, rng: random.Random) -> tuple[str, str]:
    kind = rng.choice(["value", "value", "value", "drop-attribute", "tag", "deep", "truncate"])
    if kind == "truncate":
        cut = rng.randrange(len(text))
        return text[:cut], f"truncated at {cut}"
    if kind == "deep":
        at = text.index("<zone")
        return text[:at] + "<a>" * 10_000 + "</a>" * 10_000 + text[at:], "nested 10,000 deep"
    if kind == "tag":
        tags = [m for m in re.finditer(r"<(\w+)", text)]
        m = rng.choice(tags)
        return text[: m.start(1)] + "zz" + text[m.end(1) :], f"renamed <{m.group(1)}> at {m.start()}"
    m = rng.choice(list(_ATTRIBUTE.finditer(text)))
    if kind == "drop-attribute":
        return text[: m.start()] + text[m.end() :], f"dropped {m.group(0)!r}"
    value = rng.choice(ODD_XML_VALUES)
    return text[: m.start(2)] + f'"{value}"' + text[m.end(2) :], f"{m.group(1)}={value[:24]!r} at {m.start()}"


def mutate_csv(text: str, rng: random.Random) -> tuple[str, str]:
    lines = text.splitlines()
    header = next(i for i, line in enumerate(lines) if not line.startswith("#"))
    kind = rng.choice(["cell", "cell", "cell", "id", "drop-cell", "add-cell", "header", "rows", "comment", "truncate"])
    row = rng.randrange(header + 1, len(lines))
    cells = lines[row].split(",")
    if kind == "truncate":
        cut = rng.randrange(len(text))
        return text[:cut], f"truncated at {cut}"
    if kind == "cell":
        column = rng.randrange(1, len(cells))
        cells[column] = rng.choice(ODD_CELLS)
        what = f"row {row} column {column} = {cells[column][:24]!r}"
    elif kind == "id":
        cells[0] = rng.choice(["", "#hash", "\U0001f642", "\ud800", "a/b", "fig_a", "x" * 1000])
        what = f"row {row} id {cells[0][:24]!r}"
    elif kind == "drop-cell":
        del cells[rng.randrange(len(cells))]
        what = f"row {row} lost a cell"
    elif kind == "add-cell":
        cells.append(rng.choice(["1.0", "", "abc"]))
        what = f"row {row} gained a cell"
    elif kind == "header":
        names = lines[header].split(",")
        column = rng.randrange(len(names))
        names[column] = rng.choice(["", "bogus", "n_blocks", "has_chart", "dashboard_id", "\U0001f642"])
        lines[header] = ",".join(names)
        return "\n".join(lines) + "\n", f"header column {column} = {names[column]!r}"
    elif kind == "rows":
        keep = rng.choice([0, 1, 2])
        return "\n".join(lines[: header + 1 + keep]) + "\n", f"kept {keep} row(s)"
    else:
        lines.insert(row, "# a comment among the rows")
        return "\n".join(lines) + "\n", f"comment before row {row}"
    lines[row] = ",".join(cells)
    return "\n".join(lines) + "\n", what


# target: (stage, file mutated, mutator, argv with {f} for the mutated
# file and {w} for the inputs directory)
TARGETS: dict[str, tuple[str, str, Callable, list[str]]] = {
    "parse-json": ("parse", "d1.json", mutate_json, ["--input", "{f}"]),
    "parse-xml": ("parse", "d1.xml", mutate_xml, ["--input", "{f}"]),
    "graph": ("graph", "dashboards.ndjson", mutate_ndjson, ["--input", "{f}"]),
    "analyze": ("analyze", "*.graph.json", mutate_json, ["--input", "{w}"]),
    "features": ("features", "*.graph.json", mutate_json, ["--input", "{w}"]),
    "report": ("report", "*.graph.json", mutate_json, ["--input", "{w}", "--csv-tables"]),
    "lint": ("lint", "*.graph.json", mutate_json, ["--input", "{w}"]),
    "features-manifest": ("features", "manifest.json", mutate_json, ["--input", "{w}", "--manifest", "{f}"]),
    "fit-scaler": ("fit-scaler", "features.csv", mutate_csv, ["--input", "{f}"]),
    "scale-csv": ("scale", "features.csv", mutate_csv, ["--input", "{f}", "--scaler", "{w}/scaler.json"]),
    "scale-scaler": ("scale", "scaler.json", mutate_json, ["--input", "{w}/features.csv", "--scaler", "{f}"]),
    "cluster": ("cluster", "features_scaled.csv", mutate_csv, ["--input", "{f}", "--min-cluster-size", "2"]),
}


# the same, over the inputs of random_inputs
RANDOM_TARGETS: dict[str, tuple[str, str, Callable, list[str]]] = {
    "random-parse-json": ("parse", "*.doc.json", mutate_json, ["--input", "{f}", "--min-charts", "0"]),
    "random-graph": ("graph", "dashboards.ndjson", mutate_ndjson, ["--input", "{f}"]),
    "random-features": ("features", "*.graph.json", mutate_json, ["--input", "{w}"]),
    "random-lint": ("lint", "*.graph.json", mutate_json, ["--input", "{w}"]),
}


@pytest.fixture(scope="module")
def random_inputs(tmp_path_factory) -> Path:
    """Seeded random dashboards as canonical JSON documents (``<id>.doc.json``),
    one ``dashboards.ndjson`` and graph files."""
    work = tmp_path_factory.mktemp("random")
    rng = np.random.default_rng(SEED)
    dashboards = [random_dashboard(rng, f"r{i}") for i in range(RANDOM_DASHBOARDS)]
    docs = [dashboard_to_dict(d) for d in dashboards]
    for d, doc in zip(dashboards, docs):
        (work / f"{d.id}.doc.json").write_text(json.dumps(doc))
        (work / f"{d.id}.graph.json").write_text(json.dumps(graphs_to_dict(build_graphs(d))))
    (work / "dashboards.ndjson").write_text("".join(json.dumps(doc) + "\n" for doc in docs))
    return work


def _contract_breach(argv: list[str], out: Path) -> str | None:
    """Run one stage; say how it breaks the error contract, if it does."""
    stdout, stderr = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main(argv + ["--out", str(out)])
    except Exception as exc:  # the traceback a user would see
        return f"raised {type(exc).__name__}: {str(exc)[:200]}"
    if code not in ((0, 1, 2) if argv[0] == "lint" else (0, 2)):
        return f"exit {code}"
    if "Traceback" in stderr.getvalue():
        return "traceback on stderr"
    if code == 2:
        lines = stderr.getvalue().splitlines()
        if len(lines) != 1:
            return f"{len(lines)} stderr lines"
        try:
            error = json.loads(lines[0])
        except ValueError:
            return f"stderr is not JSON: {lines[0][:200]}"
        if set(error) != {"error", "message", "stage"}:
            return f"error keys {sorted(error)}"
        if out.exists() and any(out.iterdir()):
            return f"left {sorted(p.name for p in out.iterdir())}"
    return None


def _assert_contract(tmp_path: Path, inputs: Path, target: str, spec: tuple, cases: int) -> None:
    """Run ``cases`` seeded mutations of ``target``'s input through its stage."""
    stage, pattern, mutate, args = spec
    rng = random.Random(f"{SEED}-{target}")
    originals = {path: path.read_text() for path in sorted(inputs.glob(pattern))}
    out = tmp_path / "out"
    breaches = []
    for _ in range(cases):
        path = rng.choice(list(originals))
        mutated, what = mutate(originals[path], rng)
        # a graph file is mutated in place, among the others, and restored
        written = path if path.name.endswith(".graph.json") else tmp_path / path.name
        written.write_text(mutated, encoding="utf-8", errors="surrogatepass")
        argv = [stage] + [a.replace("{f}", str(written)).replace("{w}", str(inputs)) for a in args]
        try:
            breach = _contract_breach(argv, out)
        finally:
            if written == path:
                path.write_text(originals[path])
        if breach:
            breaches.append(f"{path.name}, {what}: {breach}")
        shutil.rmtree(out, ignore_errors=True)
    assert not breaches, f"{len(breaches)} of {cases} cases:\n" + "\n".join(breaches[:10])


@pytest.mark.parametrize("target", list(TARGETS))
def test_mutated_input_meets_the_error_contract(tmp_path, pipeline_inputs, target):
    _assert_contract(tmp_path, pipeline_inputs, target, TARGETS[target], CASES)


@pytest.mark.parametrize("target", list(RANDOM_TARGETS))
def test_mutated_random_input_meets_the_error_contract(tmp_path, random_inputs, target):
    _assert_contract(tmp_path, random_inputs, target, RANDOM_TARGETS[target], RANDOM_CASES)
