"""One measured pass of a workload, in a fresh process.

Usage: ``python3 bench/worker.py SPEC.json``.  The spec names the source
tree, the CLI argument lists to run in order and, for a traced pass, the
span file to write.  Each stage runs through ``dashmine.cli.main`` in
this process, with its stdout captured.  The last line on stdout is a
JSON object with the wall time from the first stage's start to the last
stage's end, each stage's exit code and time, and this process's peak
RSS.  A stage that exits with a code other than 0 ends the pass; the
caller judges the exit codes.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time
from pathlib import Path


def main(spec_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text())
    sys.path.insert(0, spec["src"])
    from dashmine import cli

    tracer = None
    if spec["trace"]:
        import spans

        tracer = spans.Tracer()
        spans.install(tracer)

    def run(argv: list[str]) -> int:
        if tracer is None:
            return cli.main(argv)
        return tracer.wrap(f"cli.{argv[0]}", cli.main)(argv)

    stages = []
    start = time.perf_counter()
    for argv in spec["stages"]:
        captured = io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(captured):
            code = run(argv)
        t1 = time.perf_counter()
        stages.append({"name": argv[0], "exit": code, "wall_s": t1 - t0, "stdout": captured.getvalue()[:300]})
        if code != 0:
            break
    wall = time.perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    if tracer is not None:
        tracer.dump(Path(spec["spans"]))
    print(json.dumps({"wall_s": wall, "peak_rss_mb": peak_rss_mb, "stages": stages}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
