"""The benchmark's tracer must find every layer BENCHMARK.json reads.

A per-layer metric whose layer the tracer cannot hook would read 0, the
best value, so benches/run.py's traced self-test fails on it. This test
makes the same check in tier-1, so that renaming a traced function or
suite runner fails here first. It runs in a subprocess, which keeps the
tracer's wrapping out of the other tests, and only reads benches/.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

PROBE = """
import collections, contextlib, io, json, sys
import towerforms.cli
from tracer import Tracer

tracer = Tracer()
installed = tracer.install()
# the suite spans read args[0].level: every runner must take the RunConfig first
with contextlib.redirect_stdout(io.StringIO()):
    code = towerforms.cli.main(sys.argv[1:])
calls = collections.Counter(name for _, _, name, *_ in tracer.spans)
print(json.dumps({"installed": installed, "exit": code, "calls": calls}))
"""


def traced(*args) -> dict:
    """installed, exit and calls per span name of one traced CLI call."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT / "benches")])
    done = subprocess.run(
        [sys.executable, "-c", PROBE, *args], env=env, cwd=ROOT,
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def test_tracer_hooks_every_per_layer_metric_of_the_benchmark():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    layers = {m["name"].rsplit(".", 1)[0] for m in spec["per_layer"]}
    hooked = {layer for layer in layers if not (layer.startswith("cli.") or layer == "trace")}
    result = traced("verify", "--level", "1", "--samples", "1")
    assert sorted(hooked - set(result["installed"])) == []
    assert result["exit"] == 0
    suites = {layer for layer in hooked if layer.startswith("harness.suite.")}
    assert suites and suites <= set(result["calls"])


def test_tracer_sees_every_level_check_the_suites_call():
    """The dirichlet suite's record looks its kernel up by name when it
    runs, so the tracer's wrapper of forms.dirichlet_check runs: it has at
    least one call, and at least as many as the suite's units, so the
    kernel's self time is measured."""
    result = traced("verify", "--level", "2", "--samples", "2")
    assert result["exit"] == 0
    calls = result["calls"]
    suite = calls["harness.suite.dirichlet"]
    assert calls.get("forms.dirichlet_check", 0) >= max(suite, 1)
