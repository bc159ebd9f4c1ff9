"""The traced benchmark wraps functions by name; they must all still exist.

perfbench/tracing.py lists `module: (function, Class.method, ...)` in
TRACED. Folding or renaming code in cheatlab must not leave a stale name
there, or the traced benchmark run would fail instead of measuring.
"""

import importlib
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _traced() -> dict:
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TRACED


def test_every_traced_name_resolves_in_cheatlab():
    traced = _traced()
    assert traced
    missing = []
    for module_name, funcs in traced.items():
        module = importlib.import_module(f"cheatlab.{module_name}")
        for func in funcs:
            obj = module
            for part in func.split("."):
                obj = getattr(obj, part, None)
            if not callable(obj):
                missing.append(f"{module_name}.{func}")
    assert missing == []


def test_perfbench_selftest_passes():
    # The benchmark's own checks read fields of the program's results; a
    # change that breaks one should fail here, not first in the benchmark.
    proc = subprocess.run([sys.executable, "perfbench/selftest.py"],
                          cwd=TRACING.parents[1], capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "7/7" in proc.stdout


TRACED_RUN = """
import json, sys
from pathlib import Path
sys.path[:0] = [{src!r}, {perfbench!r}, {tests!r}]
import tracing
from cheatlab import cli
from test_cli import tiny_args

tracer = tracing.Tracer()
tracer.scope = "timed"
code = cli.main(["pipeline", *tiny_args(Path({out!r}))])
tracer.scope = None
uncalled = [f"{{m}}.{{f}}" for m, funcs in tracing.TRACED.items() for f in funcs
            if not tracer.calls["timed", f"{{m}}.{{f}}"]]
print(json.dumps({{"code": code, "uncalled": uncalled}}))
"""


def test_a_tiny_pipeline_calls_every_traced_name(tmp_path):
    # The traced benchmark refuses a run where a TRACED function records no
    # calls, so a fold that reroutes the calls around one must fail here.
    # A fresh interpreter keeps the tracer's rebinding out of other tests.
    root = TRACING.parents[1]
    script = TRACED_RUN.format(src=str(root / "src"),
                               perfbench=str(root / "perfbench"),
                               tests=str(root / "tests"), out=str(tmp_path))
    proc = subprocess.run([sys.executable, "-c", script], cwd=root,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result == {"code": 0, "uncalled": []}


SIZING_ROWS = (
    "corridor expert set", "evaluator construction",
    "one generation (64 genomes)", "room expert, per step",
    "8 repeats of that collection", "cheated stack, per step",
    "render_observation, per call", "virtual_gate, per call",
    "point_in_collision, per call", "_solid_boxes, per call",
    "_solid_boxes calls, room expert", "square vs disc collision rule",
)


def test_perfbench_sizing_prints_its_table():
    # sizing.py calls the single-world simulator functions,
    # worldsim._solid_boxes, policy.rollout and the model loaders directly,
    # so a change to those must fail here, not first when someone sizes
    # the benchmark.
    proc = subprocess.run([sys.executable, "perfbench/sizing.py"],
                          cwd=TRACING.parents[1], capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    labels = [line[:48].rstrip() for line in proc.stdout.splitlines()]
    assert labels == list(SIZING_ROWS)
