import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload",
                         ["roundtrip", "checker", "cli_files", "calibrate"])
def test_bench_pass_is_correct(workload):
    """One pass of a benchmark workload: every stage call gives its
    expected outcome, no output is wrong and no digest moves between
    visits."""
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload,
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0


def test_traced_roundtrip_pass_is_correct():
    """One traced roundtrip pass is correct: the tracer's wrappers change
    no outcome and no digest."""
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "roundtrip",
         "--seed", "0", "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True


def test_tracer_targets_exist():
    """Every function the benchmark's tracer wraps by name is still
    there: install finds and wraps each one, a call through a wrapper
    records a span, and uninstall puts every original back."""
    import geoprofile.cli  # noqa: F401  (imports every package module)
    from geoprofile import special_functions

    spec = importlib.util.spec_from_file_location(
        "bench_tracer", ROOT / "bench" / "tracer.py")
    tracer_mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer_mod)
    modules = [m for name, m in sorted(sys.modules.items())
               if name == "geoprofile" or name.startswith("geoprofile.")]
    before = [(m, dict(vars(m))) for m in modules]
    tracer = tracer_mod.Tracer()
    try:
        tracer.install()  # looks up every target by name
        special_functions.phi_inverse(0.5)
    finally:
        tracer.uninstall()
    assert tracer.table()["special_functions.phi_inverse"]["calls"] == 1
    for m, names in before:
        assert all(vars(m)[k] is v for k, v in names.items()), m.__name__
