import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_cli_files_bench_pass_is_correct():
    """One pass of the command-line workload: every stage call gives its
    expected exit code and no output is wrong."""
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "cli_files",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
