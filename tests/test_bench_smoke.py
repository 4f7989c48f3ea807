"""Tiny benchmark passes over the fullname-eval, infer-bulk and cli-short workloads.

The traced pass wraps MetricsReport.to_*, MockInferrer.from_json and every
infer_batch by name, and checks the eval, analyze and both infer output
formats against the generator's oracle, so renaming one of those or
changing an output shows up here. The untraced infer-bulk pass runs each
step as its own `namegender` process on real stdin and stdout files. The full smoke run of every workload is
perfbench/test_smoke.py.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_traced_fullname_eval_pass_is_correct():
    out = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", "fullname-eval",
         "--seed", "3", "--seconds", "0.1", "--trace", "1", "--size", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert out.returncode == 0, out.stderr[-2000:]
    result = json.loads(out.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0, out.stdout[-2000:]


def test_traced_infer_bulk_pass_is_correct():
    out = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", "infer-bulk",
         "--seed", "3", "--seconds", "0.1", "--trace", "1", "--size", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert out.returncode == 0, out.stderr[-2000:]
    result = json.loads(out.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0, out.stdout[-2000:]


def test_traced_cli_short_pass_is_correct():
    out = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", "cli-short",
         "--seed", "3", "--seconds", "0.1", "--trace", "1", "--size", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert out.returncode == 0, out.stderr[-2000:]
    result = json.loads(out.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0, out.stdout[-2000:]


def test_untraced_infer_bulk_pass_is_correct():
    out = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", "infer-bulk",
         "--seed", "3", "--seconds", "0.1", "--trace", "0", "--size", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert out.returncode == 0, out.stderr[-2000:]
    result = json.loads(out.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0, out.stdout[-2000:]
