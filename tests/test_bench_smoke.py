"""Tiny benchmark passes over every workload.

The traced passes wrap MetricsReport.to_*, MockInferrer.from_json and every
infer_batch by name, and check the eval, analyze and both infer output
formats against the generator's oracle, so renaming one of those or
changing an output shows up here. The traced fullname-eval pass also needs
a nonzero value for each eval and analyze layer. The untraced passes run
each step as its own `namegender` process on real stdin and stdout files;
for ssa-build and fullname-eval those steps write and read every table
file of the pipeline.
The full smoke run of every workload is perfbench/test_smoke.py.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _tiny_pass(workload: str, trace: str) -> dict:
    out = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "0.1", "--trace", trace, "--size", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert out.returncode == 0, out.stderr[-2000:]
    result = json.loads(out.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0, out.stdout[-2000:]
    return result


# Layers that read 0 when a wrapped eval or analyze function is renamed, since
# the tracer skips a listed name that no module defines.
EVAL_AND_ANALYZE_LAYERS = [
    "analysis.assign_rate_types.names_per_s", "analysis.length_histograms.s", "analysis.ngram_inventory.s",
    "analysis.non_english_distribution.s", "evaluation.score.names_per_s", "evaluation.MetricsReport.render_s",
]


def test_traced_fullname_eval_pass_is_correct():
    metrics = _tiny_pass("fullname-eval", "1")["metrics"]
    assert [name for name in EVAL_AND_ANALYZE_LAYERS if not metrics[name]["value"] > 0] == []


def test_traced_infer_bulk_pass_is_correct():
    _tiny_pass("infer-bulk", "1")


def test_traced_cli_short_pass_is_correct():
    _tiny_pass("cli-short", "1")


def test_untraced_infer_bulk_pass_is_correct():
    _tiny_pass("infer-bulk", "0")


def test_untraced_ssa_build_pass_is_correct():
    _tiny_pass("ssa-build", "0")


def test_untraced_fullname_eval_pass_is_correct():
    _tiny_pass("fullname-eval", "0")
