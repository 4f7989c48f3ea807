"""Benchmark of the namegender CLI on seeded, generated corpora.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1 [--size full|tiny]

Workloads (see workloads.py): ssa-build, fullname-eval, infer-bulk,
cli-short. One client runs the workload's CLI steps one after another, a
closed loop, for --seconds; every step's output is checked against the
generator's oracle.

--trace 0 runs `namegender` subprocesses and reports the end-to-end
metrics: setup_s (median of SETUP_REPEATS set-ups), cpu_ref_s (median CPU
time of one pass over the workload's steps, at quiet-host speed; see
proc.py) and peak_rss_mb (the largest RSS of any step). --trace 1 runs the
same steps in-process instead, alternating an untraced and a traced pass,
and reports the per-layer metrics of layers.py, medians over the traced
passes.

The last line of standard output is the JSON result. The lines before it
are a readable report: the environment, the input properties, the sample
counts, the plain wall-clock figures (wall_s, ingest_rows_per_s,
infer_names_per_s, eval_predictions_per_s, call_s_p50/p90) and error_rate.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import layers
import proc
from workloads import WORKLOADS, Step, Workload, set_up

SETUP_REPEATS = 3
IMPORT_SAMPLES = 5
E2E_UNITS = {"setup_s": "s", "cpu_ref_s": "s", "peak_rss_mb": "MB"}
# Plain wall-clock figures of the passes run alone: printed, not in the result,
# because they swing with the load on the host (see proc.py).
PLAIN_UNITS = {"wall_s": "s", "cpu_s": "s", "ingest_rows_per_s": "rows/s", "infer_names_per_s": "names/s",
               "eval_predictions_per_s": "predictions/s"}


def source_id() -> dict[str, str]:
    """The commit when the checkout is a git work tree, and always a digest
    of the program's source files, so results from different code differ."""
    digest = hashlib.sha256()
    for path in sorted((proc.SRC / "namegender").rglob("*.py")):
        digest.update(path.relative_to(proc.SRC).as_posix().encode() + b"\0" + path.read_bytes())
    out = {"source_sha256": digest.hexdigest()[:16]}
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=proc.ROOT, capture_output=True, text=True, timeout=10)
        if commit.returncode == 0:
            out["commit"] = commit.stdout.strip()
    except OSError:
        pass
    return out


def environment(args: argparse.Namespace) -> dict:
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        **source_id(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "size": args.size,
        "trace": args.trace,
    }


def check_step(step: Step, code: int, error: str | None = None) -> list[str]:
    if code != 0:
        return [f"{step.kind} exited with {code}{': ' + error if error else ''}"]
    try:
        return step.check(step)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        return [f"{step.kind}: output unreadable: {exc!r}"]


def median_or_zero(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def timed_run(workload: Workload, work: Path, args: argparse.Namespace) -> tuple[dict, dict, list[str], int, int]:
    with proc.Launcher() as launcher:
        return _timed_run(workload, work, args, launcher)


def _timed_run(workload: Workload, work: Path, args: argparse.Namespace, launcher: proc.Launcher):
    # Each set-up runs in its own process beside the reference loop (see
    # proc.py). This process then repeats the last one, untimed and without
    # refilling the HTTP cache, for the oracle that the checks need.
    setups = []
    for k in range(SETUP_REPEATS):
        root = work / f"setup-{k}"
        if k:
            shutil.rmtree(work / f"setup-{k - 1}")
        argv = [str(Path(__file__).with_name("prepare.py")), args.workload, str(args.seed), args.size, str(root)]
        result = launcher.run(argv, work, None, None, work / "prepare.log", True)
        if result.code != 0:
            raise SystemExit(f"perfbench: set-up failed:\n{(work / 'prepare.log').read_text(errors='replace')[-2000:]}")
        setups.append(result)
    set_up(workload, root, args.seed, args.size, warm=False)
    # Import the program once, so that writing its bytecode cache (where the
    # environment allows one) happens before the timed steps.
    proc.run(["-c", "import namegender.cli"], cwd=work)

    passes: list[list[tuple[Step, proc.ChildResult]]] = []
    problems: list[str] = []
    attempted = failed = 0
    deadline = time.perf_counter() + args.seconds
    while len(passes) < 2 or time.perf_counter() < deadline:
        # One pass in four runs alone, for plain wall times; the others run
        # beside the reference loop, for the steady cpu_ref_s.
        beside = len(passes) % 4 != 0
        out = work / f"pass-{len(passes)}"
        out.mkdir()
        results = []
        for i, step in enumerate(workload.steps(out, len(passes))):
            results.append((step, launcher.run(proc.CLI + step.argv, out, step.stdin, step.stdout,
                                               out / f"stderr-{i}.txt", beside)))
        for step, res in results:
            attempted += 1
            bad = check_step(step, res.code)
            if bad:
                failed += 1
                problems += bad
        passes.append(results)
        shutil.rmtree(out)
    alone = passes[0::4]
    beside_ref = [p for i, p in enumerate(passes) if i % 4]

    def rate(kind: str) -> float:
        per_pass = []
        for results in alone:
            wall = sum(r.wall_s for s, r in results if s.kind == kind)
            if wall:
                per_pass.append(sum(s.work for s, r in results if s.kind == kind) / wall)
        return median_or_zero(per_pass)

    metrics = {
        "setup_s": statistics.median(r.ref_cpu_s for r in setups),
        "cpu_ref_s": statistics.median(sum(r.ref_cpu_s for _, r in p) for p in beside_ref),
        "peak_rss_mb": max(r.maxrss_mb for p in passes for _, r in p),
    }
    calls = sorted(r.wall_s for p in alone for _, r in p)
    extra = {
        "ingest_rows_per_s": rate("ingest"),
        "infer_names_per_s": rate("infer"),
        "eval_predictions_per_s": rate("eval"),
        "error_rate": failed / attempted,
        "wall_s": statistics.median(sum(r.wall_s for _, r in p) for p in alone),
        "cpu_s": statistics.median(sum(r.cpu_s for _, r in p) for p in alone),
        "passes_alone": len(alone),
        "passes_beside_reference": len(beside_ref),
        "pass_cpu_ref_s": [round(sum(r.ref_cpu_s for _, r in p), 3) for p in beside_ref],
        "setups": len(setups),
        "setup_wall_s": [round(r.wall_s, 3) for r in setups],
    }
    if workload.name == "cli-short":
        cuts = statistics.quantiles(calls, n=10) if len(calls) > 1 else calls * 9
        extra.update(call_s_p50=statistics.median(calls), call_s_p90=cuts[8], calls=len(calls),
                     calls_beyond_p90=sum(1 for c in calls if c > cuts[8]))
    variants = [s.facts for p in passes for s, _ in p if s.facts]
    if variants:
        extra["inferrers.variant_answered_share"] = variant_share(variants)
    return metrics, extra, problems, attempted, failed


def variant_share(facts: list[dict]) -> float:
    n = sum(f["variants"] for f in facts)
    return sum(f["variant_answered"] for f in facts) / n if n else 0.0


def in_process_pass(workload: Workload, work: Path, index: int, traced: bool, http_labels: dict | None):
    out = work / f"{'traced' if traced else 'plain'}-{index}"
    out.mkdir()
    steps = [s for k in range(workload.calls_per_trace_pass)
             for s in workload.steps(out, index * workload.calls_per_trace_pass + k)]
    spec = {
        "traced": traced,
        "http_labels": http_labels,
        "steps": [{"argv": s.argv, "stdin": str(s.stdin) if s.stdin else None,
                   "stdout": str(s.stdout) if s.stdout else None} for s in steps],
    }
    (out / "spec.json").write_text(json.dumps(spec), encoding="utf-8")
    child = proc.run([str(Path(__file__).parent / "tracer.py"), str(out / "spec.json"), str(out / "result.json")],
                     cwd=out, stderr=out / "stderr.txt")
    if child.code != 0:
        tail = (out / "stderr.txt").read_text(encoding="utf-8", errors="replace")[-2000:]
        raise SystemExit(f"perfbench: in-process pass failed to run:\n{tail}")
    result = json.loads((out / "result.json").read_text(encoding="utf-8"))
    problems = []
    failed = 0
    for step, res in zip(steps, result["steps"]):
        bad = check_step(step, res["code"], res["error"])
        failed += bool(bad)
        problems += bad
    shutil.rmtree(out)
    return result, steps, problems, failed


def traced_run(workload: Workload, work: Path, args: argparse.Namespace) -> tuple[dict, dict, list[str], int, int]:
    root = work / "setup"
    set_up(workload, root, args.seed, args.size)
    http_labels = None
    if workload.uses_http:
        responses = json.loads((root / "responses.json").read_text(encoding="utf-8"))
        http_labels = {name: r["gender"] for name, r in responses.items()}
    imports = []
    for _ in range(IMPORT_SAMPLES):
        child = proc.run(["-c", "import time; t = time.perf_counter(); import namegender.cli; "
                          "print(time.perf_counter() - t)"], cwd=work, stdout=work / "import.txt")
        if child.code != 0:
            raise SystemExit("perfbench: `import namegender.cli` failed")
        imports.append(float((work / "import.txt").read_text()))

    plain_walls, traced_walls, per_pass = [], [], []
    problems: list[str] = []
    attempted = failed = 0
    variants: list[dict] = []
    deadline = time.perf_counter() + args.seconds
    index = 0
    while not per_pass or time.perf_counter() < deadline:
        for traced in (False, True):
            result, steps, bad, n_failed = in_process_pass(workload, work, index, traced, http_labels)
            attempted += len(steps)
            failed += n_failed
            problems += bad
            variants += [s.facts for s in steps if s.facts]
            if traced:
                traced_walls.append(result["wall_s"])
                per_pass.append(layers.layer_metrics(result))
            else:
                plain_walls.append(result["wall_s"])
        index += 1

    metrics = {name: statistics.median(p[name] for p in per_pass) for name in per_pass[0]}
    metrics["cli.import_s"] = statistics.median(imports)
    metrics["inferrers.variant_answered_share"] = variant_share(variants)
    metrics["bench.tracing_overhead_s"] = statistics.median(traced_walls) - statistics.median(plain_walls)
    extra = {"traced_passes": len(per_pass), "plain_passes": len(plain_walls), "import_samples": len(imports),
             "error_rate": failed / attempted}
    return metrics, extra, problems, attempted, failed


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    args = parser.parse_args(argv)
    if not (proc.SRC / "namegender" / "cli.py").is_file():
        print(f"perfbench: no program source at {proc.SRC / 'namegender'}", file=sys.stderr)
        return 2
    if args.workload == "all":
        # Each workload in its own process, one after another.
        flags = ["--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace), "--size", args.size]
        return max(subprocess.run([sys.executable, __file__, "--workload", name, *flags]).returncode for name in WORKLOADS)

    workload = WORKLOADS[args.workload]()
    work = proc.ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{args.trace}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        run = traced_run if args.trace else timed_run
        metrics, extra, problems, attempted, failed = run(workload, work, args)
        properties = workload.properties()
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()  # only if no other run is using it

    units = layers.UNITS if args.trace else E2E_UNITS
    metrics = {name: metrics[name] for name in units}
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}")
    print("env " + json.dumps(environment(args), sort_keys=True))
    print("inputs " + json.dumps(properties, sort_keys=True))
    print("samples " + json.dumps(extra, sort_keys=True))
    for name, value in metrics.items():
        print(f"  {name:50s} {value:14.6g} {units[name]}")
    for name, unit in PLAIN_UNITS.items():
        if extra.get(name):
            print(f"  {name:50s} {extra[name]:14.6g} {unit}  (passes run alone: {extra['passes_alone']})")
    for name in ("call_s_p50", "call_s_p90"):
        if name in extra:
            print(f"  {name:50s} {extra[name]:14.6g} s  (n={extra['calls']}, {extra['calls_beyond_p90']} beyond p90)")
    print(f"  {'error_rate':50s} {extra['error_rate']:14.6g} ratio  ({failed} of {attempted} steps)")
    for problem in problems[:20]:
        print(f"  FAIL {problem}")
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
