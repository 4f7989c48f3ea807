"""Run one pass of CLI steps in-process, with or without tracing.

    python3 perfbench/tracer.py SPEC.json RESULT.json

SPEC holds the steps (argv, stdin, stdout), whether to trace, and the
genderize-style responses the HTTP cache was warmed with. Each step is
`namegender.cli.main(argv)` called in this interpreter.

Tracing wraps the public functions and methods of every module from the
outside, so the program itself is unchanged. Each wrapped call records a
span (name, start, end, parent); spans stay in memory and are written to
RESULT at the end. Per-name hot functions (`normalize_name`,
`MleModel.classify`, `Prediction` construction) instead add to a count and
a busy time, because a span per call would cost more than the call.
"""

from __future__ import annotations

import io
import json
import os
import sys
from time import perf_counter

SPANNED = {
    "cli": ["main", "cmd_ingest", "cmd_combine", "cmd_stats", "cmd_split", "cmd_train", "cmd_infer", "cmd_eval",
            "cmd_analyze", "build_inferrer"],
    "corpus": ["ingest_labeled_csv", "ingest_ssa_years", "merge_tables", "to_first_names", "dataset_stats",
               "cross_dataset_uniqueness", "pairwise_overlap", "ambiguity_histogram", "write_table",
               "read_table_with_header"],
    "mle": ["train", "save_model", "load_model"],
    "inferrers": ["parse_adapter_config"],
    "evaluation": ["split_dataset", "evaluate_run", "score", "read_testset", "write_testset"],
    "analysis": ["assign_rate_types", "length_histograms", "non_english_distribution", "ngram_inventory",
                 "write_length_export", "write_non_english_export", "write_ngram_export"],
}
INFERRER_CLASSES = {"inferrers": ["MleInferrer", "MockInferrer", "HttpAdapter"],
                    "ensemble": ["TwoStageInferrer", "VotingInferrer"]}
RENDERERS = ["to_tsv", "to_text", "to_records"]


class Recorder:
    """Spans and hot-function tallies, kept in memory until the pass ends."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.stack: list[dict] = []
        self.hot: dict[str, list[float]] = {}  # name -> [calls, busy s, busy s not nested in another hot call]
        self.depth = 0
        self.ingest_raw: dict[int, set[str]] = {}  # ingest span id -> distinct raw names normalized in it
        self.ingest_calls = 0
        self.http_misses = 0

    def span(self, name: str, fn, attrs=None):
        spans, stack = self.spans, self.stack

        def wrapper(*args, **kwargs):
            rec = {"id": len(spans), "name": name, "parent": stack[-1]["id"] if stack else None, "hot_s": 0.0}
            spans.append(rec)
            stack.append(rec)
            rec["start"] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec["end"] = perf_counter()
                stack.pop()
            if attrs is not None:
                attrs(rec, args, result)
            return result

        return wrapper

    def hot_call(self, name: str, fn, count_raw: bool = False):
        slot = self.hot.setdefault(name, [0, 0.0, 0.0])
        stack = self.stack

        def wrapper(*args, **kwargs):
            outer = self.depth == 0
            self.depth += 1
            if count_raw and stack and stack[-1]["name"].startswith("corpus.ingest_"):
                self.ingest_calls += 1
                self.ingest_raw.setdefault(stack[-1]["id"], set()).add(args[0])
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                self.depth -= 1
                slot[0] += 1
                slot[1] += elapsed
                if outer:
                    slot[2] += elapsed
                    if stack:
                        stack[-1]["hot_s"] += elapsed

        return wrapper


def _rows_in_report(rec, args, result):
    rec["rows"] = result[1].total_rows


def _rows_written(rec, args, result):
    rec["rows"] = len(args[0].entries)


def _rows_read(rec, args, result):
    rec["rows"] = len(result[0].entries)


def _testset_rows(rec, args, result):
    rec["rows"] = result.size


def _names_scored(rec, args, result):
    rec["names"] = len(args[1])


def install(recorder: Recorder, http_labels: dict[str, str | None]) -> None:
    """Wrap the program's public functions and methods in place."""
    import namegender.cli  # noqa: F401  (loads every module of the package)

    modules = [m for name, m in list(sys.modules.items()) if name == "namegender" or name.startswith("namegender.")]
    module = {m.__name__.rsplit(".", 1)[-1]: m for m in modules}
    attrs = {
        "corpus.ingest_ssa_years": _rows_in_report,
        "corpus.ingest_labeled_csv": _rows_in_report,
        "corpus.write_table": _rows_written,
        "corpus.read_table_with_header": _rows_read,
        "evaluation.read_testset": _testset_rows,
        "evaluation.score": _names_scored,
        "analysis.assign_rate_types": _names_scored,
    }

    def rebind(original, wrapped) -> None:
        # Modules that imported the function by name hold their own reference.
        for m in modules:
            for key, value in list(vars(m).items()):
                if value is original:
                    setattr(m, key, wrapped)

    for layer, names in SPANNED.items():
        for fname in names:
            original = getattr(module[layer], fname, None)
            if original is not None:
                rebind(original, recorder.span(f"{layer}.{fname}", original, attrs.get(f"{layer}.{fname}")))
    normalize = module["corpus"].normalize_name
    rebind(normalize, recorder.hot_call("corpus.normalize_name", normalize, count_raw=True))

    mle = module["mle"]
    mle.MleModel.classify = recorder.hot_call("mle.MleModel.classify", mle.MleModel.classify)
    mle.Prediction.__init__ = recorder.hot_call("mle.Prediction", mle.Prediction.__init__)
    report_cls = module["evaluation"].MetricsReport
    for method in RENDERERS:
        setattr(report_cls, method, recorder.span("evaluation.MetricsReport.render", getattr(report_cls, method)))
    mock = module["inferrers"].MockInferrer
    mock.from_json = classmethod(recorder.span("inferrers.MockInferrer.from_json", mock.__dict__["from_json"].__func__))

    spans = recorder.spans

    def batch_attrs(rec, args, result):
        rec["names"] = len(result)
        parent = spans[rec["parent"]] if rec["parent"] is not None else None
        if parent is not None and parent["name"].endswith("VotingInferrer.infer_batch"):
            parent.setdefault("ballots", []).append([p.label.value for p in result])
        if rec["name"].endswith("VotingInferrer.infer_batch"):
            ties = 0
            for votes in zip(*rec.pop("ballots", [])):
                female, male = votes.count("female"), votes.count("male")
                ties += female == male and female > 0
            rec["ties"] = ties
        if rec["name"].endswith("HttpAdapter.infer_batch"):
            rec["degraded"] = sum(
                1 for name, p in zip(args[1], result) if p.label.value == "unknown" and http_labels.get(name) is not None
            )

    for layer, classes in INFERRER_CLASSES.items():
        for cls_name in classes:
            cls = getattr(module[layer], cls_name)
            cls.infer_batch = recorder.span(f"{layer}.{cls_name}.infer_batch", cls.infer_batch, batch_attrs)

    import requests

    def refuse(session, url, *args, **kwargs):
        # Only a cache miss reaches the network layer; count it and fail it.
        recorder.http_misses += 1
        raise requests.ConnectionError(f"cache miss for {url}")

    requests.Session.get = refuse


def run_steps(steps: list[dict]) -> list[dict]:
    from namegender import cli

    results = []
    for step in steps:
        stdin = open(step["stdin"], encoding="utf-8") if step["stdin"] else io.StringIO("")
        stdout = open(step["stdout"] or os.devnull, "w", encoding="utf-8")
        saved = sys.stdin, sys.stdout
        sys.stdin, sys.stdout = stdin, stdout
        start = perf_counter()
        error = None
        try:
            code = cli.main(step["argv"])
        except Exception as exc:  # a failing step is reported, and the pass goes on
            code, error = 1, repr(exc)
        finally:
            wall = perf_counter() - start
            sys.stdin, sys.stdout = saved
            stdin.close()
            stdout.close()
        results.append({"code": code, "error": error, "wall_s": wall})
    return results


def main(spec_path: str, result_path: str) -> int:
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    recorder = Recorder()
    if spec["traced"]:
        install(recorder, spec.get("http_labels") or {})
    else:
        import namegender.cli  # noqa: F401  (import cost stays outside the timed steps, as when traced)
    steps = run_steps(spec["steps"])
    result = {
        "steps": steps,
        "wall_s": sum(s["wall_s"] for s in steps),
        "spans": recorder.spans,
        "hot": recorder.hot,
        "ingest_normalize_calls": recorder.ingest_calls,
        "ingest_raw_distinct": sum(map(len, recorder.ingest_raw.values())),
        "http_misses": recorder.http_misses,
    }
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
