"""Per-layer metrics from the spans and tallies of one traced pass.

A span's self time is its duration minus the time covered by its child
spans and by the hot per-name calls made directly inside it. A layer is a
module of the program; a layer's self time is the self time of its spans
plus the busy time of its hot functions.
"""

from __future__ import annotations

from collections import defaultdict

LAYERS = ("cli", "corpus", "mle", "inferrers", "ensemble", "evaluation", "analysis")

# (name, unit, better) in the order BENCHMARK.json lists them.
PER_LAYER = [
    ("cli.import_s", "s", "lower"),
    ("cli.cmd_infer.self_s", "s", "lower"),
    ("cli.cmd_ingest.self_s", "s", "lower"),
    ("cli.cmd_eval.self_s", "s", "lower"),
    ("corpus.normalize_name.calls", "count", "lower"),
    ("corpus.normalize_name.s", "s", "lower"),
    ("corpus.raw_repeat_ratio", "ratio", "higher"),
    ("corpus.ingest_ssa_years.rows_per_s", "rows/s", "higher"),
    ("corpus.ingest_ssa_years.self_s", "s", "lower"),
    ("corpus.ingest_labeled_csv.rows_per_s", "rows/s", "higher"),
    ("corpus.ingest_labeled_csv.self_s", "s", "lower"),
    ("corpus.to_first_names.s", "s", "lower"),
    ("corpus.write_table.rows_per_s", "rows/s", "higher"),
    ("corpus.read_table_with_header.rows_per_s", "rows/s", "higher"),
    ("corpus.merge_tables.s", "s", "lower"),
    ("corpus.dataset_stats.s", "s", "lower"),
    ("corpus.ambiguity_histogram.s", "s", "lower"),
    ("corpus.pairwise_overlap.s", "s", "lower"),
    ("corpus.cross_dataset_uniqueness.s", "s", "lower"),
    ("mle.load_model.s", "s", "lower"),
    ("mle.MleModel.classify.calls", "count", "lower"),
    ("mle.MleModel.classify.s", "s", "lower"),
    ("mle.Prediction.per_name", "ratio", "lower"),
    ("inferrers.MleInferrer.infer_batch.names_per_s", "names/s", "higher"),
    ("inferrers.variant_answered_share", "ratio", "higher"),
    ("inferrers.MockInferrer.from_json.s", "s", "lower"),
    ("inferrers.MockInferrer.infer_batch.names_per_s", "names/s", "higher"),
    ("inferrers.HttpAdapter.infer_batch.names_per_s", "names/s", "higher"),
    ("inferrers.HttpAdapter.cache_hit_ratio", "ratio", "higher"),
    ("inferrers.HttpAdapter.degraded", "count", "lower"),
    ("ensemble.TwoStageInferrer.infer_batch.names_per_s", "names/s", "higher"),
    ("ensemble.TwoStageInferrer.deferred_share", "ratio", "lower"),
    ("ensemble.VotingInferrer.infer_batch.names_per_s", "names/s", "higher"),
    ("ensemble.VotingInferrer.tie_count", "count", "lower"),
    ("evaluation.read_testset.rows_per_s", "rows/s", "higher"),
    ("evaluation.score.names_per_s", "names/s", "higher"),
    ("evaluation.evaluate_run.self_s", "s", "lower"),
    ("evaluation.MetricsReport.render_s", "s", "lower"),
    ("evaluation.split_dataset.s", "s", "lower"),
    ("analysis.assign_rate_types.names_per_s", "names/s", "higher"),
    ("analysis.length_histograms.s", "s", "lower"),
    ("analysis.ngram_inventory.s", "s", "lower"),
    ("analysis.non_english_distribution.s", "s", "lower"),
    *[(f"{layer}.self_s", "s", "lower") for layer in LAYERS],
    ("bench.tracing_overhead_s", "s", "lower"),
]
UNITS = {name: unit for name, unit, _ in PER_LAYER}


def _rate(work: float, seconds: float) -> float:
    return work / seconds if seconds > 0 else 0.0


def layer_metrics(trace: dict) -> dict[str, float]:
    """Every per-layer metric one traced pass yields; a layer the pass did
    not touch reads 0. cli.import_s, the variant share and the tracing
    overhead are measured elsewhere and added by the caller."""
    spans = trace["spans"]
    covered = [0.0] * len(spans)
    for rec in spans:
        if rec["parent"] is not None:
            covered[rec["parent"]] += rec["end"] - rec["start"]
    dur: dict[str, float] = defaultdict(float)
    self_s: dict[str, float] = defaultdict(float)
    total: dict[tuple[str, str], float] = defaultdict(float)
    for rec, child_s in zip(spans, covered):
        name = rec["name"]
        dur[name] += rec["end"] - rec["start"]
        self_s[name] += rec["end"] - rec["start"] - child_s - rec["hot_s"]
        for key in ("rows", "names", "ties", "degraded"):
            total[name, key] += rec.get(key, 0)
    # Names an inferrer was asked for directly, not on behalf of another one.
    top_names = sum(
        rec["names"] for rec in spans
        if rec["name"].endswith(".infer_batch") and (rec["parent"] is None or not spans[rec["parent"]]["name"].endswith(".infer_batch"))
    )
    deferred = sum(
        rec["names"] for rec in spans
        if rec["name"].endswith(".infer_batch") and rec["parent"] is not None
        and spans[rec["parent"]]["name"] == "ensemble.TwoStageInferrer.infer_batch"
    )
    hot = trace["hot"]  # name -> [calls, busy s, busy s not nested in another hot call]

    def calls(name: str) -> int:
        return hot.get(name, [0])[0]

    def busy(name: str) -> float:
        return hot.get(name, [0, 0.0])[1]

    http = "inferrers.HttpAdapter.infer_batch"
    http_names = total[http, "names"]
    two_stage = "ensemble.TwoStageInferrer.infer_batch"
    voting = "ensemble.VotingInferrer.infer_batch"

    m = {
        "cli.cmd_infer.self_s": self_s["cli.cmd_infer"],
        "cli.cmd_ingest.self_s": self_s["cli.cmd_ingest"],
        "cli.cmd_eval.self_s": self_s["cli.cmd_eval"],
        "corpus.normalize_name.calls": calls("corpus.normalize_name"),
        "corpus.normalize_name.s": busy("corpus.normalize_name"),
        "corpus.raw_repeat_ratio": _rate(trace["ingest_normalize_calls"], trace["ingest_raw_distinct"]),
        "mle.MleModel.classify.calls": calls("mle.MleModel.classify"),
        "mle.MleModel.classify.s": busy("mle.MleModel.classify"),
        "mle.Prediction.per_name": _rate(calls("mle.Prediction"), top_names),
        "inferrers.HttpAdapter.cache_hit_ratio": 1.0 - trace["http_misses"] / http_names if http_names else 0.0,
        "inferrers.HttpAdapter.degraded": total[http, "degraded"],
        "ensemble.TwoStageInferrer.deferred_share": _rate(deferred, total[two_stage, "names"]),
        "ensemble.VotingInferrer.tie_count": total[voting, "ties"],
        "evaluation.evaluate_run.self_s": self_s["evaluation.evaluate_run"],
        "evaluation.MetricsReport.render_s": dur["evaluation.MetricsReport.render"],
    }
    for fn in ("ingest_ssa_years", "ingest_labeled_csv"):
        m[f"corpus.{fn}.rows_per_s"] = _rate(total[f"corpus.{fn}", "rows"], dur[f"corpus.{fn}"])
        m[f"corpus.{fn}.self_s"] = self_s[f"corpus.{fn}"]
    for fn in ("write_table", "read_table_with_header"):
        m[f"corpus.{fn}.rows_per_s"] = _rate(total[f"corpus.{fn}", "rows"], dur[f"corpus.{fn}"])
    for name in ("corpus.to_first_names", "corpus.merge_tables", "corpus.dataset_stats", "corpus.ambiguity_histogram",
                 "corpus.pairwise_overlap", "corpus.cross_dataset_uniqueness", "mle.load_model",
                 "inferrers.MockInferrer.from_json", "evaluation.split_dataset", "analysis.length_histograms",
                 "analysis.ngram_inventory", "analysis.non_english_distribution"):
        m[f"{name}.s"] = dur[name]
    for name in ("inferrers.MleInferrer.infer_batch", "inferrers.MockInferrer.infer_batch", http, two_stage, voting,
                 "evaluation.score", "analysis.assign_rate_types"):
        m[f"{name}.names_per_s"] = _rate(total[name, "names"], dur[name])
    m["evaluation.read_testset.rows_per_s"] = _rate(total["evaluation.read_testset", "rows"], dur["evaluation.read_testset"])
    for layer in LAYERS:
        spans_self = sum(v for name, v in self_s.items() if name.split(".", 1)[0] == layer)
        hot_self = sum(v[2] for name, v in hot.items() if name.split(".", 1)[0] == layer)
        m[f"{layer}.self_s"] = spans_self + hot_self
    return m
