"""Property tests: scoring, error analysis and report rendering agree."""

from __future__ import annotations

from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from namegender.analysis import assign_rate_types
from namegender.evaluation import (
    ConfusionCounts,
    LabeledTestSet,
    MetricsReport,
    MetricValues,
    RateType,
    ReportRow,
    score,
)
from namegender.mle import GenderLabel, Prediction

OBSERVED = st.sampled_from([GenderLabel.FEMALE, GenderLabel.MALE])
IDS = st.text("abcxyz-:+", min_size=1, max_size=6)


@st.composite
def predictions(draw) -> Prediction:
    label = draw(st.sampled_from(list(GenderLabel)))
    p_female = None if label is GenderLabel.UNKNOWN else draw(st.floats(0.0, 1.0))
    return Prediction(label, p_female, "p")


@st.composite
def scored_testsets(draw) -> tuple[LabeledTestSet, list[Prediction]]:
    names = draw(st.lists(st.text("abcde", min_size=1, max_size=5), min_size=1, max_size=40, unique=True))
    testset = LabeledTestSet("t", tuple((name, draw(OBSERVED)) for name in names))
    return testset, [draw(predictions()) for _ in names]


@settings(deadline=None)
@given(scored_testsets())
def test_score_agrees_with_rate_types(case):
    testset, preds = case
    counts = score(testset, preds)
    rated = assign_rate_types(testset, preds)
    tally = Counter(rate for _, rate in rated)
    assert counts.true_female == tally[RateType.TF]
    assert counts.false_female == tally[RateType.FF]
    assert counts.true_male == tally[RateType.TM]
    assert counts.false_male == tally[RateType.FM]
    assert counts.undecided_female + counts.undecided_male == testset.size - len(rated)
    assert counts.total == testset.size


METRIC = st.one_of(st.none(), st.floats(-100.0, 100.0))


@st.composite
def report_rows(draw) -> ReportRow:
    inferrer_id, dataset_id, size = draw(IDS), draw(IDS), draw(st.integers(1, 500))
    if draw(st.booleans()):
        return ReportRow(inferrer_id, dataset_id, size, None, None, skipped=True)
    values = MetricValues(*(draw(METRIC) for _ in range(5)))
    return ReportRow(inferrer_id, dataset_id, size, ConfusionCounts(), values)


def _record_cells(record: dict[str, object]) -> list[str]:
    metrics = [record[k] for k in ("accuracy", "precision", "recall", "f1", "gbe")]
    return [str(record["inferrer"]), str(record["dataset"]), str(record["size"])] + [
        "NA" if v is None else f"{v:.2f}" for v in metrics
    ]


@settings(deadline=None)
@given(st.lists(report_rows(), min_size=1, max_size=12), st.lists(st.text("ab ", min_size=1, max_size=8), max_size=2))
def test_renderings_carry_the_same_cells(rows, notes):
    report = MetricsReport(rows, list(notes))
    tsv = [line.split("\t") for line in report.to_tsv().splitlines()]
    text_lines = report.to_text().splitlines()
    text = [line.split() for line in text_lines[: len(text_lines) - len(notes)]]
    records = [_record_cells(r) for r in report.to_records()]
    assert [h.lower() for h in text[0]] == tsv[0]
    assert text[1:] == tsv[1:] == records
    assert text_lines[len(text_lines) - len(notes):] == [f"note: {n}" for n in notes]
    # one ALL row per inferrer, each after that inferrer's own rows
    assert [r[0] for r in records if r[1] == "ALL"] == report.inferrer_ids()
    skipped = [r["dataset"] for r in report.to_records() if r["skipped"]]
    assert sorted(skipped) == sorted(row.dataset_id for row in rows if row.skipped)
