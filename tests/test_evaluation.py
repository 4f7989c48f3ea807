from __future__ import annotations


import pytest

from namegender.corpus import FrequencyTable, GenderCounts, NameType
from namegender.evaluation import (
    ConfusionCounts,
    LabeledTestSet,
    MetricValues,
    SplitDegenerateError,
    aggregate,
    evaluate_run,
    metrics,
    read_testset,
    score,
    split_dataset,
    write_testset,
)
from namegender.inferrers import MockInferrer
from namegender.mle import GenderLabel, Prediction


F, M = GenderLabel.FEMALE, GenderLabel.MALE


def P(label: GenderLabel, p: float | None = None, source: str = "s") -> Prediction:
    return Prediction(label, p, source)


def make_testset(pairs) -> LabeledTestSet:
    return LabeledTestSet("t", tuple(pairs))


def aggregate_row(report, inferrer_id: str) -> tuple[MetricValues, int]:
    """An inferrer's ALL record as its metric values and the size they cover."""
    [record] = [r for r in report.to_records() if (r["inferrer"], r["dataset"]) == (inferrer_id, "ALL")]
    return MetricValues(*(record[key] for key in MetricValues._fields)), record["size"]


# --- split_dataset ---------------------------------------------------------------


def hundred_name_table() -> FrequencyTable:
    entries = {}
    for i in range(100):
        entries[f"name{i:03d}"] = GenderCounts(i % 7 + 1, i % 3)
    return FrequencyTable(entries, NameType.FIRST, "demo")


def test_split_partitions_disjointly():
    result = split_dataset(hundred_name_table(), 0.1, seed=7)
    test_names = {name for name, _ in result.test.names} | set(result.ties)
    assert len(test_names) == 10
    assert len(result.train) == 90
    assert not test_names & set(result.train.entries)


def test_split_same_seed_is_byte_identical(tmp_path):
    for run in ("a", "b"):
        result = split_dataset(hundred_name_table(), 0.1, seed=99)
        write_testset(result.test, tmp_path / f"{run}.test.tsv")
    assert (tmp_path / "a.test.tsv").read_bytes() == (tmp_path / "b.test.tsv").read_bytes()


def test_split_different_seeds_differ():
    one = split_dataset(hundred_name_table(), 0.1, seed=1)
    two = split_dataset(hundred_name_table(), 0.1, seed=2)
    assert one.test.names != two.test.names


def test_split_ground_truth_is_majority_gender():
    table = FrequencyTable(
        {
            "fem": GenderCounts(9, 1),
            "mal": GenderCounts(2, 8),
            "tie": GenderCounts(5, 5),
            "pad1": GenderCounts(1, 0),
            "pad2": GenderCounts(0, 1),
        },
        NameType.FIRST,
        "t",
    )
    # fraction 0.6 of 5 names -> 3 test names; find a seed sampling all three targets
    for seed in range(200):
        result = split_dataset(table, 0.6, seed)
        sampled = dict(result.test.names)
        if "fem" in sampled and "mal" in sampled and "tie" in result.ties:
            assert sampled["fem"] is F
            assert sampled["mal"] is M
            return
    pytest.fail("no seed sampled the three target names")


def test_split_tied_names_reported_not_tested():
    table = FrequencyTable(
        {f"n{i}": GenderCounts(3, 3) if i < 5 else GenderCounts(4, 1) for i in range(10)},
        NameType.FIRST,
        "t",
    )
    result = split_dataset(table, 0.5, seed=3)
    for name in result.ties:
        assert table.entries[name].female == table.entries[name].male
    tested = {n for n, _ in result.test.names}
    assert not tested & set(result.ties)


def test_split_degenerate_fractions_raise():
    table = hundred_name_table()
    with pytest.raises(SplitDegenerateError):
        split_dataset(table, 0.001, seed=1)
    with pytest.raises(SplitDegenerateError):
        split_dataset(table, 0.999, seed=1)
    with pytest.raises(ValueError):
        split_dataset(table, 1.5, seed=1)


def test_split_train_keeps_counts_and_provenance():
    result = split_dataset(hundred_name_table(), 0.2, seed=5)
    assert result.train.source_id == "demo-train"
    for name, gc in result.train.entries.items():
        assert hundred_name_table().entries[name] == gc


# --- score -----------------------------------------------------------------------


def test_score_perfect_two_names():
    counts = score(make_testset([("a", F), ("b", M)]), [P(F, 0.9), P(M, 0.1)])
    assert counts == ConfusionCounts(true_female=1, true_male=1)


def test_score_unknown_is_undecided():
    counts = score(make_testset([("a", F)]), [P(GenderLabel.UNKNOWN)])
    assert counts.undecided == 1
    assert counts.undecided_female == 1


def test_score_eight_name_manual_fixture():
    # hand tally: TF=2, TM=1, FF=2, FM=1, undecided 2 (1 obs female)
    observed = [("a", F), ("b", F), ("c", F), ("d", F), ("e", M), ("f", M), ("g", M), ("h", M)]
    predicted = [
        P(F, 0.9),                  # a: TF
        P(F, 0.8),                  # b: TF
        P(M, 0.2),                  # c: FM
        P(GenderLabel.UNKNOWN),     # d: undecided (observed female)
        P(M, 0.1),                  # e: TM
        P(F, 0.7),                  # f: FF
        P(F, 0.6),                  # g: FF
        P(GenderLabel.AMBIGUOUS, 0.5),  # h: undecided (observed male)
    ]
    counts = score(make_testset(observed), predicted)
    assert counts == ConfusionCounts(
        true_female=2,
        true_male=1,
        false_female=2,
        false_male=1,
        undecided_female=1,
        undecided_male=1,
    )
    assert counts.total == 8


def test_score_length_mismatch_raises():
    with pytest.raises(ValueError):
        score(make_testset([("a", F)]), [])


def test_score_invariant_under_joint_permutation(rng):
    names = [(f"n{i}", rng.choice((F, M))) for i in range(30)]
    preds = []
    for _ in range(30):
        label = rng.choice((F, M, GenderLabel.UNKNOWN, GenderLabel.AMBIGUOUS))
        preds.append(P(label, None if label is GenderLabel.UNKNOWN else rng.random()))
    base = score(make_testset(names), preds)
    order = list(range(30))
    rng.shuffle(order)
    shuffled = score(
        LabeledTestSet("t", tuple(names[i] for i in order)), [preds[i] for i in order]
    )
    assert base == shuffled


# --- metrics ----------------------------------------------------------------------


def test_metrics_worked_example():
    values = metrics(ConfusionCounts(true_female=3, true_male=3, false_female=3, false_male=1))
    assert values.gbe == pytest.approx(20.0)
    assert values.accuracy == pytest.approx(60.0)
    assert values.precision == pytest.approx(50.0)
    assert values.recall == pytest.approx(75.0)
    assert values.f1 == pytest.approx(60.0)


def test_metrics_equal_false_counts_zero_gbe():
    values = metrics(ConfusionCounts(true_female=5, true_male=2, false_female=4, false_male=4))
    assert values.gbe == 0.0


def test_metrics_perfect_predictions():
    values = metrics(ConfusionCounts(true_female=6, true_male=4))
    assert (values.accuracy, values.precision, values.recall, values.f1) == (100.0,) * 4
    assert values.gbe == 0.0


def test_metrics_undecided_count_against_accuracy_and_recall():
    values = metrics(
        ConfusionCounts(true_female=3, true_male=3, undecided_female=2, undecided_male=2)
    )
    assert values.accuracy == pytest.approx(60.0)
    assert values.recall == pytest.approx(100.0 * 3 / 5)
    assert values.precision == pytest.approx(100.0)


def test_metrics_na_on_zero_denominators():
    values = metrics(ConfusionCounts(true_male=5, undecided_male=1))
    assert values.precision is None
    assert values.recall is None
    assert values.f1 is None
    assert values.gbe is not None


def test_metrics_all_undecided():
    values = metrics(ConfusionCounts(undecided_female=2, undecided_male=2))
    assert values.accuracy == 0.0
    assert values.gbe is None


def test_metrics_empty_raises():
    with pytest.raises(ValueError):
        metrics(ConfusionCounts())


def test_constant_female_predictor_closed_form(rng):
    for _ in range(50):
        n = rng.randint(1, 60)
        f = rng.randint(0, n)
        names = [(f"n{i}", F if i < f else M) for i in range(n)]
        counts = score(make_testset(names), [P(F, 1.0)] * n)
        values = metrics(counts)
        assert values.accuracy == pytest.approx(100.0 * f / n)
        if f > 0:
            assert values.recall == pytest.approx(100.0)


def test_gbe_range_and_sign(rng):
    for _ in range(300):
        tf, tm, ff, fm = (rng.randint(0, 40) for _ in range(4))
        if tf + tm + ff + fm == 0:
            continue
        values = metrics(ConfusionCounts(tf, tm, ff, fm))
        assert -100.0 <= values.gbe <= 100.0
        assert (values.gbe < 0) == (fm > ff)


def test_accuracy_100_implies_no_undecided(rng):
    for _ in range(200):
        counts = ConfusionCounts(
            rng.randint(0, 10), rng.randint(0, 10), rng.randint(0, 3),
            rng.randint(0, 3), rng.randint(0, 3), rng.randint(0, 3),
        )
        if counts.total == 0:
            continue
        values = metrics(counts)
        assert values.accuracy <= 100.0
        if values.accuracy == 100.0:
            assert counts.undecided == 0


# --- aggregate --------------------------------------------------------------------


def test_weighted_average_simple():
    assert aggregate([(50.0, 2), (100.0, 3)]) == pytest.approx(80.0)


def test_single_dataset_identity():
    assert aggregate([(73.2, 41)]) == pytest.approx(73.2)


def test_na_entries_excluded_with_sizes():
    assert aggregate([(50.0, 2), (None, 1000), (100.0, 2)]) == pytest.approx(75.0)


def test_all_na_aggregates_to_na():
    assert aggregate([(None, 3), (None, 4)]) is None


def test_pooled_accuracy_identity(rng):
    # size-weighted aggregation of per-set accuracies equals pooled accuracy
    for _ in range(100):
        sets = []
        total_correct = total_names = 0
        for _ in range(rng.randint(1, 6)):
            n = rng.randint(1, 200)
            correct = rng.randint(0, n)
            sets.append((100.0 * correct / n, n))
            total_correct += correct
            total_names += n
        pooled = 100.0 * total_correct / total_names
        agg = aggregate(sets)
        assert agg == pytest.approx(pooled, rel=1e-9)


# --- evaluate_run -----------------------------------------------------------------


def test_single_mock_single_set_matches_hand_computation():
    ts = LabeledTestSet("d1", (("ana", F), ("bea", F), ("carl", M), ("dan", M)))
    mock = MockInferrer(
        "mock",
        {
            "ana": (F, 0.9),   # TF
            "bea": (M, 0.2),   # FM
            "carl": (M, 0.1),  # TM
            # dan missing -> undecided
        },
    )
    report = evaluate_run([ts], [mock])
    assert len(report.rows) == 1
    row = report.rows[0]
    assert score(ts, mock.infer_batch([name for name, _ in ts.names])) == ConfusionCounts(
        true_female=1, true_male=1, false_male=1, undecided_male=1
    )
    assert row.values.accuracy == pytest.approx(50.0)
    assert row.values.precision == pytest.approx(100.0)
    assert row.values.recall == pytest.approx(50.0)
    assert row.values.f1 == pytest.approx(2 * 100 * 50 / 150)
    assert row.values.gbe == pytest.approx(100.0 * (0 - 1) / 3)
    agg, covered = aggregate_row(report, "mock")
    assert agg.accuracy == pytest.approx(50.0)
    assert covered == 4


def test_skip_cells_are_na():
    ts1 = LabeledTestSet("own", (("ana", F),))
    ts2 = LabeledTestSet("other", (("ana", F),))
    mock = MockInferrer("m", {"ana": (F, 1.0)})
    report = evaluate_run([ts1, ts2], [mock], skip={"m": {"own"}})
    by_dataset = {row.dataset_id: row for row in report.rows}
    assert {r["dataset"]: r["skipped"] for r in report.to_records()}["own"]
    assert by_dataset["own"].values is None
    assert by_dataset["other"].values.accuracy == pytest.approx(100.0)
    agg, covered = aggregate_row(report, "m")
    assert covered == 1


def test_identical_sets_aggregate_to_same_value():
    ts1 = LabeledTestSet("d1", (("ana", F), ("bob", M)))
    ts2 = LabeledTestSet("d2", (("ana", F), ("bob", M)))
    mock = MockInferrer("m", {"ana": (F, 1.0), "bob": (F, 0.9)})
    report = evaluate_run([ts1, ts2], [mock])
    values = [row.values.accuracy for row in report.rows]
    assert values[0] == values[1]
    agg, _ = aggregate_row(report, "m")
    assert agg.accuracy == pytest.approx(values[0])


def test_report_renderings_mark_na():
    ts = LabeledTestSet("d", (("ana", F),))
    mock = MockInferrer("m", {})  # everything unknown
    report = evaluate_run([ts], [mock])
    tsv = report.to_tsv()
    assert "NA" in tsv  # precision of an all-undecided run is NA
    text = report.to_text()
    assert text.splitlines()[0].split() == [
        "Inferrer", "Dataset", "Size", "Accuracy", "Precision", "Recall", "F1", "GBE",
    ]
    records = report.to_records()
    assert records[0]["precision"] is None


def test_rows_ordered_by_inferrer_then_dataset():
    sets = [LabeledTestSet(i, (("ana", F),)) for i in ("b", "a")]
    mocks = [MockInferrer(i, {"ana": (F, 1.0)}) for i in ("z", "y")]
    report = evaluate_run(sets, mocks)
    assert [(r.inferrer_id, r.dataset_id) for r in report.rows] == [
        ("y", "a"), ("y", "b"), ("z", "a"), ("z", "b"),
    ]


@pytest.mark.parametrize("inferrer_ids, set_ids, skip, message", [
    (("m", "m"), ("a",), {}, "duplicate inferrer id 'm'"),
    (("m",), ("a", "a"), {}, "duplicate test-set id 'a'"),
    (("m",), ("a",), {"typo": {"a"}}, "NA cell typo=a names"),
    (("m",), ("a",), {"m": {"a", "typo"}}, "NA cell m=typo names"),
])
def test_evaluate_run_refuses_ambiguous_or_unknown_ids(inferrer_ids, set_ids, skip, message):
    sets = [LabeledTestSet(i, (("ana", F),)) for i in set_ids]
    mocks = [MockInferrer(i, {"ana": (F, 1.0)}) for i in inferrer_ids]
    with pytest.raises(ValueError, match=message):
        evaluate_run(sets, mocks, skip)


# --- test-set serialization ---------------------------------------------------------


def test_testset_round_trip(tmp_path):
    ts = LabeledTestSet("demo", (("ana", F), ("bob", M)))
    path = tmp_path / "demo.test.tsv"
    write_testset(ts, path)
    assert read_testset(path) == ts


def test_read_testset_skips_a_blank_line_and_still_counts_it(tmp_path):
    path = tmp_path / "demo.test.tsv"
    path.write_text("# testset=demo\nana\tfemale\n\nbob\tmale\n", encoding="utf-8")
    assert read_testset(path) == LabeledTestSet("demo", (("ana", F), ("bob", M)))
    path.write_text("# testset=demo\nana\tfemale\n\nbob\tmal\n", encoding="utf-8")
    with pytest.raises(ValueError, match=r":4: bad gender 'mal'"):
        read_testset(path)


def test_testset_rejects_bad_labels():
    with pytest.raises(ValueError):
        LabeledTestSet("t", (("ana", GenderLabel.AMBIGUOUS),))
    with pytest.raises(ValueError):
        LabeledTestSet("t", (("ana", F), ("ana", M)))


@pytest.mark.parametrize("set_id, name", [("demo", "a\tb"), ("demo", "a\nb"), ("demo", "ab\r"), ("de\tmo", "ana")])
def test_write_testset_refuses_tab_or_line_break_before_the_file_is_created(tmp_path, set_id, name):
    path = tmp_path / "demo.test.tsv"
    with pytest.raises(ValueError, match="contains tab or newline"):
        write_testset(LabeledTestSet(set_id, (("bob", M), (name, F))), path)
    assert not path.exists()
