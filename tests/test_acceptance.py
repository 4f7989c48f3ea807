"""Acceptance suite: one test per release criterion, with stated tolerances.

Each test prints a [acceptance] PASS line on success; pytest -v shows a
per-criterion pass/fail either way. The published reference values used by
criterion 2 come from a third-party benchmark study of name-to-gender
tools; they pin the size-weighted aggregation rule, NA handling included.
"""

from __future__ import annotations

import itertools
import os
import time
from collections import Counter
from pathlib import Path

import pytest

from namegender import cli
from namegender.analysis import RateType, extract_ngrams, ngram_inventory
from namegender.corpus import (
    FrequencyTable,
    GenderCounts,
    NameType,
    dataset_stats,
    ingest_ssa_years,
    merge_tables,
)
from namegender.ensemble import TwoStageInferrer, majority_vote
from namegender.evaluation import ConfusionCounts, aggregate, metrics
from namegender.inferrers import Inferrer
from namegender.mle import GenderLabel, Prediction, mle_female, train

from conftest import random_name, random_table

DATA = Path(__file__).parent / "data"

F, M, A, U = GenderLabel.FEMALE, GenderLabel.MALE, GenderLabel.AMBIGUOUS, GenderLabel.UNKNOWN


def _passed(criterion: int, name: str) -> None:
    print(f"[acceptance] criterion {criterion} ({name}): PASS")


# --- criterion 1: threshold contract ------------------------------------------------


def test_criterion_1_threshold_suite(rng):
    started = time.monotonic()
    taus = (0.50, 0.75, 0.90)

    entries = {}
    while len(entries) < 10_000:
        f, m = rng.randint(0, 1000), rng.randint(0, 1000)
        if f + m == 0:
            continue
        entries[f"name{len(entries):05d}"] = GenderCounts(f, m)
    table = FrequencyTable(entries, NameType.FIRST, "rand")
    models = {tau: train(table, tau) for tau in taus}

    for name, gc in entries.items():
        p = mle_female(gc)
        labels = []
        for tau in taus:
            label = models[tau].classify(name).label
            labels.append(label)
            # strict-inequality contract
            if label is F:
                assert p > tau
            elif label is M:
                assert p < 1 - tau
            else:
                assert not (p > tau) and not (p < 1 - tau)
        # monotonicity: raising tau only ever moves definite labels to ambiguous
        for earlier, later in zip(labels, labels[1:]):
            if earlier is A:
                assert later is A
            else:
                assert later in (earlier, A)

    even = FrequencyTable({"even": GenderCounts(1, 1)}, NameType.FIRST, "even")
    assert mle_female(GenderCounts(1, 1)) == 0.5
    for tau in taus:
        assert train(even, tau).classify("even").label is A

    elapsed = time.monotonic() - started
    assert elapsed < 5.0, f"threshold suite took {elapsed:.2f}s"
    _passed(1, "threshold suite")


# --- criterion 2: published aggregate reproduction ------------------------------------
#
# Per-dataset scores and their published size-weighted aggregates for six
# test sets (column order ACL, CMU, DIME, Facebook, Florida, SSA). None
# marks NA cells: the inferrer could not be scored on that dataset, and the
# aggregate excludes the cell together with its size.

SET_SIZES = (5244, 7211, 6789, 9862, 46904, 53059)

PUBLISHED_ACCURACY = {
    "baby-name-guesser": ((82.82, 78.82, 64.06, 79.43, 49.32, 63.08), 61.06),
    "cs":                ((80.15, 96.2, 81.27, 86.96, 88.83, 98.37), 92.27),
    "gender-api":        ((49.34, 76.7, 74.74, 74.41, 70.42, 86.28), 76.96),
    "gender-guesser":    ((54.54, 56.12, 43.22, 53.35, 19.26, 19.62), 26.76),
    "gender-r":          ((50.01, 80.65, 60.51, 75.74, 51.51, None), 58.12),
    "namsor":            ((84.31, 93.94, 81.62, 88.82, 88.01, 94.23), 90.47),
    "mle-dime":          ((57.52, 81.49, None, 76.37, 44.6, 63.68), 58.17),
    "mle-facebook":      ((42.57, 52.85, 40.08, None, 21.51, 23.70), 26.36),
    "mle-florida":       ((57.16, 79.99, 55.87, 72.95, None, 77.15), 73.86),
    "mle-ssa":           ((44.12, 75.4, 54.81, 67.98, 46.23, None), 52.44),
    "mle-all":           ((None, None, 55.32, 74.19, 58.71, 86.94), 72.67),
    "mlea+cs":           ((None, None, 81.37, 89.55, 89.76, 98.76), 93.35),
    "mlea+voting":       ((None, None, 81.20, 90.01, 88.72, 98.12), 92.67),
}

PUBLISHED_F1 = {
    "baby-name-guesser": ((76.27, 83.08, 63.17, 79.86, 56.52, 69.58), 66.31),
    "cs":                ((72.35, 97.02, 78.56, 86.82, 91.60, 98.73), 93.01),
    "gender-api":        ((41.18, 80.44, 70.67, 74.21, 75.39, 88.82), 79.47),
    "gender-guesser":    ((46.69, 61.29, 44.13, 53.38, 21.63, 21.54), 28.44),
    "gender-r":          ((44.12, 84.31, 60.89, 76.41, 58.60, None), 62.56),
    "namsor":            ((76.78, 95.20, 78.57, 88.06, 90.86, 95.40), 91.54),
    "mle-dime":          ((47.78, 84.53, None, 75.94, 50.17, 68.89), 62.30),
    "mle-facebook":      ((36.40, 58.78, 42.23, None, 25.87, 27.66), 30.06),
    "mle-florida":       ((50.23, 84.08, 57.11, 75.06, None, 82.47), 77.57),
    "mle-ssa":           ((38.46, 79.87, 56.06, 69.92, 53.85, None), 57.54),
    "mle-all":           ((None, None, 57.42, 76.56, 67.22, 90.17), 77.89),
    "mlea+cs":           ((None, None, 78.90, 89.43, 92.36, 99.03), 94.37),
    "mlea+voting":       ((None, None, 78.37, 89.80, 91.49, 98.54), 93.80),
}

PUBLISHED_GBE = {
    "baby-name-guesser": ((4.90, -3.34, 20.19, 11.97, -18.99, -7.06), -7.81),
    "cs":                ((4.29, -0.89, 5.91, 8.78, -2.58, 0.21), 0.25),
    "gender-api":        ((18.69, -9.32, 4.70, 9.08, -15.37, -5.61), -6.71),
    "gender-guesser":    ((17.81, -15.14, 16.17, 9.94, -32.45, -25.97), -20.98),
    "gender-r":          ((21.96, -5.17, 19.55, 12.68, -18.45, None), -6.97),
    "namsor":            ((0.10, -2.29, 4.36, 3.45, -4.30, -3.12), -2.47),
    "mle-dime":          ((13.84, -8.86, None, 8.05, -24.38, -11.67), -13.69),
    "mle-facebook":      ((22.80, -14.12, 22.30, None, -29.69, -22.93), -20.47),
    "mle-florida":       ((18.59, -2.79, 21.48, 17.68, None, 1.91), 6.07),
    "mle-ssa":           ((23.32, -6.27, 21.42, 16.30, -19.05, None), -6.71),
    "mle-all":           ((None, None, 23.49, 19.97, -9.61, 4.47), 1.22),
    "mlea+cs":           ((None, None, 6.91, 8.66, -1.65, 0.23), 0.57),
    "mlea+voting":       ((None, None, 4.65, 6.82, -2.83, -0.82), -0.66),
}


def test_criterion_2_aggregation_reproduction():
    started = time.monotonic()
    for metric_name, table in (
        ("accuracy", PUBLISHED_ACCURACY),
        ("f1", PUBLISHED_F1),
        ("gbe", PUBLISHED_GBE),
    ):
        for tool, (values, published) in table.items():
            computed = aggregate(zip(values, SET_SIZES))
            assert computed == pytest.approx(published, abs=0.02), (
                f"{metric_name}/{tool}: computed {computed:.4f}, published {published}"
            )
    elapsed = time.monotonic() - started
    assert elapsed < 1.0, f"aggregation suite took {elapsed:.2f}s"
    _passed(2, "aggregation reproduction, 39 published aggregates within 0.02")


# --- criterion 3: merge against a brute-force recount --------------------------------


def test_criterion_3_merge_oracle(rng):
    started = time.monotonic()
    for _ in range(1000):
        k = rng.randint(1, 5)
        tables = [
            random_table(rng, f"t{i}", rng.randint(1, 8), max_count=20) for i in range(k)
        ]
        merged = merge_tables(tables)
        # brute force: expand to one labeled record per occurrence, then count
        records = []
        for table in tables:
            for name, gc in table.entries.items():
                records.extend([(name, "f")] * gc.female + [(name, "m")] * gc.male)
        counted = Counter(records)
        expected = {
            name: (counted[(name, "f")], counted[(name, "m")])
            for name in {r[0] for r in records}
        }
        assert {n: (gc.female, gc.male) for n, gc in merged.entries.items()} == expected
    elapsed = time.monotonic() - started
    assert elapsed < 10.0, f"merge oracle took {elapsed:.2f}s"
    _passed(3, "merge equals concatenate-then-recount on 1000 trials")


# --- criterion 4: weighted average equals pooled accuracy -----------------------------


def test_criterion_4_weighted_average_identity(rng):
    for _ in range(300):
        per_set = []
        pooled_correct = pooled_total = 0
        for _ in range(rng.randint(1, 8)):
            size = rng.randint(1, 500)
            correct = rng.randint(0, size)
            per_set.append((100.0 * correct / size, size))
            pooled_correct += correct
            pooled_total += size
        weighted = aggregate(per_set)
        pooled = 100.0 * pooled_correct / pooled_total
        assert weighted == pytest.approx(pooled, rel=1e-9)
    _passed(4, "weighted aggregation equals pooled accuracy")


# --- criterion 5: gender bias error properties ----------------------------------------


def test_criterion_5_gbe_properties(rng):
    worked = metrics(ConfusionCounts(true_female=3, true_male=3, false_female=3, false_male=1))
    assert worked.gbe == pytest.approx(20.0)

    for _ in range(2000):
        tf, tm, ff, fm = (rng.randint(0, 50) for _ in range(4))
        if tf + tm + ff + fm == 0:
            continue
        gbe = metrics(ConfusionCounts(tf, tm, ff, fm)).gbe
        assert -100.0 <= gbe <= 100.0
        if ff == fm:
            assert gbe == 0.0
        assert (gbe < 0) == (fm > ff)
    _passed(5, "gender bias error range, sign, and worked example")


# --- criterion 6: n-gram extraction and inventory --------------------------------------


def test_criterion_6_ngram_suite(rng):
    assert set(extract_ngrams("Mary", 2)) == {"ma", "ar", "ry"}
    assert extract_ngrams("Mary", 2) == ["ma", "ar", "ry"]
    assert set(extract_ngrams("Mary", 3)) == {"mar", "ary"}

    for _ in range(1000):
        rated = [(random_name(rng), rng.choice(list(RateType))) for _ in range(rng.randint(2, 15))]
        rated[0] = (rated[0][0], rng.choice((RateType.TF, RateType.TM)))
        rated[1] = (rated[1][0], rng.choice((RateType.FF, RateType.FM)))
        n = rng.choice((2, 3))
        inventory = ngram_inventory({rate: [name for name, r in rated if r is rate] for rate in RateType}, n)
        # brute-force set oracle
        true_set, false_set = set(), set()
        for name, rate in rated:
            grams = {name[i : i + n] for i in range(len(name) - n + 1)}
            (true_set if rate in (RateType.TF, RateType.TM) else false_set).update(grams)
        assert inventory.unique_to_true == true_set - false_set
        assert inventory.unique_to_false == false_set - true_set
        assert inventory.overlapping == true_set & false_set
        # the three sets partition the union
        union = inventory.unique_to_true | inventory.unique_to_false | inventory.overlapping
        assert union == true_set | false_set
        assert not inventory.unique_to_true & inventory.overlapping
        assert not inventory.unique_to_false & inventory.overlapping
        assert not inventory.unique_to_true & inventory.unique_to_false
    _passed(6, "n-gram extraction and inventory partition")


# --- criterion 7: ensemble behavior ------------------------------------------------------


class _CountingFallback(Inferrer):
    kind = "counting"

    def __init__(self) -> None:
        super().__init__("counter")
        self.calls = 0

    def _infer_chunk(self, names):
        self.calls += len(names)
        return [Prediction(M, 0.0, self.id) for _ in names]


def test_criterion_7_ensemble_suite(rng):
    # stage-1 short circuit: confident names never reach the fallback
    entries, confident = {}, []
    for i in range(500):
        name = f"n{i:03d}"
        f, m = rng.randint(0, 100), rng.randint(0, 100)
        if f + m == 0:
            f = 1
        entries[name] = GenderCounts(f, m)
        if not 0.25 <= f / (f + m) <= 0.75:
            confident.append(name)
    fallback = _CountingFallback()
    inferrer = TwoStageInferrer(train(FrequencyTable(entries, NameType.FIRST, "t"), 0.9), fallback)
    assert confident, "fixture must contain confident names"
    inferrer.infer_batch(confident)
    assert fallback.calls == 0

    # permutation invariance over all 3! orderings of 500 random triples
    labels = (F, M, A, U)
    for _ in range(500):
        votes = []
        for _ in range(3):
            label = rng.choice(labels)
            votes.append(Prediction(label, None if label is U else round(rng.random(), 6), "v"))
        outcomes = {majority_vote(list(p)) for p in itertools.permutations(votes)}
        assert len(outcomes) == 1

    ffm = majority_vote([Prediction(F, 0.9, "a"), Prediction(F, 0.8, "b"), Prediction(M, 0.1, "c")])
    assert ffm.label is F
    fmu = majority_vote([Prediction(F, 0.9, "a"), Prediction(M, 0.1, "b"), Prediction(U, None, "c")])
    assert fmu.label is U
    _passed(7, "ensemble short-circuit, permutation invariance, vote outcomes")


# --- criterion 8: end-to-end run against the committed golden report ---------------------


def test_criterion_8_end_to_end_golden(tmp_path):
    started = time.monotonic()
    out = tmp_path / "run"
    corpus_csv = DATA / "synthetic_names.csv"
    mock_json = DATA / "mock_predictions.json"

    assert cli.main([
        "ingest", "--csv", str(corpus_csv),
        "--name-col", "name", "--gender-col", "gender", "--count-col", "count",
        "--source-id", "synth", "--out-dir", str(out),
    ]) == 0
    assert cli.main([
        "split", str(out / "synth.table.tsv"),
        "--test-fraction", "0.1", "--seed", "7", "--out-dir", str(out),
    ]) == 0
    assert cli.main([
        "train", str(out / "synth-train.table.tsv"), "--tau", "0.9", "--out-dir", str(out),
    ]) == 0
    assert cli.main([
        "eval", "--test", str(out / "synth.test.tsv"),
        "--inferrer", f"mock:{mock_json}", "--out-dir", str(out),
    ]) == 0

    produced = (out / "report.tsv").read_bytes()
    golden = (DATA / "golden_report.tsv").read_bytes()
    assert produced == golden

    elapsed = time.monotonic() - started
    assert elapsed < 10.0, f"end-to-end run took {elapsed:.2f}s"
    _passed(8, "end-to-end run byte-identical to golden report")


# --- criterion 9 (optional): full SSA data check ------------------------------------------


@pytest.mark.skipif(
    "NAMEGENDER_SSA_DIR" not in os.environ,
    reason="set NAMEGENDER_SSA_DIR to a directory of yobYYYY.txt files to run",
)
def test_criterion_9_full_ssa_data():
    table, report = ingest_ssa_years(os.environ["NAMEGENDER_SSA_DIR"], range(1937, 2000))
    assert not report.missing_years
    stats = dataset_stats(table)
    assert stats.unique_names == pytest.approx(63_892, rel=0.005)
    assert stats.ambiguous == pytest.approx(7_050, rel=0.005)
    _passed(9, "full SSA ingestion statistics")
