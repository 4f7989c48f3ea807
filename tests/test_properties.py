"""Property tests: ingestion and batch inference match per-row and per-name
references; scoring, error analysis and report rendering agree; table files,
merges and full-to-first-name folds match the list-building code they
replaced; a cached model load equals the parse it kept, one-name batches
searched in its entry answer as that parse, and an unusable, stale or
unwritable cache falls back to the parse; the HTTP adapter degrades
per name under injected faults, and its chunked store reads match one query
per name; a `key = value` file reads back exactly its declared keys."""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import itertools
import json
import marshal
import os
import random
import sqlite3
import sys
import tempfile
import unicodedata
from array import array
from collections import defaultdict
from contextlib import closing, redirect_stderr
from pathlib import Path
from unittest import mock
from urllib.parse import unquote

import pytest
import requests
from hypothesis import example, given, settings
from hypothesis import strategies as st

from namegender.analysis import assign_rate_types
from namegender.corpus import (
    DEFAULT_GENDER_ALIASES,
    DEFAULT_TITLES,
    EmptyCorpusError,
    FrequencyTable,
    GenderCounts,
    IngestReport,
    NameType,
    Rejection,
    TableParseError,
    _check_spelling,
    _spelling,
    ingest_labeled_csv,
    ingest_ssa_years,
    merge_tables,
    normalize_name,
    parse_kv_file,
    read_table_with_header,
    split_full_name,
    to_first_names,
    write_table,
)
from namegender.evaluation import (
    LabeledTestSet,
    MetricsReport,
    MetricValues,
    RateType,
    ReportRow,
    aggregate,
    score,
)
from namegender import inferrers, mle
from namegender.ensemble import TwoStageInferrer, majority_vote
from namegender.inferrers import (
    AdapterUnreachableError,
    ExternalAdapterConfig,
    HttpAdapter,
    MleInferrer,
    MockInferrer,
)
from namegender.mle import GenderLabel, MleModel, Prediction, load_model, save_model, train

from conftest import FakeResponse, FakeSession

# Raw names repeat with case and space variants, and include titles, digits,
# one-letter names and names without a vowel.
KNOWN_NAMES = st.sampled_from([
    "Anna", "anna", " ANNA ", "an na", "An  Na", "Mary Ann", "mary  ann", "Mr", "mr.", "Dr", "Jo", "JO",
    "J", "x", "b2b", "Li", "xyz", "Zoë", "ZOË", "Rev.", "",
])
RAW_NAMES = st.one_of(KNOWN_NAMES, KNOWN_NAMES, st.text("aAbyY .2é", max_size=6))
TAGS = st.sampled_from(["F", "M", "f", "m", " F ", "female", "MALE", "w", "Q", "", "x"])
COUNTS = st.sampled_from(["1", "3", "12", "0", "-2", "x", "", " 4", "2.5"])
ROWS = st.one_of(
    st.tuples(RAW_NAMES, TAGS, COUNTS),
    st.tuples(RAW_NAMES, TAGS, COUNTS),
    st.tuples(RAW_NAMES, TAGS),
    st.tuples(RAW_NAMES),
    st.tuples(RAW_NAMES, TAGS, COUNTS, COUNTS),
    st.just(()),
)
# Case and spacing variants of a name.
VARIANTS = st.sampled_from([str, str.upper, str.lower, lambda s: f" {s}\t", lambda s: s.replace(" ", "  ")])


@st.composite
def respelled_rows(draw, max_size):
    """Rows, with copies of some of them put back in at any place, their names
    respelled, so accepted and rejected names recur across rows."""
    rows = draw(st.lists(ROWS, max_size=max_size))
    named = [row for row in rows if row]
    for _ in range(draw(st.integers(0, len(named) and max_size // 2))):
        row = draw(st.sampled_from(named))
        tag = row[1:2] if len(row) < 2 or draw(st.booleans()) else (draw(TAGS),)  # some copies change the tag
        rows.insert(draw(st.integers(0, len(rows))), (draw(VARIANTS)(row[0]), *tag, *row[2:]))
    return rows


def _reference_ingest(rows, source):
    """Per-row accumulation that calls normalize_name for every row."""
    report = IngestReport(source)
    counts: dict[str, tuple[int, int]] = {}
    for line_no, where, row in rows:
        report.total_rows += 1
        if isinstance(row, str):
            report.malformed.append((line_no, where + row))
            continue
        raw_name, tag, raw_count = row
        try:
            count = 1 if raw_count is None else int(raw_count)
        except ValueError:
            report.malformed.append((line_no, f"{where}bad count {raw_count!r}"))
            continue
        if count < 1:
            report.malformed.append((line_no, f"{where}count {count} < 1"))
            continue
        gender = DEFAULT_GENDER_ALIASES.get(tag.strip().lower())
        if gender is None:
            report.unmappable_gender += 1
            continue
        name = normalize_name(raw_name)
        if isinstance(name, Rejection):
            report.rejections[name] += 1
            continue
        report.retained += 1
        female, male = counts.get(name, (0, 0))
        counts[name] = (female + count, male) if gender == "female" else (female, male + count)
    return {name: GenderCounts(*pair) for name, pair in counts.items()}, report


def _check_ingest(ingest, expected_counts, expected_report):
    if not expected_counts:
        with pytest.raises(EmptyCorpusError):
            ingest()
        return
    table, report = ingest()
    assert list(table.entries.items()) == list(expected_counts.items())  # names in the order rows first kept them
    assert report == expected_report


# What may follow a count: strip() removes each of these, and int() refuses "\x1c" to "\x1f".
COUNT_ENDS = st.sampled_from(["", "", "", " ", "\x1c", "\x1d", "\x1e", "\x1f", "\x85", "\u3000"])


@st.composite
def ssa_lines(draw, max_size):
    """The lines of one SSA year file: respelled rows, some with leading whitespace or a character after the
    count, and whitespace-only lines."""
    lines = [draw(st.sampled_from(["", "", "", " ", "\t"])) + ",".join(row) + draw(COUNT_ENDS)
             for row in draw(respelled_rows(max_size))]
    for _ in range(draw(st.integers(0, 2))):
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from([" ", "\t ", "\u3000"])))
    return lines


@settings(deadline=None)
@given(st.lists(ssa_lines(30), min_size=1, max_size=3))
# a (name, tag) pair repeated in one file; one raw name under both tags and an unmappable one; case and space
# variants across years; malformed lines between them
@example([
    ["Anna,F,3", "Anna,F", "Anna,F,2", "Anna,M,1", "Anna,F,x", "Anna,Q,4", "Anna,F,0", "Mr,M,2", "Mr,M,5"],
    [" ANNA ,F,5", "", "an na,F,1", "An  Na,F,-2", ",", "an na,M,2", "anna,F,1,1"],
])
# a repeated pair after leading whitespace, and with a count followed by what strip() removes
@example([["Anna,F,3", " Anna,F,1", "  ", "Anna,F,4\x1c", "Anna,F,2\x85", "Anna,F,1\u3000", "\tAnna,F,x"]])
def test_ssa_ingest_matches_per_row_reference(files):
    years = range(2000, 2001 + len(files))  # 2001 has no file
    rows = []
    with tempfile.TemporaryDirectory() as tmp:
        for year, lines in zip([2000, *years[2:]], files):
            (Path(tmp) / f"yob{year}.txt").write_text("".join(line + "\n" for line in lines), encoding="utf-8")
            for line_no, line in enumerate(lines, start=1):
                parts = line.strip().split(",")
                if parts != [""]:
                    rows.append((line_no, f"yob{year}.txt: ", tuple(parts) if len(parts) == 3 else "expected 3 fields"))
        counts, report = _reference_ingest(rows, "ssa2000-" + str(years[-1]))
        report.missing_years.append(2001)
        _check_ingest(lambda: ingest_ssa_years(tmp, years), counts, report)


@settings(deadline=None)
@given(respelled_rows(60), st.booleans())
def test_csv_ingest_matches_per_row_reference(lines, with_count):
    rows = []
    for line_no, fields in enumerate(lines, start=2):
        if not fields or (len(fields) == 1 and not fields[0].strip()):
            continue  # a blank line, or one whose only field is blank, is not a row
        if len(fields) < 2:
            rows.append((line_no, "", "row has too few fields"))
        else:
            raw_count = None if not with_count else fields[2] if len(fields) > 2 else ""
            rows.append((line_no, "", (fields[0], fields[1], raw_count)))
    counts, report = _reference_ingest(rows, "t")
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "t.csv"
        with path.open("w", newline="", encoding="utf-8") as fh:
            fh.write("name,gender,count\n")
            writer = csv.writer(fh, lineterminator="\n")
            for fields in lines:
                if fields:
                    writer.writerow(fields)
                else:
                    fh.write("\n")
        count_column = "count" if with_count else None
        _check_ingest(lambda: ingest_labeled_csv(path, "name", "gender", count_column), counts, report)


@given(st.lists(st.integers(1, 10_000), min_size=1, max_size=5), st.floats(-100.0, 100.0))
def test_aggregate_of_one_value_is_that_value(sizes, value):
    assert aggregate([(value, size) for size in sizes]) == value
    assert aggregate([(None, 3)] + [(value, size) for size in sizes]) == value


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
    groups = assign_rate_types(testset, preds)
    tally = {rate: len(names) for rate, names in groups.items()}
    assert counts.true_female == tally[RateType.TF]
    assert counts.false_female == tally[RateType.FF]
    assert counts.true_male == tally[RateType.TM]
    assert counts.false_male == tally[RateType.FM]
    assert counts.undecided_female + counts.undecided_male == testset.size - sum(tally.values())
    assert counts.total == testset.size
    # every rate type is a key, in enum order, and each group keeps test-set order
    assert list(groups) == list(RateType)
    position = {name: i for i, (name, _) in enumerate(testset.names)}
    for names in groups.values():
        assert [position[name] for name in names] == sorted(position[name] for name in names)


@given(st.lists(st.builds(lambda p, source: Prediction(p.label, p.p_female, source), predictions(), IDS),
                min_size=3, max_size=3), IDS)
def test_majority_vote_does_not_depend_on_the_order_of_the_voters(votes, source):
    outcomes = [majority_vote(list(order), source) for order in itertools.permutations(votes)]
    assert all(outcome == outcomes[0] for outcome in outcomes)


METRIC = st.one_of(st.none(), st.floats(-100.0, 100.0))


@st.composite
def report_rows(draw) -> ReportRow:
    inferrer_id, dataset_id, size = draw(IDS), draw(IDS), draw(st.integers(1, 500))
    if draw(st.booleans()):
        return ReportRow(inferrer_id, dataset_id, size, None)
    values = MetricValues(*(draw(METRIC) for _ in range(5)))
    return ReportRow(inferrer_id, dataset_id, size, values)


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
    assert [r[0] for r in records if r[1] == "ALL"] == list(dict.fromkeys(row.inferrer_id for row in rows))
    skipped = [r["dataset"] for r in report.to_records() if r["skipped"]]
    assert sorted(skipped) == sorted(row.dataset_id for row in rows if row.values is None)


# Model names with quotes, backslashes, non-ASCII and astral characters; the
# queries add their case and space variants, tabs and names the model lacks.
MODEL_NAMES = st.text('aAbé"\\ あ\U0001d518', min_size=1, max_size=4)
COUNT_PAIRS = st.tuples(st.integers(0, 4), st.integers(0, 4)).filter(lambda fm: sum(fm) > 0)


@st.composite
def models_and_queries(draw) -> tuple[dict[str, GenderCounts], float, list[str]]:
    entries = draw(st.dictionaries(MODEL_NAMES, COUNT_PAIRS.map(lambda fm: GenderCounts(*fm)), min_size=1, max_size=8))
    tau = draw(st.sampled_from([0.5, 0.6, 0.75, 0.9, 1.0]))
    base = st.one_of(st.sampled_from(sorted(entries)), st.text('aAbé"\\\t あ\U0001d518', max_size=4))
    queries = draw(st.lists(st.builds(lambda name, variant: variant(name), base, VARIANTS), min_size=1, max_size=40))
    return entries, tau, queries


def _reference_normalize_name(raw):
    """normalize_name as it was before its fast paths, kept verbatim."""
    name = " ".join(raw.split()).lower()
    if any(ch.isdigit() for ch in name):
        return Rejection.INVALID_CHARACTERS
    if sum(1 for ch in name if ch.isalpha()) < 2:
        return Rejection.TOO_SHORT
    if name.rstrip(".") in DEFAULT_TITLES:
        return Rejection.IS_TITLE
    folded = unicodedata.normalize("NFKD", name)
    if not any(ch in {"a", "e", "i", "o", "u"} for ch in folded):
        return Rejection.NO_VOWEL
    return name


# Letters that change length or category when lower-cased or folded (İ, ß, ǅ, ﬀ),
# combining marks, digits of several scripts, titles with dots and whitespace.
NORMALIZE_PARTS = st.sampled_from([
    "a", "E", "x", "Y", "bcd", "İ", "ß", "ǅ", "ﬀ", "Å", "é", "e\u0301", "\u0301", "\u0345", "ⓐ", "ᵃ", "あ", "Σ",
    "1", "٣", "²", "Ⅻ", ".", "..", "-", "'", " ", "  ", "\t", "\u3000", "\x85", "Mr", "mr.", "Dr.", "jr", "Prof.",
])
NORMALIZE_TEXT = st.one_of(
    st.text(max_size=8),
    st.lists(NORMALIZE_PARTS, max_size=6).map("".join),
    st.lists(st.one_of(NORMALIZE_PARTS, st.characters()), max_size=6).map("".join),
)


@settings(deadline=None, max_examples=500)
@given(NORMALIZE_TEXT)
def test_normalize_name_matches_the_reference(raw):
    assert normalize_name(raw) == _reference_normalize_name(raw)


@settings(deadline=None, max_examples=500)
@given(st.one_of(NORMALIZE_TEXT, st.text()))
def test_every_check_of_normalize_name_depends_only_on_the_spelling(raw):
    # ingestion sums rows under _spelling(raw) and checks each spelling once, without spelling it again
    spelling = _spelling(raw)
    assert _spelling(spelling) == spelling
    assert _check_spelling(spelling) == normalize_name(spelling) == normalize_name(raw)


@settings(deadline=None)
@given(models_and_queries())
def test_mle_batch_matches_per_name_classify(case):
    entries, tau, queries = case
    model = train(FrequencyTable(entries, NameType.FIRST, "t"), tau)
    for id in (None, "other", model.model_id, None):  # repeated calls must not see earlier ones
        inferrer = MleInferrer(model, id=id)
        source = model.model_id if id is None else id
        expected = []
        for name in queries:
            pred = model.classify(name)
            expected.append(Prediction(pred.label, pred.p_female, source))
        assert inferrer.infer_batch(queries) == expected


def _reference_read_table(path):
    """The table reader's earlier per-line loop: split, int() and build each row."""
    entries: dict[str, GenderCounts] = {}
    with path.open(encoding="utf-8") as fh:
        first = fh.readline()
        if not first.startswith("# "):
            raise TableParseError(path, 1, "missing header line")
        fields: dict[str, str] = {}
        for item in first[2:].rstrip("\n").split("\t"):
            key, sep, value = item.partition("=")
            if not sep:
                raise TableParseError(path, 1, f"bad header field {item!r}")
            fields[key] = value
        try:
            name_type = NameType(fields.pop("name_type"))
            source_id = fields.pop("source_id")
        except (KeyError, ValueError) as exc:
            raise TableParseError(path, 1, f"bad or missing header field: {exc}") from None
        for line_no, line in enumerate(fh, start=2):
            line = line.rstrip("\n")
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != 3:
                raise TableParseError(path, line_no, "expected name<TAB>female<TAB>male")
            name, raw_f, raw_m = parts
            try:
                female, male = int(raw_f), int(raw_m)
            except ValueError:
                raise TableParseError(path, line_no, "counts must be integers") from None
            if female < 0 or male < 0 or female + male < 1:
                raise TableParseError(path, line_no, f"bad counts ({female}, {male})")
            if name in entries:
                raise TableParseError(path, line_no, f"duplicate name {name!r}")
            entries[name] = GenderCounts(female, male)
    return FrequencyTable(entries, name_type, source_id), fields


def _outcome(read, path):
    try:
        table, fields = read(path)
    except TableParseError as exc:
        return exc.line_no, str(exc)
    return table.entries, table.name_type, table.source_id, fields


# Count texts that int() accepts in non-canonical form: signs, padding,
# leading zeros, digit separators and non-ASCII digits.
COUNT_FORMS = st.sampled_from([
    str, lambda n: f"+{n}", lambda n: f" {n}", lambda n: f"{n} ", lambda n: f"0{n}",
    lambda n: "_".join(str(n)), lambda n: str(n).translate(str.maketrans("0123456789", "٠١٢٣٤٥٦٧٨٩")),
])
COUNT_TEXTS = st.builds(lambda n, form: form(n), st.integers(0, 12), COUNT_FORMS)
TABLE_ROW_NAMES = st.text("ab é\x85\u2028あ", min_size=1, max_size=4)
BAD_COUNTS = st.sampled_from(["2", "1\t1\t1", "x\t1", "-1\t2", "0\t0", "1.0\t1", "", "1\t"])


@st.composite
def table_texts(draw) -> tuple[str, str]:
    """A table file's text: few distinct count pairs over many rows, and
    sometimes one bad line, which may reuse a good row's text or repeat later."""
    pairs = draw(st.lists(st.tuples(COUNT_TEXTS, COUNT_TEXTS).filter(lambda fm: int(fm[0]) + int(fm[1]) > 0),
                          min_size=1, max_size=4))
    names = draw(st.lists(TABLE_ROW_NAMES, min_size=1, max_size=30, unique=True))
    rows = draw(st.lists(st.sampled_from(pairs), min_size=len(names), max_size=len(names)))
    lines = [f"{name}\t{f}\t{m}" for name, (f, m) in zip(names, rows)]
    for _ in range(draw(st.integers(0, 3))):
        lines.insert(draw(st.integers(0, len(lines))), "")
    bad = draw(st.one_of(st.none(), BAD_COUNTS.map(lambda rest: f"zz\t{rest}"),
                         st.sampled_from([line for line in lines if line])))  # a duplicate name and count text
    if bad is not None:
        at = draw(st.integers(0, len(lines)))
        lines.insert(at, bad)
        if draw(st.booleans()):
            lines.insert(draw(st.integers(at + 1, len(lines))), "yy" + bad[bad.index("\t"):])
    header = draw(st.sampled_from(["# name_type=first\tsource_id=s", "# name_type=full\tsource_id=s\ttau=0.9"]))
    end = draw(st.sampled_from(["\n", "\n", ""]))  # the last line may lack its newline
    return "\n".join([header, *lines]) + end, draw(st.sampled_from(["\n", "\r\n"]))


@settings(deadline=None)
@given(table_texts())
@example(("# name_type=first\tsource_id=s\na\t0\t1\nb\t0\t+1\nc\t0\t1", "\n"))  # equal counts, spelled apart
def test_table_reader_matches_per_line_reference(case):
    text, newline = case
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "t.tsv"
        path.write_bytes(text.replace("\n", newline).encode("utf-8"))
        outcome = _outcome(read_table_with_header, path)
        assert outcome == _outcome(_reference_read_table, path)
    if isinstance(outcome[0], dict):  # names with equal counts share one object
        assert len(set(map(id, outcome[0].values()))) == len(set(outcome[0].values()))


# Pairs whose p(female) is exactly 0.5 or lands on tau or 1 - tau for some tau below.
TIE_PAIRS = st.sampled_from([(1, 1), (2, 2), (3, 1), (1, 3), (4, 1), (1, 4), (9, 1), (1, 9), (5, 0), (0, 5), (3, 2)])


@st.composite
def shared_count_models(draw) -> tuple[dict[str, GenderCounts], float, list[str]]:
    names = draw(st.lists(st.text("abé", min_size=1, max_size=4), min_size=1, max_size=12, unique=True))
    pairs = draw(st.lists(TIE_PAIRS, min_size=len(names), max_size=len(names)))
    shared = draw(st.booleans())  # as a file read shares them, or one object per name as train() gets them
    pool = {pair: GenderCounts(*pair) for pair in pairs}
    entries = {name: pool[pair] if shared else GenderCounts(*pair) for name, pair in zip(names, pairs)}
    tau = draw(st.sampled_from([0.5, 0.6, 0.75, 0.8, 0.9, 1.0]))
    queries = draw(st.lists(st.one_of(st.sampled_from(names), st.text("abéz", max_size=3)), min_size=1, max_size=40))
    return entries, tau, queries


@settings(deadline=None)
@given(shared_count_models())
def test_mle_batch_classifies_once_per_count_pair(case):
    entries, tau, queries = case
    model = train(FrequencyTable(entries, NameType.FIRST, "t"), tau)
    expected = [model.classify(name) for name in queries]
    answer, calls = MleModel.answer, []

    def counting(self, counts):
        calls.append(counts)
        return answer(self, counts)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(MleModel, "answer", counting)
        for id in (None, "other", None):
            calls.clear()
            source = model.model_id if id is None else id
            got = MleInferrer(model, id=id).infer_batch(queries)
            assert got == [Prediction(p.label, p.p_female, source) for p in expected]
            assert len(calls) == len({entries[name] for name in queries if name in entries})
        # one inferrer answers later batches from its memo, which holds at most one entry per model pair
        inferrer = MleInferrer(model)
        calls.clear()
        assert inferrer.infer_batch(queries) == inferrer.infer_batch(queries[::-1])[::-1] == expected
        assert len(calls) == len({entries[name] for name in queries if name in entries})
        assert len(inferrer._by_counts) <= len(set(entries.values()))


# p(female) of these pairs lands exactly on 0, 0.2, 0.25, 0.5, 0.75, 0.8 and 1, the endpoints of every band below
BAND_PAIRS = st.sampled_from([(0, 2), (1, 4), (1, 3), (2, 2), (3, 1), (4, 1), (2, 0), (3, 2)])
BANDS = st.sampled_from([(0.25, 0.75), (0.2, 0.8), (0.0, 0.5), (0.5, 1.0), (0.25, 0.5)])
FALLBACK_ENTRIES = st.sampled_from([(GenderLabel.FEMALE, 0.7), (GenderLabel.MALE, 0.2), (GenderLabel.AMBIGUOUS, 0.5),
                                    (GenderLabel.UNKNOWN, None)])


@settings(deadline=None)
@given(st.dictionaries(st.text("abé", min_size=1, max_size=3), BAND_PAIRS, min_size=1, max_size=10),
       st.dictionaries(st.text("abéz", min_size=1, max_size=3), FALLBACK_ENTRIES, max_size=10),
       BANDS, st.sampled_from([0.5, 0.75, 0.9]), st.data())
def test_two_stage_batch_matches_the_per_name_rule(pairs, fallback_entries, band, tau, data):
    model = train(FrequencyTable({n: GenderCounts(*fm) for n, fm in pairs.items()}, NameType.FIRST, "t"), tau)
    fallback = MockInferrer("fb", fallback_entries)
    names = st.sampled_from(sorted(pairs.keys() | fallback_entries.keys()))
    queries = data.draw(st.lists(st.one_of(names, st.text("abéz", max_size=3)), min_size=1, max_size=40))
    lo, hi = band
    expected = []
    for name in queries:
        fm = pairs.get(name)
        if fm is None or lo <= fm[0] / sum(fm) <= hi:
            pred = fallback.infer(name)
            expected.append(Prediction(pred.label, pred.p_female, f"stage2:{pred.source}"))
        else:
            pred = model.classify(name)
            expected.append(Prediction(pred.label, pred.p_female, f"stage1:{pred.source}"))
    inferrer = TwoStageInferrer(model, fallback, band)
    assert inferrer.infer_batch(queries) == inferrer.infer_batch(queries) == expected


# Small counts, so that many pairs share one p(female): 1/2 = 2/4 = 3/6, 0/n, n/0 and so on.
SMALL_PAIRS = st.tuples(st.integers(0, 6), st.integers(0, 6)).filter(lambda fm: sum(fm) > 0)


def _one_object_per_answer(predictions: list[Prediction]) -> bool:
    return len(set(map(id, predictions))) == len(set(predictions))


@settings(deadline=None)
@given(st.dictionaries(st.text("abé", min_size=1, max_size=3), SMALL_PAIRS, min_size=1, max_size=12),
       st.sampled_from([0.5, 0.6, 0.75, 0.9, 1.0]), st.data())
def test_equal_mle_answers_are_one_object(pairs, tau, data):
    model = train(FrequencyTable({n: GenderCounts(*fm) for n, fm in pairs.items()}, NameType.FIRST, "t"), tau)
    queries = data.draw(st.lists(st.one_of(st.sampled_from(sorted(pairs)), st.text("abéz", max_size=3)),
                                 min_size=1, max_size=40))
    for inferrer in (MleInferrer(model), MleInferrer(model, id="other")):
        # a later batch answers from the same objects as the first
        answers = inferrer.infer_batch(queries) + inferrer.infer_batch(queries[::-1])
        expected = [model.classify(name) for name in queries + queries[::-1]]
        assert answers == [p._replace(source=inferrer.id) for p in expected]
        assert _one_object_per_answer(answers)
    two_stage = TwoStageInferrer(model, MockInferrer("fb", {}), data.draw(BANDS))
    stage1 = [(name, p) for name, p in zip(queries, two_stage.infer_batch(queries)) if p.source.startswith("stage1:")]
    assert [p for _, p in stage1] == [model.classify(name)._replace(source="stage1:mle:t") for name, _ in stage1]
    assert _one_object_per_answer([p for _, p in stage1])


# --- table builders and files --------------------------------------------------

COUNT_PAIRS = st.tuples(st.integers(0, 30), st.integers(0, 30)).filter(lambda fm: sum(fm) > 0)
# Accepted names from arbitrary text: a vowel keeps most of it past the vowel rule.
ACCEPTED_NAMES = st.builds(
    lambda head, tail: normalize_name(head + "a" + tail),
    st.text(st.characters(blacklist_categories=("Cs", "Nd")), max_size=6), st.text("bé İßz ", max_size=4),
).filter(lambda name: isinstance(name, str))
HEADER_TEXT = st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\t\n\r"), max_size=8)


@st.composite
def tables(draw, names=ACCEPTED_NAMES, name_type=NameType.FIRST) -> FrequencyTable:
    """A table whose names share one GenderCounts per pair, or hold one each."""
    entries = draw(st.dictionaries(names, COUNT_PAIRS, max_size=12))
    pool = {pair: GenderCounts(*pair) for pair in entries.values()}
    shared = draw(st.booleans())
    source = draw(HEADER_TEXT)
    return FrequencyTable({n: pool[fm] if shared else GenderCounts(*fm) for n, fm in entries.items()}, name_type, source)


def _list_join_write_table(table, path, extra_header=None):
    """write_table as it was when it built every line and then the joined text."""
    path = Path(path)
    fields = {"name_type": table.name_type.value, "source_id": table.source_id}
    if extra_header:
        fields.update(extra_header)
    for key, value in fields.items():
        if "\t" in value or "\n" in value:
            raise ValueError(f"header field {key}={value!r} contains tab or newline")
    header = "# " + "\t".join(f"{k}={v}" for k, v in fields.items())
    lines = [header]
    for name in sorted(table.entries):
        gc = table.entries[name]
        lines.append(f"{name}\t{gc.female}\t{gc.male}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


@settings(deadline=None)
@given(tables(), st.dictionaries(HEADER_TEXT.filter(lambda k: "=" not in k and k not in ("name_type", "source_id")),
                                 HEADER_TEXT, max_size=3))
def test_table_file_round_trip_is_lossless(table, extra):
    with tempfile.TemporaryDirectory() as tmp:
        path, old = Path(tmp) / "t.tsv", Path(tmp) / "old.tsv"
        write_table(table, path, extra)
        _list_join_write_table(table, old, extra)
        assert path.read_bytes() == old.read_bytes()
        assert read_table_with_header(path) == (table, extra)


def _cache_entry(model_file: Path) -> Path:
    """Where load_model keeps the parse of model_file."""
    return Path(os.environ["XDG_CACHE_HOME"], "namegender", hashlib.sha256(model_file.read_bytes()).hexdigest())


def _counted_load(path: Path) -> tuple[MleModel, int]:
    """load_model(path), and how many times it parsed a table file."""
    with mock.patch.object(mle, "read_table_with_header", wraps=read_table_with_header) as parse:
        return load_model(path), parse.call_count


def _same_model(loaded: MleModel, expected: MleModel) -> bool:
    """Equal models with the same name order and one shared GenderCounts per distinct pair."""
    entries = loaded.table.entries
    return (loaded == expected and list(entries) == list(expected.table.entries)
            and len(set(map(id, entries.values()))) == len(set(entries.values())))


# A model file's table, tau, model_id and extra header fields. Its names are any text a table file can carry,
# which includes "", "\x85" and "\u2028".
MODEL_FILES = (
    tables(HEADER_TEXT).filter(lambda table: table.entries), st.floats(0.5, 1.0), st.one_of(st.none(), HEADER_TEXT),
    st.dictionaries(HEADER_TEXT.filter(lambda k: "=" not in k and k not in ("name_type", "source_id", "tau", "model_id")),
                    HEADER_TEXT, max_size=2),
)


def _write_model_file(path: Path, table: FrequencyTable, tau: float, model_id: str | None, extra: dict) -> None:
    write_table(table, path, {"tau": repr(tau), **({} if model_id is None else {"model_id": model_id}), **extra})


@settings(deadline=None)
@given(*MODEL_FILES)
def test_a_cached_model_load_equals_the_parse_it_kept(table, tau, model_id, extra):
    with tempfile.TemporaryDirectory() as tmp, mock.patch.dict(os.environ, XDG_CACHE_HOME=tmp):
        path = Path(tmp, "m.model.tsv")
        _write_model_file(path, table, tau, model_id, extra)
        parsed, expected_extras = read_table_with_header(path)
        expected = train(parsed, tau, model_id)
        first, parses = _counted_load(path)
        assert parses == 1 and _same_model(first, expected)
        (name_type, source_id, extras), *_ = marshal.loads(_cache_entry(path).read_bytes())
        assert (name_type, source_id, extras) == (table.name_type.value, table.source_id, expected_extras)
        second, parses = _counted_load(path)
        assert parses == 0 and _same_model(second, expected)


# Names a cached table's search must tell apart: two keys joined by "\n" match "\n"-joined names, and a
# key with a tab or line break added, or "", is near a key
@settings(deadline=None)
@given(*MODEL_FILES, st.lists(st.text(max_size=4), max_size=3))
def test_one_name_batches_on_a_cached_model_answer_as_the_parse_of_its_file(table, tau, model_id, extra, others):
    with tempfile.TemporaryDirectory() as tmp, mock.patch.dict(os.environ, XDG_CACHE_HOME=tmp):
        path = Path(tmp, "m.model.tsv")
        _write_model_file(path, table, tau, model_id, extra)
        parsed, parses = _counted_load(path)  # and keeps the entry
        assert parses == 1
        expected, keys = MleInferrer(parsed), list(parsed.table.entries)
        names = [*keys, "\n".join(keys[:2]), "\n".join(keys[-2:]), "", "\n", "\t", "\r", f"{keys[0]}\t", f"\r{keys[-1]}",
                 f"{keys[0]}\n", f"\n{keys[-1]}", *others]
        for start in range(0, len(names), mle._SEARCHES):  # a new load per _SEARCHES names, so each name is searched
            cached, parses = _counted_load(path)
            inferrer = MleInferrer(cached)
            for name in names[start : start + mle._SEARCHES]:
                assert inferrer.infer_batch([name]) == expected.infer_batch([name]), name
            assert parses == 0 and "entries" not in vars(cached.table)


@pytest.fixture
def cache_home(tmp_path, monkeypatch) -> Path:
    """A cache directory of the test's own, so the test sees every entry in it."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    return tmp_path / "cache"


def _saved_model(path: Path, female: int = 95) -> MleModel:
    model = train(FrequencyTable({"ana": GenderCounts(female, 5), "bo": GenderCounts(1, 9), "cy": GenderCounts(1, 9)},
                                 NameType.FIRST, "t"), 0.8)
    save_model(model, path)
    return model


# An entry is ((name_type, source_id, extras), "\n"-joined names, array("I") bytes indexing pairs, pairs).
_HEADER = ("first", "t", {"tau": "0.8"})


@pytest.mark.parametrize("damage", [
    lambda good: good[: len(good) // 2],
    lambda good: b"",
    lambda good: random.Random(0).randbytes(len(good)),
    lambda good: marshal.dumps([1, 2, 3]),
    lambda good: marshal.dumps(("a", "b", "c", "d")),
    lambda good: marshal.dumps((_HEADER, "ana\nbo\ncy", b"\0\0\0\0\1\0\0\0\7\0\0\0", [(95, 5), (1, 9)])),
    lambda good: marshal.dumps((_HEADER, "ana\nbo", b"\0\0\0\0\1\0\0\0\1\0\0\0", [(95, 5), (1, 9)])),
    lambda good: marshal.dumps((_HEADER, "ana\nbo\ncy", b"\0\0\0\0\1\0\0", [(95, 5), (1, 9)])),
    lambda good: marshal.dumps((("second", "t", {}), "ana\nbo\ncy", b"\0" * 12, [(95, 5)])),
], ids=["truncated", "empty", "random-bytes", "list", "four-strings", "index-past-pairs", "fewer-names",
        "ragged-index", "bad-name-type"])
def test_an_unusable_cache_entry_is_parsed_again_and_rewritten(tmp_path, cache_home, damage):
    path = tmp_path / "m.model.tsv"
    model = _saved_model(path)
    assert _same_model(_counted_load(path)[0], model)
    entry = _cache_entry(path)
    good = entry.read_bytes()
    assert marshal.loads(good)[0] == _HEADER
    entry.write_bytes(damage(good))
    loaded, parses = _counted_load(path)
    assert parses == 1 and _same_model(loaded, model)
    assert entry.read_bytes() == good
    assert sorted(entry.parent.iterdir()) == [entry]  # no temporary file is left behind


@pytest.mark.parametrize("blocked", ["file-in-the-way", "read-only"])
def test_a_cache_directory_that_cannot_be_written_costs_one_digest_and_leaves_loads_working(tmp_path, cache_home, blocked):
    path = tmp_path / "m.model.tsv"
    model = _saved_model(path)
    with contextlib.ExitStack() as stack:
        if blocked == "file-in-the-way":  # mkdir fails even as root
            cache_home.write_text("not a directory\n", encoding="utf-8")
        else:  # root may write anywhere, so the directory's refusal is simulated
            stack.enter_context(mock.patch.object(os, "access", return_value=False))
        digests = stack.enter_context(mock.patch.object(mle, "file_sha256", wraps=mle.file_sha256))
        for loads in (1, 2):
            assert _counted_load(path) == (model, 1)
            assert digests.call_count == loads
    assert not any(cache_home.glob("namegender/*"))


def test_a_failed_cache_store_leaves_no_temporary_file(tmp_path, cache_home):
    path = tmp_path / "m.model.tsv"
    model = _saved_model(path)
    entry = _cache_entry(path)
    entry.mkdir(parents=True)  # neither read as an entry nor replaced by one
    for _ in range(2):
        assert _counted_load(path) == (model, 1)
    assert sorted(entry.parent.iterdir()) == [entry]


def test_a_relative_xdg_cache_home_is_ignored_for_the_home_cache(tmp_path, monkeypatch):
    work, home = tmp_path / "work", tmp_path / "home"
    work.mkdir()
    monkeypatch.chdir(work)
    monkeypatch.setenv("HOME", str(home))
    monkeypatch.setenv("XDG_CACHE_HOME", "relcache")
    path = tmp_path / "m.model.tsv"
    model = _saved_model(path)
    assert _counted_load(path) == (model, 1)
    assert _counted_load(path) == (model, 0)
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    assert [p for p in home.rglob("*") if p.is_file()] == [home / ".cache" / "namegender" / digest]
    assert list(work.iterdir()) == []


def test_the_cache_entry_layout_is_pinned_and_an_entry_in_it_is_a_hit(tmp_path, cache_home):
    path = tmp_path / "m.model.tsv"
    model = _saved_model(path)
    assert _counted_load(path) == (model, 1)
    pairs = [(95, 5), (1, 9)]
    assert _cache_entry(path).read_bytes() == marshal.dumps((_HEADER, "ana\nbo\ncy", array("I", [0, 1, 1]).tobytes(), pairs), 2)
    _cache_entry(path).write_bytes(marshal.dumps((_HEADER, "cy\nana\nbo", array("I", [1, 0, 1]).tobytes(), pairs), 2))
    assert _counted_load(path) == (model, 0)


def test_an_entry_whose_names_are_not_one_text_is_parsed_again_and_rewritten(tmp_path, cache_home):
    path = tmp_path / "m.model.tsv"
    model = _saved_model(path)
    load_model(path)
    good = _cache_entry(path).read_bytes()
    _cache_entry(path).write_bytes(marshal.dumps((_HEADER, ["ana", "\n", "\n"], array("I", [0, 1, 1]).tobytes(), [(95, 5), (1, 9)])))
    assert _counted_load(path) == (model, 1) and _cache_entry(path).read_bytes() == good


@pytest.fixture
def entries_builds(monkeypatch) -> list[str]:
    """One item per time a cached table builds its entries dict."""
    builds: list[str] = []
    build = mle._CachedTable.__getattr__
    monkeypatch.setattr(mle._CachedTable, "__getattr__", lambda table, attr: builds.append(attr) or build(table, attr))
    return builds


def test_a_cached_table_searches_at_most_its_limit_over_its_life_then_builds_its_dict_once(tmp_path, cache_home,
                                                                                            entries_builds):
    path = tmp_path / "m.model.tsv"
    expected = MleInferrer(_saved_model(path))
    assert _counted_load(path)[1] == 1
    inferrer = MleInferrer(load_model(path))
    for batch, name in enumerate(["ana", "zed", "bo", "", "cy", "ana\nbo"] * 3):
        assert inferrer.infer_batch([name]) == expected.infer_batch([name])
        assert entries_builds == ([] if batch < mle._SEARCHES else ["entries"])
    assert inferrer.model.table.entries == expected.model.table.entries and entries_builds == ["entries"]


def test_a_first_batch_above_the_search_limit_builds_the_cached_dict_at_once(tmp_path, cache_home, entries_builds):
    path = tmp_path / "m.model.tsv"
    expected = MleInferrer(_saved_model(path))
    load_model(path)
    names = ["ana", "zed", "bo", "cy"] * mle._SEARCHES
    inferrer = MleInferrer(load_model(path))
    assert inferrer.infer_batch(names[: mle._SEARCHES + 1]) == expected.infer_batch(names[: mle._SEARCHES + 1])
    assert entries_builds == ["entries"]
    assert inferrer.infer_batch(names) == expected.infer_batch(names) and entries_builds == ["entries"]


def test_a_two_stage_inferrer_over_a_cached_model_answers_as_over_the_parse(tmp_path, cache_home, entries_builds):
    path = tmp_path / "m.model.tsv"
    parsed = _saved_model(path)
    load_model(path)
    fallback = MockInferrer("mock", {"zed": (GenderLabel.MALE, 0.2), "bo": (GenderLabel.FEMALE, 1.0)})
    cached, expected = (TwoStageInferrer(model, fallback, (0.05, 0.5)) for model in (load_model(path), parsed))
    batches = [["ana", "zed"], ["bo", "zed", "cy"], ["ana"], ["cy", "zed", "bo", "xy"], ["zed"]] * 2
    assert [cached.infer_batch(names) for names in batches] == [expected.infer_batch(names) for names in batches]
    assert entries_builds == ["entries"]


def test_a_model_rewritten_in_place_is_never_answered_from_the_old_entry(tmp_path, cache_home):
    path = tmp_path / "m.model.tsv"
    old = _saved_model(path)
    assert _counted_load(path) == (old, 1)
    new = _saved_model(path, female=1)
    assert _counted_load(path) == (new, 1)
    assert load_model(path).classify("ana").label is GenderLabel.MALE
    assert len(list((cache_home / "namegender").iterdir())) == 2


def test_a_model_file_rewritten_during_its_parse_is_not_cached(tmp_path, cache_home):
    path = tmp_path / "m.model.tsv"
    old = _saved_model(path)

    def parse_then_rewrite(model_file):
        parsed = read_table_with_header(model_file)
        _saved_model(path, female=1)
        return parsed

    with mock.patch.object(mle, "read_table_with_header", parse_then_rewrite):
        assert load_model(path) == old
    assert list(cache_home.rglob("*")) == [cache_home / "namegender"]  # no entry under either digest


@pytest.mark.parametrize("text, error", [
    ("# name_type=first\tsource_id=t\ttau=1.5\nana\t3\t1\n", "1: tau 1.5 outside [0.5, 1.0]"),
    ("# name_type=first\tsource_id=t\ttau=nan\nana\t3\t1\n", "1: tau nan outside [0.5, 1.0]"),
    ("# name_type=first\tsource_id=t\ttau=0.9\n", "1: cannot train on an empty table"),
    ("# name_type=first\tsource_id=t\nana\t3\t1\n", "1: model file lacks tau header field"),
    ("# name_type=first\tsource_id=t\ttau=x\nana\t3\t1\n", "1: could not convert string to float: 'x'"),
    ("# name_type=first\tsource_id=t\ttau=0.9\nana\t3\t1\nana\t1\t1\n", "3: duplicate name 'ana'"),
])
def test_a_refused_model_file_is_named_in_the_error_and_writes_no_cache_entry(tmp_path, cache_home, text, error):
    path = tmp_path / "m.model.tsv"
    path.write_text(text, encoding="utf-8")
    for _ in range(2):
        with pytest.raises(TableParseError) as refused:
            load_model(path)
        assert str(refused.value) == f"{path}:{error}"
    assert not cache_home.exists()


@settings(deadline=None)
@given(st.lists(tables(st.text("abé", min_size=1, max_size=3)), min_size=1, max_size=4), st.data())
def test_merge_is_order_independent(parts, data):
    merged = merge_tables(parts).entries
    for permuted in (data.draw(st.permutations(parts)), parts[::-1]):
        assert merge_tables(permuted).entries == merged
    assert len(set(map(id, merged.values()))) == len(set(merged.values()))


def _old_sum_counts(triples):
    counts = defaultdict(lambda: [0, 0])
    for name, female, male in triples:
        slot = counts[name]
        slot[0] += female
        slot[1] += male
    return {name: GenderCounts(f, m) for name, (f, m) in counts.items()}


def _list_building_to_first_names(table):
    """to_first_names as it was when it built three lists with one item per full name."""
    if table.name_type is NameType.FIRST:
        return table
    firsts = [(split_full_name(full)[0], gc) for full, gc in table.entries.items()]
    cleaned = {first: normalize_name(first) for first in dict.fromkeys(first for first, _ in firsts)}
    kept = [(cleaned[first], gc.female, gc.male) for first, gc in firsts if not isinstance(cleaned[first], Rejection)]
    if len(kept) < len(firsts):
        print(f"INFO to_first_names: dropped {len(firsts) - len(kept)} first tokens failing cleaning", file=sys.stderr)
    return FrequencyTable(_old_sum_counts(kept), NameType.FIRST, table.source_id)


# Full names whose first token may be a title, one letter, a digit or a case variant of another.
FULL_NAMES = st.lists(st.sampled_from(["Ana", "ana", "ANA", "bo", "a", "Mr", "dr.", "x2", "zoë", "xyz", "li"]),
                      min_size=1, max_size=3).map(" ".join)


@settings(deadline=None)
@given(tables(st.one_of(FULL_NAMES, st.text("ab. Z", max_size=5).filter(lambda full: full.split())), NameType.FULL))
def test_to_first_names_matches_the_list_building_version(full):
    def run(fold):
        with redirect_stderr(io.StringIO()) as stderr:
            table = fold(full)
        return list(table.entries.items()), table.name_type, table.source_id, stderr.getvalue()

    assert run(to_first_names) == run(_list_building_to_first_names)


# Every error requests defines, by name.
REQUEST_ERRORS = {error.__name__: error for error in vars(requests.exceptions).values()
                  if isinstance(error, type) and issubclass(error, requests.RequestException)}
# What the fake endpoint does with one request: raise a requests error, answer an error status, or answer 200,
# where "bad" does not parse and "odd" does not map.
OUTCOMES = st.one_of(st.sampled_from(sorted(REQUEST_ERRORS)), st.sampled_from(["503", "429", "404", "bad", "odd", "ok"]))
TRANSPORT_FAILURES = set(REQUEST_ERRORS)
REFUSALS = {name for name, error in REQUEST_ERRORS.items() if issubclass(error, requests.ConnectionError)}
RETRIED = TRANSPORT_FAILURES | {"503", "429"}
# Each name's good response and the prediction it maps to.
GOOD = {
    "anna": ("female", Prediction(GenderLabel.FEMALE, 1.0, "svc")),
    "bo": ("male", Prediction(GenderLabel.MALE, 0.0, "svc")),
    "cleo": ("andy", Prediction(GenderLabel.AMBIGUOUS, 0.5, "svc")),
    "dan": ("unknown", Prediction(GenderLabel.UNKNOWN, None, "svc")),
}


def _good_text(name: str) -> str:
    return json.dumps({"gender": GOOD[name][0]})


class ScriptedSession:
    """Answers the k-th request for a name with the k-th outcome of its script (the last one once it runs out)."""

    def __init__(self, scripts: dict[str, list[str]]) -> None:
        self.scripts = scripts
        self.calls: list[tuple[str, str]] = []

    def get(self, url, timeout=None):
        name = url.rsplit("=", 1)[1]
        script = self.scripts.get(name, ["ok"])
        outcome = script[min(sum(asked == name for asked, _ in self.calls), len(script) - 1)]
        self.calls.append((name, outcome))
        if outcome in REQUEST_ERRORS:
            error = REQUEST_ERRORS[outcome]
            raise error(outcome, "", 0) if issubclass(error, json.JSONDecodeError) else error(outcome)
        if outcome in ("503", "429", "404"):
            return FakeResponse(int(outcome))
        return FakeResponse(200, {"bad": "<html>", "odd": '{"gender": "nonbinary"}'}.get(outcome) or _good_text(name))


def _gave_up_unreached(calls: list[tuple[str, str]], max_attempts: int) -> bool:
    """Whether, in call order, a name failed every attempt in transport, the last one with a requests
    ConnectionError, before any request got an HTTP response."""
    for _, group in itertools.groupby(calls, key=lambda call: call[0]):
        outcomes = [outcome for _, outcome in group]
        if not set(outcomes) <= TRANSPORT_FAILURES:
            return False
        if len(outcomes) == max_attempts and outcomes[-1] in REFUSALS:
            return True
    return False


@settings(deadline=None, max_examples=300)
@given(
    st.lists(st.sampled_from(sorted(GOOD)), min_size=1, max_size=8),
    st.fixed_dictionaries({name: st.lists(OUTCOMES, min_size=1, max_size=3) for name in GOOD}),
    st.integers(1, 3),
)
# an error status, then a name whose every attempt is refused: the endpoint was reached, so that name degrades
@example(["anna", "bo"], {"anna": ["404"], "bo": ["ConnectionError"], "cleo": ["ok"], "dan": ["ok"]}, 2)
@example(["anna", "bo"], {"anna": ["503"], "bo": ["ConnectionError"], "cleo": ["ok"], "dan": ["ok"]}, 2)
# a connection broken mid-body is retried, then degrades that name only
@example(["anna", "bo"], {"anna": ["ChunkedEncodingError"], "bo": ["ok"], "cleo": ["ok"], "dan": ["ok"]}, 2)
def test_http_adapter_degrades_per_name_and_stores_only_what_maps(names, scripts, max_attempts):
    with tempfile.TemporaryDirectory() as tmp:
        config = ExternalAdapterConfig(id="svc", endpoint="https://svc.example/v1?name={name}", rate_limit=10_000.0,
                                       max_attempts=max_attempts, backoff=0.0, cache_dir=tmp)
        session = ScriptedSession(scripts)
        try:
            preds = HttpAdapter(config, session=session).infer_batch(names)
        except AdapterUnreachableError:
            preds = None
        # unreachable only when no request has yet received any HTTP response, and then always
        assert (preds is None) == _gave_up_unreached(session.calls, max_attempts)
        # at most max_attempts fetches per distinct name; only a transport failure, a 5xx or a 429 is retried
        tries = defaultdict(list)
        for name, outcome in session.calls:
            tries[name].append(outcome)
        for outcomes in tries.values():
            assert len(outcomes) <= max_attempts and set(outcomes[:-1]) <= RETRIED
            assert len(outcomes) == max_attempts or outcomes[-1] not in RETRIED
        last = dict(session.calls)
        answered = {name: _good_text(name) for name, outcome in last.items() if outcome == "ok"}
        with closing(sqlite3.connect(Path(tmp) / "svc.sqlite")) as db:
            stored = dict(db.execute("SELECT name, text FROM responses"))
        assert stored.items() <= answered.items()
        if preds is not None:
            unknown = Prediction(GenderLabel.UNKNOWN, None, "svc")
            assert preds == [GOOD[name][1] if last[name] == "ok" else unknown for name in names]
            assert stored == answered
        # a healthy second batch fetches exactly the names that were not stored, once each
        healthy = ScriptedSession({})
        assert HttpAdapter(config, session=healthy).infer_batch(names) == [GOOD[name][1] for name in names]
        assert sorted(name for name, _ in healthy.calls) == sorted(set(names) - set(stored))


class _PerNameStoreAdapter(HttpAdapter):
    """HttpAdapter as it was when it read its store with one query per distinct name."""

    def _infer_chunk(self, names):
        credential = self._credential()
        with closing(self._open_store()) as db:
            answers = {}
            for name in dict.fromkeys(names):
                row = db.execute("SELECT text FROM responses WHERE name = ?", (name,)).fetchone()
                answers[name] = self._parse(name, row[0] if row else None)
            misses = [name for name, answer in answers.items() if answer is None]
            for start in range(0, len(misses), inferrers._STORE_CHUNK):
                mapped = []
                for name in misses[start : start + inferrers._STORE_CHUNK]:
                    text = self._fetch(name, credential)
                    answers[name] = self._parse(name, text)
                    if answers[name] is not None:
                        mapped.append((name, text))
                with db:
                    db.executemany("INSERT OR REPLACE INTO responses VALUES (?, ?)", mapped)
        unknown = Prediction(GenderLabel.UNKNOWN, None, self.id)
        return [answers[name] or unknown for name in names]


STORE_NAMES = st.sampled_from(["anna", "bo", "cleo", "dan", "eve", "o'neil", "zoë", "x y"])
# A stored or served response: three that map, one that does not parse and one that does not map.
RESPONSES = st.sampled_from(['{"gender": "female"}', '{"gender": "andy"}', '{"gender": "unknown"}', "<html>",
                             '{"gender": "nonbinary"}'])


@settings(deadline=None)
@given(st.lists(STORE_NAMES, min_size=1, max_size=12), st.dictionaries(STORE_NAMES, RESPONSES),
       st.dictionaries(STORE_NAMES, RESPONSES))
def test_http_adapter_reads_its_store_in_chunks_as_it_read_it_per_name(names, stored, served):
    """Names the store holds (mapped or not) or lacks, repeated in a batch and read two per query, give the
    predictions, requests, stored rows and warnings of one query per name."""

    def serve(url):
        text = served.get(unquote(url.rsplit("=", 1)[1]))
        return FakeResponse(404) if text is None else FakeResponse(200, text)

    def run(adapter_class):
        with tempfile.TemporaryDirectory() as tmp:
            with closing(sqlite3.connect(Path(tmp) / "svc.sqlite")) as db, db:
                db.execute("CREATE TABLE responses (name TEXT PRIMARY KEY, text TEXT NOT NULL)")
                db.executemany("INSERT INTO responses VALUES (?, ?)", stored.items())
            config = ExternalAdapterConfig(id="svc", endpoint="https://svc.example/v1?name={name}", rate_limit=1e6,
                                           max_attempts=1, cache_dir=tmp)
            session = FakeSession(serve)
            with redirect_stderr(io.StringIO()) as stderr, mock.patch.object(inferrers, "_STORE_CHUNK", 2):
                preds = adapter_class(config, session=session).infer_batch(names)
            with closing(sqlite3.connect(Path(tmp) / "svc.sqlite")) as db:
                rows = sorted(db.execute("SELECT name, text FROM responses"))
        return preds, [url for _, url in session.calls], rows, stderr.getvalue()

    assert run(HttpAdapter) == run(_PerNameStoreAdapter)


# A key holds no "=" or space and does not start with "#"; a value may hold "=", "#", inner spaces, and
# characters other than "\n" at which str.splitlines would end a line.
KV_KEYS = st.text("ab_.-#", min_size=1, max_size=4).filter(lambda key: not key.startswith("#"))
KV_VALUES = st.one_of(st.builds(lambda text: (str, text.strip()), st.text("ab =#.\x0c\x1e\x85\u2028", max_size=6)),
                      st.builds(lambda n: (int, str(n)), st.integers(-99, 99)))
KV_PADS = st.sampled_from(["", " ", "  ", "\t"])


@settings(deadline=None)
@given(st.dictionaries(KV_KEYS, KV_VALUES, max_size=6), st.dictionaries(KV_KEYS, st.just(float), max_size=2), st.data())
def test_parse_kv_file_reads_back_its_declared_keys_and_refuses_any_other(written, unused, data):
    keys = {**unused, **{key: parse for key, (parse, _) in written.items()}}

    def pad() -> str:
        return data.draw(KV_PADS)

    lines = [f"{pad()}{key}{pad()}={pad()}{text}{pad()}" for key, (_, text) in written.items()]
    lines = data.draw(st.permutations(lines))
    for extra in data.draw(st.lists(st.sampled_from(["", "   ", "# a = b", "  #c", "#"]), max_size=4)):
        lines.insert(data.draw(st.integers(0, len(lines))), extra)
    newline = data.draw(st.sampled_from(["\n", "\r\n"]))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "c.conf"
        path.write_text(newline.join(lines) + newline, encoding="utf-8")
        assert parse_kv_file(path, keys) == {key: parse(text) for key, (parse, text) in written.items()}
        stray = data.draw(KV_KEYS.filter(lambda key: key not in keys))
        at = data.draw(st.integers(0, len(lines)))
        path.write_text(newline.join([*lines[:at], f"{pad()}{stray}{pad()}={pad()}1", *lines[at:]]) + newline,
                        encoding="utf-8")
        with pytest.raises(ValueError) as error:
            parse_kv_file(path, keys)
        assert str(error.value) == f"{path}:{at + 1}: unknown config key {stray!r}"
