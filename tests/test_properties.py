"""Property tests: ingestion and batch inference match per-row and per-name
references; scoring, error analysis and report rendering agree; table files,
merges and full-to-first-name folds match the list-building code they
replaced; the HTTP adapter degrades per name under injected faults."""

from __future__ import annotations

import csv
import itertools
import json
import logging
import sqlite3
import tempfile
import unicodedata
from collections import Counter, defaultdict
from contextlib import closing
from pathlib import Path

import pytest
import requests
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from namegender.analysis import assign_rate_types
from namegender.corpus import (
    DEFAULT_GENDER_ALIASES,
    DEFAULT_TITLES,
    CsvSchema,
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
    read_table_with_header,
    split_full_name,
    to_first_names,
    write_table,
)
from namegender.evaluation import (
    ConfusionCounts,
    LabeledTestSet,
    MetricsReport,
    MetricValues,
    RateType,
    ReportRow,
    aggregate,
    score,
)
from namegender.ensemble import TwoStageConfig, TwoStageInferrer, majority_vote
from namegender.inferrers import AdapterUnreachableError, ExternalAdapterConfig, HttpAdapter, MleInferrer, MockInferrer
from namegender.mle import GenderLabel, MleModel, Prediction, train

from conftest import FakeResponse

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


@settings(deadline=None)
@given(st.lists(respelled_rows(30), min_size=1, max_size=3))
# a (name, tag) pair repeated in one file; one raw name under both tags and an unmappable one; case and space
# variants across years; malformed lines between them
@example([
    [("Anna", "F", "3"), ("Anna", "F"), ("Anna", "F", "2"), ("Anna", "M", "1"), ("Anna", "F", "x"), ("Anna", "Q", "4"),
     ("Anna", "F", "0"), ("Mr", "M", "2"), ("Mr", "M", "5")],
    [(" ANNA ", "F", "5"), (), ("an na", "F", "1"), ("An  Na", "F", "-2"), ("", ""), ("an na", "M", "2"),
     ("anna", "F", "1", "1")],
])
def test_ssa_ingest_matches_per_row_reference(files):
    years = range(2000, 2001 + len(files))  # 2001 has no file
    rows = []
    with tempfile.TemporaryDirectory() as tmp:
        for year, lines in zip([2000, *years[2:]], files):
            text = "".join(",".join(fields) + "\n" for fields in lines)
            (Path(tmp) / f"yob{year}.txt").write_text(text, encoding="utf-8")
            for line_no, line in enumerate(text.splitlines(), start=1):
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
        schema = CsvSchema("name", "gender", "count" if with_count else None)
        _check_ingest(lambda: ingest_labeled_csv(path, schema), counts, report)


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
    rated = assign_rate_types(testset, preds)
    tally = Counter(rate for _, rate in rated)
    assert counts.true_female == tally[RateType.TF]
    assert counts.false_female == tally[RateType.FF]
    assert counts.true_male == tally[RateType.TM]
    assert counts.false_male == tally[RateType.FM]
    assert counts.undecided_female + counts.undecided_male == testset.size - len(rated)
    assert counts.total == testset.size


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
    return "\n".join([header, *lines]) + "\n", draw(st.sampled_from(["\n", "\r\n"]))


@settings(deadline=None)
@given(table_texts())
def test_table_reader_matches_per_line_reference(case):
    text, newline = case
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "t.tsv"
        path.write_bytes(text.replace("\n", newline).encode("utf-8"))
        assert _outcome(read_table_with_header, path) == _outcome(_reference_read_table, path)


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
    classify, calls = MleModel.classify, []

    def counting(self, name):
        calls.append(name)
        return classify(self, name)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(MleModel, "classify", counting)
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
    inferrer = TwoStageInferrer(TwoStageConfig(model, fallback, band))
    assert inferrer.infer_batch(queries) == inferrer.infer_batch(queries) == expected


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
        logging.getLogger("namegender.corpus").info(
            "to_first_names: dropped %d first tokens failing cleaning", len(firsts) - len(kept))
    return FrequencyTable(_old_sum_counts(kept), NameType.FIRST, table.source_id)


# Full names whose first token may be a title, one letter, a digit or a case variant of another.
FULL_NAMES = st.lists(st.sampled_from(["Ana", "ana", "ANA", "bo", "a", "Mr", "dr.", "x2", "zoë", "xyz", "li"]),
                      min_size=1, max_size=3).map(" ".join)


@settings(deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(tables(st.one_of(FULL_NAMES, st.text("ab. Z", max_size=5).filter(lambda full: full.split())), NameType.FULL))
def test_to_first_names_matches_the_list_building_version(caplog, full):
    def run(fold):
        caplog.clear()
        with caplog.at_level(logging.INFO, logger="namegender.corpus"):
            table = fold(full)
        return list(table.entries.items()), table.name_type, table.source_id, caplog.messages

    assert run(to_first_names) == run(_list_building_to_first_names)


# What the fake endpoint does with one request: "bad" is a 200 that does not parse, "odd" one that does not map.
OUTCOMES = st.sampled_from(["refused", "timeout", "503", "429", "404", "bad", "odd", "ok"])
TRANSPORT_FAILURES = {"refused", "timeout"}
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
        if outcome == "refused":
            raise requests.ConnectionError("refused")
        if outcome == "timeout":
            raise requests.Timeout("timed out")
        if outcome in ("503", "429", "404"):
            return FakeResponse(int(outcome))
        return FakeResponse(200, {"bad": "<html>", "odd": '{"gender": "nonbinary"}'}.get(outcome) or _good_text(name))


def _gave_up_unreached(calls: list[tuple[str, str]], max_attempts: int) -> bool:
    """Whether, in call order, a name failed every attempt in transport, the last one refused, before any
    request got an HTTP response."""
    for _, group in itertools.groupby(calls, key=lambda call: call[0]):
        outcomes = [outcome for _, outcome in group]
        if not set(outcomes) <= TRANSPORT_FAILURES:
            return False
        if len(outcomes) == max_attempts and outcomes[-1] == "refused":
            return True
    return False


@settings(deadline=None, max_examples=300)
@given(
    st.lists(st.sampled_from(sorted(GOOD)), min_size=1, max_size=8),
    st.fixed_dictionaries({name: st.lists(OUTCOMES, min_size=1, max_size=3) for name in GOOD}),
    st.integers(1, 3),
)
# an error status, then a name whose every attempt is refused: the endpoint was reached, so that name degrades
@example(["anna", "bo"], {"anna": ["404"], "bo": ["refused"], "cleo": ["ok"], "dan": ["ok"]}, 2)
@example(["anna", "bo"], {"anna": ["503"], "bo": ["refused"], "cleo": ["ok"], "dan": ["ok"]}, 2)
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
