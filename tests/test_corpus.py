from __future__ import annotations

import re
import tracemalloc
from collections import Counter
from itertools import product

import pytest

from namegender.corpus import (
    CsvSchema,
    EmptyCorpusError,
    FrequencyTable,
    GenderCounts,
    NameType,
    Rejection,
    TableParseError,
    ambiguity_histogram,
    cross_dataset_uniqueness,
    dataset_stats,
    ingest_labeled_csv,
    ingest_ssa_years,
    merge_tables,
    normalize_name,
    pairwise_overlap,
    read_table,
    read_table_with_header,
    split_full_name,
    to_first_names,
    write_table,
)

from conftest import random_name, random_table


def table_of(entries: dict[str, tuple[int, int]], source_id: str = "t") -> FrequencyTable:
    return FrequencyTable(
        {name: GenderCounts(f, m) for name, (f, m) in entries.items()},
        NameType.FIRST,
        source_id,
    )


def recount_oracle(tables) -> dict[str, tuple[int, int]]:
    """Independent merge oracle: expand every table into labeled records,
    concatenate, and count from scratch."""
    records = []
    for table in tables:
        for name, gc in table.entries.items():
            records.extend([(name, "f")] * gc.female)
            records.extend([(name, "m")] * gc.male)
    counted = Counter(records)
    names = {name for name, _ in counted}
    return {n: (counted[(n, "f")], counted[(n, "m")]) for n in names}


def one_object_per_pair(table: FrequencyTable) -> bool:
    """Whether names with equal counts share one GenderCounts object."""
    return len(set(map(id, table.entries.values()))) == len(set(table.entries.values()))


# --- normalize_name -----------------------------------------------------------


def test_single_letter_rejected():
    assert normalize_name("A") is Rejection.TOO_SHORT


def test_vowelless_rejected():
    assert normalize_name("Bcdfg") is Rejection.NO_VOWEL


def test_trim_and_casefold():
    assert normalize_name("  Mary ") == "mary"


def test_accented_vowels_count_but_are_preserved():
    # the folded copy supplies the vowels; the returned name keeps them
    assert normalize_name("Özgür") == "özgür"


def test_titles_rejected_even_without_vowels():
    for title in ("mr", "Mrs", "MS", "Dr.", "prof", "JR"):
        assert normalize_name(title) is Rejection.IS_TITLE, title


def test_digits_rejected():
    assert normalize_name("mary2") is Rejection.INVALID_CHARACTERS


def test_empty_is_too_short():
    assert normalize_name("") is Rejection.TOO_SHORT
    assert normalize_name("   ") is Rejection.TOO_SHORT


def test_no_code_point_is_both_a_letter_and_a_digit():
    # normalize_name skips the digit rule for all-letter names on this fact
    assert [cp for cp in range(0x110000) if chr(cp).isalpha() and chr(cp).isdigit()] == []


def test_interior_whitespace_collapsed():
    assert normalize_name("maria   garcia") == "maria garcia"


def test_normalize_idempotent_on_random_accepted_names(rng):
    for _ in range(500):
        raw = random_name(rng)
        cleaned = normalize_name(raw)
        assert not isinstance(cleaned, Rejection)
        assert normalize_name(cleaned) == cleaned


# --- split_full_name -----------------------------------------------------------


def test_split_two_tokens():
    assert split_full_name("maria garcia") == ("maria", "garcia")


def test_split_single_token():
    assert split_full_name("maria") == ("maria", "")


def test_split_many_tokens_keeps_first_and_last():
    assert split_full_name("jean claude van damme") == ("jean", "damme")


def test_split_empty_raises():
    with pytest.raises(ValueError):
        split_full_name("   ")


# --- CSV ingestion --------------------------------------------------------------


def write_csv(path, rows, header="name,gender,count"):
    path.write_text("\n".join([header, *rows]) + "\n", encoding="utf-8")


def test_csv_with_utf8_bom_loads(tmp_path):
    path = tmp_path / "names.csv"
    path.write_bytes("\ufeffname,gender,count\nanna,F,2\nbo,M,1\n".encode("utf-8"))
    table, report = ingest_labeled_csv(path, CsvSchema("name", "gender", "count"))
    assert table.entries == {"anna": GenderCounts(2, 0), "bo": GenderCounts(0, 1)}
    assert report.total_rows == 2


def test_csv_whitespace_only_line_is_skipped_like_a_blank_one(tmp_path):
    path = tmp_path / "names.csv"
    path.write_text("name,gender\nmary,F\n   \n", encoding="utf-8")
    table, report = ingest_labeled_csv(path, CsvSchema("name", "gender"))
    assert table.entries == {"mary": GenderCounts(1, 0)}
    assert report.total_rows == 1
    assert report.malformed == []


def test_csv_counts_accumulate(tmp_path):
    path = tmp_path / "names.csv"
    write_csv(path, ["anna,F,2", "anna,M,1"])
    table, report = ingest_labeled_csv(path, CsvSchema("name", "gender", "count"))
    assert table.entries == {"anna": GenderCounts(2, 1)}
    assert report.retained == 2


def test_csv_all_rejected_is_empty_corpus(tmp_path):
    path = tmp_path / "names.csv"
    write_csv(path, ["X,F,1"])
    with pytest.raises(EmptyCorpusError):
        ingest_labeled_csv(path, CsvSchema("name", "gender", "count"))


def test_csv_malformed_rows_skipped_and_reported(tmp_path):
    # 10 rows, 2 malformed by hand: line 4 has a bad count, line 8 is short
    rows = [
        "anna,F,2",       # line 2
        "bella,F,1",      # line 3
        "carl,M,oops",    # line 4: malformed count
        "dora,F,3",       # line 5
        "erik,M,2",       # line 6
        "fiona,F,1",      # line 7
        "gus",            # line 8: malformed row
        "hana,F,4",       # line 9
        "ivan,M,1",       # line 10
        "jon,M,2",        # line 11
    ]
    path = tmp_path / "names.csv"
    write_csv(path, rows)
    table, report = ingest_labeled_csv(path, CsvSchema("name", "gender", "count"))
    assert len(table) == 8
    assert report.retained == 8
    assert [line for line, _ in report.malformed] == [4, 8]


def test_csv_count_column_optional(tmp_path):
    path = tmp_path / "names.csv"
    write_csv(path, ["anna,F", "anna,F"], header="name,gender")
    table, _ = ingest_labeled_csv(path, CsvSchema("name", "gender"))
    assert table.entries == {"anna": GenderCounts(2, 0)}


def test_csv_unmappable_gender_dropped(tmp_path):
    path = tmp_path / "names.csv"
    write_csv(path, ["anna,F,1", "boris,X,1", "cleo,,1"])
    table, report = ingest_labeled_csv(path, CsvSchema("name", "gender", "count"))
    assert list(table.entries) == ["anna"]
    assert report.unmappable_gender == 2


def test_csv_gender_aliases_case_insensitive(tmp_path):
    path = tmp_path / "names.csv"
    write_csv(path, ["anna,Female,1", "anna,W,1", "bo,MALE,2"])
    table, _ = ingest_labeled_csv(path, CsvSchema("name", "gender", "count"))
    assert table.entries == {"anna": GenderCounts(2, 0), "bo": GenderCounts(0, 2)}


def test_csv_rejection_reasons_tallied(tmp_path):
    path = tmp_path / "names.csv"
    write_csv(path, ["anna,F,1", "B,M,1", "mrs,F,1", "xyz9,M,1", "grr,M,1"])
    _, report = ingest_labeled_csv(path, CsvSchema("name", "gender", "count"))
    assert report.rejections == {
        Rejection.TOO_SHORT: 1,
        Rejection.IS_TITLE: 1,
        Rejection.INVALID_CHARACTERS: 1,
        Rejection.NO_VOWEL: 1,
    }


def test_csv_missing_column_raises(tmp_path):
    path = tmp_path / "names.csv"
    write_csv(path, ["anna,F,1"])
    with pytest.raises(ValueError, match="not in header"):
        ingest_labeled_csv(path, CsvSchema("name", "sex", "count"))


def test_csv_missing_file_raises(tmp_path):
    with pytest.raises(OSError):
        ingest_labeled_csv(tmp_path / "nope.csv", CsvSchema("name", "gender"))


# --- SSA ingestion --------------------------------------------------------------


def write_ssa_year(directory, year, rows):
    (directory / f"yob{year}.txt").write_text("\n".join(rows) + "\n", encoding="utf-8")


def test_ssa_years_sum(tmp_path):
    write_ssa_year(tmp_path, 1990, ["Mary,F,10"])
    write_ssa_year(tmp_path, 1991, ["Mary,F,5"])
    table, _ = ingest_ssa_years(tmp_path, range(1990, 1992))
    assert table.entries == {"mary": GenderCounts(15, 0)}
    assert table.source_id == "ssa1990-1991"


def test_ssa_cross_year_ambiguity(tmp_path):
    # hand merge: (F,6) one year, (M,5) another year -> (6, 5)
    write_ssa_year(tmp_path, 1980, ["Jess,F,6"])
    write_ssa_year(tmp_path, 1981, ["Jess,M,5"])
    table, _ = ingest_ssa_years(tmp_path, [1980, 1981])
    assert table.entries == {"jess": GenderCounts(6, 5)}


def test_ssa_missing_year_reported_and_skipped(tmp_path):
    write_ssa_year(tmp_path, 2000, ["Ana,F,3"])
    table, report = ingest_ssa_years(tmp_path, range(2000, 2003))
    assert report.missing_years == [2001, 2002]
    assert table.entries == {"ana": GenderCounts(3, 0)}


def test_ssa_empty_range_raises(tmp_path):
    with pytest.raises(ValueError, match="empty"):
        ingest_ssa_years(tmp_path, [])


def test_ingest_shares_one_counts_object_per_pair(tmp_path):
    rows = ["anna,F,2", "Bo,M,1", "cara,F,2", "dana,M,1", "eve,F,2", "eve,M,3", "fay,F,2", "gil,M,3", "hal,F,2"]
    write_csv(tmp_path / "names.csv", rows)
    table, _ = ingest_labeled_csv(tmp_path / "names.csv", CsvSchema("name", "gender", "count"))
    assert one_object_per_pair(table) and len(table) == 8 and len(set(table.entries.values())) == 4
    write_ssa_year(tmp_path, 1990, rows[:5])
    write_ssa_year(tmp_path, 1991, rows[4:])
    table, _ = ingest_ssa_years(tmp_path, [1990, 1991])
    assert one_object_per_pair(table) and table.entries["eve"] == GenderCounts(4, 3)


# --- merge ----------------------------------------------------------------------


def test_merge_adds_counts():
    merged = merge_tables([table_of({"anna": (2, 0)}, "x"), table_of({"anna": (1, 3)}, "y")])
    assert merged.entries == {"anna": GenderCounts(3, 3)}
    assert merged.source_id == "x+y"


def test_merge_disjoint_keeps_both():
    merged = merge_tables([table_of({"a": (1, 0)}, "x"), table_of({"b": (0, 1)}, "y")])
    assert set(merged.entries) == {"a", "b"}


def test_merge_rejects_full_name_tables():
    full = FrequencyTable({"a b": GenderCounts(1, 0)}, NameType.FULL, "f")
    with pytest.raises(ValueError, match="first-name"):
        merge_tables([full, table_of({"a": (1, 0)})])


def test_merge_four_fixture_tables_equals_recount_oracle(rng):
    tables = [random_table(rng, f"t{i}", 30) for i in range(4)]
    merged = merge_tables(tables)
    expected = recount_oracle(tables)
    assert {n: (gc.female, gc.male) for n, gc in merged.entries.items()} == expected


def test_merge_commutative_and_associative(rng):
    for _ in range(50):
        a = random_table(rng, "a", rng.randint(1, 12))
        b = random_table(rng, "b", rng.randint(1, 12))
        c = random_table(rng, "c", rng.randint(1, 12))
        forward = merge_tables([a, b, c]).entries
        backward = merge_tables([c, b, a]).entries
        nested = merge_tables([merge_tables([a, b]), c]).entries
        assert forward == backward == nested
        oracle = recount_oracle([a, b, c])
        assert {n: (gc.female, gc.male) for n, gc in forward.items()} == oracle


# --- to_first_names --------------------------------------------------------------


def test_full_table_reduces_to_first_names():
    full = FrequencyTable(
        {
            "maria garcia": GenderCounts(2, 0),
            "maria lopez": GenderCounts(1, 0),
            "john smith": GenderCounts(0, 3),
        },
        NameType.FULL,
        "voters",
    )
    first = to_first_names(full)
    assert first.name_type is NameType.FIRST
    assert first.entries == {"maria": GenderCounts(3, 0), "john": GenderCounts(0, 3)}


def test_to_first_names_drops_invalid_first_tokens():
    full = FrequencyTable({"a garcia": GenderCounts(1, 0), "bo diaz": GenderCounts(1, 0)}, NameType.FULL, "v")
    first = to_first_names(full)
    assert set(first.entries) == {"bo"}


def test_to_first_names_shares_one_counts_object_per_pair():
    full = FrequencyTable(
        {f"{first} {last}": GenderCounts(1, 0) for first, last in product(["ana", "bea", "cleo"], ["diaz", "ruiz"])},
        NameType.FULL,
        "v",
    )
    first = to_first_names(full)
    assert first.entries == {"ana": GenderCounts(2, 0), "bea": GenderCounts(2, 0), "cleo": GenderCounts(2, 0)}
    assert one_object_per_pair(first)


# --- dataset_stats ----------------------------------------------------------------


def test_stats_counts_and_ambiguous():
    stats = dataset_stats(table_of({"anna": (3, 3), "bob": (0, 5)}))
    assert stats.unique_names == 2
    assert stats.ambiguous == 1
    assert stats.total_names == 11
    assert stats.unique_first == 2
    assert stats.unique_last == 0


def test_stats_no_ambiguous():
    stats = dataset_stats(table_of({"a": (1, 0), "b": (0, 1)}))
    assert stats.ambiguous == 0


def test_stats_full_name_table_splits_tokens():
    full = FrequencyTable(
        {"maria garcia": GenderCounts(2, 1), "maria lopez": GenderCounts(1, 0)},
        NameType.FULL,
        "v",
    )
    stats = dataset_stats(full)
    assert stats.unique_names == 2
    assert stats.unique_first == 1
    assert stats.unique_last == 2
    assert stats.ambiguous == 1


def test_stats_total_matches_sum_over_keys(rng):
    for _ in range(30):
        table = random_table(rng, "t", rng.randint(1, 40))
        stats = dataset_stats(table)
        assert stats.total_names == sum(gc.total for gc in table.entries.values())
        assert stats.unique_names <= stats.total_names
        assert stats.ambiguous <= stats.unique_first


def test_stats_empty_table_raises():
    with pytest.raises(ValueError):
        dataset_stats(FrequencyTable({}, NameType.FIRST, "e"))


# --- uniqueness and overlap ---------------------------------------------------------


def test_uniqueness_simple():
    t1 = table_of({"a": (1, 0), "b": (1, 0)}, "t1")
    t2 = table_of({"b": (1, 0), "c": (1, 0)}, "t2")
    assert cross_dataset_uniqueness([t1, t2]) == [(1, 50.0), (1, 50.0)]


def test_uniqueness_identical_tables():
    t1 = table_of({"a": (1, 0), "b": (1, 0)}, "t1")
    t2 = table_of({"a": (2, 0), "b": (0, 2)}, "t2")
    assert cross_dataset_uniqueness([t1, t2]) == [(0, 0.0), (0, 0.0)]


def test_uniqueness_needs_two_tables():
    with pytest.raises(ValueError):
        cross_dataset_uniqueness([table_of({"a": (1, 0)})])


def test_overlap_counts_and_row_percentages():
    t1 = table_of({"a": (1, 0), "b": (1, 0)}, "t1")
    t2 = table_of({"b": (1, 0), "c": (1, 0)}, "t2")
    matrix = pairwise_overlap([t1, t2])
    assert matrix[0][1] == (1, 50.0)
    assert matrix[1][0] == (1, 50.0)
    assert matrix[0][0] == (2, 100.0)


def test_overlap_counts_symmetric_percentages_row_normalized(rng):
    tables = [random_table(rng, f"t{i}", rng.randint(5, 25)) for i in range(4)]
    matrix = pairwise_overlap(tables)
    for i in range(4):
        for j in range(4):
            assert matrix[i][j][0] == matrix[j][i][0]
            expected_pct = 100.0 * matrix[i][j][0] / len(tables[i].entries)
            assert matrix[i][j][1] == pytest.approx(expected_pct)


# --- ambiguity histogram ---------------------------------------------------------------


def test_histogram_single_ambiguous_name():
    hist = ambiguity_histogram(table_of({"pat": (1, 1)}), 10)
    assert hist.percentages[5] == 100.0
    assert sum(hist.percentages) == pytest.approx(100.0)
    assert hist.p25 == hist.p50 == hist.p75 == 0.5


def test_histogram_median_of_three():
    table = table_of({"a": (1, 3), "b": (1, 1), "c": (3, 1)})
    hist = ambiguity_histogram(table, 4)
    assert hist.p50 == 0.5


def test_histogram_matches_manual_binning():
    # 20 hand-built ambiguous names; bin index = floor(p * 5), last bin closed
    entries = {}
    fractions = [
        (1, 9), (1, 4), (1, 3), (3, 7), (2, 3),        # 0.10 0.20 0.25 0.30 0.40
        (1, 1), (1, 1), (6, 4), (7, 3), (3, 1),        # 0.50 0.50 0.60 0.70 0.75
        (4, 1), (9, 1), (1, 19), (3, 17), (1, 7),      # 0.80 0.90 0.05 0.15 0.125
        (2, 1), (5, 4), (19, 1), (99, 1), (1, 99),     # 0.667 0.556 0.95 0.99 0.01
    ]
    for i, (f, m) in enumerate(fractions):
        entries[f"name{i:02d}"] = (f, m)
    hist = ambiguity_histogram(table_of(entries), 5)
    # manual tally over [0,.2) [.2,.4) [.4,.6) [.6,.8) [.8,1]
    assert hist.percentages == (25.0, 15.0, 20.0, 20.0, 20.0)
    assert sum(hist.percentages) == pytest.approx(100.0, abs=0.01)


def test_histogram_percentages_sum_to_100(rng):
    for _ in range(25):
        table = random_table(rng, "t", rng.randint(2, 60), ambiguous_share=0.8)
        try:
            hist = ambiguity_histogram(table, rng.randint(2, 20))
        except ValueError:
            continue
        assert sum(hist.percentages) == pytest.approx(100.0, abs=0.01)
        assert 0.0 <= hist.p25 <= hist.p50 <= hist.p75 <= 1.0


def test_histogram_no_ambiguous_names_raises():
    with pytest.raises(ValueError, match="ambiguous"):
        ambiguity_histogram(table_of({"a": (1, 0)}), 4)


def test_histogram_bad_bin_count_raises():
    with pytest.raises(ValueError):
        ambiguity_histogram(table_of({"a": (1, 1)}), 1)


# --- serialization -----------------------------------------------------------------


def test_table_round_trip(tmp_path, rng):
    table = random_table(rng, "demo", 100)
    path = tmp_path / "demo.table.tsv"
    write_table(table, path)
    loaded = read_table(path)
    assert loaded.entries == table.entries
    assert loaded.name_type == table.name_type
    assert loaded.source_id == table.source_id


def test_table_serialization_is_deterministic(tmp_path, rng):
    table = random_table(rng, "demo", 50)
    write_table(table, tmp_path / "a.tsv")
    write_table(table, tmp_path / "b.tsv")
    assert (tmp_path / "a.tsv").read_bytes() == (tmp_path / "b.tsv").read_bytes()


def test_table_extra_header_fields_round_trip(tmp_path):
    table = table_of({"anna": (2, 1)}, "demo")
    path = tmp_path / "t.tsv"
    write_table(table, path, extra_header={"tau": "0.9"})
    loaded, extras = read_table_with_header(path)
    assert extras == {"tau": "0.9"}
    assert loaded.entries == table.entries


@pytest.mark.parametrize("name", ["ana\tbo", "ana\nbo", "ana\r", "\r\n"])
def test_table_name_with_tab_or_line_break_is_refused_before_the_file_opens(tmp_path, name):
    path = tmp_path / "t.tsv"
    with pytest.raises(ValueError, match=re.escape(repr(name))):
        write_table(table_of({"ana": (1, 0), name: (1, 0), "zed": (0, 1)}), path)
    assert not path.exists()


@pytest.mark.parametrize("extra", [
    {"tau": "0.9\r"}, {"t\tau": "0.9"}, {"a=b": "c"}, {"source_id": "other"}, {"name_type": "full"},
])
def test_table_header_field_with_tab_or_line_break_is_refused(tmp_path, extra):
    with pytest.raises(ValueError, match="header field"):
        write_table(table_of({"ana": (1, 0)}), tmp_path / "t.tsv", extra_header=extra)
    assert not (tmp_path / "t.tsv").exists()


def test_write_table_streams_lines_of_a_shared_count_table(tmp_path, rng):
    # 50k names over seven count objects, as the table builders share them; a writer that
    # builds every line and then the joined text allocates about 4.5 MB here
    pool = [GenderCounts(f, m) for f, m in [(1, 0), (0, 1), (2, 0), (0, 2), (1, 1), (3, 0), (0, 3)]]
    names = ["".join(letters) for letters in product("bcdfghjklmnprstvz", "aeiou", "bcdfghjklmnprstvz", "aeiou", "lnrst", "ae")]
    rng.shuffle(names)
    table = FrequencyTable({name: rng.choice(pool) for name in names[:50_000]}, NameType.FIRST, "t")
    tracemalloc.start()
    try:
        write_table(table, tmp_path / "t.tsv")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000
    assert read_table(tmp_path / "t.tsv") == table


def test_ingest_of_distinct_full_names_peaks_below_twice_the_table(tmp_path, rng):
    # rows are summed under their cleaned spelling and no raw name is kept beside it; a memo
    # of the 24k raw names next to the table made the peak about 2.7 times the table
    firsts = ["".join(letters).title() for letters in product("bdklmnrst", "aeiou", "lnrs", "ae")]
    lasts = ["".join(letters).title() for letters in product("bcdfghkmp", "aeiou", "rst")]
    names = [f"{first} {last}" for first, last in product(firsts, lasts)]
    rng.shuffle(names)
    path = tmp_path / "full.csv"
    path.write_text("name,gender\n" + "".join(f"{name},{rng.choice('FM')}\n" for name in names[:24_000]),
                    encoding="utf-8")
    tracemalloc.start()
    try:
        table, report = ingest_labeled_csv(path, CsvSchema("name", "gender"), name_type=NameType.FULL)
        assert len(table) == report.retained == 24_000
        with_table, peak = tracemalloc.get_traced_memory()
        del table, report
        table_size = with_table - tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert peak < 2 * table_size


def test_table_parse_errors_carry_line_numbers(tmp_path):
    path = tmp_path / "bad.tsv"
    path.write_text("# name_type=first\tsource_id=x\nanna\t2\n", encoding="utf-8")
    with pytest.raises(TableParseError) as err:
        read_table(path)
    assert err.value.line_no == 2


def test_table_missing_header_raises(tmp_path):
    path = tmp_path / "bad.tsv"
    path.write_text("anna\t2\t1\n", encoding="utf-8")
    with pytest.raises(TableParseError):
        read_table(path)


HEADER = "# name_type=first\tsource_id=x\n"


@pytest.mark.parametrize(
    ("text", "line_no", "message"),
    [
        ("", 1, "missing header line"),
        ("anna\t2\t1\n", 1, "missing header line"),
        ("# name_type=first\tsource_id\n", 1, "bad header field 'source_id'"),
        ("# source_id=x\n", 1, "bad or missing header field: 'name_type'"),
        ("# name_type=middle\tsource_id=x\n", 1, "bad or missing header field: 'middle' is not a valid NameType"),
        ("# name_type=first\n", 1, "bad or missing header field: 'source_id'"),
        (HEADER + "anna\n", 2, "expected name<TAB>female<TAB>male"),
        (HEADER + "anna\t2\n", 2, "expected name<TAB>female<TAB>male"),
        (HEADER + "bob\t1\t1\nanna\t2\t1\t0\n", 3, "expected name<TAB>female<TAB>male"),
        (HEADER + "anna\t2\tx\n", 2, "counts must be integers"),
        (HEADER + "anna\t2.0\t1\n", 2, "counts must be integers"),
        (HEADER + "anna\t-1\t3\n", 2, "bad counts (-1, 3)"),
        (HEADER + "anna\t0\t0\n", 2, "bad counts (0, 0)"),
        (HEADER + "anna\t2\t1\nbob\t3\t3\nanna\t2\t1\n", 4, "duplicate name 'anna'"),
        (HEADER + "anna\t2\t1\nbob\t2\t1\nanna\t2\t1\n", 4, "duplicate name 'anna'"),
    ],
)
def test_table_parse_error_message_and_line(tmp_path, text, line_no, message):
    path = tmp_path / "bad.tsv"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(TableParseError) as err:
        read_table_with_header(path)
    assert err.value.line_no == line_no
    assert str(err.value) == f"{path}:{line_no}: {message}"


def test_table_bad_count_text_raises_where_it_first_appears(tmp_path):
    path = tmp_path / "bad.tsv"
    path.write_text(HEADER + "anna\t2\t1\nbob\t2\tx\ncleo\t2\t1\ndora\t2\tx\n", encoding="utf-8")
    with pytest.raises(TableParseError) as err:
        read_table(path)
    assert err.value.line_no == 3
    assert str(err.value) == f"{path}:3: counts must be integers"


def test_table_blank_lines_are_skipped_but_counted(tmp_path):
    path = tmp_path / "t.tsv"
    path.write_text(HEADER + "\nanna\t2\t1\n\n\nbob\t0\t4\n\n", encoding="utf-8")
    assert read_table(path).entries == {"anna": GenderCounts(2, 1), "bob": GenderCounts(0, 4)}
    path.write_text(HEADER + "\nanna\t2\t1\n\nanna\t1\t1\n", encoding="utf-8")
    with pytest.raises(TableParseError) as err:
        read_table(path)
    assert err.value.line_no == 5


def test_table_with_crlf_line_ends_loads(tmp_path):
    path = tmp_path / "t.tsv"
    path.write_bytes(b"# name_type=full\tsource_id=x\ttau=0.9\r\nanna lee\t2\t1\r\nbob ray\t2\t1\r\n")
    table, extras = read_table_with_header(path)
    assert table.entries == {"anna lee": GenderCounts(2, 1), "bob ray": GenderCounts(2, 1)}
    assert (table.name_type, table.source_id, extras) == (NameType.FULL, "x", {"tau": "0.9"})
