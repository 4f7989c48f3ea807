"""Corpus ingestion and name-frequency tables.

Reads labeled name corpora (generic CSV files and SSA-style yearly files),
applies the cleaning rules, and accumulates per-name female/male occurrence
counts into a FrequencyTable. Also provides table merging, dataset
statistics, cross-dataset uniqueness/overlap analyses, a lossless
tab-separated serialization, file digests, and the reader of `key = value` config files.

Cleaning rules applied by normalize_name, in order:
  1. whitespace is trimmed and interior runs collapsed to single spaces,
     then the name is lower-cased;
  2. names containing digits are rejected (InvalidCharacters);
  3. names with fewer than two letters are rejected (TooShort);
  4. personal titles (DEFAULT_TITLES) are rejected (IsTitle; checked before
     the vowel rule because common titles such as "mr" contain no vowel);
  5. names without a vowel are rejected (NoVowel); the vowel check runs on
     a diacritic-folded copy so that accented vowels count, but the name
     itself keeps its non-ASCII characters.
The titles and the gender tags ingestion accepts (DEFAULT_GENDER_ALIASES) are
fixed, so a model's queries are cleaned exactly as its table was.
"""

from __future__ import annotations

import sys
from collections import Counter
from enum import Enum
from operator import itemgetter
from pathlib import Path
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple, Sequence

VOWELS = frozenset("aeiou")

DEFAULT_TITLES = frozenset({"mr", "mrs", "ms", "dr", "prof", "rev", "hon", "sr", "jr"})

# Gender-tag aliases, case-insensitive. Anything unmapped drops the record.
DEFAULT_GENDER_ALIASES: Mapping[str, str] = {
    "f": "female",
    "female": "female",
    "w": "female",
    "m": "male",
    "male": "male",
}


class NameType(Enum):
    FIRST = "first"
    FULL = "full"


class Rejection(Enum):
    """Why normalize_name refused a raw name."""

    TOO_SHORT = "too_short"
    NO_VOWEL = "no_vowel"
    IS_TITLE = "is_title"
    INVALID_CHARACTERS = "invalid_characters"


class EmptyCorpusError(ValueError):
    """Ingestion retained zero records."""


class TableParseError(ValueError):
    """A table file could not be parsed."""

    def __init__(self, path: str | Path, line_no: int, message: str) -> None:
        super().__init__(f"{path}:{line_no}: {message}")
        self.line_no = line_no


class GenderCounts(NamedTuple):
    """Female/male occurrence tallies for one normalized name."""

    female: int
    male: int

    @property
    def total(self) -> int:
        return self.female + self.male

    @property
    def is_ambiguous(self) -> bool:
        return self.female >= 1 and self.male >= 1


class FrequencyTable:
    """Normalized name -> GenderCounts, plus corpus metadata.

    A completed table is treated as immutable and is safe for unrestricted
    concurrent reads. Every builder here (ingest, merge, to_first_names, read)
    gives names with equal counts one shared GenderCounts object; it is frozen,
    and nothing depends on which object a name holds.
    """

    def __init__(self, entries: dict[str, GenderCounts], name_type: NameType, source_id: str) -> None:
        self.entries = entries
        self.name_type = name_type
        self.source_id = source_id

    def __eq__(self, other: object) -> bool:
        return isinstance(other, FrequencyTable) and (self.entries, self.name_type, self.source_id) == (
            other.entries, other.name_type, other.source_id)

    def __len__(self) -> int:
        return len(self.entries)

    def lookup(self, names: Sequence[str]) -> Iterable[GenderCounts | None]:
        """Each name's counts, in order; None for a name the table lacks."""
        return map(self.entries.get, names)


class IngestReport:
    """What ingestion kept, dropped, and why."""

    def __init__(self, source: str) -> None:
        self.source = source
        self.total_rows = 0
        self.retained = 0
        self.rejections: Counter[Rejection] = Counter()
        self.unmappable_gender = 0
        self.malformed: list[tuple[int, str]] = []
        self.missing_years: list[int] = []

    def __eq__(self, other: object) -> bool:
        return type(other) is IngestReport and vars(self) == vars(other)


class DatasetStats(NamedTuple):
    total_names: int
    unique_names: int
    unique_first: int
    unique_last: int
    ambiguous: int


class AmbiguityHistogram(NamedTuple):
    """Binned distribution of p(female) over a table's ambiguous names."""

    bin_edges: tuple[float, ...]
    percentages: tuple[float, ...]
    p25: float
    p50: float
    p75: float
    count: int


def log(level: str, message: str) -> None:
    """Write one `LEVEL message` diagnostic line to stderr."""
    print(level, message, file=sys.stderr)


def _spelling(raw: str) -> str:
    """Cleaning rule 1: whitespace collapsed, then lower-cased. Every check
    normalize_name makes depends only on this spelling."""
    # a name of letters only holds no whitespace
    return raw.lower() if raw.isalpha() else " ".join(raw.split()).lower()


def normalize_name(raw: str) -> str | Rejection:
    """Clean one raw name, returning the normalized form or a Rejection.

    Idempotent on accepted names: normalize_name(x) == x for any x it
    returns.
    """
    return _check_spelling(_spelling(raw))


def _check_spelling(name: str) -> str | Rejection:
    """Cleaning rules 2-5 on a spelling (rule 1, _spelling): the name itself, or why it is refused."""
    letters = name.replace(" ", "")
    # No code point is both a letter and a digit, so an all-letter name has no digit.
    if letters.isalpha():
        letter_count = len(letters)
    elif any(map(str.isdigit, name)):
        return Rejection.INVALID_CHARACTERS
    else:
        letter_count = sum(map(str.isalpha, name))
    if letter_count < 2:
        return Rejection.TOO_SHORT
    if name.rstrip(".") in DEFAULT_TITLES:
        return Rejection.IS_TITLE
    # NFKD keeps every ASCII vowel, so only a name without one needs folding.
    if VOWELS.isdisjoint(name):
        import unicodedata
        if VOWELS.isdisjoint(unicodedata.normalize("NFKD", name)):
            return Rejection.NO_VOWEL
    return name


def split_full_name(full: str) -> tuple[str, str]:
    """Split a full name into (first token, last token).

    Middle tokens are dropped; single-token input yields an empty last name.
    """
    tokens = full.split()
    if not tokens:
        raise ValueError("cannot split an empty full name")
    return tokens[0], tokens[-1] if len(tokens) > 1 else ""


def _shared_counts(counts: dict) -> dict[str, GenderCounts]:
    """Turn name -> (female, male, ...) into name -> GenderCounts in place, one object per distinct pair."""
    shared: dict[tuple[int, int], GenderCounts] = {}
    for name, slot in counts.items():
        pair = slot[0], slot[1]
        counts[name] = shared.get(pair) or shared.setdefault(pair, GenderCounts(*pair))
    return counts


def _check_spellings(sums: dict[str, tuple[int, int, int]], rejections: Counter[Rejection]) -> dict[str, GenderCounts]:
    """Check each spelling of sums (spelling -> (female, male, rows)) once, in place: a rejected
    spelling is deleted and its rows are added to rejections under its reason; the rest keep
    their order and get shared GenderCounts."""
    rejected = []
    for spelling, slot in sums.items():
        name = _check_spelling(spelling)
        if isinstance(name, Rejection):
            rejections[name] += slot[2]
            rejected.append(spelling)
    for spelling in rejected:
        del sums[spelling]
    return _shared_counts(sums)


def _accumulate(groups: Iterable[tuple[str, str, int, int]], report: IngestReport) -> dict[str, GenderCounts]:
    """Sum per-name counts of (raw name, gender tag, count, rows) groups of well-formed rows into report's
    tallies, whose malformed list holds every other row. Groups are summed under their name's spelling, each
    distinct spelling is checked once at the end, and each distinct gender tag is looked up once."""
    sums: dict[str, tuple[int, int, int]] = {}  # spelling -> (female, male, rows)
    first_sums: dict[tuple[int, int, int], tuple[int, int, int]] = {}  # a name's first sums, shared per value
    # raw gender tag -> slot index (0 female, 1 male), or None if unmappable
    sides: dict[str, int | None] = {}
    summed = unmappable = 0
    for raw_name, tag, count, rows in groups:
        side = sides.get(tag, -1)
        if side == -1:
            gender = DEFAULT_GENDER_ALIASES.get(tag.strip().lower())
            side = sides[tag] = None if gender is None else 0 if gender == "female" else 1
        if side is None:
            unmappable += rows
            continue
        spelling = _spelling(raw_name)
        female, male, seen = sums.get(spelling, (0, 0, 0))
        slot = (female + count, male, seen + rows) if side == 0 else (female, male + count, seen + rows)
        sums[spelling] = slot if seen else first_sums.setdefault(slot, slot)
        summed += rows
    rejections: Counter[Rejection] = Counter()
    entries = _check_spellings(sums, rejections)
    report.rejections.update(rejections)
    report.total_rows += summed + unmappable + len(report.malformed)
    report.retained += summed - rejections.total()
    report.unmappable_gender += unmappable
    return entries


def ingest_labeled_csv(
    path: str | Path,
    name_column: str,
    gender_column: str,
    count_column: str | None = None,
    *,
    name_type: NameType = NameType.FIRST,
    source_id: str | None = None,
) -> tuple[FrequencyTable, IngestReport]:
    """Build a frequency table from a labeled CSV file whose header row names its columns.

    Malformed rows are skipped and recorded with their line number; the run
    continues. Raises EmptyCorpusError if nothing survives cleaning.
    """
    import csv
    path = Path(path)
    source = source_id if source_id is not None else path.stem
    report = IngestReport(source=source)

    with path.open(newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise EmptyCorpusError(f"{path}: file is empty") from None
        positions = {}
        for column in (name_column, gender_column, count_column):
            if column is None:
                continue
            if column not in header:
                raise ValueError(f"{path}: column {column!r} not in header {header}")
            positions[column] = header.index(column)
        name_at, gender_at = positions[name_column], positions[gender_column]
        count_at = positions.get(count_column)

        def groups() -> Iterator[tuple[str, str, int, int]]:
            """One group per well-formed row: the rows of a CSV file are mostly distinct."""
            for row in reader:
                if not row or (len(row) == 1 and not row[0].strip()):  # blank or whitespace-only line
                    continue
                if max(name_at, gender_at) >= len(row):
                    report.malformed.append((reader.line_num, "row has too few fields"))
                    continue
                count = 1
                if count_at is not None:
                    text = row[count_at] if count_at < len(row) else ""
                    try:
                        count = int(text)
                    except ValueError:
                        report.malformed.append((reader.line_num, f"bad count {text!r}"))
                        continue
                    if count < 1:
                        report.malformed.append((reader.line_num, f"count {count} < 1"))
                        continue
                yield row[name_at], row[gender_at], count, 1

        entries = _accumulate(groups(), report)

    if not entries:
        detail = ""
        if report.malformed:
            line_no, message = report.malformed[0]
            detail = f" (first bad line {line_no}: {message})"
        raise EmptyCorpusError(f"{path}: no records retained after cleaning{detail}")
    return FrequencyTable(entries, name_type, source), report


def ingest_ssa_years(
    directory: str | Path,
    years: Sequence[int],
    *,
    source_id: str | None = None,
) -> tuple[FrequencyTable, IngestReport]:
    """Sum per-name counts over yobYYYY.txt files for the given years.

    Each file holds headerless `Name,G,Count` rows with G in {F, M}.
    Missing year files are reported and skipped.
    """
    years = list(years)
    if not years:
        raise ValueError("year range is empty")
    directory = Path(directory)
    source = source_id if source_id is not None else f"ssa{min(years)}-{max(years)}"
    report = IngestReport(source=source)

    # "raw name,raw gender tag" -> [count, rows]: a pair recurs in most years, so it is spelled once. One key
    # string, not a (name, tag) tuple, saves about 0.5 MB on 6.6k pairs, so ingest peaks below stats and combine.
    groups: dict[str, list[int]] = {}
    for year in years:
        path = directory / f"yob{year}.txt"
        if not path.exists():
            report.missing_years.append(year)
            log("WARNING", f"missing SSA year file: {path}")
            continue
        where = f"{path.name}: "
        with path.open(encoding="utf-8-sig") as fh:
            for line_no, line in enumerate(fh, start=1):
                # A key of groups passed the field check on its first row and starts with no whitespace, so a
                # row whose unstripped text before its last comma is a key needs only its count checked.
                # Any other row, or a count int() refuses unstripped (it refuses "\x1c", which strip()
                # removes) or below 1, takes the checked path below.
                pair, _, text = line.rpartition(",")
                group = groups.get(pair)
                if group is not None:
                    try:
                        count = int(text)
                    except ValueError:
                        count = 0
                    if count >= 1:
                        group[0] += count
                        group[1] += 1
                        continue
                line = line.strip()
                pair, _, text = line.rpartition(",")
                if pair.count(",") != 1:  # not 3 fields
                    if line:
                        report.malformed.append((line_no, where + "expected 3 fields"))
                    continue
                try:
                    count = int(text)
                except ValueError:
                    report.malformed.append((line_no, f"{where}bad count {text!r}"))
                    continue
                if count < 1:
                    report.malformed.append((line_no, f"{where}count {count} < 1"))
                    continue
                group = groups.get(pair)
                if group is None:
                    groups[pair] = [count, 1]
                else:
                    group[0] += count
                    group[1] += 1
    entries = _accumulate(((*pair.split(","), count, rows) for pair, (count, rows) in groups.items()), report)
    if not entries:
        raise EmptyCorpusError(f"{directory}: no records retained for years {years[0]}-{years[-1]}")
    return FrequencyTable(entries, NameType.FIRST, source), report


def merge_tables(tables: Sequence[FrequencyTable]) -> FrequencyTable:
    """Merge first-name tables by component-wise count addition; no tables merge to an empty table."""
    counts: dict[str, tuple[int, int]] = {}
    for table in tables:
        if table.name_type is not NameType.FIRST:
            raise ValueError(f"merge requires first-name tables; {table.source_id!r} is {table.name_type.value}")
        for name, gc in table.entries.items():
            female, male = counts.get(name, (0, 0))
            counts[name] = (female + gc.female, male + gc.male)
    return FrequencyTable(_shared_counts(counts), NameType.FIRST, "+".join(t.source_id for t in tables))


def to_first_names(table: FrequencyTable) -> FrequencyTable:
    """Reduce a full-name table to a first-name table.

    First tokens that do not pass normalize_name on their own (e.g. a
    single-letter first name inside a valid full name) are dropped and
    logged.
    """
    if table.name_type is NameType.FIRST:
        return table
    # (raw first token, counts) -> number of full names: full names share few counts, so each pair is summed once
    try:
        pairs = Counter(zip(map(itemgetter(0), map(str.split, table.entries)), table.entries.values()))
    except IndexError:  # a name with no token
        raise ValueError("cannot split an empty full name") from None
    # raw first token -> (female, male, number of full names): a token starts many full names, so it is spelled once
    tokens: dict[str, tuple[int, int, int]] = {}
    for (token, gc), n in pairs.items():
        female, male, fulls = tokens.get(token, (0, 0, 0))
        tokens[token] = (female + n * gc.female, male + n * gc.male, fulls + n)
    firsts: dict[str, tuple[int, int, int]] = {}  # first token's spelling -> (female, male, number of full names)
    for token, (female, male, fulls) in tokens.items():
        first = _spelling(token)
        f, m, n = firsts.get(first, (0, 0, 0))
        firsts[first] = (f + female, m + male, n + fulls)
    dropped: Counter[Rejection] = Counter()
    entries = _check_spellings(firsts, dropped)
    if dropped:
        log("INFO", f"to_first_names: dropped {dropped.total()} first tokens failing cleaning")
    return FrequencyTable(entries, NameType.FIRST, table.source_id)


def dataset_stats(table: FrequencyTable) -> DatasetStats:
    """Summary statistics for one table."""
    if not table.entries:
        raise ValueError("table is empty")
    total = sum(gc.total for gc in table.entries.values())
    unique = len(table.entries)
    if table.name_type is NameType.FIRST:
        unique_first, unique_last = unique, 0
    else:
        firsts = set()
        lasts = set()
        for name in table.entries:
            first, last = split_full_name(name)
            firsts.add(first)
            if last:
                lasts.add(last)
        unique_first, unique_last = len(firsts), len(lasts)
    ambiguous = sum(1 for gc in table.entries.values() if gc.is_ambiguous)
    return DatasetStats(total, unique, unique_first, unique_last, ambiguous)


def cross_dataset_uniqueness(tables: Sequence[FrequencyTable]) -> list[tuple[int, float]]:
    """Per table: how many of its names appear in no other table, and the
    percentage of its unique names that represents."""
    if len(tables) < 2:
        raise ValueError("need at least two tables")
    keysets = [set(t.entries) for t in tables]
    results = []
    for i, keys in enumerate(keysets):
        others: set[str] = set()
        for j, other in enumerate(keysets):
            if j != i:
                others |= other
        unique = len(keys - others)
        pct = 100.0 * unique / len(keys) if keys else 0.0
        results.append((unique, pct))
    return results


def pairwise_overlap(tables: Sequence[FrequencyTable]) -> list[list[tuple[int, float]]]:
    """Matrix of (overlap count, percentage of the row dataset's names).

    Diagonal cells carry the dataset's own size at 100%.
    """
    if len(tables) < 2:
        raise ValueError("need at least two tables")
    keysets = [set(t.entries) for t in tables]
    matrix = []
    for i, keys_i in enumerate(keysets):
        row = []
        for j, keys_j in enumerate(keysets):
            if i == j:
                row.append((len(keys_i), 100.0))
                continue
            overlap = len(keys_i & keys_j)
            pct = 100.0 * overlap / len(keys_i) if keys_i else 0.0
            row.append((overlap, pct))
        matrix.append(row)
    return matrix


def _percentile(sorted_values: Sequence[float], q: float) -> float:
    """Linear-interpolation percentile of pre-sorted values (at least one), q in [0, 1]."""
    h = (len(sorted_values) - 1) * q
    lo = int(h)
    hi = min(lo + 1, len(sorted_values) - 1)
    frac = h - lo
    return sorted_values[lo] * (1.0 - frac) + sorted_values[hi] * frac


def ambiguity_histogram(table: FrequencyTable, bin_count: int) -> AmbiguityHistogram:
    """Histogram of p(female) over the table's ambiguous names.

    Bins partition [0, 1] with equal width; per-bin percentages sum to 100.
    """
    if bin_count < 2:
        raise ValueError("bin_count must be >= 2")
    values = sorted(gc.female / gc.total for gc in table.entries.values() if gc.is_ambiguous)
    if not values:
        raise ValueError(f"{table.source_id}: no ambiguous names")
    bins = [0] * bin_count
    for v in values:
        bins[min(int(v * bin_count), bin_count - 1)] += 1
    total = len(values)
    edges = tuple(i / bin_count for i in range(bin_count + 1))
    percentages = tuple(100.0 * b / total for b in bins)
    return AmbiguityHistogram(edges, percentages, *(_percentile(values, q) for q in (0.25, 0.50, 0.75)), total)


# --- serialization -----------------------------------------------------------
#
# Table file layout (lossless round trip):
#   # name_type=first<TAB>source_id=ssa1937-1999[<TAB>key=value ...]
#   aaron<TAB>12<TAB>3514
# Names are sorted so identical tables serialize to identical bytes.


def _breaks_line(text: str) -> bool:
    """Whether text holds a tab or a line break, which a table file cannot carry."""
    return "\t" in text or "\n" in text or "\r" in text


def write_table(
    table: FrequencyTable,
    path: str | Path,
    extra_header: Mapping[str, str] | None = None,
) -> None:
    """Stream the sorted table lines to path. ValueError, raised before the file
    is opened: an extra header key holding "=" or named name_type or source_id,
    or a header field or name holding a tab or line break."""
    fields = {"name_type": table.name_type.value, "source_id": table.source_id}
    for key in extra_header or ():
        if "=" in key or key in fields:
            raise ValueError(f"header field {key!r}: key contains '=' or is name_type or source_id")
    fields.update(extra_header or {})
    for key, value in fields.items():
        if _breaks_line(key + value):
            raise ValueError(f"header field {key}={value!r} contains tab or newline")
    names = sorted(table.entries)
    for start in range(0, len(names), 4096):  # in slices: a string of every name would set the step's peak
        block = names[start : start + 4096]
        if _breaks_line("".join(block)):
            raise ValueError(f"name {next(filter(_breaks_line, block))!r} contains tab or newline")
    # id(GenderCounts) -> "\t<female>\t<male>\n": one tail per count object, which the table keeps alive
    tails: dict[int, str] = {}
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("# " + "\t".join(f"{k}={v}" for k, v in fields.items()) + "\n")
        for name in names:
            gc = table.entries[name]
            tail = tails.get(id(gc))
            if tail is None:
                tail = tails[id(gc)] = f"\t{gc.female}\t{gc.male}\n"
            fh.write(name + tail)


def read_table_with_header(path: str | Path) -> tuple[FrequencyTable, dict[str, str]]:
    """Read a table file, returning the table and any extra header fields."""
    path = Path(path)
    entries: dict[str, GenderCounts] = {}
    with path.open(encoding="utf-8-sig") as fh:
        first = fh.readline()
        if not first.startswith("# "):
            raise TableParseError(path, 1, "missing header line")
        fields: dict[str, str] = {}
        for item in first[2:].rstrip("\n").split("\t"):
            key, sep, value = item.partition("=")
            if not sep:
                raise TableParseError(path, 1, f"bad header field {item!r}")
            if key in fields:
                raise TableParseError(path, 1, f"duplicate header field {key!r}")
            fields[key] = value
        try:
            name_type = NameType(fields.pop("name_type"))
            source_id = fields.pop("source_id")
        except (KeyError, ValueError) as exc:
            raise TableParseError(path, 1, f"bad or missing header field: {exc}") from None
        # "female<TAB>male" text -> its GenderCounts: each distinct text is parsed and checked once, and
        # equal counts are drawn from shared however they are spelled, so names with equal counts share one object
        parsed: dict[str, GenderCounts] = {}
        shared: dict[GenderCounts, GenderCounts] = {}
        for line_no, line in enumerate(fh, start=2):
            line = line.rstrip("\n")
            if not line:
                continue
            name, _, rest = line.partition("\t")
            counts = parsed.get(rest)
            if counts is None:
                counts = _parse_counts(path, line_no, rest)
                counts = parsed[rest] = shared.setdefault(counts, counts)
            if name in entries:
                raise TableParseError(path, line_no, f"duplicate name {name!r}")
            entries[name] = counts
    return FrequencyTable(entries, name_type, source_id), fields


def _parse_counts(path: Path, line_no: int, rest: str) -> GenderCounts:
    """The counts of a table line whose text after the name is rest."""
    fields = rest.split("\t")
    if len(fields) != 2:
        raise TableParseError(path, line_no, "expected name<TAB>female<TAB>male")
    try:
        female, male = int(fields[0]), int(fields[1])
    except ValueError:
        raise TableParseError(path, line_no, "counts must be integers") from None
    if female < 0 or male < 0 or female + male < 1:
        raise TableParseError(path, line_no, f"bad counts ({female}, {male})")
    return GenderCounts(female, male)


def file_sha256(path: str | Path) -> str:
    """The file's SHA-256 in hex, by CPython's own SHA-256: hashlib would load OpenSSL (about 3 MB of RSS)."""
    try:
        from _sha2 import sha256  # 3.12+
    except ImportError:
        try:
            from _sha256 import sha256  # 3.10-3.11
        except ImportError:  # a build without it (Fedora's, for one) hashes only through OpenSSL
            from hashlib import sha256

    digest = sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 16), b""):
            digest.update(block)
    return digest.hexdigest()


def read_table(path: str | Path) -> FrequencyTable:
    return read_table_with_header(path)[0]


def parse_kv_file(path: str | Path, keys: Mapping[str, Callable[[str], object]]) -> dict[str, object]:
    """Parse a `key = value` config file: # starts a comment line, each key is one of keys and may appear once,
    and keys[key] parses its value; a ValueError from that names the file and the key."""
    fields: dict[str, object] = {}
    first_lines: dict[str, int] = {}
    # lines end at "\n" alone (reading translates "\r\n" and "\r"): splitlines would also end one at \x85 or \u2028
    for line_no, line in enumerate(Path(path).read_text(encoding="utf-8-sig").split("\n"), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ValueError(f"{path}:{line_no}: expected key = value")
        key = key.strip()
        if key not in keys:
            raise ValueError(f"{path}:{line_no}: unknown config key {key!r}")
        if key in first_lines:
            raise ValueError(f"{path}:{line_no}: key {key!r} repeated (first at line {first_lines[key]})")
        first_lines[key] = line_no
        try:
            fields[key] = keys[key](value.strip())
        except ValueError as exc:
            raise ValueError(f"{path}: config key {key!r}: {exc}") from None
    return fields
