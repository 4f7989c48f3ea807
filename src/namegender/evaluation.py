"""Train/test splitting, scoring, and metric aggregation.

Scoring uses female as the positive class. Accuracy counts undecided
(ambiguous or unknown) predictions as incorrect in its denominator;
precision excludes them; recall counts an undecided prediction against the
inferrer when the observed gender is female. The gender bias error is
(FF - FM) / (FF + FM + TF + TM), scaled to a percentage, so a negative
value means female names are disproportionately mislabeled male.

Per-dataset metrics aggregate across test sets as a size-weighted average;
cells without a defined value (zero denominators, or inferrers that must
not be scored on their own training data) are NA and drop out of the
average together with their sizes.
"""

from __future__ import annotations

import random
from collections import Counter
from enum import Enum
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Iterator, Mapping, NamedTuple, Sequence

from .corpus import FrequencyTable, TableParseError, _breaks_line
from .mle import GenderLabel, Prediction

if TYPE_CHECKING:  # only annotations name it, so split does not run inferrers
    from .inferrers import Inferrer


class SplitDegenerateError(ValueError):
    """The requested split leaves train or test empty."""


class _TestSetFields(NamedTuple):
    id: str
    names: tuple[tuple[str, GenderLabel], ...]


class LabeledTestSet(_TestSetFields):
    """Unique names with a single observed gender each."""

    __slots__ = ()

    def __init__(self, *fields: object, **named: object) -> None:
        seen = set()
        for name, observed in self.names:
            if observed not in (GenderLabel.FEMALE, GenderLabel.MALE):
                raise ValueError(f"{name!r}: observed gender must be female or male")
            if name in seen:
                raise ValueError(f"duplicate test name {name!r}")
            seen.add(name)

    @property
    def size(self) -> int:
        return len(self.names)


class SplitResult(NamedTuple):
    train: FrequencyTable
    test: LabeledTestSet
    ties: tuple[str, ...]


def split_dataset(table: FrequencyTable, test_fraction: float, seed: int) -> SplitResult:
    """Partition unique names into train/test uniformly at random.

    Ground truth for a test name is its majority gender by counts; names
    with exactly tied counts are excluded from the test set and reported in
    `ties`. The same seed always produces the same split.
    """
    if not 0.0 < test_fraction < 1.0:
        raise ValueError(f"test_fraction {test_fraction} outside (0, 1)")
    names = sorted(table.entries)
    n = len(names)
    k = round(n * test_fraction)
    if k == 0 or k == n:
        raise SplitDegenerateError(f"fraction {test_fraction} of {n} names leaves an empty side")
    rng = random.Random(seed)
    rng.shuffle(names)
    test_names, train_names = names[:k], names[k:]

    ties = []
    pairs = []
    for name in sorted(test_names):
        gc = table.entries[name]
        if gc.female == gc.male:
            ties.append(name)
        elif gc.female > gc.male:
            pairs.append((name, GenderLabel.FEMALE))
        else:
            pairs.append((name, GenderLabel.MALE))
    if not pairs:
        raise SplitDegenerateError("every sampled test name has tied counts")

    train = FrequencyTable({n: table.entries[n] for n in sorted(train_names)}, table.name_type, f"{table.source_id}-train")
    test = LabeledTestSet(table.source_id, tuple(pairs))
    return SplitResult(train=train, test=test, ties=tuple(ties))


class ConfusionCounts(NamedTuple):
    """Outcome tallies under the female-positive convention.

    Undecided predictions are split by observed gender because recall
    charges undecided-on-female against the inferrer.
    """

    true_female: int = 0
    true_male: int = 0
    false_female: int = 0
    false_male: int = 0
    undecided_female: int = 0
    undecided_male: int = 0

    @property
    def undecided(self) -> int:
        return self.undecided_female + self.undecided_male

    @property
    def total(self) -> int:
        return self.true_female + self.true_male + self.false_female + self.false_male + self.undecided


class RateType(Enum):
    """Outcome of a decided prediction: true/false female, true/false male."""

    TF = "TF"
    FF = "FF"
    TM = "TM"
    FM = "FM"


def rate_type(observed: GenderLabel, predicted: GenderLabel) -> RateType | None:
    """Classify one prediction; None when it is undecided (ambiguous or unknown).

    FF = predicted female, observed male; FM symmetric.
    """
    if predicted is GenderLabel.FEMALE:
        return RateType.TF if observed is GenderLabel.FEMALE else RateType.FF
    if predicted is GenderLabel.MALE:
        return RateType.TM if observed is GenderLabel.MALE else RateType.FM
    return None


def score(testset: LabeledTestSet, predictions: Sequence[Prediction]) -> ConfusionCounts:
    """Tally predictions against observed genders."""
    if len(predictions) != testset.size:
        raise ValueError(f"{len(predictions)} predictions for {testset.size} test names")
    # undecided predictions are tallied under their observed gender
    tally = Counter(
        rate_type(observed, pred.label) or observed
        for (_, observed), pred in zip(testset.names, predictions)
    )
    return ConfusionCounts(
        tally[RateType.TF],
        tally[RateType.TM],
        tally[RateType.FF],
        tally[RateType.FM],
        tally[GenderLabel.FEMALE],
        tally[GenderLabel.MALE],
    )


class MetricValues(NamedTuple):
    """Percentages; None marks a metric whose denominator was zero."""

    accuracy: float | None
    precision: float | None
    recall: float | None
    f1: float | None
    gbe: float | None


def metrics(counts: ConfusionCounts) -> MetricValues:
    """Compute all five metrics from one confusion tally."""
    total = counts.total
    if total == 0:
        raise ValueError("empty confusion counts")
    tf, tm = counts.true_female, counts.true_male
    ff, fm = counts.false_female, counts.false_male

    accuracy = 100.0 * (tf + tm) / total
    precision = 100.0 * tf / (tf + ff) if tf + ff > 0 else None
    recall_den = tf + fm + counts.undecided_female
    recall = 100.0 * tf / recall_den if recall_den > 0 else None
    if precision is not None and recall is not None and precision + recall > 0:
        f1 = 2.0 * precision * recall / (precision + recall)
    else:
        f1 = None
    decided = tf + tm + ff + fm
    gbe = 100.0 * (ff - fm) / decided if decided > 0 else None
    return MetricValues(accuracy, precision, recall, f1, gbe)


def aggregate(per_dataset: Iterable[tuple[float | None, int]]) -> float | None:
    """Exact size-weighted average over (value, size) pairs, skipping NA values."""
    from fractions import Fraction

    num = Fraction(0)
    den = 0
    for value, size in per_dataset:
        if value is None:
            continue
        num += Fraction(value) * size
        den += size
    return float(num / den) if den else None


class ReportRow(NamedTuple):
    inferrer_id: str
    dataset_id: str
    size: int
    values: MetricValues | None  # None marks an NA cell, which is not scored


class MetricsReport:
    """Per-dataset rows plus one size-weighted aggregate row per inferrer."""

    def __init__(self, rows: list[ReportRow], notes: list[str] | None = None) -> None:
        self.rows = rows
        self.notes = [] if notes is None else notes

    def _records(self) -> Iterator[dict[str, object]]:
        """Each inferrer's rows in order, then its ALL row; NA metrics are None."""
        groups: dict[str, list[ReportRow]] = {}
        for row in self.rows:
            groups.setdefault(row.inferrer_id, []).append(row)
        for inferrer_id, rows in groups.items():
            scored = [r for r in rows if r.values is not None]
            agg = MetricValues._make(
                aggregate((r.values[i], r.size) for r in scored) for i in range(len(MetricValues._fields))
            )
            for row in rows + [ReportRow(inferrer_id, "ALL", sum(r.size for r in scored), agg)]:
                yield {
                    "inferrer": row.inferrer_id,
                    "dataset": row.dataset_id,
                    "size": row.size,
                    "skipped": row.values is None,
                    **(dict.fromkeys(MetricValues._fields) if row.values is None else row.values._asdict()),
                }

    def _cells(self) -> list[list[str]]:
        return [
            [r["inferrer"], r["dataset"], str(r["size"])]
            + ["NA" if r[key] is None else f"{r[key]:.2f}" for key in MetricValues._fields]
            for r in self._records()
        ]

    def to_tsv(self) -> str:
        lines = ["\t".join(("inferrer", "dataset", "size") + MetricValues._fields)]
        lines += ["\t".join(cells) for cells in self._cells()]
        return "\n".join(lines) + "\n"

    def to_text(self) -> str:
        """Aligned table: Accuracy, Precision, Recall, F1, GBE."""
        header = ["Inferrer", "Dataset", "Size", "Accuracy", "Precision", "Recall", "F1", "GBE"]
        body = self._cells()
        widths = [max(len(header[i]), *(len(r[i]) for r in body)) for i in range(len(header))]
        out = ["  ".join(c.ljust(widths[i]) for i, c in enumerate(cells)) for cells in [header] + body]
        out += [f"note: {note}" for note in self.notes]
        return "\n".join(out) + "\n"

    def to_records(self) -> list[dict[str, object]]:
        """Machine-readable records, one per inferrer x dataset plus aggregates."""
        return list(self._records())


def evaluate_run(
    testsets: Sequence[LabeledTestSet],
    inferrers: Sequence[Inferrer],
    skip: Mapping[str, set[str]] | None = None,
) -> MetricsReport:
    """Score every inferrer on every test set.

    skip maps an inferrer id to dataset ids it must not be scored on
    (typically its own training data); those cells are NA. Rows are ordered by (inferrer id,
    dataset id), notes ("ID: note") by inferrer as given. ValueError: a duplicate inferrer or
    test-set id, or a skip cell naming an inferrer or dataset not in the run.
    """
    skip = skip or {}
    infer_ids, dataset_ids = [inf.id for inf in inferrers], [ts.id for ts in testsets]
    for kind, ids in (("inferrer", infer_ids), ("test-set", dataset_ids)):
        if len(set(ids)) < len(ids):
            raise ValueError(f"duplicate {kind} id {next(i for i in ids if ids.count(i) > 1)!r}")
    bad = sorted(f"{i}={d}" for i, ds in skip.items() for d in ds if i not in infer_ids or d not in dataset_ids)
    if bad:
        raise ValueError(f"NA cell {bad[0]} names an inferrer or dataset not in the run")
    rows = []
    for inferrer in sorted(inferrers, key=lambda inf: inf.id):
        excluded = skip.get(inferrer.id, set())
        for ts in sorted(testsets, key=lambda t: t.id):
            if ts.id in excluded:
                rows.append(ReportRow(inferrer.id, ts.id, ts.size, None))
                continue
            predictions = inferrer.infer_batch([name for name, _ in ts.names])
            rows.append(ReportRow(inferrer.id, ts.id, ts.size, metrics(score(ts, predictions))))
    return MetricsReport(rows, [f"{inferrer.id}: {note}" for inferrer in inferrers for note in inferrer.notes])


# --- test-set serialization --------------------------------------------------
#
#   # testset=<id>
#   anna<TAB>female


def write_testset(testset: LabeledTestSet, path: str | Path) -> None:
    """Write the test set; an id or name holding a tab or line break raises
    ValueError before the file is created."""
    bad = next(filter(_breaks_line, (testset.id, *(name for name, _ in testset.names))), None)
    if bad is not None:
        raise ValueError(f"test-set id or name {bad!r} contains tab or newline")
    lines = [f"# testset={testset.id}"]
    for name, observed in testset.names:
        lines.append(f"{name}\t{observed.value}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_testset(path: str | Path) -> LabeledTestSet:
    """The test set at path; TableParseError names the file and line of each line it refuses."""
    path = Path(path)
    pairs, first_lines = [], {}
    with path.open(encoding="utf-8-sig") as fh:
        first = fh.readline().rstrip("\n")
        if not first.startswith("# testset="):
            raise TableParseError(path, 1, "missing testset header")
        set_id = first[len("# testset=") :]
        for line_no, line in enumerate(fh, start=2):
            line = line.rstrip("\n")
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != 2:
                raise TableParseError(path, line_no, "expected name<TAB>gender")
            name, raw_label = parts
            if raw_label not in ("female", "male"):
                raise TableParseError(path, line_no, f"bad gender {raw_label!r} (expected female or male)")
            if first_lines.setdefault(name, line_no) != line_no:
                raise TableParseError(path, line_no, f"duplicate test name {name!r} (first at line {first_lines[name]})")
            pairs.append((name, GenderLabel(raw_label)))
    if not pairs:
        raise ValueError(f"{path}: no test names")
    return LabeledTestSet(set_id, tuple(pairs))
