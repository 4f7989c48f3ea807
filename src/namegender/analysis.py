"""Error analysis over scored names: lengths, character types, n-grams.

Names are bucketed into the four rate types (true female, false female,
true male, false male); undecided predictions are excluded. The n-gram
inventory pools rate types into a true category (TF + TM) and a false
category (FF + FM) and reports distinct-gram set sizes.
"""

from __future__ import annotations

import logging
from collections import Counter
from pathlib import Path
from typing import Iterable, NamedTuple, Sequence

from .evaluation import LabeledTestSet, RateType, rate_type
from .mle import Prediction

logger = logging.getLogger(__name__)

_ASCII_LOWER = frozenset("abcdefghijklmnopqrstuvwxyz")


def assign_rate_types(
    testset: LabeledTestSet, predictions: Sequence[Prediction]
) -> list[tuple[str, RateType]]:
    """Pair each decidedly-predicted name with its rate type."""
    if len(predictions) != testset.size:
        raise ValueError(f"{len(predictions)} predictions for {testset.size} test names")
    rated = ((name, rate_type(observed, pred.label)) for (name, observed), pred in zip(testset.names, predictions))
    return [(name, rate) for name, rate in rated if rate is not None]


def length_histograms(
    rated: Iterable[tuple[str, RateType]]
) -> dict[RateType, dict[int, float]]:
    """Per rate type: percentage of names at each character length.

    Rate types with no names are omitted (with a log notice).
    """
    by_rate: dict[RateType, list[int]] = {}
    for name, rate in rated:
        by_rate.setdefault(rate, []).append(len(name))
    histograms: dict[RateType, dict[int, float]] = {}
    for rate in RateType:
        lengths = by_rate.get(rate)
        if not lengths:
            logger.info("length_histograms: no %s names, omitted", rate.value)
            continue
        counts = sorted(Counter(lengths).items())
        histograms[rate] = {length: 100.0 * count / len(lengths) for length, count in counts}
    return histograms


def is_non_english(name: str) -> bool:
    """True when any character falls outside a-z."""
    return any(ch not in _ASCII_LOWER for ch in name)


def non_english_distribution(
    rated: Iterable[tuple[str, RateType]]
) -> dict[RateType, float]:
    """Per rate type: percentage of names containing non a-z characters."""
    totals: dict[RateType, int] = {}
    hits: dict[RateType, int] = {}
    for name, rate in rated:
        totals[rate] = totals.get(rate, 0) + 1
        if is_non_english(name):
            hits[rate] = hits.get(rate, 0) + 1
    out = {}
    for rate in RateType:
        if rate not in totals:
            logger.info("non_english_distribution: no %s names, omitted", rate.value)
            continue
        out[rate] = 100.0 * hits.get(rate, 0) / totals[rate]
    return out


def extract_ngrams(name: str, n: int) -> list[str]:
    """All contiguous length-n substrings, lower-cased, in order."""
    if n not in (2, 3):
        raise ValueError(f"n must be 2 or 3, got {n}")
    name = name.lower()
    return [name[i : i + n] for i in range(len(name) - n + 1)]


class NgramInventory(NamedTuple):
    """Distinct grams of the true and false categories and their overlap."""

    n: int
    true_grams: frozenset[str]
    false_grams: frozenset[str]

    @property
    def unique_to_true(self) -> frozenset[str]:
        return self.true_grams - self.false_grams

    @property
    def unique_to_false(self) -> frozenset[str]:
        return self.false_grams - self.true_grams

    @property
    def overlapping(self) -> frozenset[str]:
        return self.true_grams & self.false_grams


def ngram_inventory(rated: Iterable[tuple[str, RateType]], n: int) -> NgramInventory:
    """Distinct-gram sets for the true (TF+TM) and false (FF+FM) categories."""
    true_grams: set[str] = set()
    false_grams: set[str] = set()
    saw_true = saw_false = False
    for name, rate in rated:
        grams = extract_ngrams(name, n)
        if rate in (RateType.TF, RateType.TM):
            saw_true = True
            true_grams.update(grams)
        else:
            saw_false = True
            false_grams.update(grams)
    if not saw_true or not saw_false:
        missing = "true" if not saw_true else "false"
        raise ValueError(f"ngram_inventory: {missing} category is empty")
    return NgramInventory(n, frozenset(true_grams), frozenset(false_grams))


# --- plot-ready exports -------------------------------------------------------


def write_length_export(histograms: dict[RateType, dict[int, float]], path: str | Path) -> None:
    lines = ["rate_type\tlength\tpercentage"]
    for rate in RateType:
        for length, pct in histograms.get(rate, {}).items():
            lines.append(f"{rate.value}\t{length}\t{pct:.4f}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_non_english_export(
    rated: Sequence[tuple[str, RateType]], path: str | Path
) -> None:
    distribution = non_english_distribution(rated)
    counts: dict[RateType, int] = {}
    for _, rate in rated:
        counts[rate] = counts.get(rate, 0) + 1
    lines = ["rate_type\tnames\tnon_english_percentage"]
    for rate in RateType:
        if rate in distribution:
            lines.append(f"{rate.value}\t{counts[rate]}\t{distribution[rate]:.4f}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_ngram_export(inventory: NgramInventory, path: str | Path) -> None:
    lines = [
        "n\tunique_to_true\tunique_to_false\toverlapping",
        f"{inventory.n}\t{len(inventory.unique_to_true)}"
        f"\t{len(inventory.unique_to_false)}\t{len(inventory.overlapping)}",
    ]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
