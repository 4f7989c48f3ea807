"""Error analysis over scored names: lengths, character types, n-grams.

Names are bucketed into the four rate types (true female, false female,
true male, false male); undecided predictions are excluded. The n-gram
inventory pools rate types into a true category (TF + TM) and a false
category (FF + FM) and reports distinct-gram set sizes.
"""

from __future__ import annotations

from collections import Counter
from pathlib import Path
from typing import Mapping, NamedTuple, Sequence

from .corpus import log
from .evaluation import LabeledTestSet, RateType, rate_type
from .mle import Prediction

_ASCII_LOWER = frozenset("abcdefghijklmnopqrstuvwxyz")


def assign_rate_types(
    testset: LabeledTestSet, predictions: Sequence[Prediction]
) -> dict[RateType, list[str]]:
    """Each rate type, in enum order, with its decidedly-predicted names in test-set order."""
    if len(predictions) != testset.size:
        raise ValueError(f"{len(predictions)} predictions for {testset.size} test names")
    groups: dict[RateType, list[str]] = {rate: [] for rate in RateType}
    for (name, observed), pred in zip(testset.names, predictions):
        rate = rate_type(observed, pred.label)
        if rate is not None:
            groups[rate].append(name)
    return groups


def length_histograms(groups: Mapping[RateType, Sequence[str]]) -> dict[RateType, dict[int, float]]:
    """Per rate type: percentage of names at each character length.

    Rate types with no names are omitted (with a log notice).
    """
    histograms: dict[RateType, dict[int, float]] = {}
    for rate, names in groups.items():
        if not names:
            log("INFO", f"length_histograms: no {rate.value} names, omitted")
            continue
        counts = sorted(Counter(map(len, names)).items())
        histograms[rate] = {length: 100.0 * count / len(names) for length, count in counts}
    return histograms


def is_non_english(name: str) -> bool:
    """True when any character falls outside a-z."""
    return any(ch not in _ASCII_LOWER for ch in name)


def non_english_distribution(groups: Mapping[RateType, Sequence[str]]) -> dict[RateType, float]:
    """Per rate type: percentage of names containing non a-z characters."""
    out = {}
    for rate, names in groups.items():
        if not names:
            log("INFO", f"non_english_distribution: no {rate.value} names, omitted")
            continue
        out[rate] = 100.0 * sum(map(is_non_english, names)) / len(names)
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


def ngram_inventory(groups: Mapping[RateType, Sequence[str]], n: int) -> NgramInventory:
    """Distinct-gram sets for the true (TF+TM) and false (FF+FM) categories."""
    true_names = [*groups[RateType.TF], *groups[RateType.TM]]
    false_names = [*groups[RateType.FF], *groups[RateType.FM]]
    if not true_names or not false_names:
        raise ValueError(f"ngram_inventory: {'false' if true_names else 'true'} category is empty")
    grams = [frozenset(g for name in names for g in extract_ngrams(name, n)) for names in (true_names, false_names)]
    return NgramInventory(n, *grams)


# --- plot-ready exports -------------------------------------------------------


def write_length_export(histograms: dict[RateType, dict[int, float]], path: str | Path) -> None:
    lines = ["rate_type\tlength\tpercentage"]
    for rate in RateType:
        for length, pct in histograms.get(rate, {}).items():
            lines.append(f"{rate.value}\t{length}\t{pct:.4f}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_non_english_export(groups: Mapping[RateType, Sequence[str]], path: str | Path) -> None:
    lines = ["rate_type\tnames\tnon_english_percentage"]
    for rate, pct in non_english_distribution(groups).items():
        lines.append(f"{rate.value}\t{len(groups[rate])}\t{pct:.4f}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_ngram_export(inventory: NgramInventory, path: str | Path) -> None:
    lines = [
        "n\tunique_to_true\tunique_to_false\toverlapping",
        f"{inventory.n}\t{len(inventory.unique_to_true)}"
        f"\t{len(inventory.unique_to_false)}\t{len(inventory.overlapping)}",
    ]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
