"""Frequency-based gender inference with a decision threshold.

A trained model is nothing more than a frequency table plus a threshold
tau: a name is labeled female when p(female) > tau, male when
p(female) < 1 - tau, and ambiguous otherwise. Names absent from the table
are labeled unknown. Both comparisons are strict, so p(female) exactly 0.5
is ambiguous at every tau.
"""

from __future__ import annotations

from enum import Enum
from pathlib import Path
from typing import NamedTuple

from .corpus import (
    FrequencyTable,
    GenderCounts,
    TableParseError,
    read_table_with_header,
    write_table,
)

DEFAULT_TAU = 0.90


class GenderLabel(Enum):
    FEMALE = "female"
    MALE = "male"
    AMBIGUOUS = "ambiguous"
    UNKNOWN = "unknown"


class _PredictionFields(NamedTuple):
    label: GenderLabel
    p_female: float | None
    source: str


# typing.NamedTuple takes no __init__ in its own body, so a record with checks is a
# subclass whose __init__ checks the fields that the tuple's __new__ has set.
class Prediction(_PredictionFields):
    """One inference outcome: label, p(female), and which inferrer said so."""

    __slots__ = ()

    def __init__(self, *fields: object, **named: object) -> None:
        if self.label is GenderLabel.UNKNOWN:
            if self.p_female is not None:
                raise ValueError("unknown predictions carry no probability")
        else:
            if self.p_female is None:
                raise ValueError(f"{self.label.value} prediction requires p_female")
            if not 0.0 <= self.p_female <= 1.0:
                raise ValueError(f"p_female {self.p_female} outside [0, 1]")


def mle_female(counts: GenderCounts) -> float:
    """Fraction of a name's labeled occurrences that are female."""
    total = counts.total
    if total < 1:
        raise ValueError("counts sum to zero")
    return counts.female / total


class MleModel(NamedTuple):
    """Immutable trained model; classify is safe under concurrent calls."""

    table: FrequencyTable
    tau: float
    model_id: str

    def classify(self, name: str) -> Prediction:
        """Threshold the name's p(female); absent names are unknown."""
        counts = self.table.entries.get(name)
        if counts is None:
            return Prediction(GenderLabel.UNKNOWN, None, self.model_id)
        return Prediction(*self.answer(counts), self.model_id)

    def answer(self, counts: GenderCounts) -> tuple[GenderLabel, float]:
        """The label and p(female) that classify gives a name with these counts."""
        p = mle_female(counts)
        if p > self.tau:
            return GenderLabel.FEMALE, p
        if p < 1.0 - self.tau:
            return GenderLabel.MALE, p
        return GenderLabel.AMBIGUOUS, p


def _default_model_id(source_id: str) -> str:
    return f"mle:{source_id}"


def train(table: FrequencyTable, tau: float = DEFAULT_TAU, model_id: str | None = None) -> MleModel:
    if not table.entries:
        raise ValueError("cannot train on an empty table")
    if not 0.5 <= tau <= 1.0:
        raise ValueError(f"tau {tau} outside [0.5, 1.0]")
    if model_id is None:
        model_id = _default_model_id(table.source_id)
    return MleModel(table=table, tau=tau, model_id=model_id)


def save_model(model: MleModel, path: str | Path) -> None:
    """Write the model as a table file with tau in the header.

    The round trip through load_model preserves every count and tau exactly.
    """
    extra = {"tau": repr(model.tau)}
    if model.model_id != _default_model_id(model.table.source_id):
        extra["model_id"] = model.model_id
    write_table(model.table, path, extra_header=extra)


def load_model(path: str | Path) -> MleModel:
    table, extras = read_table_with_header(path)
    if "tau" not in extras:
        raise TableParseError(path, 1, "model file lacks tau header field")
    try:
        tau = float(extras["tau"])
    except ValueError:
        raise TableParseError(path, 1, f"bad tau value {extras['tau']!r}") from None
    model_id = extras.get("model_id", _default_model_id(table.source_id))
    return train(table, tau, model_id)
