"""Frequency-based gender inference with a decision threshold.

A trained model is nothing more than a frequency table plus a threshold
tau: a name is labeled female when p(female) > tau, male when
p(female) < 1 - tau, and ambiguous otherwise. Names absent from the table
are labeled unknown. Both comparisons are strict, so p(female) exactly 0.5
is ambiguous at every tau.
"""

from __future__ import annotations

import contextlib
import os
from enum import Enum
from pathlib import Path
from threading import Lock
from typing import Iterable, NamedTuple, Sequence

from .corpus import FrequencyTable, GenderCounts, NameType, TableParseError, file_sha256, read_table_with_header, write_table

DEFAULT_TAU = 0.90
# Names a cached model's table searches for over its life before it builds its dict: on any model a search
# costs about 1/20 of the build, as both are linear in the model's size
_SEARCHES = 8


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
        [counts] = self.table.lookup([name])
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
    if not table:
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


class _CachedTable(FrequencyTable):
    """A cache entry's table. Until entries is first read, a name is found in the entry's "\n"-joined names,
    and the number of names before it indexes its counts; the table searches at most _SEARCHES names in its life."""

    def __init__(self, names: str, index: memoryview, shared: list[GenderCounts], name_type: NameType, source_id: str):
        if str.count(names, "\n") + 1 != len(index) or max(index) >= len(shared):
            raise ValueError("cache entry's names, indexes and pairs do not match")
        self._parts, self._size, self._searches, self._lock = (names, index, shared), len(index), 0, Lock()
        self.name_type, self.source_id = name_type, source_id

    def __len__(self) -> int:
        return self._size

    def __getattr__(self, attr: str) -> dict[str, GenderCounts]:
        if attr != "entries":
            raise AttributeError(attr)
        with self._lock:  # one thread builds entries; another that reads them meanwhile waits for them
            if "entries" not in vars(self):
                names, index, shared = self.__dict__.pop("_parts")
                names = names.split("\n")  # frees the joined names before the dict is built
                self.entries = dict(zip(names, map(shared.__getitem__, index)))
        return self.entries

    def lookup(self, names: Sequence[str]) -> Iterable[GenderCounts | None]:
        self._searches += len(names)
        parts = vars(self).get("_parts") if self._searches <= _SEARCHES else None
        if parts is None:  # past the limit, or built: the dict answers, and no part of the entry is held here
            return super().lookup(names)
        text, index, shared = parts
        return [None if at < 0 else shared[index[at]] for at in (_place(text, name) for name in names)]


def _place(text: str, name: str) -> int:
    """The place of name among the "\n"-joined names in text, or -1 where it is none of them."""
    if "\n" in name:
        return -1
    if text == name or text.startswith(name + "\n"):
        return 0
    at = text.find(f"\n{name}\n")
    if at < 0:
        return text.count("\n") if text.endswith("\n" + name) else -1
    return text.count("\n", 0, at) + 1


def load_model(path: str | Path) -> MleModel:
    """Read a model file that save_model wrote; an accepted file's parse is kept in $XDG_CACHE_HOME/namegender by SHA-256."""
    import marshal
    cache = os.environ.get("XDG_CACHE_HOME", "")  # XDG ignores a relative value; with no home known, "~" stays relative
    entry = Path(cache if os.path.isabs(cache) else os.path.expanduser("~/.cache"), "namegender", file_sha256(path))
    try:  # an entry: (name_type, source_id, extras), the "\n"-joined names, array("I") indexes into pairs, pairs
        (name_type, source_id, extras), names, index, pairs = marshal.loads(entry.read_bytes() if entry.is_absolute() else b"")
        shared = [GenderCounts(*pair) for pair in pairs]
        table, parsed = _CachedTable(names, memoryview(index).cast("I"), shared, NameType(name_type), source_id), False
    except (OSError, EOFError, ValueError, TypeError, KeyError, IndexError, AttributeError):  # no entry, or an unusable one
        (table, extras), parsed = read_table_with_header(path), True
    try:
        model = train(table, float(extras["tau"]), extras.get("model_id"))
    except KeyError:
        raise TableParseError(path, 1, "model file lacks tau header field") from None
    except ValueError as exc:  # tau is no number or outside [0.5, 1.0], or the table is empty
        raise TableParseError(path, 1, str(exc)) from None
    if parsed and entry.is_absolute():  # store it, unless its directory cannot be written or the file changed since hashed
        with contextlib.suppress(OSError):
            entry.parent.mkdir(parents=True, exist_ok=True)
            if os.access(entry.parent, os.W_OK) and file_sha256(path) == entry.name:
                from array import array
                ids = {counts: i for i, counts in enumerate(dict.fromkeys(table.entries.values()))}
                index = array("I", map(ids.__getitem__, table.entries.values()))
                fields = table.name_type.value, table.source_id, extras
                temp = entry.with_name(f"{entry.name}.{os.getpid()}")
                try:
                    temp.write_bytes(marshal.dumps((fields, "\n".join(table.entries), index.tobytes(), [*map(tuple, ids)]), 2))
                    temp.replace(entry)
                finally:  # a failed write or replace leaves no temporary file
                    temp.unlink(missing_ok=True)
    return model
