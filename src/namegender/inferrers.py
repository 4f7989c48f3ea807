"""Uniform inference interface and the inferrers that implement it.

Every inferrer answers infer_batch with exactly one Prediction per input
name, in input order, tagged with the inferrer's id. External HTTP
adapters degrade per-name failures to unknown predictions instead of
aborting the batch; only configuration problems (bad credential
reference, endpoint unreachable before any request got an HTTP response)
fail fast.
"""

from __future__ import annotations

import os
import time
from abc import ABC, abstractmethod
from contextlib import closing
from pathlib import Path
from types import MappingProxyType
from typing import Callable, Mapping, NamedTuple, Sequence
from urllib.parse import quote, urlsplit

from .corpus import GenderCounts, _breaks_line, log, parse_kv_file
from .mle import GenderLabel, MleModel, Prediction

# Six-way label vocabulary collapsed onto the four labels we score.
DEFAULT_LABEL_ALIASES: Mapping[str, GenderLabel] = {
    "female": GenderLabel.FEMALE,
    "mostly female": GenderLabel.FEMALE,
    "mostly_female": GenderLabel.FEMALE,
    "male": GenderLabel.MALE,
    "mostly male": GenderLabel.MALE,
    "mostly_male": GenderLabel.MALE,
    "andy": GenderLabel.AMBIGUOUS,
    "unknown": GenderLabel.UNKNOWN,
}


class LabelMappingError(ValueError):
    """An external label had no mapping and no default was declared."""


class AdapterConfigError(ValueError):
    """An external adapter is misconfigured."""


class AdapterUnreachableError(ConnectionError):
    """No request to the endpoint has received any HTTP response."""


class Inferrer(ABC):
    """Base class for anything that can label a batch of names."""

    notes: Sequence[str] = ()  # lines for an evaluation report on the batches answered so far

    def __init__(self, id: str) -> None:
        if _breaks_line(id):  # a report row or output line would gain a field
            raise ValueError(f"inferrer id {id!r} contains tab or newline")
        self.id = id
        self._unknown = Prediction(GenderLabel.UNKNOWN, None, id)  # every name the inferrer cannot label gets this one

    def infer_batch(self, names: Sequence[str]) -> list[Prediction]:
        """One prediction per input name, in input order."""
        if not names:
            raise ValueError("names must be non-empty")
        return self._infer_chunk(names)

    def infer(self, name: str) -> Prediction:
        return self.infer_batch([name])[0]

    @abstractmethod
    def _infer_chunk(self, names: Sequence[str]) -> list[Prediction]:
        ...


class MockInferrer(Inferrer):
    """Deterministic inferrer backed by a fixed name -> prediction map."""

    def __init__(self, id: str, predictions: Mapping[str, tuple[GenderLabel, float | None]]) -> None:
        super().__init__(id)
        self._predictions = {}
        for name, (label, p_female) in predictions.items():
            try:
                self._predictions[name] = Prediction(label, p_female, id)
            except (ValueError, TypeError) as exc:
                raise ValueError(f"entry {name!r}: {exc}") from None

    @classmethod
    def from_json(cls, path: str | Path, id: str | None = None) -> "MockInferrer":
        """Load a mapping file: {"anna": {"label": "female", "p_female": 0.99}}."""
        import json
        path = Path(path)
        try:
            raw = json.loads(path.read_text(encoding="utf-8-sig"))
            if not isinstance(raw, dict):
                raise ValueError("expected an object mapping names to entries")
            predictions, by_value = {}, {label.value: label for label in GenderLabel}
            for name, entry in raw.items():
                try:
                    predictions[name] = (by_value[entry["label"]], entry.get("p_female"))
                except (KeyError, TypeError, ValueError):
                    labels = ", ".join(label.value for label in GenderLabel)
                    raise ValueError(f"entry {name!r}: expected an object with a label out of {labels}") from None
            return cls(id if id is not None else path.stem, predictions)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None

    def _infer_chunk(self, names: Sequence[str]) -> list[Prediction]:
        get, unknown = self._predictions.get, self._unknown
        return [get(name, unknown) for name in names]


class MleInferrer(Inferrer):
    """Adapter exposing a trained MleModel through the batch interface.

    A known name's answer depends only on its counts and tau, so the inferrer
    keeps, for its whole life, one Prediction per distinct (label, p_female)
    answer and one unknown for every absent name, and a memo from each
    GenderCounts value it has answered to its shared answer. The model is
    immutable, so these hold at most one entry per distinct count pair of the
    model, however many names are queried.
    """

    def __init__(self, model: MleModel, id: str | None = None) -> None:
        super().__init__(id if id is not None else model.model_id)
        self.model = model
        self._by_counts: dict[GenderCounts, Prediction] = {}
        self._by_answer: dict[tuple[GenderLabel, float], Prediction] = {}

    def _infer_chunk(self, names: Sequence[str]) -> list[Prediction]:
        by_counts, by_answer, unknown = self._by_counts, self._by_answer, self._unknown
        out = []
        for counts in self.model.table.lookup(names):
            pred = unknown if counts is None else by_counts.get(counts)
            if pred is None:
                answer = self.model.answer(counts)
                # get first, so an answer already seen builds no Prediction
                pred = by_answer.get(answer) or by_answer.setdefault(answer, Prediction(*answer, self.id))
                by_counts[counts] = pred
            out.append(pred)
        return out


class RateLimiter:
    """Spaces dispatches at least 1/rate seconds apart."""

    def __init__(self, rate_per_second: float) -> None:  # ExternalAdapterConfig refuses a rate that is not positive
        self._interval = 1.0 / rate_per_second
        self._next_slot = 0.0

    def acquire(self) -> None:
        now = time.monotonic()
        wait = self._next_slot - now
        if wait > 0:
            time.sleep(wait)
            now = time.monotonic()
        self._next_slot = max(self._next_slot, now) + self._interval


def normalize_confidence(raw: object, scale: str) -> float:
    """Coerce a reported confidence onto [0, 1]; scale is "unit" or "percent", as ExternalAdapterConfig checks."""
    value = float(raw)  # type: ignore[arg-type]
    if scale == "percent":
        value /= 100.0
    return min(1.0, max(0.0, value))


def map_external_label(
    raw_label: object,
    raw_confidence: object | None,
    mapping: Mapping[str, GenderLabel],
    *,
    default: GenderLabel | None = None,
    confidence_scale: str = "unit",
    source: str = "",
) -> Prediction:
    """Translate an external service's (label, confidence) into a Prediction.

    Definite labels with no reported confidence are taken at full
    confidence; androgynous labels map to ambiguous at p(female) = 0.5.
    """
    key = str(raw_label).strip().lower()
    label = mapping.get(key, default)
    if label is None:
        raise LabelMappingError(f"no mapping for external label {raw_label!r}")
    if label is GenderLabel.UNKNOWN:
        return Prediction(GenderLabel.UNKNOWN, None, source)
    if label is GenderLabel.AMBIGUOUS:
        return Prediction(GenderLabel.AMBIGUOUS, 0.5, source)
    confidence = 1.0 if raw_confidence is None else normalize_confidence(raw_confidence, confidence_scale)
    p_female = confidence if label is GenderLabel.FEMALE else 1.0 - confidence
    return Prediction(label, p_female, source)


class _AdapterFields(NamedTuple):
    id: str
    endpoint: str
    credential_env: str | None = None
    rate_limit: float = 1.0
    max_attempts: int = 3
    backoff: float = 0.5
    timeout: float = 10.0
    label_path: str = "gender"
    confidence_path: str | None = None
    confidence_scale: str = "unit"
    # every config without aliases holds this one object, so it is read-only
    label_aliases: Mapping[str, GenderLabel] = MappingProxyType(DEFAULT_LABEL_ALIASES)
    default_label: GenderLabel | None = None
    cache_dir: str | None = None


class ExternalAdapterConfig(_AdapterFields):
    """Everything needed to talk to one external inference service."""

    __slots__ = ()

    def __init__(self, *fields: object, **named: object) -> None:
        if self.rate_limit <= 0:
            raise AdapterConfigError("rate_limit must be positive")
        if self.max_attempts < 1:
            raise AdapterConfigError("max_attempts must be >= 1")
        if self.backoff < 0:
            raise AdapterConfigError("backoff must be >= 0")
        if self.timeout <= 0:
            raise AdapterConfigError("timeout must be positive")
        from string import Formatter

        try:  # _fetch formats the template with name and credential only
            slots = {(field, spec, conv) for _, field, spec, conv in Formatter().parse(self.endpoint) if field is not None}
        except ValueError as exc:  # a stray brace
            raise AdapterConfigError(f"bad endpoint template: {exc}") from None
        if slots - {("name", "", None), ("credential", "", None)}:
            raise AdapterConfigError(f"endpoint template may hold only {{name}} and {{credential}}, got {self.endpoint!r}")
        if ("name", "", None) not in slots:
            raise AdapterConfigError("endpoint template must contain {name}")
        url = urlsplit(self.endpoint)  # a bad host raises ValueError, which parse_adapter_config names the file for
        if url.scheme not in ("http", "https") or not url.netloc:
            raise AdapterConfigError(f"endpoint must be an http(s) URL with a host, got {self.endpoint!r}")
        if self.confidence_scale not in ("unit", "percent"):
            raise AdapterConfigError(f"bad confidence_scale {self.confidence_scale!r}")


# An adapter config's keys: one per field, and a `label.<gender> = alias, alias, ...` line per label
_ADAPTER_KEYS: dict[str, Callable[[str], object]] = {
    **{field: str for field in _AdapterFields._fields if field != "label_aliases"},
    **dict(rate_limit=float, max_attempts=int, backoff=float, timeout=float, default_label=GenderLabel),
    **{f"label.{label.value}": str for label in GenderLabel},
}


def parse_adapter_config(path: str | Path, id: str | None = None) -> ExternalAdapterConfig:
    """Build an adapter config from a key=value file, named id when one is given instead of the file's id.

    Label aliases use `label.<gender> = alias, alias, ...` lines; anything
    not listed maps through `default_label` or raises at inference time.
    """
    try:
        fields = parse_kv_file(path, _ADAPTER_KEYS)
    except ValueError as exc:
        raise AdapterConfigError(str(exc)) from None
    if "id" not in fields or "endpoint" not in fields:
        raise AdapterConfigError(f"{path}: id and endpoint are required")
    aliases: dict[str, GenderLabel] = {}
    for key in [key for key in fields if key.startswith("label.")]:
        for alias in fields.pop(key).split(","):  # type: ignore[attr-defined]
            aliases[alias.strip().lower()] = GenderLabel(key[len("label.") :])
    if aliases:
        fields["label_aliases"] = aliases
    if id is not None:
        fields["id"] = id
    try:
        return ExternalAdapterConfig(**fields)  # type: ignore[arg-type]
    except ValueError as exc:
        raise AdapterConfigError(f"{path}: {exc}") from None


# Stored names are read one query per this many, SQLite's oldest limit on a query's parameters. Fetched
# names are stored one transaction per this many, so an interrupted batch keeps every chunk but the one in flight.
_STORE_CHUNK = 999


def _walk_path(data: object, dotted: str) -> object:
    """Follow a dotted path through parsed JSON; integers index lists."""
    node = data
    for segment in dotted.split("."):
        if isinstance(node, list):
            node = node[int(segment)]
        elif isinstance(node, dict):
            node = node[segment]
        else:
            raise KeyError(f"cannot descend into {type(node).__name__} at {segment!r}")
    return node


class HttpAdapter(Inferrer):
    """Generic adapter for services answering one GET per name with JSON.

    Responses that map to a label are stored verbatim in one SQLite file per
    adapter, <cache_dir>/<adapter-id>.sqlite, so repeated evaluations do not
    re-spend request quota. A stored response that no longer maps under the
    current config is fetched again and replaced.
    """

    def __init__(self, config: ExternalAdapterConfig, session=None) -> None:
        super().__init__(config.id)
        self.config = config
        self._session = session
        self._limiter = RateLimiter(config.rate_limit)
        self._reached = False

    def _credential(self) -> str:
        env = self.config.credential_env
        if env is None:
            return ""
        value = os.environ.get(env)
        if not value:
            raise AdapterConfigError(f"{self.id}: credential variable {env!r} is not set")
        return value

    def _open_store(self):
        """The response store as a sqlite3 connection; without a cache_dir, one in memory for one batch."""
        import sqlite3

        path = ":memory:"
        if self.config.cache_dir is not None:
            path = Path(self.config.cache_dir) / f"{self.id}.sqlite"
            path.parent.mkdir(parents=True, exist_ok=True)
        db = None
        try:
            db = sqlite3.connect(path)
            db.execute("CREATE TABLE IF NOT EXISTS responses (name TEXT PRIMARY KEY, text TEXT NOT NULL)")
        except sqlite3.Error as exc:
            if db is not None:
                db.close()
            raise AdapterConfigError(f"{path}: cannot open the response store: {exc}") from None
        return db

    def _fetch(self, name: str, credential: str) -> str | None:
        """Return raw response text, or None when all attempts failed."""
        url = self.config.endpoint.format(name=quote(name, safe=""), credential=credential)
        last_error: Exception | None = None
        for attempt in range(self.config.max_attempts):
            if attempt:
                time.sleep(self.config.backoff * (2 ** (attempt - 1)))
            self._limiter.acquire()
            try:
                response = self._session.get(url, timeout=self.config.timeout)
            except OSError as exc:  # every requests error subclasses OSError: only an OSError loads requests
                import requests
                if not isinstance(exc, requests.RequestException):
                    raise
                last_error = exc
                continue
            self._reached = True  # any status shows the endpoint answers
            if response.status_code >= 500 or response.status_code == 429:  # a server fault, or throttling
                last_error = RuntimeError(f"HTTP {response.status_code}")
                continue
            if response.status_code != 200:
                log("WARNING", f"{self.id}: {name!r} -> HTTP {response.status_code}")
                return None
            return response.text
        if not self._reached:  # then every attempt raised a requests error
            import requests
            if isinstance(last_error, requests.ConnectionError):
                raise AdapterUnreachableError(f"{self.id}: endpoint unreachable: {last_error}")
        log("WARNING", f"{self.id}: {name!r} failed after {self.config.max_attempts} attempts: {last_error}")
        return None

    def _parse(self, name: str, text: str | None) -> Prediction | None:
        """The response's Prediction, or None when there is none or it does not parse or map."""
        if text is None:
            return None
        import json
        try:
            data = json.loads(text)
            confidence = None
            if self.config.confidence_path:
                confidence = _walk_path(data, self.config.confidence_path)
            return map_external_label(
                _walk_path(data, self.config.label_path),
                confidence,
                self.config.label_aliases,
                default=self.config.default_label,
                confidence_scale=self.config.confidence_scale,
                source=self.id,
            )
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            log("WARNING", f"{self.id}: unusable response for {name!r}: {exc}")
            return None

    def _infer_chunk(self, names: Sequence[str]) -> list[Prediction]:
        credential = self._credential()
        distinct = list(dict.fromkeys(names))
        with closing(self._open_store()) as db:
            # each distinct name is read from the store, one query per chunk, or else fetched, once per batch
            stored: dict[str, str] = {}
            for start in range(0, len(distinct), _STORE_CHUNK):
                chunk = distinct[start : start + _STORE_CHUNK]
                query = f"SELECT name, text FROM responses WHERE name IN ({','.join('?' * len(chunk))})"
                stored.update(db.execute(query, chunk))
            answers = {name: self._parse(name, stored.get(name)) for name in distinct}
            misses = [name for name, answer in answers.items() if answer is None]
            if misses and self._session is None:
                import requests
                self._session = requests.Session()
            for start in range(0, len(misses), _STORE_CHUNK):
                mapped = []
                for name in misses[start : start + _STORE_CHUNK]:
                    text = self._fetch(name, credential)
                    answers[name] = self._parse(name, text)
                    if answers[name] is not None:
                        mapped.append((name, text))
                with db:
                    db.executemany("INSERT OR REPLACE INTO responses VALUES (?, ?)", mapped)
        return [answers[name] or self._unknown for name in names]
