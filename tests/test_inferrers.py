from __future__ import annotations

import json
import sqlite3
import time
from contextlib import closing
from pathlib import Path

import pytest
import requests

from namegender.corpus import FrequencyTable, GenderCounts, NameType
from namegender.inferrers import (
    DEFAULT_LABEL_ALIASES,
    AdapterConfigError,
    AdapterUnreachableError,
    ExternalAdapterConfig,
    HttpAdapter,
    LabelMappingError,
    MleInferrer,
    MockInferrer,
    RateLimiter,
    map_external_label,
    normalize_confidence,
    parse_adapter_config,
    parse_kv_file,
)
from namegender.mle import GenderLabel, Prediction, train

from conftest import FakeResponse, FakeSession, random_table


def stored(cache_dir) -> dict[str, str]:
    """The adapter's response store as name -> stored text."""
    with closing(sqlite3.connect(Path(cache_dir) / "svc.sqlite")) as db:
        return dict(db.execute("SELECT name, text FROM responses"))


def adapter_config(**overrides) -> ExternalAdapterConfig:
    kwargs = dict(
        id="svc",
        endpoint="https://svc.example/v1?name={name}",
        rate_limit=10_000.0,
        max_attempts=2,
        backoff=0.0,
        confidence_path="accuracy",
        confidence_scale="percent",
    )
    kwargs.update(overrides)
    return ExternalAdapterConfig(**kwargs)


# --- mock and builtin inferrers -------------------------------------------------


def test_mock_contract():
    mock = MockInferrer("mock", {"anna": (GenderLabel.FEMALE, 0.99)})
    preds = mock.infer_batch(["anna", "zzz"])
    assert preds[0].label is GenderLabel.FEMALE
    assert preds[0].p_female == 0.99
    assert preds[0].source == "mock"
    assert preds[1].label is GenderLabel.UNKNOWN


def test_mock_from_json(tmp_path):
    path = tmp_path / "preds.json"
    path.write_text(json.dumps({"anna": {"label": "female", "p_female": 0.9}}), encoding="utf-8")
    mock = MockInferrer.from_json(path)
    assert mock.id == "preds"
    assert mock.infer("anna").label is GenderLabel.FEMALE


@pytest.mark.parametrize("entry, reason", [
    ({"p_female": 0.9}, "expected an object with a label"),
    ("female", "expected an object with a label"),
    ({"label": "woman", "p_female": 0.9}, "expected an object with a label"),
    ({"label": "female", "p_female": 1.5}, "outside [0, 1]"),
    ({"label": "unknown", "p_female": 0.5}, "carry no probability"),
    ({"label": "female"}, "requires p_female"),
    ({"label": "male", "p_female": "0.1"}, "not supported"),
])
def test_mock_from_json_names_the_file_and_the_bad_entry(tmp_path, entry, reason):
    path = tmp_path / "preds.json"
    path.write_text(json.dumps({"anna": {"label": "female", "p_female": 0.9}, "bo": entry}), encoding="utf-8")
    with pytest.raises(ValueError) as caught:
        MockInferrer.from_json(path)
    assert str(caught.value).startswith(f"{path}: entry 'bo': ")
    assert reason in str(caught.value)


def test_mock_from_json_keeps_non_float_probabilities(tmp_path):
    path = tmp_path / "preds.json"
    path.write_text(json.dumps({"a": {"label": "female", "p_female": 1}, "b": {"label": "male", "p_female": False}}),
                    encoding="utf-8")
    preds = MockInferrer.from_json(path).infer_batch(["a", "b", "a"])
    assert [type(p.p_female) for p in preds] == [int, bool, int]
    assert preds[0] is preds[2]


def test_empty_batch_rejected():
    with pytest.raises(ValueError):
        MockInferrer("m", {}).infer_batch([])


def test_output_length_equals_input_length(rng):
    mock = MockInferrer("m", {"aa": (GenderLabel.FEMALE, 1.0)})
    for _ in range(20):
        names = ["aa", "bb", "cc"] * rng.randint(1, 30)
        assert len(mock.infer_batch(names)) == len(names)


def test_adapter_asks_once_per_distinct_name_in_a_batch():
    def handler(url):
        if url.endswith("=bad"):
            return FakeResponse(500)
        return FakeResponse(200, json.dumps({"gender": "female", "accuracy": 90}))

    session = FakeSession(handler)
    adapter = HttpAdapter(adapter_config(), session=session)
    assert adapter.infer_batch(["anna", "anna", "anna"]) == [Prediction(GenderLabel.FEMALE, 0.9, "svc")] * 3
    assert len(session.calls) == 1
    # a name that fails degrades to unknown at every position; a bad one is tried max_attempts times
    session.calls.clear()
    preds = adapter.infer_batch(["bad", "anna", "bad", "bo", "anna", "bad"])
    assert [p.label for p in preds] == [GenderLabel.UNKNOWN, GenderLabel.FEMALE, GenderLabel.UNKNOWN,
                                        GenderLabel.FEMALE, GenderLabel.FEMALE, GenderLabel.UNKNOWN]
    assert sorted(url.rsplit("=", 1)[1] for _, url in session.calls) == ["anna", "bad", "bad", "bo"]


def test_adapter_reads_a_cached_name_once_per_batch(tmp_path, monkeypatch):
    config = adapter_config(cache_dir=str(tmp_path))
    body = json.dumps({"gender": "male", "accuracy": 80})
    first = HttpAdapter(config, session=FakeSession(lambda url: FakeResponse(200, body)))
    assert first.infer("bo").label is GenderLabel.MALE
    statements = []
    connect = sqlite3.connect

    def traced_connect(*args, **kwargs):
        db = connect(*args, **kwargs)
        db.set_trace_callback(statements.append)
        return db

    monkeypatch.setattr(sqlite3, "connect", traced_connect)
    replay = FakeSession(lambda url: FakeResponse(500))
    preds = HttpAdapter(config, session=replay).infer_batch(["bo", "bo", "bo"])
    assert [p.label for p in preds] == [GenderLabel.MALE] * 3
    assert [s for s in statements if s.startswith("SELECT")] == ["SELECT text FROM responses WHERE name = 'bo'"]
    assert replay.calls == []


def counting_sessions(monkeypatch) -> list[FakeSession]:
    """Make requests.Session build answering fakes; the returned list holds each one built."""
    constructed = []

    class CountingSession(FakeSession):
        def __init__(self) -> None:
            constructed.append(self)
            super().__init__(lambda url: FakeResponse(200, json.dumps({"gender": "female", "accuracy": 90})))

    monkeypatch.setattr(requests, "Session", CountingSession)
    return constructed


def test_batch_creates_one_session(monkeypatch):
    constructed = counting_sessions(monkeypatch)
    adapter = HttpAdapter(adapter_config())
    preds = adapter.infer_batch(["anna", "bert", "cleo", "dora"])
    assert [p.label for p in preds] == [GenderLabel.FEMALE] * 4
    assert len(constructed) == 1
    assert len(constructed[0].calls) == 4


def test_batch_of_stored_names_creates_no_session(tmp_path, monkeypatch):
    config = adapter_config(cache_dir=str(tmp_path))
    body = json.dumps({"gender": "male", "accuracy": 80})
    assert HttpAdapter(config, session=FakeSession(lambda url: FakeResponse(200, body))).infer("bo").label is GenderLabel.MALE
    constructed = counting_sessions(monkeypatch)
    assert [p.label for p in HttpAdapter(config).infer_batch(["bo", "bo"])] == [GenderLabel.MALE] * 2
    assert constructed == []


def test_builtin_mle_matches_direct_classify(rng):
    for _ in range(20):
        model = train(random_table(rng, "t", 30), 0.9)
        inferrer = MleInferrer(model)
        names = list(model.table.entries) + ["missing"]
        assert inferrer.infer_batch(names) == [model.classify(n) for n in names]


def test_builtin_mle_custom_id_retags_source():
    model = train(FrequencyTable({"a": GenderCounts(9, 1)}, NameType.FIRST, "t"), 0.5)
    pred = MleInferrer(model, id="other").infer("a")
    assert pred.source == "other"
    assert pred.label is GenderLabel.FEMALE


# --- label mapping ----------------------------------------------------------------


def test_six_way_labels_collapse():
    cases = {
        "female": GenderLabel.FEMALE,
        "mostly female": GenderLabel.FEMALE,
        "male": GenderLabel.MALE,
        "mostly male": GenderLabel.MALE,
        "andy": GenderLabel.AMBIGUOUS,
        "unknown": GenderLabel.UNKNOWN,
    }
    for raw, expected in cases.items():
        pred = map_external_label(raw, None, DEFAULT_LABEL_ALIASES)
        assert pred.label is expected, raw


def test_percent_confidence_rescaled():
    pred = map_external_label("female", 87, DEFAULT_LABEL_ALIASES, confidence_scale="percent")
    assert pred.p_female == pytest.approx(0.87)


def test_male_confidence_becomes_complement():
    pred = map_external_label("male", 0.9, DEFAULT_LABEL_ALIASES)
    assert pred.p_female == pytest.approx(0.1)


def test_unmapped_label_without_default_raises():
    with pytest.raises(LabelMappingError):
        map_external_label("other", None, DEFAULT_LABEL_ALIASES)


def test_unmapped_label_with_default():
    pred = map_external_label("other", None, DEFAULT_LABEL_ALIASES, default=GenderLabel.UNKNOWN)
    assert pred.label is GenderLabel.UNKNOWN


def test_confidence_clamped_to_unit_interval():
    assert normalize_confidence(140, "percent") == 1.0
    assert normalize_confidence(-3, "unit") == 0.0


# --- adapter config -------------------------------------------------------------


def test_adapter_config_validation():
    with pytest.raises(AdapterConfigError):
        adapter_config(rate_limit=0)
    with pytest.raises(AdapterConfigError):
        adapter_config(max_attempts=0)
    with pytest.raises(AdapterConfigError):
        adapter_config(endpoint="https://svc.example/no-placeholder")


def test_adapter_config_rejects_negative_backoff():
    assert adapter_config(backoff=0.0).backoff == 0.0
    with pytest.raises(AdapterConfigError, match="backoff"):
        adapter_config(backoff=-1.0)


def test_adapter_config_rejects_non_positive_timeout():
    assert adapter_config(timeout=0.5).timeout == 0.5
    for timeout in (0.0, -1.0):
        with pytest.raises(AdapterConfigError, match="timeout"):
            adapter_config(timeout=timeout)


@pytest.mark.parametrize("record, field", [
    (Prediction(GenderLabel.FEMALE, 0.9, "s"), "p_female"),  # one object answers many names
    (GenderCounts(3, 1), "female"),  # one object per count pair of a table
    (adapter_config(), "rate_limit"),
])
def test_records_are_read_only(record, field):
    with pytest.raises(AttributeError):
        setattr(record, field, getattr(record, field))
    with pytest.raises(AttributeError):
        record.extra = 1


def test_parse_kv_file(tmp_path):
    path = tmp_path / "c.conf"
    path.write_text("# comment\nkey = value\nother=1\n\n", encoding="utf-8")
    assert parse_kv_file(path) == {"key": "value", "other": "1"}


@pytest.mark.parametrize("first, again", [
    ("label.female = f, woman", "label.female = girl"),
    ("rate_limit = 5", "rate_limit = 0.5"),
])
def test_parse_adapter_config_refuses_a_repeated_key(tmp_path, first, again):
    path = tmp_path / "svc.conf"
    path.write_text(f"id = x\n{first}\n# comment\nendpoint = https://e/{{name}}\n{again}\n", encoding="utf-8")
    key = first.split()[0]
    with pytest.raises(ValueError) as error:
        parse_adapter_config(path)
    assert str(error.value) == f"{path}:5: key {key!r} repeated (first at line 2)"


def test_parse_adapter_config(tmp_path):
    path = tmp_path / "svc.conf"
    path.write_text(
        "\n".join(
            [
                "id = demo",
                "endpoint = https://svc.example/v1?name={name}",
                "rate_limit = 5",
                "confidence_path = accuracy",
                "confidence_scale = percent",
                "label.female = female, mostly female",
                "label.male = male, mostly male",
                "label.ambiguous = andy",
                "label.unknown = unknown",
            ]
        ),
        encoding="utf-8",
    )
    config = parse_adapter_config(path)
    assert config.id == "demo"
    assert config.rate_limit == 5.0
    assert config.label_aliases["mostly female"] is GenderLabel.FEMALE


def test_parse_adapter_config_rejects_unknown_keys(tmp_path):
    path = tmp_path / "svc.conf"
    # removed keys fail like any other unknown key
    for line in ("bogus = 1", "max_in_flight = 2", "batch_limit = 10"):
        path.write_text(f"id = x\nendpoint = https://e/{{name}}\n{line}\n", encoding="utf-8")
        with pytest.raises(AdapterConfigError, match=f"unknown config key '{line.split()[0]}'"):
            parse_adapter_config(path)


# --- HTTP adapter ----------------------------------------------------------------


def test_adapter_maps_recorded_response():
    # recorded response shape: {"gender": "female", "accuracy": 87} on a 0-100 scale
    recorded = json.dumps({"gender": "female", "accuracy": 87})
    session = FakeSession(lambda url: FakeResponse(200, recorded))
    adapter = HttpAdapter(adapter_config(), session=session)
    pred = adapter.infer("anna")
    assert pred.label is GenderLabel.FEMALE
    assert pred.p_female == pytest.approx(0.87)
    assert pred.source == "svc"


def test_adapter_keeps_input_order_despite_failures():
    def handler(url):
        if "bad" in url:
            return FakeResponse(404)
        return FakeResponse(200, json.dumps({"gender": "male", "accuracy": 99}))

    adapter = HttpAdapter(adapter_config(), session=FakeSession(handler))
    preds = adapter.infer_batch(["ok1", "bad", "ok2"])
    assert [p.label for p in preds] == [GenderLabel.MALE, GenderLabel.UNKNOWN, GenderLabel.MALE]


def test_adapter_unparseable_response_degrades_to_unknown():
    adapter = HttpAdapter(adapter_config(), session=FakeSession(lambda url: FakeResponse(200, "not json")))
    assert adapter.infer("anna").label is GenderLabel.UNKNOWN


def test_adapter_missing_credential_fails_fast(monkeypatch):
    monkeypatch.delenv("SVC_KEY", raising=False)
    config = adapter_config(
        endpoint="https://svc.example/v1?name={name}&key={credential}",
        credential_env="SVC_KEY",
    )
    adapter = HttpAdapter(config, session=FakeSession(lambda url: FakeResponse(200, "{}")))
    with pytest.raises(AdapterConfigError, match="SVC_KEY"):
        adapter.infer_batch(["anna"])


def test_adapter_credential_interpolated(monkeypatch):
    monkeypatch.setenv("SVC_KEY", "sekret")
    seen = []

    def handler(url):
        seen.append(url)
        return FakeResponse(200, json.dumps({"gender": "female", "accuracy": 50}))

    config = adapter_config(
        endpoint="https://svc.example/v1?name={name}&key={credential}",
        credential_env="SVC_KEY",
    )
    HttpAdapter(config, session=FakeSession(handler)).infer("anna")
    assert seen == ["https://svc.example/v1?name=anna&key=sekret"]


def test_adapter_unreachable_on_first_probe_fails_fast():
    session = FakeSession(lambda url: requests.ConnectionError("refused"))
    adapter = HttpAdapter(adapter_config(), session=session)
    with pytest.raises(AdapterUnreachableError):
        adapter.infer_batch(["anna"])


def test_adapter_connection_error_after_success_degrades():
    state = {"calls": 0}

    def handler(url):
        state["calls"] += 1
        if state["calls"] == 1:
            return FakeResponse(200, json.dumps({"gender": "female", "accuracy": 90}))
        return requests.ConnectionError("refused")

    adapter = HttpAdapter(adapter_config(), session=FakeSession(handler))
    preds = adapter.infer_batch(["anna", "borek"])
    assert preds[0].label is GenderLabel.FEMALE
    assert preds[1].label is GenderLabel.UNKNOWN


@pytest.mark.parametrize("status", [404, 429, 503])
def test_adapter_connection_error_after_an_error_status_degrades(status):
    # any HTTP response, whatever its status, shows the endpoint is reachable
    def handler(url):
        return FakeResponse(status) if url.endswith("=anna") else requests.ConnectionError("refused")

    preds = HttpAdapter(adapter_config(), session=FakeSession(handler)).infer_batch(["anna", "bo"])
    assert preds == [Prediction(GenderLabel.UNKNOWN, None, "svc")] * 2


def test_adapter_retries_server_errors():
    state = {"calls": 0}

    def handler(url):
        state["calls"] += 1
        if state["calls"] == 1:
            return FakeResponse(503)
        return FakeResponse(200, json.dumps({"gender": "male", "accuracy": 80}))

    adapter = HttpAdapter(adapter_config(), session=FakeSession(handler))
    assert adapter.infer("anna").label is GenderLabel.MALE
    assert state["calls"] == 2


def test_adapter_retries_when_throttled():
    statuses = iter([429, 200])

    def handler(url):
        return FakeResponse(next(statuses), json.dumps({"gender": "female", "accuracy": 90}))

    session = FakeSession(handler)
    assert HttpAdapter(adapter_config(max_attempts=3), session=session).infer("anna").label is GenderLabel.FEMALE
    assert len(session.calls) == 2


def test_adapter_caches_raw_responses(tmp_path):
    state = {"calls": 0}
    body = json.dumps({"gender": "female", "accuracy": 66})

    def handler(url):
        state["calls"] += 1
        return FakeResponse(200, body)

    config = adapter_config(cache_dir=str(tmp_path))
    adapter = HttpAdapter(config, session=FakeSession(handler))
    first = adapter.infer("josé")
    again = adapter.infer("josé")
    assert state["calls"] == 1
    assert first == again
    assert stored(tmp_path) == {"josé": body}


def test_rate_limiter_bounds_sliding_window():
    rate = 100.0
    limiter = RateLimiter(rate)
    stamps = []
    for _ in range(120):
        limiter.acquire()
        stamps.append(time.monotonic())
    for i, start in enumerate(stamps):
        in_window = sum(1 for t in stamps[i:] if t - start < 1.0)
        assert in_window <= rate


class RecordingLimiter(RateLimiter):
    """Stamps each grant with the clock as acquire returns, so no delay after it
    (as in a session that stamps its calls) moves it."""

    def __init__(self, rate_per_second: float) -> None:
        super().__init__(rate_per_second)
        self.grants: list[float] = []

    def acquire(self) -> None:
        super().acquire()
        self.grants.append(time.monotonic())


def test_adapter_dispatch_respects_rate_limit(monkeypatch):
    monkeypatch.setattr("namegender.inferrers.RateLimiter", RecordingLimiter)
    body = json.dumps({"gender": "female", "accuracy": 70})
    session = FakeSession(lambda url: FakeResponse(200, body))
    adapter = HttpAdapter(adapter_config(rate_limit=200.0), session=session)
    adapter.infer_batch([f"name{i}" for i in range(60)])
    times = adapter._limiter.grants
    assert len(times) == len(session.calls) == 60
    for i, start in enumerate(times):
        in_window = sum(1 for t in times[i:] if t - start < 1.0)
        assert in_window <= 200
    # dispatches are spaced at least the limiter interval apart
    gaps = [b - a for a, b in zip(times, times[1:])]
    assert min(gaps) >= (1.0 / 200.0) * 0.5


def test_adapter_does_not_cache_unmappable_response(tmp_path):
    config = adapter_config(cache_dir=str(tmp_path))
    broken = HttpAdapter(config, session=FakeSession(lambda url: FakeResponse(200, "<html>oops")))
    assert broken.infer("anna").label is GenderLabel.UNKNOWN
    assert stored(tmp_path) == {}
    # a later run asks the service again instead of replaying the bad body
    session = FakeSession(lambda url: FakeResponse(200, json.dumps({"gender": "female", "accuracy": 90})))
    assert HttpAdapter(config, session=session).infer("anna").label is GenderLabel.FEMALE
    assert len(session.calls) == 1


def test_adapter_caches_cleanly_mapped_unknown(tmp_path):
    config = adapter_config(cache_dir=str(tmp_path))
    body = json.dumps({"gender": "unknown", "accuracy": 0})
    first = HttpAdapter(config, session=FakeSession(lambda url: FakeResponse(200, body)))
    assert first.infer("zed").label is GenderLabel.UNKNOWN
    session = FakeSession(lambda url: FakeResponse(500))
    assert HttpAdapter(config, session=session).infer("zed").label is GenderLabel.UNKNOWN
    assert session.calls == []


def test_adapter_stores_long_names(tmp_path):
    long_names = ["佐藤" * 15, "a/b" * 400]  # longer than a file name may be, once percent-encoded
    body = json.dumps({"gender": "male", "accuracy": 80})
    config = adapter_config(cache_dir=str(tmp_path))
    session = FakeSession(lambda url: FakeResponse(200, body))
    preds = HttpAdapter(config, session=session).infer_batch(["anna", *long_names])
    assert [p.label for p in preds] == [GenderLabel.MALE] * 3
    assert stored(tmp_path) == dict.fromkeys(["anna", *long_names], body)
    replay = FakeSession(lambda url: FakeResponse(500))
    assert [p.label for p in HttpAdapter(config, session=replay).infer_batch(long_names)] == [GenderLabel.MALE] * 2
    assert replay.calls == []


def test_adapter_fills_a_cache_dir_that_does_not_exist_yet(tmp_path):
    cache_dir = tmp_path / "not" / "yet"
    bodies = {"anna": {"gender": "female", "accuracy": 90}, "bo": {"gender": "male", "accuracy": 80}}

    def handler(url):
        return FakeResponse(200, json.dumps(bodies[url.rsplit("=", 1)[1]]))

    config = adapter_config(cache_dir=str(cache_dir))
    preds = HttpAdapter(config, session=FakeSession(handler)).infer_batch(["anna", "bo"])
    assert [p.label for p in preds] == [GenderLabel.FEMALE, GenderLabel.MALE]
    assert stored(cache_dir) == {name: json.dumps(body) for name, body in bodies.items()}


def test_adapter_refetches_a_stored_response_that_no_longer_maps(tmp_path):
    odd = json.dumps({"gender": "nonbinary", "accuracy": 90})
    lenient = adapter_config(cache_dir=str(tmp_path), default_label=GenderLabel.AMBIGUOUS)
    assert HttpAdapter(lenient, session=FakeSession(lambda url: FakeResponse(200, odd))).infer("kim").label \
        is GenderLabel.AMBIGUOUS
    assert stored(tmp_path) == {"kim": odd}
    # without the default the stored text no longer maps: it is fetched again and replaced, not answered unknown
    fresh = json.dumps({"gender": "female", "accuracy": 90})
    strict = adapter_config(cache_dir=str(tmp_path))
    session = FakeSession(lambda url: FakeResponse(200, fresh))
    assert HttpAdapter(strict, session=session).infer("kim").label is GenderLabel.FEMALE
    assert len(session.calls) == 1
    assert stored(tmp_path) == {"kim": fresh}
    replay = FakeSession(lambda url: FakeResponse(500))
    assert HttpAdapter(strict, session=replay).infer("kim").label is GenderLabel.FEMALE
    assert replay.calls == []


def test_adapter_stores_each_chunk_before_fetching_the_next(tmp_path, monkeypatch):
    def handler(url):
        if url.endswith("=n2"):
            raise RuntimeError("crash")  # not a per-name failure: it ends the batch
        return FakeResponse(200, json.dumps({"gender": "female", "accuracy": 90}))

    monkeypatch.setattr("namegender.inferrers._STORE_CHUNK", 2)
    config = adapter_config(cache_dir=str(tmp_path))
    with pytest.raises(RuntimeError, match="crash"):
        HttpAdapter(config, session=FakeSession(handler)).infer_batch(["n0", "n1", "n2", "n3"])
    assert sorted(stored(tmp_path)) == ["n0", "n1"]
