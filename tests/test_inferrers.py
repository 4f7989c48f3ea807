from __future__ import annotations

import json
import sqlite3
import time
from contextlib import closing
from pathlib import Path

import pytest
import requests

from namegender import inferrers
from namegender.corpus import FrequencyTable, GenderCounts, NameType, parse_kv_file
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


def test_mock_from_json_skips_a_byte_order_mark(tmp_path):
    path = tmp_path / "preds.json"
    path.write_text("\ufeff" + json.dumps({"anna": {"label": "female", "p_female": 0.9}}), encoding="utf-8")
    assert MockInferrer.from_json(path).infer("anna") == Prediction(GenderLabel.FEMALE, 0.9, "preds")


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
    assert [p.label for p in first.infer_batch(["bo", "al"])] == [GenderLabel.MALE] * 2
    statements = []
    connect = sqlite3.connect

    def traced_connect(*args, **kwargs):
        db = connect(*args, **kwargs)
        db.set_trace_callback(statements.append)
        return db

    monkeypatch.setattr(sqlite3, "connect", traced_connect)
    replay = FakeSession(lambda url: FakeResponse(500))
    preds = HttpAdapter(config, session=replay).infer_batch(["bo", "al", "bo", "bo", "al"])
    assert [p.label for p in preds] == [GenderLabel.MALE] * 5
    # one query covers each distinct name once, in order of first occurrence
    assert [s for s in statements if s.startswith("SELECT")] == ["SELECT name, text FROM responses WHERE name IN ('bo','al')"]
    assert replay.calls == []


def test_adapter_answers_the_unknown_names_of_every_batch_with_one_prediction(tmp_path):
    adapter = HttpAdapter(adapter_config(cache_dir=str(tmp_path)), session=FakeSession(lambda url: FakeResponse(404)))
    first, second = adapter.infer_batch(["ana", "bo"]), adapter.infer_batch(["cy"])
    assert first[0] == Prediction(GenderLabel.UNKNOWN, None, "svc")
    assert len({id(pred) for pred in first + second}) == 1


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
    # a line ends at a newline alone, not at \x85, \u2028 or \x0c as str.splitlines would end one
    path.write_text("# comment\nkey = va\x85l\u2028u\x0ce\r\nother=1\n\n", encoding="utf-8")
    assert parse_kv_file(path, {"key": str, "other": int, "unused": float}) == {"key": "va\x85l\u2028u\x0ce", "other": 1}


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
    # removed keys, the record's label_aliases field and a misspelled label fail like any other unknown key
    for line in ("bogus = 1", "max_in_flight = 2", "batch_limit = 10", "label_aliases = f", "label.femal = f"):
        path.write_text(f"id = x\nendpoint = https://e/{{name}}\n{line}\n", encoding="utf-8")
        with pytest.raises(AdapterConfigError) as error:
            parse_adapter_config(path)
        assert str(error.value) == f"{path}:3: unknown config key {line.split()[0]!r}"


@pytest.mark.parametrize("line, reason", [
    ("rate_limit = fast", "could not convert string to float: 'fast'"),
    ("max_attempts = 2.5", "invalid literal for int() with base 10: '2.5'"),
    ("default_label = f", "'f' is not a valid GenderLabel"),
])
def test_parse_adapter_config_bad_value_names_the_file_and_the_key(tmp_path, line, reason):
    path = tmp_path / "svc.conf"
    path.write_text(f"id = x\n{line}\nendpoint = https://e/{{name}}\n", encoding="utf-8")
    with pytest.raises(AdapterConfigError) as error:
        parse_adapter_config(path)
    assert str(error.value) == f"{path}: config key {line.split()[0]!r}: {reason}"


def test_parse_adapter_config_takes_the_spec_id_and_checks_the_config(tmp_path):
    path = tmp_path / "svc.conf"
    path.write_text("id = svc\nendpoint = https://e/{name}\n", encoding="utf-8")
    assert parse_adapter_config(path, "x") == parse_adapter_config(path)._replace(id="x")
    path.write_text("id = svc\nendpoint = https://e/{name}\ntimeout = 0\n", encoding="utf-8")
    with pytest.raises(AdapterConfigError, match="timeout must be positive"):
        parse_adapter_config(path, "x")


@pytest.mark.parametrize("key, value, reason", [
    ("rate_limit", "0", "rate_limit must be positive"),
    ("max_attempts", "0", "max_attempts must be >= 1"),
    ("backoff", "-1", "backoff must be >= 0"),
    ("timeout", "0", "timeout must be positive"),
    ("endpoint", "https://e/", "endpoint template must contain {name}"),
    ("endpoint", "e.example/{name}", "endpoint must be an http(s) URL with a host, got 'e.example/{name}'"),
    ("endpoint", "ftp://e/{name}", "endpoint must be an http(s) URL with a host, got 'ftp://e/{name}'"),
    ("endpoint", "https:///v1?name={name}", "endpoint must be an http(s) URL with a host, got 'https:///v1?name={name}'"),
    ("endpoint", "https://[e/{name}", "Invalid IPv6 URL"),
    ("endpoint", "https://e/{name}&k={key}", "endpoint template may hold only {name} and {credential}, got 'https://e/{name}&k={key}'"),
    ("endpoint", "https://e/{}/{name}", "endpoint template may hold only {name} and {credential}, got 'https://e/{}/{name}'"),
    ("endpoint", "https://e/{name}&k={", "bad endpoint template: Single '{' encountered in format string"),
    ("endpoint", "https://e/}{name}", "bad endpoint template: Single '}' encountered in format string"),
    ("confidence_scale", "percentage", "bad confidence_scale 'percentage'"),
])
def test_parse_adapter_config_checks_name_the_file(tmp_path, key, value, reason):
    path = tmp_path / "svc.conf"
    fields = {"id": "svc", "endpoint": "https://e/{name}", key: value}
    path.write_text("".join(f"{k} = {v}\n" for k, v in fields.items()), encoding="utf-8")
    with pytest.raises(AdapterConfigError) as error:
        parse_adapter_config(path)
    assert str(error.value) == f"{path}: {reason}"


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
    with pytest.raises(AdapterUnreachableError) as raised:
        adapter.infer_batch(["anna"])
    assert isinstance(raised.value, ConnectionError)  # so a caller that catches OSError catches it


def test_adapter_passes_on_an_os_error_that_requests_did_not_raise():
    session = FakeSession(lambda url: PermissionError("denied"))
    with pytest.raises(PermissionError, match="denied"):
        HttpAdapter(adapter_config(), session=session).infer_batch(["anna"])
    assert len(session.calls) == 1


@pytest.mark.parametrize("error", [requests.exceptions.ChunkedEncodingError, requests.exceptions.ContentDecodingError,
                                   requests.TooManyRedirects, requests.exceptions.RetryError])
def test_a_per_name_transport_fault_is_retried_and_degrades_only_that_name(error, capsys):
    def handler(url):
        return error("broken mid-body") if url.endswith("=bad") else FakeResponse(200, json.dumps({"gender": "female", "accuracy": 90}))

    session = FakeSession(handler)
    preds = HttpAdapter(adapter_config(max_attempts=3), session=session).infer_batch(["anna", "bad", "maria"])
    female, unknown = Prediction(GenderLabel.FEMALE, 0.9, "svc"), Prediction(GenderLabel.UNKNOWN, None, "svc")
    assert preds == [female, unknown, female]
    assert [url.rsplit("=", 1)[1] for _, url in session.calls] == ["anna", "bad", "bad", "bad", "maria"]
    assert capsys.readouterr().err == "WARNING svc: 'bad' failed after 3 attempts: broken mid-body\n"


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


class FakeClock:
    """A clock that moves only when slept on, so no load on the host moves a grant."""

    def __init__(self) -> None:
        self.now = 0.0

    def monotonic(self) -> float:
        return self.now

    def sleep(self, seconds: float) -> None:
        self.now += seconds


class RecordingLimiter(RateLimiter):
    """Stamps each grant with the limiter's own clock as acquire returns."""

    def __init__(self, rate_per_second: float) -> None:
        super().__init__(rate_per_second)
        self.grants: list[float] = []

    def acquire(self) -> None:
        super().acquire()
        self.grants.append(inferrers.time.monotonic())


def test_adapter_dispatch_respects_rate_limit(monkeypatch):
    monkeypatch.setattr(inferrers, "time", FakeClock())
    monkeypatch.setattr(inferrers, "RateLimiter", RecordingLimiter)
    body = json.dumps({"gender": "female", "accuracy": 70})
    session = FakeSession(lambda url: FakeResponse(200, body))
    adapter = HttpAdapter(adapter_config(rate_limit=200.0), session=session)
    adapter.infer_batch([f"name{i}" for i in range(60)])
    times = adapter._limiter.grants
    assert len(times) == len(session.calls) == 60
    for i, start in enumerate(times):
        in_window = sum(1 for t in times[i:] if t - start < 1.0)
        assert in_window <= 200
    # back-to-back dispatches each wait out one interval; the limiter's running sum of
    # 1/200 rounds some gaps below it by about 1e-17 s, so equality holds only to rounding
    gaps = [b - a for a, b in zip(times, times[1:])]
    assert gaps == pytest.approx([1.0 / 200.0] * 59, rel=1e-12, abs=0)


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


def test_adapter_follows_dotted_label_and_confidence_paths(tmp_path):
    body = json.dumps({"results": [{"gender": "female", "probability": 0.8}]})
    config = adapter_config(cache_dir=str(tmp_path), label_path="results.0.gender",
                            confidence_path="results.0.probability", confidence_scale="unit")
    assert HttpAdapter(config, session=FakeSession(lambda url: FakeResponse(200, body))).infer("anna") == \
        Prediction(GenderLabel.FEMALE, 0.8, "svc")
    assert stored(tmp_path) == {"anna": body}


@pytest.mark.parametrize("label_path, response", [
    ("results.0.gender", {"results": 5}),  # descends into a scalar
    ("results.1.gender", {"results": [{"gender": "female"}]}),  # an index past the list's end
    ("results.first.gender", {"results": [{"gender": "female"}]}),  # a non-integer segment into a list
])
def test_adapter_path_that_does_not_resolve_degrades_to_unknown(tmp_path, capsys, label_path, response):
    config = adapter_config(cache_dir=str(tmp_path), label_path=label_path, confidence_path=None)
    session = FakeSession(lambda url: FakeResponse(200, json.dumps(response)))
    assert HttpAdapter(config, session=session).infer("anna") == Prediction(GenderLabel.UNKNOWN, None, "svc")
    err = capsys.readouterr().err
    assert err.startswith("WARNING svc: unusable response for 'anna': ") and err.count("\n") == 1
    assert stored(tmp_path) == {}


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
