"""Two-stage and voting ensembles.

The two-stage scheme answers from the frequency model when its p(female)
falls outside the defer band; names inside the band (endpoints inclusive)
and names the model has never seen go to the fallback inferrer. The voting
scheme takes three inferrers and keeps the strict majority among their
definite (female/male) votes; ambiguous and unknown votes do not count,
and a tie yields unknown.
"""

from __future__ import annotations

import math
from pathlib import Path
from typing import Callable, Sequence, TypeVar

from . import corpus, mle
from .inferrers import HttpAdapter, Inferrer, MleInferrer, MockInferrer, parse_adapter_config
from .mle import GenderLabel, MleModel, Prediction

DEFAULT_DEFER_BAND = (0.25, 0.75)


def _check_band(lo: float, hi: float) -> tuple[float, float]:
    """The defer band (lo, hi), if 0 <= lo < hi <= 1."""
    if not 0.0 <= lo < hi <= 1.0:
        raise ValueError("expected two numbers lo, hi with 0 <= lo < hi <= 1")
    return lo, hi


def majority_vote(predictions: Sequence[Prediction], source: str = "vote") -> Prediction:
    """Strict majority over the definite votes of exactly three predictions.

    The winner's p(female) is the mean over the agreeing voters. Ties among
    definite votes, and the all-indefinite case, return unknown.
    """
    if len(predictions) != 3:
        raise ValueError(f"majority_vote takes exactly 3 predictions, got {len(predictions)}")
    female = [p for p in predictions if p.label is GenderLabel.FEMALE]
    male = [p for p in predictions if p.label is GenderLabel.MALE]
    if len(female) > len(male):
        winners, label = female, GenderLabel.FEMALE
    elif len(male) > len(female):
        winners, label = male, GenderLabel.MALE
    else:
        return Prediction(GenderLabel.UNKNOWN, None, source)
    # fsum keeps the mean identical under any ordering of the voters
    p_female = math.fsum(p.p_female for p in winners) / len(winners)  # type: ignore[misc]
    return Prediction(label, p_female, source)


class VotingInferrer(Inferrer):
    """Majority vote across exactly three inferrers."""

    def __init__(self, voters: Sequence[Inferrer], id: str = "vote") -> None:
        ids = [v.id for v in voters]
        if len(ids) != 3 or len(set(ids)) != 3:
            raise ValueError(f"voting requires exactly 3 voters with distinct ids, got {ids}")
        super().__init__(id)
        self.voters = tuple(voters)
        self.tie_count = 0

    @property
    def notes(self) -> Sequence[str]:
        return (f"vote ties = {self.tie_count}",) if self.tie_count else ()

    def _infer_chunk(self, names: Sequence[str]) -> list[Prediction]:
        ballots = [voter.infer_batch(names) for voter in self.voters]
        out = []
        for votes in zip(*ballots):
            pred = majority_vote(votes, source=self.id)
            # an unknown outcome despite a definite ballot is a tie
            if pred.label is GenderLabel.UNKNOWN and any(v.label in (GenderLabel.FEMALE, GenderLabel.MALE) for v in votes):
                self.tie_count += 1
            out.append(pred)
        return out


class TwoStageInferrer(Inferrer):
    """Frequency model first; deferred and out-of-vocabulary names go to
    the fallback. Sources are prefixed stage1:/stage2: to record which
    stage answered."""

    def __init__(
        self,
        primary: MleModel,
        fallback: Inferrer,
        defer_band: tuple[float, float] = DEFAULT_DEFER_BAND,
        id: str | None = None,
    ) -> None:
        self.defer_band = _check_band(*defer_band)
        super().__init__(f"{primary.model_id}+{fallback.id}" if id is None else id)
        self.fallback = fallback
        self._stage1 = MleInferrer(primary, id=f"stage1:{primary.model_id}")

    @property
    def notes(self) -> Sequence[str]:
        return self.fallback.notes

    def _infer_chunk(self, names: Sequence[str]) -> list[Prediction]:
        lo, hi = self.defer_band
        out = self._stage1.infer_batch(names)
        deferred = [i for i, pred in enumerate(out) if pred.p_female is None or lo <= pred.p_female <= hi]
        if deferred:
            answers = self.fallback.infer_batch([names[i] for i in deferred])
            for i, pred in zip(deferred, answers):
                out[i] = Prediction(pred.label, pred.p_female, f"stage2:{pred.source}")
        return out


# --- inferrer specs -----------------------------------------------------------


def _band(text: str) -> tuple[float, float]:
    try:
        lo, hi = map(float, text.split(","))
    except ValueError:  # not two numbers, which the check refuses with the rule's message
        lo = hi = math.nan
    return _check_band(lo, hi)


def _voters(text: str) -> list[str]:
    specs = [spec.strip() for spec in text.split(";")]
    if len(specs) != 3:
        raise ValueError(f"expected exactly 3 specs separated by ';', got {len(specs)}")
    return specs


# A two-stage config's keys: model = MODEL_FILE (required), band = lo, hi (optional), id = NAME (optional),
# and one of fallback = SPEC and voters = SPEC; SPEC; SPEC. Relative paths resolve against the file's directory.
_TWOSTAGE_KEYS = {"model": str, "band": _band, "fallback": str, "voters": _voters, "id": str}


def build_inferrers(specs: Sequence[str]) -> tuple[list[Inferrer], list[Path]]:
    """The inferrers of [id=]kind:arg specs, and the path of every file they read. kind:arg is one of

    mle:MODEL_FILE        trained frequency model
    mock:JSON_FILE        fixed name -> prediction map
    http:CONFIG_FILE      external service adapter
    twostage:CONFIG_FILE  two-stage ensemble (see _TWOSTAGE_KEYS)

    However its path is written, the specs share one model per model file, and one inferrer per mock file or
    adapter config and id, so a service has one rate limiter.
    """
    paths: list[Path] = []
    loaded: dict[tuple[str, Path, str | None], object] = {}  # (kind, resolved path, id) -> model or inferrer, freed on return
    return [_build(spec, paths, loaded) for spec in specs], paths


_T = TypeVar("_T")


def _shared(kind: str, path: str | Path, id: str | None, loaded: dict, load: Callable[[], _T]) -> _T:
    """What load() returns, loaded once per kind, file and id while `loaded` lives."""
    key = (kind, Path(path).resolve(), id)
    if key not in loaded:
        loaded[key] = load()
    return loaded[key]


def _beside(config_file: str, path: str) -> str:
    """path as written in config_file: a relative path resolves against the file's directory."""
    return path if Path(path).is_absolute() else str((Path(config_file).parent / path).resolve())


def _build(spec: str, paths: list[Path], loaded: dict, config_file: str | None = None) -> Inferrer:
    """The inferrer of one spec, written in the file at config_file if one is given."""
    id = None
    if "=" in spec.split(":", 1)[0]:
        id, spec = spec.split("=", 1)
    kind, sep, arg = spec.partition(":")
    if not sep:
        raise ValueError(f"bad inferrer spec {spec!r} (expected kind:arg)")
    if kind not in ("mle", "mock", "http", "twostage"):
        raise ValueError(f"unknown inferrer kind {kind!r}")
    if config_file is not None:
        arg = _beside(config_file, arg)
    paths.append(Path(arg))
    if kind == "mle":
        return MleInferrer(_shared("mle", arg, None, loaded, lambda: mle.load_model(arg)), id=id)
    if kind == "mock":
        return _shared(kind, arg, Path(arg).stem if id is None else id, loaded, lambda: MockInferrer.from_json(arg, id))
    if kind == "http":
        config = parse_adapter_config(arg, id)
        return _shared(kind, arg, config.id, loaded, lambda: HttpAdapter(config))
    fields = corpus.parse_kv_file(arg, _TWOSTAGE_KEYS)
    if "model" not in fields:
        raise ValueError(f"{arg}: two-stage config requires model =")
    if ("fallback" in fields) == ("voters" in fields):
        raise ValueError(f"{arg}: two-stage config needs exactly one of fallback = and voters =")
    model_path = Path(_beside(arg, fields["model"]))
    paths.append(model_path)
    model = _shared("mle", model_path, None, loaded, lambda: mle.load_model(model_path))
    if "voters" in fields:
        fallback: Inferrer = VotingInferrer([_build(voter, paths, loaded, arg) for voter in fields["voters"]])
    else:
        fallback = _build(fields["fallback"], paths, loaded, arg)
    return TwoStageInferrer(model, fallback, fields.get("band", DEFAULT_DEFER_BAND), id=id or fields.get("id"))
