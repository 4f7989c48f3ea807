from __future__ import annotations

import itertools
import json
import math

import pytest

from namegender.corpus import FrequencyTable, GenderCounts, NameType
from namegender.ensemble import TwoStageInferrer, VotingInferrer, build_inferrers, majority_vote
from namegender.evaluation import LabeledTestSet, evaluate_run
from namegender.inferrers import HttpAdapter, Inferrer, MockInferrer
from namegender.mle import GenderLabel, Prediction, save_model, train


class CountingMock(Inferrer):
    """Fallback that counts invocations; answers a fixed prediction."""

    kind = "counting-mock"

    def __init__(self, id="counter", label=GenderLabel.UNKNOWN, p_female=None):
        super().__init__(id)
        self.label = label
        self.p_female = p_female
        self.calls = 0

    def _infer_chunk(self, names):
        self.calls += len(names)
        return [Prediction(self.label, self.p_female, self.id) for _ in names]


def model_with(entries: dict[str, tuple[int, int]], tau: float = 0.9):
    table = FrequencyTable(
        {n: GenderCounts(f, m) for n, (f, m) in entries.items()}, NameType.FIRST, "m"
    )
    return train(table, tau)


def P(label: GenderLabel, p: float | None = None, source: str = "v") -> Prediction:
    return Prediction(label, p, source)


F, M, A, U = GenderLabel.FEMALE, GenderLabel.MALE, GenderLabel.AMBIGUOUS, GenderLabel.UNKNOWN


# --- majority_vote -------------------------------------------------------------


def test_two_female_votes_win():
    pred = majority_vote([P(F, 0.9), P(F, 0.7), P(M, 0.2)])
    assert pred.label is F
    assert pred.p_female == pytest.approx(0.8)


def test_definite_tie_is_unknown():
    assert majority_vote([P(F, 0.9), P(M, 0.1), P(U)]).label is U


def test_all_unknown_is_unknown():
    assert majority_vote([P(U), P(U), P(U)]).label is U


def test_ambiguous_votes_do_not_count():
    # one definite vote wins against two ambiguous ones
    pred = majority_vote([P(A, 0.5), P(A, 0.5), P(M, 0.1)])
    assert pred.label is M
    assert pred.p_female == pytest.approx(0.1)


def test_wrong_arity_rejected():
    with pytest.raises(ValueError):
        majority_vote([P(F, 0.9), P(M, 0.1)])


def test_winner_probability_is_mean_of_agreeing_voters():
    pred = majority_vote([P(M, 0.2), P(M, 0.4), P(M, 0.3)])
    assert pred.label is M
    assert pred.p_female == pytest.approx(0.3)


def test_permutation_invariance(rng):
    labels = (F, M, A, U)
    for _ in range(200):
        votes = []
        for _ in range(3):
            label = rng.choice(labels)
            p = None if label is U else round(rng.random(), 6)
            votes.append(P(label, p))
        outcomes = {majority_vote(list(perm)) for perm in itertools.permutations(votes)}
        assert len(outcomes) == 1


# --- VotingInferrer ----------------------------------------------------------------


def test_voting_config_requires_distinct_ids():
    a = MockInferrer("same", {})
    b = MockInferrer("same", {})
    c = MockInferrer("other", {})
    with pytest.raises(ValueError, match="distinct"):
        VotingInferrer((a, b, c))


def test_voting_inferrer_counts_ties():
    voters = (
        MockInferrer("v1", {"pat": (F, 0.9)}),
        MockInferrer("v2", {"pat": (M, 0.1)}),
        MockInferrer("v3", {}),
    )
    voting = VotingInferrer(voters, id="vote3")
    preds = voting.infer_batch(["pat", "pat"])
    assert all(p.label is U for p in preds)
    assert voting.tie_count == 2


def test_voting_inferrer_counts_no_tie_without_a_definite_ballot():
    voters = (
        MockInferrer("v1", {"pat": (A, 0.5)}),
        MockInferrer("v2", {}),
        MockInferrer("v3", {}),
    )
    voting = VotingInferrer(voters)
    assert voting.infer("pat").label is U
    assert voting.tie_count == 0


def test_voting_inferrer_tags_source():
    voters = (
        MockInferrer("v1", {"ana": (F, 1.0)}),
        MockInferrer("v2", {"ana": (F, 0.8)}),
        MockInferrer("v3", {"ana": (M, 0.0)}),
    )
    pred = VotingInferrer(voters, id="vote3").infer("ana")
    assert pred.source == "vote3"
    assert pred.label is F


# --- two-stage -----------------------------------------------------------------


def test_confident_name_short_circuits_fallback():
    fallback = CountingMock()
    pred = TwoStageInferrer(model_with({"gwen": (95, 5)}), fallback).infer("gwen")
    assert pred.label is F
    assert pred.source == "stage1:mle:m"
    assert fallback.calls == 0


def test_band_interior_defers():
    fallback = CountingMock(label=M, p_female=0.2)
    pred = TwoStageInferrer(model_with({"kim": (6, 4)}), fallback).infer("kim")  # p = 0.60
    assert pred.label is M
    assert pred.source == "stage2:counter"
    assert fallback.calls == 1


def test_band_endpoints_defer():
    fallback = CountingMock(label=F, p_female=0.9)
    inferrer = TwoStageInferrer(model_with({"lo": (1, 3), "hi": (3, 1)}), fallback)  # 0.25, 0.75
    assert inferrer.infer("lo").source == "stage2:counter"
    assert inferrer.infer("hi").source == "stage2:counter"


def test_out_of_vocabulary_routes_to_fallback():
    fallback = CountingMock(label=M, p_female=0.05)
    pred = TwoStageInferrer(model_with({"ann": (9, 1)}), fallback).infer("zorro")
    assert pred.label is M
    assert pred.source == "stage2:counter"


def test_short_circuit_on_random_confident_names(rng):
    # every name outside [0.25, 0.75] must never reach the fallback
    entries = {}
    confident = []
    for i in range(200):
        name = f"n{i:03d}"
        if rng.random() < 0.5:
            entries[name] = (rng.randint(80, 99), rng.randint(0, 20))
        else:
            entries[name] = (rng.randint(0, 20), rng.randint(80, 99))
        f, m = entries[name]
        if not 0.25 <= f / (f + m) <= 0.75:
            confident.append(name)
    fallback = CountingMock()
    inferrer = TwoStageInferrer(model_with(entries), fallback)
    inferrer.infer_batch(confident)
    assert fallback.calls == 0


def test_unknown_fallback_reduces_to_bare_model():
    model = model_with({"ada": (99, 1), "bob": (1, 99), "kim": (1, 1)})
    inferrer = TwoStageInferrer(model, CountingMock())
    assert inferrer.infer("ada").label is F
    assert inferrer.infer("bob").label is M
    assert inferrer.infer("kim").label is U
    assert inferrer.infer("nope").label is U


# the numeric bands the CLI test feeds through a two-stage config's band = key
@pytest.mark.parametrize("lo, hi", [(0.75, 0.25), (-0.1, 0.5), (0.8, 0.2), (0.25, 1.5), (math.nan, 0.5)])
def test_band_validation(lo, hi):
    model = model_with({"a": (1, 0)})
    with pytest.raises(ValueError, match="^expected two numbers lo, hi with 0 <= lo < hi <= 1$"):
        TwoStageInferrer(model, CountingMock(), (lo, hi))


def test_batch_preserves_order_across_stages():
    fallback = CountingMock(label=M, p_female=0.0)
    model = model_with({"ada": (99, 1), "kim": (1, 1), "eva": (98, 2)})
    preds = TwoStageInferrer(model, fallback).infer_batch(["ada", "kim", "eva", "xx"])
    assert [p.label for p in preds] == [F, M, F, M]
    assert [p.source.split(":")[0] for p in preds] == ["stage1", "stage2", "stage1", "stage2"]


# --- voting two-stage --------------------------------------------------------------


def make_voters(mapping):
    return (
        MockInferrer("v1", mapping.get("v1", {})),
        MockInferrer("v2", mapping.get("v2", {})),
        MockInferrer("v3", mapping.get("v3", {})),
    )


def test_confident_name_skips_voters():
    voters = make_voters({})
    model = model_with({"zed": (1, 49)})  # p = 0.02
    pred = TwoStageInferrer(model, VotingInferrer(voters), (0.25, 0.75)).infer("zed")
    assert pred.label is M
    assert pred.source.startswith("stage1:")


def test_ambiguous_name_decided_by_vote():
    voters = make_voters(
        {
            "v1": {"pat": (F, 0.9)},
            "v2": {"pat": (F, 0.8)},
            "v3": {"pat": (M, 0.1)},
        }
    )
    model = model_with({"pat": (1, 1)})
    pred = TwoStageInferrer(model, VotingInferrer(voters), (0.25, 0.75)).infer("pat")
    assert pred.label is F
    assert pred.source.startswith("stage2:")


def test_unknown_name_decided_by_vote():
    voters = make_voters(
        {
            "v1": {"rex": (M, 0.2)},
            "v2": {"rex": (M, 0.1)},
            "v3": {"rex": (F, 0.9)},
        }
    )
    model = model_with({"ann": (9, 1)})
    pred = TwoStageInferrer(model, VotingInferrer(voters), (0.25, 0.75)).infer("rex")
    assert pred.label is M


def test_evaluate_run_notes_the_vote_ties_of_each_two_stage_inferrer_in_the_order_given():
    def hybrid(id: str) -> TwoStageInferrer:
        voters = make_voters({"v1": {"pat": (F, 0.9)}, "v2": {"pat": (M, 0.1)}, "v3": {}})
        return TwoStageInferrer(model_with({"ana": (99, 1)}), VotingInferrer(voters), id=id)

    testset = LabeledTestSet("demo", (("ana", F), ("pat", F), ("bob", M)))
    # pat ties 1:1; bob gets no definite ballot, which is no tie
    report = evaluate_run([testset], [hybrid("z"), CountingMock("plain"), hybrid("a")])
    assert [row.inferrer_id for row in report.rows] == ["a", "plain", "z"]
    assert report.notes == ["z: vote ties = 1", "a: vote ties = 1"]
    assert report.to_text().splitlines()[-2:] == ["note: z: vote ties = 1", "note: a: vote ties = 1"]


# --- inferrer specs -----------------------------------------------------------


def test_build_inferrers_shares_one_inferrer_per_mock_file_or_adapter_config_and_id(tmp_path, monkeypatch):
    (tmp_path / "m.json").write_text(json.dumps({"ana": {"label": "female", "p_female": 0.9}}), encoding="utf-8")
    (tmp_path / "svc.conf").write_text("id = svc\nendpoint = https://svc.example/v1?name={name}\n", encoding="utf-8")
    save_model(model_with({"ana": (9, 1)}), tmp_path / "m.model.tsv")
    (tmp_path / "sub").mkdir()
    (tmp_path / "sub" / "ts.conf").write_text("model = ../m.model.tsv\nfallback = mock:../m.json\n", encoding="utf-8")
    (tmp_path / "sub" / "vote.conf").write_text(
        "model = ../m.model.tsv\nvoters = http:../svc.conf; mock:../m.json; other=mock:../m.json\n", encoding="utf-8")
    loads = []
    from_json = MockInferrer.from_json.__func__
    monkeypatch.setattr(MockInferrer, "from_json", classmethod(lambda cls, *args: loads.append(args) or from_json(cls, *args)))
    specs = [f"mock:{tmp_path / 'm.json'}", f"http:{tmp_path / 'svc.conf'}", f"twostage:{tmp_path / 'sub' / 'ts.conf'}",
             f"twostage:{tmp_path / 'sub' / 'vote.conf'}", f"x=mock:{tmp_path / 'm.json'}"]
    (mock, http, two_stage, voting, renamed), _ = build_inferrers(specs)
    assert isinstance(mock, MockInferrer) and isinstance(http, HttpAdapter)
    # the same file under the same id, however its path is written, is one inferrer
    assert two_stage.fallback is mock
    same_http, same_mock, other = voting.fallback.voters
    assert same_http is http and same_mock is mock  # so the service has one rate limiter
    # a different id is a separate inferrer
    assert other is not mock and other.id == "other"
    assert renamed is not mock and renamed.id == "x"
    assert len(loads) == 3
