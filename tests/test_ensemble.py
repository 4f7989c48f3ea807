from __future__ import annotations

import itertools

import pytest

from namegender.corpus import FrequencyTable, GenderCounts, NameType
from namegender.ensemble import (
    TwoStageConfig,
    TwoStageInferrer,
    VotingConfig,
    VotingInferrer,
    majority_vote,
)
from namegender.inferrers import Inferrer, MockInferrer
from namegender.mle import GenderLabel, Prediction, train


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


# --- VotingConfig / VotingInferrer ------------------------------------------------


def test_voting_config_requires_distinct_ids():
    a = MockInferrer("same", {})
    b = MockInferrer("same", {})
    c = MockInferrer("other", {})
    with pytest.raises(ValueError, match="distinct"):
        VotingConfig((a, b, c))


def test_voting_inferrer_counts_ties():
    voters = (
        MockInferrer("v1", {"pat": (F, 0.9)}),
        MockInferrer("v2", {"pat": (M, 0.1)}),
        MockInferrer("v3", {}),
    )
    voting = VotingInferrer(VotingConfig(voters), id="vote3")
    preds = voting.infer_batch(["pat", "pat"])
    assert all(p.label is U for p in preds)
    assert voting.tie_count == 2


def test_voting_inferrer_counts_no_tie_without_a_definite_ballot():
    voters = (
        MockInferrer("v1", {"pat": (A, 0.5)}),
        MockInferrer("v2", {}),
        MockInferrer("v3", {}),
    )
    voting = VotingInferrer(VotingConfig(voters))
    assert voting.infer("pat").label is U
    assert voting.tie_count == 0


def test_voting_inferrer_tags_source():
    voters = (
        MockInferrer("v1", {"ana": (F, 1.0)}),
        MockInferrer("v2", {"ana": (F, 0.8)}),
        MockInferrer("v3", {"ana": (M, 0.0)}),
    )
    pred = VotingInferrer(VotingConfig(voters), id="vote3").infer("ana")
    assert pred.source == "vote3"
    assert pred.label is F


# --- two-stage -----------------------------------------------------------------


def test_confident_name_short_circuits_fallback():
    fallback = CountingMock()
    config = TwoStageConfig(model_with({"gwen": (95, 5)}), fallback)
    pred = TwoStageInferrer(config).infer("gwen")
    assert pred.label is F
    assert pred.source == "stage1:mle:m"
    assert fallback.calls == 0


def test_band_interior_defers():
    fallback = CountingMock(label=M, p_female=0.2)
    config = TwoStageConfig(model_with({"kim": (6, 4)}), fallback)  # p = 0.60
    pred = TwoStageInferrer(config).infer("kim")
    assert pred.label is M
    assert pred.source == "stage2:counter"
    assert fallback.calls == 1


def test_band_endpoints_defer():
    fallback = CountingMock(label=F, p_female=0.9)
    config = TwoStageConfig(model_with({"lo": (1, 3), "hi": (3, 1)}), fallback)  # 0.25, 0.75
    assert TwoStageInferrer(config).infer("lo").source == "stage2:counter"
    assert TwoStageInferrer(config).infer("hi").source == "stage2:counter"


def test_out_of_vocabulary_routes_to_fallback():
    fallback = CountingMock(label=M, p_female=0.05)
    config = TwoStageConfig(model_with({"ann": (9, 1)}), fallback)
    pred = TwoStageInferrer(config).infer("zorro")
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
    inferrer = TwoStageInferrer(TwoStageConfig(model_with(entries), fallback))
    inferrer.infer_batch(confident)
    assert fallback.calls == 0


def test_unknown_fallback_reduces_to_bare_model():
    model = model_with({"ada": (99, 1), "bob": (1, 99), "kim": (1, 1)})
    inferrer = TwoStageInferrer(TwoStageConfig(model, CountingMock()))
    assert inferrer.infer("ada").label is F
    assert inferrer.infer("bob").label is M
    assert inferrer.infer("kim").label is U
    assert inferrer.infer("nope").label is U


def test_band_validation():
    model = model_with({"a": (1, 0)})
    with pytest.raises(ValueError):
        TwoStageConfig(model, CountingMock(), (0.75, 0.25))
    with pytest.raises(ValueError):
        TwoStageConfig(model, CountingMock(), (-0.1, 0.5))


def test_batch_preserves_order_across_stages():
    fallback = CountingMock(label=M, p_female=0.0)
    model = model_with({"ada": (99, 1), "kim": (1, 1), "eva": (98, 2)})
    preds = TwoStageInferrer(TwoStageConfig(model, fallback)).infer_batch(["ada", "kim", "eva", "xx"])
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
    pred = TwoStageInferrer(TwoStageConfig(model, VotingInferrer(VotingConfig(voters)), (0.25, 0.75))).infer("zed")
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
    pred = TwoStageInferrer(TwoStageConfig(model, VotingInferrer(VotingConfig(voters)), (0.25, 0.75))).infer("pat")
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
    pred = TwoStageInferrer(TwoStageConfig(model, VotingInferrer(VotingConfig(voters)), (0.25, 0.75))).infer("rex")
    assert pred.label is M
