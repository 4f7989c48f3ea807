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
from typing import Sequence

from .inferrers import Inferrer, MleInferrer
from .mle import GenderLabel, MleModel, Prediction

DEFAULT_DEFER_BAND = (0.25, 0.75)


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
        if len(voters) != 3:
            raise ValueError("voting requires exactly 3 voters")
        ids = [v.id for v in voters]
        if len(set(ids)) != 3:
            raise ValueError(f"voter ids must be distinct: {ids}")
        super().__init__(id)
        self.voters = tuple(voters)
        self.tie_count = 0

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
        lo, hi = defer_band
        if not 0.0 <= lo < hi <= 1.0:
            raise ValueError(f"bad defer band [{lo}, {hi}]")
        super().__init__(f"{primary.model_id}+{fallback.id}" if id is None else id)
        self.fallback = fallback
        self.defer_band = defer_band
        self._stage1 = MleInferrer(primary, id=f"stage1:{primary.model_id}")

    def _infer_chunk(self, names: Sequence[str]) -> list[Prediction]:
        lo, hi = self.defer_band
        out = self._stage1.infer_batch(names)
        deferred = [i for i, pred in enumerate(out) if pred.p_female is None or lo <= pred.p_female <= hi]
        if deferred:
            answers = self.fallback.infer_batch([names[i] for i in deferred])
            for i, pred in zip(deferred, answers):
                out[i] = Prediction(pred.label, pred.p_female, f"stage2:{pred.source}")
        return out
