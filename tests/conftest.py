from __future__ import annotations

import os
import random
import string
import time

import pytest
from hypothesis import settings

from namegender.corpus import FrequencyTable, GenderCounts, NameType

# CI runs HYPOTHESIS_PROFILE=ci: the same examples every run, and a failure prints the blob that replays it.
settings.register_profile("ci", derandomize=True, print_blob=True)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))

VOWELS = "aeiou"
CONSONANTS = "".join(c for c in string.ascii_lowercase if c not in VOWELS)


class FakeResponse:
    def __init__(self, status_code: int, text: str = "") -> None:
        self.status_code = status_code
        self.text = text


class FakeSession:
    """Counting fake endpoint; handler(url) -> FakeResponse or raises."""

    def __init__(self, handler) -> None:
        self.handler = handler
        self.calls: list[tuple[float, str]] = []

    def get(self, url, timeout=None):
        self.calls.append((time.monotonic(), url))
        result = self.handler(url)
        if isinstance(result, Exception):
            raise result
        return result


def random_name(rng: random.Random, min_len: int = 2, max_len: int = 10) -> str:
    """A cleaning-safe lowercase name: alternating consonant/vowel."""
    length = rng.randint(min_len, max_len)
    chars = []
    for i in range(length):
        chars.append(rng.choice(CONSONANTS if i % 2 == 0 else VOWELS))
    return "".join(chars)


def random_table(
    rng: random.Random,
    source_id: str,
    n_names: int,
    max_count: int = 50,
    ambiguous_share: float = 0.3,
) -> FrequencyTable:
    entries: dict[str, GenderCounts] = {}
    while len(entries) < n_names:
        name = random_name(rng)
        if name in entries:
            continue
        if rng.random() < ambiguous_share:
            female = rng.randint(1, max_count)
            male = rng.randint(1, max_count)
        elif rng.random() < 0.5:
            female, male = rng.randint(1, max_count), 0
        else:
            female, male = 0, rng.randint(1, max_count)
        entries[name] = GenderCounts(female, male)
    return FrequencyTable(entries, NameType.FIRST, source_id)


@pytest.fixture
def rng() -> random.Random:
    return random.Random(20240811)
