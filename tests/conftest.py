from __future__ import annotations

import json
import os
import random
import string
import time
from pathlib import Path

import pytest
from hypothesis import settings

from namegender.corpus import FrequencyTable, GenderCounts, NameType

# CI runs HYPOTHESIS_PROFILE=ci: the same examples every run, and a failure prints the blob that replays it.
settings.register_profile("ci", derandomize=True, print_blob=True)
# CI runs the SSA and table readers', the full-name fold's and the HTTP store's reference properties again under
# HYPOTHESIS_PROFILE=ci-readers.
settings.register_profile("ci-readers", parent=settings.get_profile("ci"), max_examples=1000)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))

README = Path(__file__).resolve().parents[1] / "README.md"

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


def readme_section(title: str) -> str:
    """The text of README's `## title` section, up to the next `## ` heading."""
    return README.read_text(encoding="utf-8").split(f"\n## {title}\n", 1)[1].split("\n## ", 1)[0]


def readme_blocks(title: str, info: str = "") -> list[str]:
    """The text of each fenced block of README's `## title` section whose info string is info, without its fences."""
    blocks = [block.split("\n", 1) for block in readme_section(title).split("```")[1::2]]
    return [text for head, text in blocks if head == info]


def write_readme_inputs(root: Path) -> None:
    """The input files README's walkthrough and library example read, under root.

    names.csv holds 40 names of one gender each and mary of both. The SSA years give every third of the 40
    mostly the other gender, so a model of the merged table answers some demo test names wrongly."""
    names = [first + "a" + second + "o" for first in "bdkn" for second in "mnprstvzgh"]
    rows = [f"{name},{'F' if i % 2 else 'M'},{i + 1}" for i, name in enumerate(names)] + ["mary,F,95", "mary,M,5"]
    (root / "names.csv").write_text("name,gender,count\n" + "\n".join(rows) + "\n", encoding="utf-8")
    year = "".join(f"{name.title()},{'M' if i % 2 else 'F'},3\n" for i, name in enumerate(names) if i % 3 == 0)
    (root / "ssa").mkdir()
    for y in range(1937, 2000):
        (root / "ssa" / f"yob{y}.txt").write_text(year + "Mary,F,9\nMary,M,1\nZoe,F,4\n", encoding="utf-8")
    (root / "names.txt").write_text("mary\nbamo\nzoe\n", encoding="utf-8")
    mock = {name: {"label": "female", "p_female": 0.9} for name in names}
    (root / "mock_predictions.json").write_text(json.dumps(mock), encoding="utf-8")


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


@pytest.fixture(autouse=True, scope="session")
def _model_cache(tmp_path_factory):
    """mle.load_model keeps its parses under $XDG_CACHE_HOME/namegender. For the session, this process and every
    CLI or benchmark subprocess a test starts use a temporary directory there, never the user's own cache."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("XDG_CACHE_HOME", str(tmp_path_factory.mktemp("xdg-cache")))
        yield


@pytest.fixture
def rng() -> random.Random:
    return random.Random(20240811)
