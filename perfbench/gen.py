"""Seeded inputs for the benchmark, and the oracle they are checked against.

Every fact the program's outputs are later compared with is recorded here
while the inputs are written: the true per-name counts, the rows that are
meant to be rejected and why, and the label each inferrer should give each
name. Nothing in this module imports or runs the program under test.

The cleaning rules mirrored here are the documented ones (README, corpus
module docstring): lower-case, collapse whitespace, then reject digits,
fewer than two letters, personal titles, and names without a vowel.
"""

from __future__ import annotations

import csv
import json
import random
from dataclasses import dataclass, field
from pathlib import Path

CONSONANTS = "bcdfghjklmnpqrstvwxyz"
VOWELS = "aeiou"
ACCENTS = {"a": "á", "e": "é", "i": "í", "o": "ö", "u": "ü"}
TITLES = frozenset({"mr", "mrs", "ms", "dr", "prof", "rev", "hon", "sr", "jr"})
TAU = 0.9
DEFER_BAND = (0.25, 0.75)
REASONS = ("too_short", "no_vowel", "is_title", "invalid_characters")

# Sizes: "full" is what the benchmark measures; "tiny" is the smoke test's.
SIZES = {
    "full": {
        "ssa_names": 6000,
        "ssa_years_per_range": 20,
        "model_names": 60000,
        "queries": 100000,
        "eval_model_names": 20000,
        "first_names": 2000,
        "last_names": 30000,
        "fullname_rows": 60000,
        "ssa_test_names": 1000,
    },
    "tiny": {
        "ssa_names": 150,
        "ssa_years_per_range": 20,
        "model_names": 800,
        "queries": 1000,
        "eval_model_names": 600,
        "first_names": 200,
        "last_names": 400,
        "fullname_rows": 1500,
        "ssa_test_names": 150,
    },
}

REJECT_SHARE = 0.01  # share of rows meant to be rejected by the cleaning rules
AMBIGUOUS_SHARE = 0.10  # share of names observed with both genders
RECUR = (15, 20)  # years (out of 20) in which a name recurs
QUERY_MIX = {"in_vocab": 0.60, "variant": 0.20, "oov": 0.20}
VARIANT_KINDS = ("title", "upper", "padded", "padded_title")


def threshold_label(female: int, male: int, tau: float = TAU) -> str:
    """The documented decision rule: strict comparisons on p(female)."""
    p = female / (female + male)
    if p > tau:
        return "female"
    if p < 1.0 - tau:
        return "male"
    return "ambiguous"


def majority_label(female: int, male: int) -> str | None:
    if female == male:
        return None
    return "female" if female > male else "male"


class NamePool:
    """Distinct cleaning-safe lower-case names drawn from one seeded stream."""

    def __init__(self, rng: random.Random) -> None:
        self.rng = rng
        self.used: set[str] = set()

    def take(self, count: int, lo: int = 3, hi: int = 9, accent_share: float = 0.0) -> list[str]:
        out = []
        while len(out) < count:
            length = self.rng.randint(lo, hi)
            consonant_first = self.rng.random() < 0.8
            chars = [
                self.rng.choice(CONSONANTS if (i % 2 == 0) == consonant_first else VOWELS)
                for i in range(length)
            ]
            if accent_share and self.rng.random() < accent_share:
                vowel_at = [i for i, ch in enumerate(chars) if ch in VOWELS]
                i = self.rng.choice(vowel_at)
                chars[i] = ACCENTS[chars[i]]
            name = "".join(chars)
            if name in self.used or name in TITLES:
                continue
            self.used.add(name)
            out.append(name)
        return out


def _zipf_counts(rng: random.Random, count: int, top: int) -> list[int]:
    ranks = list(range(1, count + 1))
    rng.shuffle(ranks)
    return [max(5, int(top / rank**1.05)) for rank in ranks]


def _gender_split(rng: random.Random, total: int) -> tuple[int, int]:
    """Counts for one name: 10% ambiguous, the rest single-gender."""
    roll = rng.random()
    if roll < AMBIGUOUS_SHARE:
        minor = max(1, int(total * rng.uniform(0.05, 0.5)))
        major = max(1, total - minor)
        return (major, minor) if rng.random() < 0.5 else (minor, major)
    return (total, 0) if roll < (1 + AMBIGUOUS_SHARE) / 2 else (0, total)


def model_table(rng: random.Random, names: list[str]) -> dict[str, tuple[int, int]]:
    """An SSA-style first-name table: Zipf totals, 10% ambiguous names."""
    totals = _zipf_counts(rng, len(names), 2_000_000)
    return {name: _gender_split(rng, total) for name, total in zip(names, totals)}


def write_model(table: dict[str, tuple[int, int]], path: Path, source_id: str) -> None:
    """Write a model in the documented table format, with tau in the header."""
    lines = [f"# name_type=first\tsource_id={source_id}\ttau={TAU!r}"]
    lines += [f"{name}\t{f}\t{m}" for name, (f, m) in sorted(table.items())]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


# --- ssa-build ----------------------------------------------------------------


@dataclass
class IngestOracle:
    """What one ingest call must produce: table counts and report counts."""

    counts: dict[str, list[int]] = field(default_factory=dict)
    total_rows: int = 0
    retained: int = 0
    rejections: dict[str, int] = field(default_factory=lambda: dict.fromkeys(REASONS, 0))
    unmappable_gender: int = 0
    raw_names: set[str] = field(default_factory=set)

    def keep(self, raw: str, name: str, gender: str, count: int) -> None:
        self.total_rows += 1
        self.retained += 1
        self.raw_names.add(raw)
        slot = self.counts.setdefault(name, [0, 0])
        slot[0 if gender == "female" else 1] += count

    def reject(self, raw: str, reason: str) -> None:
        self.total_rows += 1
        self.raw_names.add(raw)
        self.rejections[reason] += 1

    def unmappable(self, raw: str) -> None:
        self.total_rows += 1
        self.raw_names.add(raw)
        self.unmappable_gender += 1

    @property
    def repeat_ratio(self) -> float:
        return self.total_rows / len(self.raw_names)


def _rejectable_pool(pool: NamePool) -> list[tuple[str, str]]:
    """Raw names that each fail exactly one cleaning rule, with the reason."""
    rng = pool.rng
    out = [(name.capitalize() + str(rng.randint(0, 9)), "invalid_characters") for name in pool.take(8)]
    out += [(letter, "too_short") for letter in "JKLQXZ"]
    out += [(title.capitalize(), "is_title") for title in sorted(TITLES)]
    while len(out) < 32:
        raw = "".join(rng.choice(CONSONANTS) for _ in range(rng.randint(3, 5)))
        if raw not in TITLES:
            out.append((raw.capitalize(), "no_vowel"))
    return out


def ssa_build(root: Path, seed: int, size: str) -> dict:
    """Write two 20-year ranges of yobYYYY.txt files; return the oracle."""
    spec = SIZES[size]
    rng = random.Random(seed)
    pool = NamePool(rng)
    names = pool.take(spec["ssa_names"])
    rejectable = _rejectable_pool(pool)
    splits = [_gender_split(rng, total) for total in _zipf_counts(rng, len(names), 40_000)]
    years_per = spec["ssa_years_per_range"]
    ranges = [(1961, 1961 + years_per - 1), (1961 + years_per, 1961 + 2 * years_per - 1)]
    ssa_dir = root / "ssa"
    ssa_dir.mkdir(parents=True, exist_ok=True)
    oracles = []
    for first, last in ranges:
        years = list(range(first, last + 1))
        rows_by_year: dict[int, list[tuple[str, str, int]]] = {y: [] for y in years}
        oracle = IngestOracle()
        for name, (female, male) in zip(names, splits):
            for year in rng.sample(years, rng.randint(*RECUR)):
                for tag, base in (("F", female), ("M", male)):
                    if base:
                        count = max(5, int(base * rng.uniform(0.5, 1.5)))
                        rows_by_year[year].append((name.capitalize(), tag, count))
                        oracle.keep(name.capitalize(), name, "female" if tag == "F" else "male", count)
        for year in years:
            n_reject = max(1, round(REJECT_SHARE * len(rows_by_year[year])))
            picks = rng.sample([(raw, reason, tag) for raw, reason in rejectable for tag in "FM"], n_reject)
            for raw, reason, tag in picks:
                rows_by_year[year].append((raw, tag, rng.randint(5, 60)))
                oracle.reject(raw, reason)
            rows = sorted(rows_by_year[year], key=lambda r: (r[1], -r[2], r[0]))
            text = "".join(f"{raw},{tag},{count}\n" for raw, tag, count in rows)
            (ssa_dir / f"yob{year}.txt").write_text(text, encoding="utf-8")
        oracles.append(oracle)
    return {"ssa_dir": ssa_dir, "ranges": ranges, "oracles": oracles}


# --- fullname-eval ---------------------------------------------------------------


def _vote(labels: list[str]) -> str:
    female = labels.count("female")
    male = labels.count("male")
    if female > male:
        return "female"
    if male > female:
        return "male"
    return "unknown"


@dataclass
class EvalOracle:
    """Inputs and expected answers for the fullname-eval workload."""

    full: IngestOracle
    first_counts: dict[str, list[int]]
    model: dict[str, tuple[int, int]]
    ssa_test: list[tuple[str, str]]
    mocks: dict[str, dict[str, str]]  # mock id -> name -> label
    http: dict[str, str]  # name -> label the service answers

    def stage1(self, name: str) -> str | None:
        counts = self.model.get(name)
        if counts is None:
            return None
        lo, hi = DEFER_BAND
        if lo <= counts[0] / (counts[0] + counts[1]) <= hi:
            return None
        return threshold_label(*counts)

    def predict(self, inferrer: str, name: str) -> str:
        if inferrer == "mle:ssa":
            counts = self.model.get(name)
            return "unknown" if counts is None else threshold_label(*counts)
        if inferrer in self.mocks:
            return self.mocks[inferrer].get(name, "unknown")
        if inferrer == "svc":
            return self.http.get(name, "unknown")
        if inferrer == "ts_mock":
            return self.stage1(name) or self.mocks["mock"].get(name, "unknown")
        if inferrer == "ts_vote":
            return self.stage1(name) or _vote(
                [self.mocks["va"].get(name, "unknown"), self.mocks["vb"].get(name, "unknown"), self.http.get(name, "unknown")]
            )
        raise KeyError(inferrer)


EVAL_INFERRERS = ("mle:ssa", "mock", "svc", "ts_mock", "ts_vote")


def _noisy_label(rng: random.Random, truth: str, right: float, wrong: float) -> str | None:
    roll = rng.random()
    if roll < right:
        return truth
    if roll < right + wrong:
        return "male" if truth == "female" else "female"
    return None


def _mock_entry(rng: random.Random, label: str) -> dict:
    p = {"female": rng.uniform(0.6, 1.0), "male": rng.uniform(0.0, 0.4), "ambiguous": 0.5}[label]
    return {"label": label, "p_female": round(p, 4)}


def fullname_eval(root: Path, seed: int, size: str) -> EvalOracle:
    """Write the full-name CSV, the eval model, a second test set, mock
    files and the adapter configs; return the oracle."""
    spec = SIZES[size]
    rng = random.Random(seed)
    pool = NamePool(rng)
    model_names = pool.take(spec["eval_model_names"])
    model = model_table(rng, model_names)
    write_model(model, root / "ssa.model.tsv", "ssa")

    n_first = spec["first_names"]
    firsts = rng.sample(model_names, int(n_first * 0.8))
    firsts += pool.take(n_first - len(firsts), accent_share=0.25)
    female_share = {}
    for name in firsts:
        roll = rng.random()
        female_share[name] = 0.97 if roll < 0.45 else 0.03 if roll < 0.9 else rng.uniform(0.3, 0.7)
    lasts = pool.take(spec["last_names"], lo=4, hi=10)
    first_weights = [1.0 / (i + 1) ** 0.8 for i in range(len(firsts))]

    full = IngestOracle()
    rows: list[tuple[str, str]] = []
    first_counts: dict[str, list[int]] = {}
    female_tags = ("F", "F", "F", "female", "w")
    male_tags = ("M", "M", "M", "male")
    drawn = rng.choices(firsts, weights=first_weights, k=spec["fullname_rows"])
    for first in drawn:
        gender = "female" if rng.random() < female_share[first] else "male"
        tag = rng.choice(female_tags if gender == "female" else male_tags)
        roll = rng.random()
        if roll < 0.005:
            raw, tag = f"{first.capitalize()} {rng.choice(lasts).capitalize()}", rng.choice(("x", "u"))
            full.unmappable(raw)
        elif roll < 0.005 + REJECT_SHARE:
            raw, reason = rng.choice(
                [
                    (f"{first.capitalize()}{rng.randint(0, 9)} {rng.choice(lasts).capitalize()}", "invalid_characters"),
                    (rng.choice("JKLQ"), "too_short"),
                    (rng.choice(("Dr", "Mr", "Mrs", "Prof")), "is_title"),
                    ("Brd Xkt", "no_vowel"),
                ]
            )
            full.reject(raw, reason)
        elif roll < 0.005 + REJECT_SHARE + 0.005:
            # the full name is clean, but its one-letter first token is not
            last = rng.choice(lasts)
            raw = f"{rng.choice('JKLQ')} {last.capitalize()}"
            full.keep(raw, raw.lower(), gender, 1)
        else:
            last = rng.choice(lasts)
            raw = f"{first.capitalize()} {last.capitalize()}"
            full.keep(raw, f"{first} {last}", gender, 1)
            slot = first_counts.setdefault(first, [0, 0])
            slot[0 if gender == "female" else 1] += 1
        rows.append((raw, tag))
    with (root / "names.csv").open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["name", "gender"])
        writer.writerows(rows)

    # A second test set from another source: half model names, half unseen.
    n_test = spec["ssa_test_names"]
    ssa_test = []
    for name in rng.sample(model_names, n_test // 2):
        label = majority_label(*model[name])
        if label:
            ssa_test.append((name, label))
    ssa_test += [(name, rng.choice(("female", "male"))) for name in pool.take(n_test - n_test // 2)]
    ssa_test.sort()
    lines = ["# testset=ssa"] + [f"{name}\t{label}" for name, label in ssa_test]
    (root / "ssa.test.tsv").write_text("\n".join(lines) + "\n", encoding="utf-8")

    truth = {name: label for name, label in ssa_test}
    for name, (f, m) in first_counts.items():
        truth[name] = "female" if f >= m else "male"
    warm_names = sorted(truth)
    mocks: dict[str, dict[str, str]] = {}
    for mock_id, coverage in (("mock", 0.7), ("va", 0.6), ("vb", 0.6)):
        entries = {}
        for name in warm_names:
            if rng.random() < coverage:
                label = _noisy_label(rng, truth[name], 0.85, 0.10) or "ambiguous"
                entries[name] = _mock_entry(rng, label)
        (root / f"{mock_id}.json").write_text(json.dumps(entries), encoding="utf-8")
        mocks[mock_id] = {name: e["label"] for name, e in entries.items()}
    http = {}
    responses = {}
    for name in warm_names:
        label = _noisy_label(rng, truth[name], 0.80, 0.10)
        probability = round(rng.uniform(0.5, 1.0), 2) if label else 0.0
        responses[name] = {"name": name, "gender": label, "probability": probability, "count": rng.randint(1, 9999)}
        http[name] = label or "unknown"
    (root / "responses.json").write_text(json.dumps(responses), encoding="utf-8")
    (root / "warm_names.json").write_text(json.dumps(warm_names), encoding="utf-8")

    # Port 9 (discard) on the loopback: nothing listens, so a cache miss
    # fails at once and never leaves the machine.
    (root / "svc.conf").write_text(
        "id = svc\n"
        "endpoint = http://127.0.0.1:9/?name={name}\n"
        "rate_limit = 1000000\nmax_attempts = 1\nbackoff = 0\ntimeout = 2\n"
        "label_path = gender\nconfidence_path = probability\nconfidence_scale = unit\n"
        "label.female = female\nlabel.male = male\nlabel.unknown = unknown, none\n"
        f"cache_dir = {(root / 'cache').resolve()}\n",
        encoding="utf-8",
    )
    band = f"band = {DEFER_BAND[0]}, {DEFER_BAND[1]}\n"
    (root / "ts_mock.conf").write_text(f"model = ssa.model.tsv\n{band}fallback = mock:{root / 'mock.json'}\n", encoding="utf-8")
    voters = f"va=mock:{root / 'va.json'}; vb=mock:{root / 'vb.json'}; http:{root / 'svc.conf'}"
    (root / "ts_vote.conf").write_text(f"model = ssa.model.tsv\n{band}voters = {voters}\n", encoding="utf-8")
    return EvalOracle(full, first_counts, model, ssa_test, mocks, http)


# --- infer-bulk and cli-short ---------------------------------------------------------


def _variant(rng: random.Random, name: str) -> str:
    kind = rng.choice(VARIANT_KINDS)
    if kind == "title":
        return name.capitalize()
    if kind == "upper":
        return name.upper()
    if kind == "padded":
        return f"  {name} "
    return f" {name.capitalize()}  "


def infer_inputs(root: Path, seed: int, size: str) -> dict:
    """Write the full-size model and the query mix; return the oracle.

    Each query is (line as written, kind, normalized name)."""
    spec = SIZES[size]
    rng = random.Random(seed)
    pool = NamePool(rng)
    names = pool.take(spec["model_names"])
    model = model_table(rng, names)
    write_model(model, root / "model.tsv", "full")
    oov = pool.take(max(1, spec["queries"] // 10))
    queries = []
    for _ in range(spec["queries"]):
        roll = rng.random()
        if roll < QUERY_MIX["in_vocab"]:
            name = rng.choice(names)
            queries.append((name, "in_vocab", name))
        elif roll < QUERY_MIX["in_vocab"] + QUERY_MIX["variant"]:
            name = rng.choice(names)
            queries.append((_variant(rng, name), "variant", name))
        else:
            name = rng.choice(oov)
            queries.append((name, "oov", name))
    (root / "queries.txt").write_text("".join(q[0] + "\n" for q in queries), encoding="utf-8")
    return {"model": model, "queries": queries, "model_path": root / "model.tsv", "queries_path": root / "queries.txt"}


def query_shares(queries: list[tuple[str, str, str]]) -> dict[str, float]:
    n = len(queries)
    shares = {f"{kind}_share": sum(1 for q in queries if q[1] == kind) / n for kind in QUERY_MIX}
    shares["query_repeat_ratio"] = n / len({q[0] for q in queries})
    return shares
