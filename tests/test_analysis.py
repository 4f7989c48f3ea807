from __future__ import annotations

import pytest

from namegender.analysis import (
    NgramInventory,
    RateType,
    assign_rate_types,
    extract_ngrams,
    is_non_english,
    length_histograms,
    ngram_inventory,
    non_english_distribution,
    write_length_export,
    write_ngram_export,
    write_non_english_export,
)
from namegender.evaluation import LabeledTestSet
from namegender.mle import GenderLabel, Prediction

F, M, A, U = GenderLabel.FEMALE, GenderLabel.MALE, GenderLabel.AMBIGUOUS, GenderLabel.UNKNOWN


def P(label, p=None):
    return Prediction(label, p, "s")


def groups(rated):
    """(name, rate type) pairs as assign_rate_types groups them."""
    return {rate: [name for name, r in rated if r is rate] for rate in RateType}


# --- rate types -----------------------------------------------------------------


def test_rate_type_assignment_excludes_undecided():
    ts = LabeledTestSet(
        "t",
        (("ana", F), ("bea", F), ("carl", M), ("dave", M), ("eve", F)),
    )
    preds = [P(F, 0.9), P(M, 0.2), P(M, 0.1), P(F, 0.8), P(U)]
    rated = assign_rate_types(ts, preds)
    assert rated == groups([
        ("ana", RateType.TF),
        ("bea", RateType.FM),
        ("carl", RateType.TM),
        ("dave", RateType.FF),
    ])


def test_rate_type_length_mismatch():
    with pytest.raises(ValueError):
        assign_rate_types(LabeledTestSet("t", (("ana", F),)), [])


# --- length histograms ------------------------------------------------------------


def test_length_histogram_two_lengths():
    rated = [("ann", RateType.TF), ("maria", RateType.TF)]
    hists = length_histograms(groups(rated))
    assert hists[RateType.TF] == {3: 50.0, 5: 50.0}


def test_length_histogram_single_name():
    hists = length_histograms(groups([("bo", RateType.FM)]))
    assert hists[RateType.FM] == {2: 100.0}


def test_length_histogram_twelve_name_fixture():
    # hand-tallied: TF lengths 3,3,4 -> 66.67/33.33; TM lengths 2,2,2,6
    rated = [
        ("ana", RateType.TF), ("eva", RateType.TF), ("lisa", RateType.TF),
        ("bo", RateType.TM), ("cy", RateType.TM), ("al", RateType.TM), ("gaston", RateType.TM),
        ("muriel", RateType.FF), ("iris", RateType.FF),
        ("jo", RateType.FM), ("kim", RateType.FM), ("sam", RateType.FM),
    ]
    hists = length_histograms(groups(rated))
    assert hists[RateType.TF][3] == pytest.approx(200 / 3)
    assert hists[RateType.TF][4] == pytest.approx(100 / 3)
    assert hists[RateType.TM] == {2: 75.0, 6: 25.0}
    assert hists[RateType.FF] == {6: 50.0, 4: 50.0}
    assert hists[RateType.FM] == {2: pytest.approx(100 / 3), 3: pytest.approx(200 / 3)}


def test_length_histogram_mass_sums_to_100(rng):
    rated = []
    for i in range(200):
        name = "x" * rng.randint(2, 12)
        rated.append((f"{name}{i}" * 0 + name, rng.choice(list(RateType))))
    hists = length_histograms(groups(rated))
    for rate, hist in hists.items():
        assert sum(hist.values()) == pytest.approx(100.0, abs=0.01)


def test_length_histogram_omits_empty_rate_types():
    hists = length_histograms(groups([("ana", RateType.TF)]))
    assert set(hists) == {RateType.TF}


def test_length_histogram_invariant_under_reordering(rng):
    rated = [(f"n{'x' * (i % 5)}", rng.choice(list(RateType))) for i in range(60)]
    shuffled = rated[:]
    rng.shuffle(shuffled)
    assert length_histograms(groups(rated)) == length_histograms(groups(shuffled))


# --- non-English names --------------------------------------------------------------


def test_non_english_examples():
    assert is_non_english("špela")
    assert is_non_english("josé")
    assert not is_non_english("mary")


def test_non_english_distribution_half():
    rated = [("anna", RateType.TF), ("josé", RateType.TF)]
    assert non_english_distribution(groups(rated))[RateType.TF] == pytest.approx(50.0)


def test_non_english_all_ascii_is_zero():
    rated = [("anna", RateType.TF), ("bob", RateType.TM), ("carl", RateType.FF), ("dan", RateType.FM)]
    dist = non_english_distribution(groups(rated))
    assert all(v == 0.0 for v in dist.values())


def test_non_english_twenty_name_fixture():
    # hand count: TF 2/5 non-English, TM 1/5, FF 0/5, FM 3/5
    tf = ["ana", "özge", "maria", "špela", "eva"]
    tm = ["bob", "josé", "carl", "dan", "erik"]
    ff = ["fay", "gwen", "hana", "iris", "june"]
    fm = ["rené", "sören", "tomaž", "ulf", "vito"]
    rated = (
        [(n, RateType.TF) for n in tf]
        + [(n, RateType.TM) for n in tm]
        + [(n, RateType.FF) for n in ff]
        + [(n, RateType.FM) for n in fm]
    )
    dist = non_english_distribution(groups(rated))
    assert dist[RateType.TF] == pytest.approx(40.0)
    assert dist[RateType.TM] == pytest.approx(20.0)
    assert dist[RateType.FF] == pytest.approx(0.0)
    assert dist[RateType.FM] == pytest.approx(60.0)


# --- n-grams -------------------------------------------------------------------------


def test_bigrams_and_trigrams_of_mary():
    assert extract_ngrams("mary", 2) == ["ma", "ar", "ry"]
    assert extract_ngrams("mary", 3) == ["mar", "ary"]


def test_ngrams_lowercase_input():
    assert extract_ngrams("Mary", 2) == ["ma", "ar", "ry"]


def test_ngrams_too_short_name():
    assert extract_ngrams("al", 3) == []


def test_ngrams_repeated_letters():
    assert extract_ngrams("anna", 2) == ["an", "nn", "na"]


def test_ngrams_bad_n():
    for n in (1, 4, 0):
        with pytest.raises(ValueError):
            extract_ngrams("mary", n)


def test_ngram_count_formula(rng):
    for _ in range(100):
        name = "ab" * rng.randint(1, 6)
        n = rng.choice((2, 3))
        assert len(extract_ngrams(name, n)) == max(0, len(name) - n + 1)


def test_inventory_simple():
    inv = ngram_inventory(groups([("ann", RateType.TF), ("ben", RateType.FF)]), 2)
    assert inv.unique_to_true == {"an", "nn"}
    assert inv.unique_to_false == {"be", "en"}
    assert inv.overlapping == frozenset()


def test_inventory_identical_categories():
    inv = ngram_inventory(groups([("ann", RateType.TF), ("ann", RateType.FM)]), 2)
    assert inv.unique_to_true == frozenset()
    assert inv.unique_to_false == frozenset()
    assert inv.overlapping == {"an", "nn"}


def test_inventory_empty_category_raises():
    with pytest.raises(ValueError, match="false"):
        ngram_inventory(groups([("ann", RateType.TF)]), 2)


def test_inventory_ten_name_fixture_matches_set_oracle(rng):
    names = ["maria", "ann", "beth", "carol", "dora", "evan", "frank", "gil", "hank", "ivan"]
    rated = [(n, rng.choice(list(RateType))) for n in names]
    if not any(r in (RateType.TF, RateType.TM) for _, r in rated):
        rated[0] = (rated[0][0], RateType.TF)
    if not any(r in (RateType.FF, RateType.FM) for _, r in rated):
        rated[1] = (rated[1][0], RateType.FF)
    for n in (2, 3):
        inv = ngram_inventory(groups(rated), n)
        # independent set oracle
        true_set, false_set = set(), set()
        for name, rate in rated:
            grams = {name[i : i + n] for i in range(len(name) - n + 1)}
            (true_set if rate in (RateType.TF, RateType.TM) else false_set).update(grams)
        assert inv.unique_to_true == true_set - false_set
        assert inv.unique_to_false == false_set - true_set
        assert inv.overlapping == true_set & false_set


def test_inventory_partition_invariants(rng):
    for _ in range(50):
        rated = [("ann", RateType.TF), ("ben", RateType.FM)]
        for i in range(rng.randint(1, 20)):
            name = "".join(rng.choice("abcdefg") for _ in range(rng.randint(2, 8)))
            rated.append((name, rng.choice(list(RateType))))
        inv = ngram_inventory(groups(rated), rng.choice((2, 3)))
        assert inv.unique_to_true | inv.overlapping == inv.true_grams
        assert inv.unique_to_false | inv.overlapping == inv.false_grams
        assert not inv.unique_to_true & inv.overlapping
        assert not inv.unique_to_false & inv.overlapping
        assert not inv.unique_to_true & inv.unique_to_false


# --- exports --------------------------------------------------------------------------


def test_length_export_is_plot_ready(tmp_path):
    hists = length_histograms(groups([("ann", RateType.TF), ("maria", RateType.TF)]))
    path = tmp_path / "lengths.tsv"
    write_length_export(hists, path)
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "rate_type\tlength\tpercentage"
    assert lines[1].startswith("TF\t3\t50")


def test_non_english_export(tmp_path):
    rated = [("anna", RateType.TF), ("josé", RateType.TF)]
    path = tmp_path / "ne.tsv"
    write_non_english_export(groups(rated), path)
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "rate_type\tnames\tnon_english_percentage"
    assert lines[1] == "TF\t2\t50.0000"


def test_ngram_export(tmp_path):
    inv = NgramInventory(2, frozenset({"an", "nn"}), frozenset({"an", "be"}))
    path = tmp_path / "bigrams.tsv"
    write_ngram_export(inv, path)
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "n\tunique_to_true\tunique_to_false\toverlapping"
    assert lines[1] == "2\t1\t1\t1"
