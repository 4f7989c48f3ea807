from __future__ import annotations


import pytest

from namegender.corpus import FrequencyTable, GenderCounts, NameType, merge_tables
from namegender.mle import (
    GenderLabel,
    Prediction,
    load_model,
    mle_female,
    save_model,
    train,
)

from conftest import random_table


def single_name_model(female: int, male: int, tau: float):
    table = FrequencyTable({"x": GenderCounts(female, male)}, NameType.FIRST, "t")
    return train(table, tau)


# --- mle_female -------------------------------------------------------------


def test_even_counts_give_half():
    assert mle_female(GenderCounts(1, 1)) == 0.5


def test_three_to_one():
    assert mle_female(GenderCounts(3, 1)) == 0.75


def test_all_male():
    assert mle_female(GenderCounts(0, 7)) == 0.0


def test_zero_total_raises():
    with pytest.raises(ValueError):
        mle_female(GenderCounts(0, 0))


def test_matches_exact_ratio_on_random_counts(rng):
    for _ in range(200):
        f, m = rng.randint(0, 10**6), rng.randint(0, 10**6)
        if f + m == 0:
            continue
        assert mle_female(GenderCounts(f, m)) == pytest.approx(f / (f + m), abs=1e-12)


# --- classify ----------------------------------------------------------------


def test_above_tau_is_female():
    model = single_name_model(95, 5, 0.90)
    assert model.classify("x").label is GenderLabel.FEMALE


def test_half_is_ambiguous_at_every_tau():
    for tau in (0.50, 0.75, 0.90):
        model = single_name_model(1, 1, tau)
        assert model.classify("x").label is GenderLabel.AMBIGUOUS, tau


def test_absent_name_is_unknown():
    model = single_name_model(1, 1, 0.9)
    pred = model.classify("nobody")
    assert pred.label is GenderLabel.UNKNOWN
    assert pred.p_female is None


def test_tau_boundary_is_strict():
    # p exactly at tau stays ambiguous on both sides
    model = single_name_model(3, 1, 0.75)
    assert model.classify("x").label is GenderLabel.AMBIGUOUS
    model = single_name_model(1, 3, 0.75)
    assert model.classify("x").label is GenderLabel.AMBIGUOUS


def test_tau_widens_ambiguous_band():
    assert single_name_model(4, 1, 0.5).classify("x").label is GenderLabel.FEMALE
    assert single_name_model(4, 1, 0.9).classify("x").label is GenderLabel.AMBIGUOUS


def test_classify_is_pure():
    model = single_name_model(7, 3, 0.5)
    assert model.classify("x") == model.classify("x")


def test_threshold_monotonicity_random(rng):
    taus = (0.50, 0.75, 0.90)
    for _ in range(500):
        f, m = rng.randint(0, 100), rng.randint(0, 100)
        if f + m == 0:
            continue
        labels = [single_name_model(f, m, tau).classify("x").label for tau in taus]
        for earlier, later in zip(labels, labels[1:]):
            if earlier is GenderLabel.AMBIGUOUS:
                assert later is GenderLabel.AMBIGUOUS
            else:
                assert later in (earlier, GenderLabel.AMBIGUOUS)


def test_label_probability_consistency(rng):
    for _ in range(300):
        f, m = rng.randint(0, 50), rng.randint(0, 50)
        if f + m == 0:
            continue
        tau = rng.choice((0.5, 0.75, 0.9))
        model = single_name_model(f, m, tau)
        pred = model.classify("x")
        if pred.label is GenderLabel.FEMALE:
            assert pred.p_female > tau
        elif pred.label is GenderLabel.MALE:
            assert pred.p_female < 1 - tau


def test_swapping_counts_swaps_labels(rng):
    swap = {
        GenderLabel.FEMALE: GenderLabel.MALE,
        GenderLabel.MALE: GenderLabel.FEMALE,
        GenderLabel.AMBIGUOUS: GenderLabel.AMBIGUOUS,
        GenderLabel.UNKNOWN: GenderLabel.UNKNOWN,
    }
    for _ in range(100):
        table = random_table(rng, "t", 20)
        mirrored = FrequencyTable(
            {n: GenderCounts(gc.male, gc.female) for n, gc in table.entries.items()},
            NameType.FIRST,
            "t",
        )
        tau = rng.choice((0.5, 0.75, 0.9))
        model, mirror_model = train(table, tau), train(mirrored, tau)
        for name in table.entries:
            assert mirror_model.classify(name).label is swap[model.classify(name).label]


# --- train / save / load ------------------------------------------------------


def test_train_validates_tau():
    table = FrequencyTable({"x": GenderCounts(1, 0)}, NameType.FIRST, "t")
    with pytest.raises(ValueError):
        train(table, 0.4)
    with pytest.raises(ValueError):
        train(table, 1.1)


def test_train_rejects_empty_table():
    with pytest.raises(ValueError):
        train(FrequencyTable({}, NameType.FIRST, "t"), 0.9)


def test_save_load_round_trip_classifies_identically(tmp_path, rng):
    table = random_table(rng, "big", 1000)
    model = train(table, 0.75)
    path = tmp_path / "big.model.tsv"
    save_model(model, path)
    loaded = load_model(path)
    assert loaded.tau == model.tau
    assert loaded.table.entries == model.table.entries
    for name in list(table.entries) + ["absent-name"]:
        assert loaded.classify(name) == model.classify(name)


def test_save_load_preserves_custom_model_id(tmp_path):
    table = FrequencyTable({"ana": GenderCounts(3, 1)}, NameType.FIRST, "t")
    model = train(table, 0.9, model_id="custom")
    path = tmp_path / "m.tsv"
    save_model(model, path)
    assert load_model(path).model_id == "custom"


def test_model_file_without_tau_rejected(tmp_path):
    path = tmp_path / "m.tsv"
    path.write_text("# name_type=first\tsource_id=t\nana\t3\t1\n", encoding="utf-8")
    with pytest.raises(ValueError, match="tau"):
        load_model(path)


def test_model_on_merged_table_equals_model_on_oracle_table(rng):
    parts = [random_table(rng, f"p{i}", 25) for i in range(3)]
    merged_model = train(merge_tables(parts), 0.9, model_id="m")
    # oracle: accumulate counts independently, name by name
    oracle: dict[str, list[int]] = {}
    for part in parts:
        for name, gc in part.entries.items():
            slot = oracle.setdefault(name, [0, 0])
            slot[0] += gc.female
            slot[1] += gc.male
    oracle_table = FrequencyTable(
        {n: GenderCounts(f, m) for n, (f, m) in oracle.items()}, NameType.FIRST, "o"
    )
    oracle_model = train(oracle_table, 0.9, model_id="m")
    for name in oracle_table.entries:
        assert merged_model.classify(name) == oracle_model.classify(name)


# --- Prediction invariants ------------------------------------------------------


def test_prediction_validates_probability_presence():
    with pytest.raises(ValueError):
        Prediction(GenderLabel.FEMALE, None, "s")
    with pytest.raises(ValueError):
        Prediction(GenderLabel.UNKNOWN, 0.5, "s")
    with pytest.raises(ValueError):
        Prediction(GenderLabel.MALE, 1.5, "s")
