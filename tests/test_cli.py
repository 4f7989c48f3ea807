from __future__ import annotations

import argparse
import ast
import contextlib
import csv
import gc
import hashlib
import importlib.util
import io
import json
import os
import random
import select
import subprocess
import sys
import tempfile
from json.encoder import encode_basestring_ascii
from pathlib import Path

import pytest
import requests
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from namegender import cli, corpus
from namegender.corpus import FrequencyTable, GenderCounts, NameType, pairwise_overlap, read_table
from namegender.ensemble import build_inferrers
from namegender.inferrers import HttpAdapter, parse_adapter_config
from namegender.mle import load_model, save_model, train

from conftest import FakeResponse, FakeSession, readme_blocks, write_readme_inputs

DATA = Path(__file__).parent / "data"


def run(*argv: str) -> int:
    return cli.main(list(argv))


def fresh_interpreter(script: str, **kwargs) -> subprocess.CompletedProcess:
    """Runs script in a new interpreter that imports the package from this checkout; it must exit 0."""
    src = Path(cli.__file__).resolve().parents[1]
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(src)}, **kwargs)
    assert done.returncode == 0, done.stderr
    return done


@pytest.fixture
def corpus_csv(tmp_path: Path) -> Path:
    path = tmp_path / "tiny.csv"
    path.write_text(
        "name,gender,count\n"
        "mary,F,95\nmary,M,5\n"
        "john,M,80\n"
        "pat,F,10\npat,M,10\n"
        "anna,F,40\n"
        "erik,M,30\n"
        "lisa,F,22\n"
        "omar,M,17\n"
        "ruth,F,9\n",
        encoding="utf-8",
    )
    return path


def ingest_tiny(corpus_csv: Path, out: Path) -> Path:
    assert run(
        "ingest", "--csv", str(corpus_csv),
        "--name-col", "name", "--gender-col", "gender", "--count-col", "count",
        "--source-id", "tiny", "--out-dir", str(out),
    ) == 0
    return out / "tiny.table.tsv"


# --- ingest ---------------------------------------------------------------------


def test_ingest_writes_table_report_and_manifest(corpus_csv, tmp_path):
    out = tmp_path / "out"
    table_path = ingest_tiny(corpus_csv, out)
    table = read_table(table_path)
    assert len(table) == 8
    report = (out / "tiny.ingest-report.tsv").read_text(encoding="utf-8")
    assert "retained\t10" in report
    manifest = json.loads((out / "ingest.manifest.json").read_text(encoding="utf-8"))
    assert sorted(manifest) == ["command", "config_digests", "input_digests", "seed", "timestamp", "tool_version"]
    assert str(corpus_csv) in manifest["input_digests"]
    assert manifest["tool_version"]


def test_ingest_ssa_directory(tmp_path):
    ssa = tmp_path / "ssa"
    ssa.mkdir()
    (ssa / "yob1990.txt").write_text("Mary,F,10\nJohn,M,8\n", encoding="utf-8")
    (ssa / "yob1991.txt").write_text("Mary,F,5\n", encoding="utf-8")
    out = tmp_path / "out"
    assert run("ingest", "--ssa-dir", str(ssa), "--years", "1990-1991", "--out-dir", str(out)) == 0
    table = read_table(out / "ssa1990-1991.table.tsv")
    assert table.entries["mary"].female == 15


def test_ingest_ssa_directory_ignores_stray_files(tmp_path):
    ssa = tmp_path / "ssa"
    ssa.mkdir()
    for name in ("yob1991.txt", "yob1990.txt", "yob1989.txt"):
        (ssa / name).write_text("Mary,F,1\n", encoding="utf-8")
    (ssa / "yob_notes.txt").write_text("not a year file\n", encoding="utf-8")
    out = tmp_path / "out"
    assert run("ingest", "--ssa-dir", str(ssa), "--years", "1990-1992", "--out-dir", str(out)) == 0
    assert read_table(out / "ssa1990-1992.table.tsv").entries["mary"].female == 2
    manifest = json.loads((out / "ingest.manifest.json").read_text(encoding="utf-8"))
    assert list(manifest["input_digests"]) == [str(ssa / "yob1990.txt"), str(ssa / "yob1991.txt")]


def test_ingest_manifest_lists_only_the_year_files_the_ingest_read(tmp_path, monkeypatch):
    ssa = tmp_path / "ssa"
    ssa.mkdir()
    (ssa / "yob1990.txt").write_text("Mary,F,1\n", encoding="utf-8")
    ingest = corpus.ingest_ssa_years

    def ingest_then_add_1991(*args, **kwargs):
        done = ingest(*args, **kwargs)
        (ssa / "yob1991.txt").write_text("John,M,1\n", encoding="utf-8")  # after the ingest found it missing
        return done

    monkeypatch.setattr(corpus, "ingest_ssa_years", ingest_then_add_1991)
    out = tmp_path / "out"
    assert run("ingest", "--ssa-dir", str(ssa), "--years", "1990-1991", "--out-dir", str(out)) == 0
    assert "missing_year\t1991\n" in (out / "ssa1990-1991.ingest-report.tsv").read_text(encoding="utf-8")
    manifest = json.loads((out / "ingest.manifest.json").read_text(encoding="utf-8"))
    assert list(manifest["input_digests"]) == [str(ssa / "yob1990.txt")]


@pytest.mark.parametrize("years", ["19x0", "1990-", "1991-1990"])
def test_ingest_refuses_a_bad_year_range_as_a_usage_error(tmp_path, capsys, years):
    with pytest.raises(SystemExit) as exit:
        run("ingest", "--ssa-dir", str(tmp_path), "--years", years, "--out-dir", str(tmp_path / "out"))
    assert exit.value.code == 2
    reason = f"expected YEAR or FIRST-LAST with FIRST <= LAST, got {years!r}"
    assert capsys.readouterr().err.endswith(f": error: argument --years: {reason}\n")
    assert not (tmp_path / "out").exists()


def test_ingest_empty_corpus_exits_nonzero(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("name,gender\nX,F\n", encoding="utf-8")
    code = run("ingest", "--csv", str(bad), "--name-col", "name", "--gender-col", "gender",
               "--out-dir", str(tmp_path / "out"))
    assert code == 1
    assert "error" in capsys.readouterr().err


def test_ingest_malformed_file_names_first_bad_line(tmp_path, capsys):
    bad = tmp_path / "junk.csv"
    bad.write_text("name,gender,count\nonly-one-field\nalso-bad\n", encoding="utf-8")
    code = run("ingest", "--csv", str(bad), "--name-col", "name", "--gender-col", "gender",
               "--count-col", "count", "--out-dir", str(tmp_path / "out"))
    assert code == 1
    err = capsys.readouterr().err
    assert "line 2" in err


def test_ingest_missing_file_exits_nonzero(tmp_path):
    assert run("ingest", "--csv", str(tmp_path / "none.csv"), "--name-col", "n",
               "--gender-col", "g", "--out-dir", str(tmp_path)) == 1


# --- combine and stats ------------------------------------------------------------


def test_combine_merges_tables(corpus_csv, tmp_path):
    out = tmp_path / "out"
    table_path = ingest_tiny(corpus_csv, out)
    assert run("combine", str(table_path), str(table_path), "--id", "both",
               "--out-dir", str(out)) == 0
    merged = read_table(out / "both.table.tsv")
    assert merged.entries["mary"].female == 190


def test_combine_full_table_requires_split_flag(tmp_path):
    full = tmp_path / "full.table.tsv"
    full.write_text("# name_type=full\tsource_id=v\nmaria garcia\t2\t0\n", encoding="utf-8")
    assert run("combine", str(full), str(full), "--out-dir", str(tmp_path)) == 1
    assert run("combine", str(full), str(full), "--split-full", "--id", "c",
               "--out-dir", str(tmp_path)) == 0
    merged = read_table(tmp_path / "c.table.tsv")
    assert merged.entries["maria"].female == 4


def test_stats_overlap_matches_library_oracle(corpus_csv, tmp_path):
    out = tmp_path / "out"
    t1 = ingest_tiny(corpus_csv, out)
    other = tmp_path / "other.csv"
    other.write_text("name,gender,count\nmary,F,3\nzoe,F,2\n", encoding="utf-8")
    assert run("ingest", "--csv", str(other), "--name-col", "name", "--gender-col", "gender",
               "--count-col", "count", "--source-id", "mini", "--out-dir", str(out)) == 0
    t2 = out / "mini.table.tsv"
    assert run("stats", str(t1), str(t2), "--bins", "4", "--out-dir", str(out)) == 0

    matrix = pairwise_overlap([read_table(t1), read_table(t2)])
    overlap_lines = (out / "overlap.tsv").read_text(encoding="utf-8").splitlines()
    assert overlap_lines[1].split("\t")[2] == f"{matrix[0][1][0]} ({matrix[0][1][1]:.1f}%)"
    assert overlap_lines[2].split("\t")[1] == f"{matrix[1][0][0]} ({matrix[1][0][1]:.1f}%)"

    stats_lines = (out / "stats.tsv").read_text(encoding="utf-8").splitlines()
    assert stats_lines[1].split("\t")[3] == "8"  # tiny: unique names
    assert (out / "ambiguity-tiny.tsv").exists()
    assert not (out / "ambiguity-mini.tsv").exists()  # mini has no ambiguous names


def test_stats_structured_format(corpus_csv, tmp_path):
    out = tmp_path / "out"
    table_path = ingest_tiny(corpus_csv, out)
    assert run("stats", str(table_path), "--format", "structured", "--out-dir", str(out)) == 0
    document = json.loads((out / "stats.json").read_text(encoding="utf-8"))
    assert document["datasets"][0]["unique_names"] == 8
    assert document["datasets"][0]["ambiguous"] == 2  # mary (95,5) and pat (10,10)


# --- split / train / infer -----------------------------------------------------------


def test_split_requires_seed(corpus_csv, tmp_path, capsys):
    out = tmp_path / "out"
    table_path = ingest_tiny(corpus_csv, out)
    assert run("split", str(table_path), "--test-fraction", "0.3", "--out-dir", str(out)) == 1
    assert "seed" in capsys.readouterr().err


def test_split_train_infer_round(corpus_csv, tmp_path, capsys):
    out = tmp_path / "out"
    table_path = ingest_tiny(corpus_csv, out)
    assert run("split", str(table_path), "--test-fraction", "0.3", "--seed", "11",
               "--out-dir", str(out)) == 0
    assert run("train", str(out / "tiny-train.table.tsv"), "--tau", "0.9",
               "--out-dir", str(out)) == 0
    names = tmp_path / "names.txt"
    names.write_text("mary\nnobody\n", encoding="utf-8")
    capsys.readouterr()
    assert run("infer", str(names), "--model", str(out / "tiny-train.model.tsv")) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "name\tlabel\tp_female\tsource"
    assert len(lines) == 3
    assert lines[2].startswith("nobody\tunknown\tNA")


def test_infer_prediction_matches_model_counts(tmp_path, capsys):
    # model counts (95, 5) force p_female = 0.95 -> female at tau 0.9
    table = tmp_path / "t.table.tsv"
    table.write_text("# name_type=first\tsource_id=t\nmary\t95\t5\n", encoding="utf-8")
    out = tmp_path / "out"
    assert run("train", str(table), "--tau", "0.9", "--out-dir", str(out)) == 0
    names = tmp_path / "names.txt"
    names.write_text("mary\n", encoding="utf-8")
    capsys.readouterr()
    assert run("infer", str(names), "--model", str(out / "t.model.tsv")) == 0
    line = capsys.readouterr().out.splitlines()[1]
    assert line == "mary\tfemale\t0.950000\tmle:t"


def test_infer_stdin_matches_file_input(tmp_path, capsys, monkeypatch):
    table = tmp_path / "t.table.tsv"
    table.write_text("# name_type=first\tsource_id=t\nmary\t95\t5\nkim\t2\t2\n", encoding="utf-8")
    out = tmp_path / "out"
    assert run("train", str(table), "--out-dir", str(out)) == 0
    model = str(out / "t.model.tsv")
    names = tmp_path / "names.txt"
    names.write_text("mary\nkim\nzzz\n", encoding="utf-8")
    capsys.readouterr()
    assert run("infer", str(names), "--model", model) == 0
    from_file = capsys.readouterr().out

    import io
    monkeypatch.setattr("sys.stdin", io.StringIO("mary\nkim\nzzz\n"))
    assert run("infer", "-", "--model", model) == 0
    from_stdin = capsys.readouterr().out
    assert from_stdin == from_file


def test_infer_writes_one_line_per_non_blank_input_line(tmp_path, capsys, monkeypatch):
    # \x85, \x0c and the other characters str.splitlines breaks at stay inside a name
    table = tmp_path / "t.table.tsv"
    table.write_text("# name_type=first\tsource_id=t\nann\x85a\t3\t0\n", encoding="utf-8")
    out = tmp_path / "out"
    assert run("train", str(table), "--out-dir", str(out)) == 0
    model = str(out / "t.model.tsv")
    text = "ann\x85a\nbob\x0cby\n\ncy\x1ed\u2028i\x0b\n  \nann\x85a\r\nzed\u2029\rkim\n"
    names = tmp_path / "names.txt"
    names.write_text(text, encoding="utf-8", newline="")
    capsys.readouterr()
    assert run("infer", str(names), "--model", model) == 0
    from_file = capsys.readouterr().out
    monkeypatch.setattr("sys.stdin", io.StringIO(text, newline=""))
    assert run("infer", "-", "--model", model) == 0
    assert capsys.readouterr().out == from_file
    rows = [line.split("\t")[:2] for line in from_file.split("\n")[1:-1]]
    assert rows == [["ann\x85a", "female"], ["bob\x0cby", "unknown"], ["cy\x1ed\u2028i", "unknown"],
                    ["ann\x85a", "female"], ["zed", "unknown"], ["kim", "unknown"]]  # strip trims \u2029


def test_infer_names_file_skips_a_byte_order_mark(tmp_path, capsys):
    model = tmp_path / "t.model.tsv"
    save_model(train(FrequencyTable({"mary": GenderCounts(95, 5)}, NameType.FIRST, "t"), 0.9), model)
    names = tmp_path / "names.txt"
    names.write_text("\ufeffmary\n", encoding="utf-8")
    capsys.readouterr()
    assert run("infer", str(names), "--model", str(model)) == 0
    assert capsys.readouterr().out == "name\tlabel\tp_female\tsource\nmary\tfemale\t0.950000\tmle:t\n"


def test_infer_from_stdin_keeps_a_byte_order_mark_as_part_of_the_first_name(tmp_path, capsys, monkeypatch):
    model = tmp_path / "t.model.tsv"
    save_model(train(FrequencyTable({"mary": GenderCounts(95, 5)}, NameType.FIRST, "t"), 0.9), model)
    monkeypatch.setattr("sys.stdin", io.StringIO("\ufeffmary\nmary\n"))
    capsys.readouterr()
    assert run("infer", "-", "--model", str(model)) == 0
    assert capsys.readouterr().out == ("name\tlabel\tp_female\tsource\n\ufeffmary\tunknown\tNA\tmle:t\n"
                                       "mary\tfemale\t0.950000\tmle:t\n")


@pytest.mark.parametrize("names, bad", [("ma\try\n", "ma\try"), ("mary\n" * 8 + "  bo\tb  \nmary\n", "bo\tb")])
def test_infer_refuses_a_name_holding_a_tab(tmp_path, capsys, monkeypatch, names, bad):
    model = tmp_path / "t.model.tsv"
    save_model(train(FrequencyTable({"mary": GenderCounts(95, 5)}, NameType.FIRST, "t"), 0.9), model)
    path, out = tmp_path / "names.txt", tmp_path / "out" / "o.tsv"
    path.write_text(names, encoding="utf-8")
    monkeypatch.setattr(cli, "_BLOCK_CHARS", 16)  # a few names per block, so the second case fails in a later one
    capsys.readouterr()
    assert run("infer", str(path), "--model", str(model), "--out", str(out)) == 1
    assert capsys.readouterr() == ("", f"namegender: error: {path}: name {bad!r} contains a tab\n")
    assert not out.exists()
    monkeypatch.setattr("sys.stdin", io.StringIO(names))
    assert run("infer", "-", "--model", str(model)) == 1
    written, err = capsys.readouterr()
    assert err == f"namegender: error: -: name {bad!r} contains a tab\n"
    assert all(line.count("\t") == 3 for line in written.splitlines())


def test_infer_structured_output(tmp_path, capsys):
    table = tmp_path / "t.table.tsv"
    table.write_text("# name_type=first\tsource_id=t\nmary\t95\t5\n", encoding="utf-8")
    out = tmp_path / "out"
    assert run("train", str(table), "--out-dir", str(out)) == 0
    names = tmp_path / "names.txt"
    names.write_text("mary\n", encoding="utf-8")
    capsys.readouterr()
    assert run("infer", str(names), "--model", str(out / "t.model.tsv"),
               "--format", "structured") == 0
    record = json.loads(capsys.readouterr().out.splitlines()[0])
    assert record == {"label": "female", "name": "mary", "p_female": 0.95, "source": "mle:t"}


def test_infer_takes_one_of_model_and_inferrer(tmp_path, capsys):
    model = tmp_path / "t.model.tsv"
    save_model(train(FrequencyTable({"mary": GenderCounts(95, 5)}, NameType.FIRST, "t"), 0.9), model)
    mock = tmp_path / "m.json"
    write_mock_file(mock, {})
    names = tmp_path / "names.txt"
    names.write_text("mary\n", encoding="utf-8")
    with pytest.raises(SystemExit) as exit:
        run("infer", str(names), "--model", str(model), "--inferrer", f"mock:{mock}")
    assert exit.value.code == 2
    assert capsys.readouterr().err.endswith(": error: argument --inferrer: not allowed with argument --model\n")
    assert run("infer", str(names)) == 1
    assert capsys.readouterr().err == "namegender: error: infer requires --model or --inferrer\n"


# Table and mock names hold quotes, backslashes, non-ASCII and astral
# characters; queried names add case and space variants, and tabs that
# strip removes (infer refuses a name holding one).
TABLE_NAMES = st.text('aAbé"\\ あ\U0001d518', min_size=1, max_size=4).map(str.strip).filter(bool)
QUERY_NAMES = st.text('aAbé"\\ あ\U0001d518', min_size=1, max_size=4).map(str.strip).filter(bool)
VARIANTS = st.sampled_from([str, str.upper, str.lower, lambda s: f" {s}\t", lambda s: s.replace(" ", "  ")])
MOCK_ENTRIES = st.sampled_from([
    {"label": "female", "p_female": 1}, {"label": "female", "p_female": True}, {"label": "female", "p_female": 0.875},
    {"label": "ambiguous", "p_female": 0.5}, {"label": "male", "p_female": 0}, {"label": "male", "p_female": -0.0},
    {"label": "male", "p_female": False}, {"label": "unknown"},
])


def _reference_infer_output(names, records, structured):
    """infer's output as formatted line by line, with json.dumps per record."""
    if structured:
        return "".join(json.dumps({"name": n, **r}, sort_keys=True) + "\n" for n, r in zip(names, records))
    lines = ["name\tlabel\tp_female\tsource"]
    for n, r in zip(names, records):
        p_cell = "NA" if r["p_female"] is None else f"{r['p_female']:.6f}"
        lines.append(f"{n}\t{r['label']}\t{p_cell}\t{r['source']}")
    return "\n".join(lines) + "\n"


@settings(deadline=None, max_examples=60)
@given(
    st.dictionaries(TABLE_NAMES, st.tuples(st.integers(0, 4), st.integers(0, 4)).filter(any), min_size=1, max_size=6),
    st.dictionaries(TABLE_NAMES, MOCK_ENTRIES, min_size=1, max_size=6),
    st.data(),
)
def test_infer_output_matches_reference_formatting(counts, mock, data):
    base = st.one_of(st.sampled_from(sorted(counts.keys() | mock.keys())), QUERY_NAMES)
    queries = data.draw(st.lists(st.builds(lambda name, variant: variant(name), base, VARIANTS), min_size=1, max_size=30))
    text = "".join(q + "\n" for q in queries)
    names = [line.strip() for line in text.splitlines() if line.strip()]
    with tempfile.TemporaryDirectory() as tmp:
        model_path, mock_path, names_path = Path(tmp, "t.model.tsv"), Path(tmp, "mock.json"), Path(tmp, "names.txt")
        entries = {name: GenderCounts(*fm) for name, fm in counts.items()}
        save_model(train(FrequencyTable(entries, NameType.FIRST, "t"), 0.75), model_path)
        model = load_model(model_path)
        mock_path.write_text(json.dumps(mock), encoding="utf-8")
        names_path.write_text(text, encoding="utf-8")

        def mle_records(source):
            return [{"label": p.label.value, "p_female": p.p_female, "source": source}
                    for p in map(model.classify, names)]

        def mock_records(source):
            unknown = {"label": "unknown"}
            return [{"label": e["label"], "p_female": e.get("p_female"), "source": source}
                    for e in (mock.get(n, unknown) for n in names)]

        # one process runs every spec, so a cache that outlived a call would show
        cases = [(f"mle:{model_path}", mle_records("mle:t")), (f"alt=mle:{model_path}", mle_records("alt")),
                 (f"mock:{mock_path}", mock_records("mock")), (f"m2=mock:{mock_path}", mock_records("m2"))]
        for spec, records in cases:
            for fmt in ("tsv", "structured"):
                out = io.StringIO()
                with contextlib.redirect_stdout(out):
                    assert run("infer", str(names_path), "--inferrer", spec, "--format", fmt) == 0
                assert out.getvalue() == _reference_infer_output(names, records, fmt == "structured"), (spec, fmt)


def _unstreamed_infer_output(text, inferrer, structured):
    """infer's output as the command built it before streaming: the earlier
    _read_names and _infer_lines, kept verbatim apart from taking the text."""
    lines = text.replace("\r", "\n").split("\n")
    names = [name for name in map(str.strip, lines) if name]
    predictions = inferrer.infer_batch(names)
    if structured:
        def parts(p):
            pf = p.p_female
            p_json = float.__repr__(pf) if isinstance(pf, float) else json.dumps(pf)
            return (f'{{"label": "{p.label.value}", "name": ',
                    f', "p_female": {p_json}, "source": {json.dumps(p.source)}}}')
        lines, encode = [], encode_basestring_ascii
    else:
        def parts(p):
            p_cell = "NA" if p.p_female is None else f"{p.p_female:.6f}"
            return "", f"\t{p.label.value}\t{p_cell}\t{p.source}"
        lines, encode = ["name\tlabel\tp_female\tsource"], str
    cache = {}
    for n, p in zip(names, predictions):
        head_tail = cache.get(id(p))
        if head_tail is None:
            head_tail = cache[id(p)] = parts(p)
        lines.append(head_tail[0] + encode(n) + head_tail[1])
    return "\n".join(lines) + "\n"


STREAM_MODEL = {"ann": (3, 0), "bé": (1, 1), "あい": (0, 2), "zoë": (9, 1)}
# a tab inside a name is refused (test_infer_refuses_a_name_holding_a_tab), so tabs only pad lines here
STREAM_NAMES = st.one_of(st.sampled_from(sorted(STREAM_MODEL)), st.text("aBé あ\x85\u2028\U0001d518", min_size=1, max_size=5))
STREAM_LINES = st.one_of(STREAM_NAMES, STREAM_NAMES.map(lambda n: f"  {n}\t"), st.sampled_from(["", " ", "\t", "\u3000 "]))


@settings(deadline=None, max_examples=60)
@given(st.lists(st.tuples(STREAM_LINES, st.sampled_from(["\n", "\r\n", "\r"])), max_size=25),
       STREAM_LINES, st.integers(1, 9))
def test_streamed_infer_matches_the_unstreamed_output(lines, last, block_chars):
    # a few characters per block put boundaries inside names and inside \r\n
    text = "".join(line + end for line, end in lines) + last
    assume(text.strip())
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as patch:
        patch.setattr(cli, "_BLOCK_CHARS", block_chars)
        model_path, names_path = Path(tmp, "t.model.tsv"), Path(tmp, "names.txt")
        entries = {name: GenderCounts(*fm) for name, fm in STREAM_MODEL.items()}
        save_model(train(FrequencyTable(entries, NameType.FIRST, "t"), 0.75), model_path)
        names_path.write_text(text, encoding="utf-8", newline="")
        for fmt in ("tsv", "structured"):
            expected = _unstreamed_infer_output(names_path.read_text(encoding="utf-8"),
                                                build_inferrers([f"mle:{model_path}"])[0][0], fmt == "structured")
            for source in (str(names_path), "-"):
                patch.setattr("sys.stdin", io.StringIO(text, newline=""))
                out = io.StringIO()
                with contextlib.redirect_stdout(out):
                    assert run("infer", source, "--model", str(model_path), "--format", fmt) == 0
                assert out.getvalue() == expected, (source, fmt)


def test_infer_output_is_unchanged_when_the_format_cache_starts_over(tmp_path, monkeypatch):
    model = tmp_path / "m.model.tsv"
    save_model(train(FrequencyTable({"ana": GenderCounts(9, 1), "kim": GenderCounts(1, 1)}, NameType.FIRST, "m")), model)
    write_mock_file(tmp_path / "fb.json", {"kim": {"label": "male", "p_female": 0.25}, "zed": {"label": "female", "p_female": 1}})
    conf = tmp_path / "ens.conf"
    conf.write_text(f"model = {model}\nfallback = mock:{tmp_path / 'fb.json'}\n", encoding="utf-8")
    names = tmp_path / "names.txt"
    # a block of about four names, where stage 2 builds a new Prediction for each of kim, zed and bob
    names.write_text("ana\nkim\nzed\nbob\n" * 5, encoding="utf-8")
    monkeypatch.setattr(cli, "_BLOCK_CHARS", 16)
    resets = []

    class Limit(int):
        """A cache limit that records each cache size found above it."""

        def __lt__(self, size):  # len(cache) > limit calls it, as the reflection of a subclass
            if int(self) < size:
                resets.append(size)
            return int(self) < size

    for fmt in ("tsv", "structured"):
        argv = ["infer", str(names), "--inferrer", f"twostage:{conf}", "--format", fmt, "--out"]
        assert run(*argv, str(tmp_path / f"whole.{fmt}")) == 0
        with monkeypatch.context() as patch:
            patch.setattr(cli, "_FORMAT_CACHE_LIMIT", Limit(2))
            assert run(*argv, str(tmp_path / f"reset.{fmt}")) == 0
        assert resets, fmt
        assert (tmp_path / f"reset.{fmt}").read_bytes() == (tmp_path / f"whole.{fmt}").read_bytes(), fmt
        resets.clear()


def test_infer_from_stdin_answers_each_block_before_stdin_closes(tmp_path):
    model = tmp_path / "t.model.tsv"
    save_model(train(FrequencyTable({"mary": GenderCounts(95, 5)}, NameType.FIRST, "t"), 0.9), model)
    src = Path(cli.__file__).resolve().parents[1]
    argv = [sys.executable, "-c", "import sys; from namegender.cli import main; sys.exit(main())",
            "infer", "-", "--model", str(model)]
    env = {**os.environ, "PYTHONPATH": str(src)}
    with subprocess.Popen(argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, env=env) as child:
        try:
            # one full block holding a single name, whose two output lines fill no stdout buffer,
            # and the start of a second block
            child.stdin.write("mary\n" + "\n" * cli._BLOCK_CHARS + "mary")
            child.stdin.flush()
            readable, _, _ = select.select([child.stdout], [], [], 60)
            assert readable, "no output before stdin closed"
            assert child.stdout.readline() == "name\tlabel\tp_female\tsource\n"
            assert child.stdout.readline() == "mary\tfemale\t0.950000\tmle:t\n"
            child.stdin.close()
            assert child.stdout.read() == "mary\tfemale\t0.950000\tmle:t\n"
            assert child.wait(timeout=60) == 0
        finally:
            child.kill()


def test_one_name_infer_imports_neither_manifest_modules_nor_dataclasses(tmp_path):
    model = tmp_path / "t.model.tsv"
    save_model(train(FrequencyTable({"mary": GenderCounts(95, 5)}, NameType.FIRST, "t"), 0.9), model)
    # hashlib and datetime only write a manifest; dataclasses (with inspect and ast) would generate code per record;
    # diagnostics need no logging, and json, csv, unicodedata and sqlite3 serve other formats, inputs and names
    unused = ("hashlib", "_hashlib", "datetime", "dataclasses", "inspect", "ast",
              "logging", "json", "csv", "unicodedata", "sqlite3")
    script = (
        "import sys\n"
        "from namegender.cli import main\n"
        f"code = main(['infer', '-', '--model', {str(model)!r}])\n"
        f"print(code, *(module in sys.modules for module in {unused!r}), file=sys.stderr)\n"
    )
    done = fresh_interpreter(script, input="mary\n")
    assert done.stdout.splitlines()[1] == "mary\tfemale\t0.950000\tmle:t"
    assert done.stderr.split() == ["0", *["False"] * len(unused)]
    names = tmp_path / "names.txt"
    names.write_text("mary\n", encoding="utf-8")
    assert run("infer", str(names), "--model", str(model), "--out", str(tmp_path / "out" / "pred.tsv")) == 0
    manifest = json.loads((tmp_path / "out" / "infer.manifest.json").read_text(encoding="utf-8"))
    digests = {str(p): hashlib.sha256(p.read_bytes()).hexdigest() for p in (names, model)}
    assert {**manifest["input_digests"], **manifest["config_digests"]} == digests


def test_infer_without_a_home_directory_answers_and_keeps_no_cache(tmp_path):
    model, names, work = tmp_path / "t.model.tsv", tmp_path / "names.txt", tmp_path / "work"
    save_model(train(FrequencyTable({"mary": GenderCounts(95, 5)}, NameType.FIRST, "t"), 0.9), model)
    names.write_text("mary\n", encoding="utf-8")
    work.mkdir()
    script = (
        "import os, pwd\n"
        "os.environ.pop('HOME', None)\n"
        "os.environ.pop('XDG_CACHE_HOME', None)\n"
        "def no_entry(uid):\n"
        "    raise KeyError(uid)\n"
        "pwd.getpwuid = no_entry\n"
        "from namegender.cli import main\n"
        f"argv = ['infer', {str(names)!r}, '--model', {str(model)!r}]\n"
        "raise SystemExit(main(argv) or main(argv))\n"  # the second load finds no entry either
    )
    done = fresh_interpreter(script, cwd=work)
    assert done.stdout.splitlines()[1::2] == ["mary\tfemale\t0.950000\tmle:t"] * 2
    assert list(work.iterdir()) == []


@settings(deadline=None, max_examples=30)
@example(size=0, seed=0)
@example(size=1 << 16, seed=0)
@example(size=3 << 16, seed=0)
@given(size=st.integers(0, 5 << 16), seed=st.integers(0, 2**32))
def test_manifest_digest_is_the_files_sha256(size, seed):
    data = random.Random(seed).randbytes(size)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp, "data.bin")
        path.write_bytes(data)
        assert corpus.file_sha256(path) == hashlib.sha256(data).hexdigest()


def test_manifest_digest_falls_back_to_hashlib_without_a_built_in_sha256(tmp_path):
    data = random.Random(0).randbytes(3 << 16)
    path = tmp_path / "data.bin"
    path.write_bytes(data)
    script = (
        "import sys\n"
        "sys.modules['_sha2'] = sys.modules['_sha256'] = None  # so importing either raises ImportError\n"
        "from namegender import corpus\n"
        f"print('hashlib' in sys.modules, corpus.file_sha256({str(path)!r}), 'hashlib' in sys.modules)\n"
    )
    assert fresh_interpreter(script).stdout.split() == ["False", hashlib.sha256(data).hexdigest(), "True"]


@pytest.mark.parametrize("time_ns", [0, 999, 1_000, 1_700_000_000_000_000_000, 1_700_000_000_123_456_789,
                                     1_709_164_799_999_999_999, 4_102_444_800_000_001_000])
def test_manifest_timestamp_is_datetimes_isoformat(time_ns):
    from datetime import datetime, timedelta, timezone

    expected = datetime.fromtimestamp(0, timezone.utc) + timedelta(microseconds=time_ns // 1000)
    assert cli._timestamp(time_ns) == expected.isoformat()
    assert ("." in cli._timestamp(time_ns)) == (expected.microsecond != 0)


def test_manifest_hashes_a_file_listed_three_times_once(tmp_path, monkeypatch):
    table, config = tmp_path / "a.table.tsv", tmp_path / "run.conf"
    table.write_text("x\n", encoding="utf-8")
    config.write_text("seed = 1\n", encoding="utf-8")
    hashed, sha256 = [], corpus.file_sha256
    monkeypatch.setattr(corpus, "file_sha256", lambda path: hashed.append(str(path)) or sha256(path))
    args = argparse.Namespace(_argv=["eval"], seed=1, command="eval", config=str(config))
    cli._write_manifest(args, (tmp_path, [table, str(table)], [Path(str(table)), config]))
    assert sorted(hashed) == sorted([str(table), str(config)])
    manifest = json.loads((tmp_path / "eval.manifest.json").read_text(encoding="utf-8"))
    assert manifest["input_digests"] == {str(table): hashlib.sha256(b"x\n").hexdigest()}
    assert manifest["config_digests"] == {str(table): hashlib.sha256(b"x\n").hexdigest(),
                                          str(config): hashlib.sha256(b"seed = 1\n").hexdigest()}


@pytest.mark.skipif(not any(map(importlib.util.find_spec, ("_sha2", "_sha256"))),
                    reason="this Python has no built-in SHA-256, so digests load OpenSSL")
def test_no_manifest_writing_step_loads_openssl(corpus_csv, tmp_path):
    out = tmp_path / "out"
    table, model = out / "tiny.table.tsv", out / "tiny.model.tsv"
    names, testset = tmp_path / "names.txt", tmp_path / "demo.test.tsv"
    names.write_text("mary\npat\n", encoding="utf-8")
    write_testset_file(testset, [("mary", "female"), ("john", "male")])
    steps = {
        "ingest": (["ingest", "--csv", str(corpus_csv), "--name-col", "name", "--gender-col", "gender",
                    "--count-col", "count", "--source-id", "tiny", "--out-dir", str(out)], [corpus_csv]),
        "train": (["train", str(table), "--out-dir", str(out)], [table]),
        "infer": (["infer", str(names), "--model", str(model), "--out", str(out / "pred.tsv")], [names, model]),
        "eval": (["eval", "--test", str(testset), "--inferrer", f"mle:{model}", "--out-dir", str(out)],
                 [testset, model]),
    }
    for step, (argv, files) in steps.items():
        script = f"import sys\nfrom namegender.cli import main\nprint(main({argv!r}), '_hashlib' in sys.modules)\n"
        assert fresh_interpreter(script).stdout.split() == ["0", "False"], step
        manifest = json.loads((out / f"{step}.manifest.json").read_text(encoding="utf-8"))
        digests = {str(p): hashlib.sha256(p.read_bytes()).hexdigest() for p in files}
        assert {**manifest["input_digests"], **manifest["config_digests"]} == digests, step


def test_manifest_is_written_once_the_command_has_freed_its_tables(corpus_csv, tmp_path, monkeypatch):
    # a manifest's digests and timestamp load modules of their own; with a table still alive they
    # would add to the step's peak RSS
    write, live = cli._write_manifest, []

    def spy(*args, **kwargs):
        live.append(sum(isinstance(o, FrequencyTable) for o in gc.get_objects()))
        write(*args, **kwargs)

    monkeypatch.setattr(cli, "_write_manifest", spy)
    gc.collect()
    out = tmp_path / "out"
    assert run("train", str(ingest_tiny(corpus_csv, out)), "--out-dir", str(out)) == 0
    model = out / "tiny.model.tsv"
    names = tmp_path / "names.txt"
    names.write_text("mary\npat\n", encoding="utf-8")
    assert run("infer", str(names), "--model", str(model), "--out", str(out / "pred.tsv")) == 0
    testset = tmp_path / "demo.test.tsv"
    write_testset_file(testset, [("mary", "female"), ("john", "male")])
    assert run("eval", "--test", str(testset), "--inferrer", f"mle:{model}", "--out-dir", str(out)) == 0
    assert live == [0, 0, 0, 0]  # ingest, train, infer --out, eval
    names.write_text("\n", encoding="utf-8")
    assert run("infer", str(names), "--model", str(model), "--out", str(tmp_path / "failed" / "pred.tsv")) == 1
    assert run("train", str(tmp_path / "missing.tsv"), "--out-dir", str(tmp_path / "failed")) == 1
    assert len(live) == 4 and not list(tmp_path.glob("failed/*"))


def test_no_module_of_the_package_imports_a_name_it_never_uses():
    unused = []
    for path in sorted(Path(cli.__file__).resolve().parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = {
            (alias.asname or alias.name).split(".")[0]: node.lineno
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__"
            for alias in node.names
        }
        # annotations count as uses, a quoted one through the expression in its text
        annotations = [a for n in ast.walk(tree)
                       for a in (getattr(n, "annotation", None), getattr(n, "returns", None)) if a]
        quoted = [ast.parse(c.value, mode="eval") for a in annotations for c in ast.walk(a)
                  if isinstance(c, ast.Constant) and isinstance(c.value, str)]
        used = {n.id for root in (tree, *quoted) for n in ast.walk(root) if isinstance(n, ast.Name)}
        unused += [f"{path.name}:{line}: {name}" for name, line in imported.items() if name not in used]
    assert unused == []


def test_the_package_and_corpus_imports_load_no_other_module_of_the_package():
    script = (
        "import sys\n"
        "import {module}\n"
        "print(*sorted(m for m in sys.modules if m.startswith('namegender.')))\n"
    )
    loaded = {}
    for module in ("namegender", "namegender.corpus"):
        loaded[module] = fresh_interpreter(script.format(module=module)).stdout.split()
    assert loaded == {"namegender": [], "namegender.corpus": ["namegender.corpus"]}


# Lists the package's modules that have run; one that cli registered lazily and nothing has read yet is
# still an importlib.util._LazyModule (type() reads no attribute of it, so it does not load it).
_EXECUTED = "sorted(m for m, mod in sys.modules.items() if m.startswith('namegender.') and type(mod) is types.ModuleType)"


def test_a_command_executes_only_the_package_modules_it_uses(corpus_csv, tmp_path):
    model = tmp_path / "t.model.tsv"
    save_model(train(FrequencyTable({"mary": GenderCounts(95, 5)}, NameType.FIRST, "t"), 0.9), model)
    ingest = ["ingest", "--csv", str(corpus_csv), "--name-col", "name", "--gender-col", "gender",
              "--source-id", "tiny", "--out-dir", str(tmp_path / "out")]
    infer = ["infer", "-", "--model", str(model)]
    config = tmp_path / "c.conf"
    config.write_text("seed = 1\n", encoding="utf-8")
    table = tmp_path / "t.table.tsv"
    corpus.write_table(FrequencyTable({"mary": GenderCounts(95, 5), "pat": GenderCounts(1, 1)}, NameType.FIRST, "t"), table)
    executed = {}
    commands = {"ingest": ingest, "infer": infer, "ingest --config": [*ingest, "--config", str(config)],
                "failing ingest": [*ingest, "--csv", str(tmp_path / "missing.csv")],
                "combine": ["combine", str(table), "--id", "c", "--out-dir", str(tmp_path / "out")],
                "stats": ["stats", str(table), str(table), "--bins", "2", "--out-dir", str(tmp_path / "out")]}
    for label, argv in commands.items():
        script = (
            "import sys, types\n"
            "from namegender.cli import main\n"
            f"code = main({argv!r})\n"
            "registered = sorted(m for m in sys.modules if m.startswith('namegender.'))\n"
            f"print(code, 'logging' in sys.modules, *registered, '|', *{_EXECUTED}, file=sys.stderr)\n"
        )
        done = fresh_interpreter(script, input="mary\n")
        executed[label] = done.stderr.splitlines()[-1].split()  # after ingest's log or error line
    # every module stays registered, so a caller that looks it up in sys.modules finds it
    registered = ["namegender." + m for m in ("analysis", "cli", "corpus", "ensemble", "evaluation", "inferrers", "mle")]
    # and no command imports logging: its diagnostics are plain stderr lines
    assert executed == {
        "ingest": ["0", "False", *registered, "|", "namegender.cli", "namegender.corpus"],
        "infer": ["0", "False", *registered, "|",
                  *("namegender." + m for m in ("cli", "corpus", "ensemble", "inferrers", "mle"))],
        "ingest --config": ["0", "False", *registered, "|", "namegender.cli", "namegender.corpus"],
        # main's except clause names only built-in exceptions, so an error runs no further module
        "failing ingest": ["1", "False", *registered, "|", "namegender.cli", "namegender.corpus"],
        "combine": ["0", "False", *registered, "|", "namegender.cli", "namegender.corpus"],
        "stats": ["0", "False", *registered, "|", "namegender.cli", "namegender.corpus"],
    }


def test_cli_reuses_a_module_imported_before_it_and_its_lazy_modules_can_be_patched():
    script = (
        "import sys, types\n"
        "import pytest\n"
        "import namegender, namegender.evaluation as evaluation\n"
        "from namegender import cli\n"
        "assert cli.evaluation is evaluation is namegender.evaluation is sys.modules['namegender.evaluation']\n"
        f"print(*{_EXECUTED})\n"
        "patch, sleep = pytest.MonkeyPatch(), lambda seconds: None\n"
        "patch.setattr('namegender.inferrers.time.sleep', sleep)\n"
        "assert cli.inferrers is namegender.inferrers is sys.modules['namegender.inferrers']\n"
        "assert namegender.inferrers.time.sleep is sleep and type(namegender.inferrers) is types.ModuleType\n"
        "patch.undo()\n"
        "print(namegender.inferrers.time.sleep is sleep)\n"
    )
    done = fresh_interpreter(script)
    # evaluation names inferrers.Inferrer only in annotations, so importing it runs neither inferrers nor ensemble
    assert done.stdout.splitlines() == [
        "namegender.cli namegender.corpus namegender.evaluation namegender.mle",
        "False",
    ]


def test_readme_library_example_runs(tmp_path, monkeypatch, capsys):
    [example] = readme_blocks("Library use", "python")
    write_readme_inputs(tmp_path)
    monkeypatch.chdir(tmp_path)
    exec(compile(example, "README.md", "exec"), {})
    assert capsys.readouterr().out


def test_readme_config_examples_build(tmp_path):
    adapter, twostage = readme_blocks("Inferrer specs")
    (tmp_path / "svc.conf").write_text(adapter, encoding="utf-8")
    (tmp_path / "ens.conf").write_text(twostage, encoding="utf-8")
    (tmp_path / "work").mkdir()
    save_model(train(FrequencyTable({"ana": GenderCounts(9, 1)}, NameType.FIRST, "all")), tmp_path / "work" / "all.model.tsv")
    config = parse_adapter_config(tmp_path / "svc.conf")
    assert (config.id, config.confidence_scale, config.label_aliases["mostly male"].value) == ("svc", "percent", "male")
    [ensemble], _ = build_inferrers([f"twostage:{tmp_path / 'ens.conf'}"])
    assert (ensemble.id, ensemble.defer_band, ensemble.fallback.config) == ("hybrid", (0.25, 0.75), config)


@pytest.mark.parametrize("text", ["", "\n", "  \t\r\n\r\u3000\n \x0b"])
def test_infer_without_names_fails_and_writes_no_file(tmp_path, capsys, monkeypatch, text):
    model = tmp_path / "t.model.tsv"
    save_model(train(FrequencyTable({"mary": GenderCounts(95, 5)}, NameType.FIRST, "t"), 0.9), model)
    names = tmp_path / "names.txt"
    names.write_text(text, encoding="utf-8", newline="")
    out = tmp_path / "out" / "pred.tsv"
    monkeypatch.setattr("sys.stdin", io.StringIO(text, newline=""))
    capsys.readouterr()
    for source in (str(names), "-"):
        assert run("infer", source, "--model", str(model), "--out", str(out)) == 1
        assert capsys.readouterr().err == "namegender: error: no names to infer\n"
        assert not (tmp_path / "out").exists()


# --- eval / analyze -------------------------------------------------------------------


def write_testset_file(path: Path, pairs) -> None:
    lines = ["# testset=demo"] + [f"{n}\t{g}" for n, g in pairs]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_mock_file(path: Path, mapping) -> None:
    path.write_text(json.dumps(mapping), encoding="utf-8")


def test_eval_with_mock_matches_hand_fixture(tmp_path):
    testset = tmp_path / "demo.test.tsv"
    write_testset_file(testset, [("ana", "female"), ("bea", "female"), ("carl", "male"), ("dan", "male")])
    mock = tmp_path / "mock.json"
    write_mock_file(mock, {
        "ana": {"label": "female", "p_female": 0.9},
        "bea": {"label": "male", "p_female": 0.2},
        "carl": {"label": "male", "p_female": 0.1},
    })
    out = tmp_path / "out"
    assert run("eval", "--test", str(testset), "--inferrer", f"m=mock:{mock}",
               "--out-dir", str(out)) == 0
    lines = (out / "report.tsv").read_text(encoding="utf-8").splitlines()
    # hand fixture: TF=1 TM=1 FM=1 undecided=1 -> acc 50, prec 100, rec 50, f1 66.67, gbe -33.33
    assert lines[1] == "m\tdemo\t4\t50.00\t100.00\t50.00\t66.67\t-33.33"


@pytest.mark.parametrize("command", ["eval", "analyze"])
def test_a_test_set_without_names_is_refused_naming_the_file(tmp_path, capsys, command):
    testset = tmp_path / "empty.test.tsv"
    write_testset_file(testset, [])
    mock = tmp_path / "mock.json"
    write_mock_file(mock, {})
    assert run(command, "--test", str(testset), "--inferrer", f"mock:{mock}", "--out-dir", str(tmp_path / "out")) == 1
    assert capsys.readouterr().err == f"namegender: error: {testset}: no test names\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["eval", "analyze"])
def test_a_test_set_line_is_refused_naming_the_file_and_line(tmp_path, capsys, command):
    testset = tmp_path / "bad.test.tsv"
    mock = tmp_path / "mock.json"
    write_mock_file(mock, {})
    refusals = {
        "mary\tambiguous": "3: bad gender 'ambiguous' (expected female or male)",
        "mary\tmale": "3: duplicate test name 'mary' (first at line 2)",
    }
    for line, error in refusals.items():
        testset.write_text(f"# testset=demo\nmary\tfemale\n{line}\n", encoding="utf-8")
        assert run(command, "--test", str(testset), "--inferrer", f"mock:{mock}",
                   "--out-dir", str(tmp_path / "out")) == 1
        assert capsys.readouterr().err == f"namegender: error: {testset}:{error}\n"
    assert not (tmp_path / "out").exists()


def write_http_conf(tmp_path: Path, cache: bool = True) -> Path:
    conf = tmp_path / "svc.conf"
    conf.write_text(
        "id = svc\nendpoint = http://127.0.0.1:9/?name={name}\nconfidence_path = probability\n"
        "rate_limit = 1000\nmax_attempts = 1\n" + (f"cache_dir = {tmp_path / 'cache'}\n" if cache else ""),
        encoding="utf-8",
    )
    return conf


def http_body(url: str) -> FakeResponse:
    name = url.rsplit("=", 1)[1]
    return FakeResponse(200, json.dumps({"gender": "male" if name == "bob" else "female", "probability": 0.9}))


def test_requests_is_imported_only_to_fetch(tmp_path):
    """Importing the CLI never loads requests or sqlite3, an mle: infer never loads sqlite3,
    and neither an eval answered from a warm HTTP cache nor a fetch through an injected session loads requests."""
    testset = tmp_path / "demo.test.tsv"
    write_testset_file(testset, [("ana", "female"), ("carl", "male")])
    conf = write_http_conf(tmp_path)
    bodies = {"ana": {"gender": "female", "probability": 0.9}, "carl": {"gender": "male", "probability": 0.9}}
    session = FakeSession(lambda url: FakeResponse(200, json.dumps(bodies[url.rsplit("=", 1)[1]])))
    assert len(HttpAdapter(parse_adapter_config(conf), session=session).infer_batch(list(bodies))) == 2
    model = tmp_path / "t.model.tsv"
    save_model(train(FrequencyTable({"ana": GenderCounts(9, 1)}, NameType.FIRST, "t"), 0.75), model)
    names = tmp_path / "names.txt"
    names.write_text("ana\nzed\n", encoding="utf-8")
    infer = ["infer", str(names), "--inferrer", f"mle:{model}", "--out", str(tmp_path / "pred.tsv")]
    argv = ["eval", "--test", str(testset), "--inferrer", f"http:{conf}", "--out-dir", str(tmp_path / "out")]
    script = (
        "import sys\n"
        "from namegender import cli\n"
        "print('requests' in sys.modules, 'sqlite3' in sys.modules)\n"
        f"print(cli.main({infer!r}), 'sqlite3' in sys.modules)\n"
        f"print(cli.main({argv!r}))\n"
        "print('requests' in sys.modules)\n"
        "from namegender.inferrers import HttpAdapter, parse_adapter_config\n"
        "class Response:\n"
        "    status_code, text = 200, '{\"gender\": \"male\", \"probability\": 0.8}'\n"
        "class Session:\n"
        "    def get(self, url, timeout=None):\n"
        "        return Response()\n"
        f"print(HttpAdapter(parse_adapter_config({str(conf)!r}), session=Session()).infer('zed').label.value)\n"
        "print('requests' in sys.modules)\n"
    )
    done = fresh_interpreter(script, cwd=tmp_path)
    assert done.stdout.split() == ["False", "False", "0", "False", "0", "False", "male", "False"]
    lines = (tmp_path / "out" / "report.tsv").read_text(encoding="utf-8").splitlines()
    assert lines[1] == "svc\tdemo\t2\t100.00\t100.00\t100.00\t100.00\t0.00"


def test_eval_fails_cleanly_on_a_cache_file_that_is_not_a_store(tmp_path, capsys):
    testset = tmp_path / "demo.test.tsv"
    write_testset_file(testset, [("ana", "female")])
    conf = write_http_conf(tmp_path)
    store = tmp_path / "cache" / "svc.sqlite"
    store.parent.mkdir()
    store.write_text("ana\tfemale\n" * 40, encoding="utf-8")
    capsys.readouterr()
    assert run("eval", "--test", str(testset), "--inferrer", f"http:{conf}", "--out-dir", str(tmp_path / "out")) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"namegender: error: {store}: ") and err.count("\n") == 1


def test_eval_fails_cleanly_on_a_mock_entry_without_a_label(tmp_path, capsys):
    testset = tmp_path / "demo.test.tsv"
    write_testset_file(testset, [("ana", "female")])
    mock = tmp_path / "mock.json"
    write_mock_file(mock, {"ana": {"label": "female", "p_female": 1.0}, "bo": {"p_female": 0.2}})
    capsys.readouterr()
    assert run("eval", "--test", str(testset), "--inferrer", f"m=mock:{mock}", "--out-dir", str(tmp_path / "out")) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"namegender: error: {mock}: entry 'bo': ") and err.count("\n") == 1


@pytest.mark.parametrize("command", ["infer", "eval", "analyze"])
def test_unreachable_endpoint_fails_with_one_error_line(tmp_path, capsys, monkeypatch, command):
    testset = tmp_path / "demo.test.tsv"
    write_testset_file(testset, [("ana", "female")])
    conf = write_http_conf(tmp_path)
    monkeypatch.setattr("requests.Session", lambda: FakeSession(lambda url: requests.ConnectionError("refused")))
    monkeypatch.setattr("sys.stdin", io.StringIO("ana\n"))
    out_dir = ["--out-dir", str(tmp_path / "out")]
    argv = {"infer": ["infer", "-"], "eval": ["eval", "--test", str(testset), *out_dir],
            "analyze": ["analyze", "--test", str(testset), *out_dir]}
    capsys.readouterr()
    assert run(*argv[command], "--inferrer", f"http:{conf}") == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("namegender: error: svc: endpoint unreachable: ") and captured.err.count("\n") == 1
    assert captured.out == ""


def test_infer_failing_in_a_later_block_leaves_no_out_file(tmp_path, capsys, monkeypatch):
    conf = write_http_conf(tmp_path)
    warm = HttpAdapter(parse_adapter_config(conf), session=FakeSession(http_body))
    assert warm.infer_batch(["ana"])[0].label.value == "female"  # the first block is answered from the cache
    out = tmp_path / "out" / "pred.tsv"
    seen = []

    def refuse(url):
        seen.append(out.read_text(encoding="utf-8"))
        return requests.ConnectionError("refused")

    monkeypatch.setattr("requests.Session", lambda: FakeSession(refuse))
    monkeypatch.setattr(cli, "_BLOCK_CHARS", 4)
    monkeypatch.setattr("sys.stdin", io.StringIO("ana\nzed\n"))
    capsys.readouterr()
    assert run("infer", "-", "--inferrer", f"http:{conf}", "--out", str(out)) == 1
    assert seen == ["name\tlabel\tp_female\tsource\nana\tfemale\t0.900000\tsvc\n"]
    assert capsys.readouterr().err.startswith("namegender: error: svc: endpoint unreachable: ")
    assert list(out.parent.iterdir()) == []


def test_infer_failing_in_a_later_block_keeps_the_lines_it_wrote_to_stdout(tmp_path, capsys, monkeypatch):
    conf = write_http_conf(tmp_path)
    warm = HttpAdapter(parse_adapter_config(conf), session=FakeSession(http_body))
    assert warm.infer_batch(["ana"])[0].label.value == "female"  # the first block is answered from the cache
    flushed, seen = [], []

    class Stdout(io.StringIO):
        def flush(self):
            flushed.append(self.getvalue())

    def refuse(url):
        seen.append(list(flushed))
        return requests.ConnectionError("refused")

    stdout = Stdout()
    monkeypatch.setattr("requests.Session", lambda: FakeSession(refuse))
    monkeypatch.setattr(cli, "_BLOCK_CHARS", 4)
    monkeypatch.setattr("sys.stdin", io.StringIO("ana\nzed\n"))
    monkeypatch.setattr("sys.stdout", stdout)
    capsys.readouterr()
    assert run("infer", "-", "--inferrer", f"http:{conf}") == 1
    first = "name\tlabel\tp_female\tsource\nana\tfemale\t0.900000\tsvc\n"
    # the first block's lines were written and flushed before the second block was answered, and they stay
    assert seen == [[first]]
    assert stdout.getvalue() == first
    assert capsys.readouterr().err.startswith("namegender: error: svc: endpoint unreachable: ")


def test_http_adapter_without_a_cache_fetches_a_name_once_per_block(tmp_path, capsys, monkeypatch):
    conf = write_http_conf(tmp_path, cache=False)
    session = FakeSession(http_body)
    monkeypatch.setattr("requests.Session", lambda: session)
    monkeypatch.setattr(cli, "_BLOCK_CHARS", 8)
    monkeypatch.setattr("sys.stdin", io.StringIO("ana\nana\nbob\nana\n"))
    capsys.readouterr()
    assert run("infer", "-", "--inferrer", f"http:{conf}") == 0
    assert [url.rsplit("=", 1)[1] for _, url in session.calls] == ["ana", "bob", "ana"]
    assert [line.split("\t")[1] for line in capsys.readouterr().out.splitlines()[1:]] == ["female", "female", "male", "female"]
    assert not (tmp_path / "cache").exists()


def test_eval_na_flag_marks_cells(tmp_path):
    testset = tmp_path / "demo.test.tsv"
    write_testset_file(testset, [("ana", "female")])
    mock = tmp_path / "mock.json"
    write_mock_file(mock, {"ana": {"label": "female", "p_female": 1.0}})
    out = tmp_path / "out"
    assert run("eval", "--test", str(testset), "--inferrer", f"m=mock:{mock}",
               "--na", "m=demo", "--out-dir", str(out)) == 0
    lines = (out / "report.tsv").read_text(encoding="utf-8").splitlines()
    assert lines[1] == "m\tdemo\t1\tNA\tNA\tNA\tNA\tNA"


@pytest.mark.parametrize("extra, message", [
    (["--inferrer", "m=mock:MOCK"], "duplicate inferrer id 'm'"),
    (["--test", "TEST"], "duplicate test-set id 'demo'"),
    (["--na", "typo=demo"], "NA cell typo=demo names an inferrer or dataset not in the run"),
    (["--na", "m=typo"], "NA cell m=typo names an inferrer or dataset not in the run"),
])
def test_eval_refuses_duplicate_ids_and_unknown_na_cells(tmp_path, capsys, extra, message):
    testset = tmp_path / "demo.test.tsv"
    write_testset_file(testset, [("ana", "female"), ("bo", "male")])
    mock = tmp_path / "mock.json"
    write_mock_file(mock, {"ana": {"label": "female", "p_female": 1.0}})
    extra = [arg.replace("MOCK", str(mock)).replace("TEST", str(testset)) for arg in extra]
    capsys.readouterr()
    assert run("eval", "--test", str(testset), "--inferrer", f"m=mock:{mock}", *extra,
               "--out-dir", str(tmp_path / "out")) == 1
    assert capsys.readouterr().err == f"namegender: error: {message}\n"
    assert not (tmp_path / "out" / "report.tsv").exists()


def test_http_spec_id_names_the_adapter_its_config_and_its_store(tmp_path, monkeypatch):
    conf = write_http_conf(tmp_path)
    monkeypatch.setattr("requests.Session", lambda: FakeSession(http_body))
    [adapter], _ = build_inferrers([f"x=http:{conf}"])
    assert adapter.id == adapter.config.id == "x"
    assert adapter.config._replace(id="svc") == parse_adapter_config(conf)
    assert adapter.infer("ana").source == "x"
    assert sorted(p.name for p in (tmp_path / "cache").iterdir()) == ["x.sqlite"]
    # the config is built once, with the spec's id, so it gets every check a parsed config gets
    assert parse_adapter_config(conf, "x") == adapter.config


def test_eval_structured_format(tmp_path):
    testset = tmp_path / "demo.test.tsv"
    write_testset_file(testset, [("ana", "female")])
    mock = tmp_path / "mock.json"
    write_mock_file(mock, {"ana": {"label": "female", "p_female": 1.0}})
    out = tmp_path / "out"
    assert run("eval", "--test", str(testset), "--inferrer", f"m=mock:{mock}",
               "--format", "structured", "--out-dir", str(out)) == 0
    document = json.loads((out / "report.json").read_text(encoding="utf-8"))
    assert document["records"][0]["accuracy"] == 100.0


def test_eval_twostage_spec_and_tie_notes(tmp_path):
    model_table = tmp_path / "m.table.tsv"
    model_table.write_text(
        "# name_type=first\tsource_id=m\nana\t99\t1\npat\t5\t5\n", encoding="utf-8"
    )
    out = tmp_path / "out"
    assert run("train", str(model_table), "--tau", "0.9", "--out-dir", str(out)) == 0
    for i, label in enumerate(("female", "male", "female")):
        write_mock_file(tmp_path / f"v{i}.json", {"pat": {"label": label, "p_female": 0.9 if label == "female" else 0.1}})
    ensemble = tmp_path / "ens.conf"
    ensemble.write_text(
        "\n".join([
            "id = hybrid",
            f"model = {out / 'm.model.tsv'}",
            "band = 0.25, 0.75",
            f"voters = a=mock:{tmp_path}/v0.json; b=mock:{tmp_path}/v1.json; c=mock:{tmp_path}/v2.json",
        ]) + "\n",
        encoding="utf-8",
    )
    testset = tmp_path / "demo.test.tsv"
    write_testset_file(testset, [("ana", "female"), ("pat", "female")])
    assert run("eval", "--test", str(testset), "--inferrer", f"twostage:{ensemble}",
               "--out-dir", str(out)) == 0
    lines = (out / "report.tsv").read_text(encoding="utf-8").splitlines()
    # ana answered by stage 1, pat by 2:1 vote -> both correct
    assert lines[1].startswith("hybrid\tdemo\t2\t100.00")


def test_eval_reports_vote_ties(tmp_path):
    model_table = tmp_path / "m.table.tsv"
    model_table.write_text("# name_type=first\tsource_id=m\npat\t5\t5\n", encoding="utf-8")
    out = tmp_path / "out"
    assert run("train", str(model_table), "--out-dir", str(out)) == 0
    write_mock_file(tmp_path / "v0.json", {"pat": {"label": "female", "p_female": 0.9}})
    write_mock_file(tmp_path / "v1.json", {"pat": {"label": "male", "p_female": 0.1}})
    write_mock_file(tmp_path / "v2.json", {})
    ensemble = tmp_path / "ens.conf"
    ensemble.write_text(
        "\n".join([
            "id = hybrid",
            f"model = {out / 'm.model.tsv'}",
            f"voters = a=mock:{tmp_path}/v0.json; b=mock:{tmp_path}/v1.json; c=mock:{tmp_path}/v2.json",
        ]) + "\n",
        encoding="utf-8",
    )
    testset = tmp_path / "demo.test.tsv"
    write_testset_file(testset, [("pat", "female")])
    assert run("eval", "--test", str(testset), "--inferrer", f"twostage:{ensemble}",
               "--out-dir", str(out)) == 0
    assert "hybrid: vote ties = 1" in (out / "report.txt").read_text(encoding="utf-8")


def test_eval_reports_the_notes_of_any_inferrer(tmp_path, monkeypatch):
    from namegender.inferrers import Inferrer
    from namegender.mle import GenderLabel, Prediction

    class Noted(Inferrer):
        notes = ("cache cold",)

        def _infer_chunk(self, names):
            return [Prediction(GenderLabel.FEMALE, 1.0, self.id) for _ in names]

    monkeypatch.setattr(cli.ensemble, "build_inferrers", lambda specs: ([Noted("custom")], []))
    testset = tmp_path / "demo.test.tsv"
    write_testset_file(testset, [("ana", "female")])
    out = tmp_path / "out"
    assert run("eval", "--test", str(testset), "--inferrer", "custom:x", "--out-dir", str(out)) == 0
    assert (out / "report.txt").read_text(encoding="utf-8").endswith("\nnote: custom: cache cold\n")
    assert run("eval", "--test", str(testset), "--inferrer", "custom:x", "--format", "structured",
               "--out-dir", str(out)) == 0
    assert json.loads((out / "report.json").read_text(encoding="utf-8"))["notes"] == ["custom: cache cold"]


def write_twostage_conf(path: Path, model: str, *lines: str) -> Path:
    """A two-stage config over model whose fallback is a mock that knows no name."""
    write_mock_file(path.parent / "empty.json", {})
    path.write_text("\n".join([f"model = {model}", f"fallback = mock:{path.parent / 'empty.json'}", *lines]) + "\n",
                    encoding="utf-8")
    return path


def test_twostage_voters_are_counted_before_any_voter_is_built(tmp_path, capsys):
    model = tmp_path / "m.model.tsv"
    save_model(train(FrequencyTable({"ana": GenderCounts(9, 1)}, NameType.FIRST, "m")), model)
    for i in range(3):
        write_mock_file(tmp_path / f"v{i}.json", {})
    voters = [f"v{i}=mock:{tmp_path / f'v{i}.json'}" for i in range(3)] + [f"mock:{tmp_path / 'missing.json'}"]
    ensemble = tmp_path / "ens.conf"
    ensemble.write_text(f"model = {model}\nvoters = {'; '.join(voters)}\n", encoding="utf-8")
    testset = tmp_path / "demo.test.tsv"
    write_testset_file(testset, [("ana", "female")])
    capsys.readouterr()
    assert run("eval", "--test", str(testset), "--inferrer", f"twostage:{ensemble}",
               "--out-dir", str(tmp_path / "out")) == 1
    assert capsys.readouterr().err == (
        f"namegender: error: {ensemble}: config key 'voters': expected exactly 3 specs separated by ';', got 4\n"
    )


@pytest.mark.parametrize("fallbacks", [["fallback = mock:EMPTY", "voters = mock:EMPTY; mock:EMPTY; mock:EMPTY"], []])
def test_twostage_config_needs_exactly_one_of_fallback_and_voters(tmp_path, capsys, fallbacks):
    model = tmp_path / "m.model.tsv"
    save_model(train(FrequencyTable({"ana": GenderCounts(9, 1)}, NameType.FIRST, "m")), model)
    write_mock_file(tmp_path / "empty.json", {})
    ensemble = tmp_path / "ens.conf"
    ensemble.write_text("\n".join([f"model = {model}", *fallbacks]).replace("EMPTY", "empty.json") + "\n",
                        encoding="utf-8")
    testset = tmp_path / "demo.test.tsv"
    write_testset_file(testset, [("ana", "female")])
    capsys.readouterr()
    assert run("eval", "--test", str(testset), "--inferrer", f"twostage:{ensemble}",
               "--out-dir", str(tmp_path / "out")) == 1
    assert capsys.readouterr().err == (
        f"namegender: error: {ensemble}: two-stage config needs exactly one of fallback = and voters =\n"
    )
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["ingest", "combine", "stats", "split", "train", "eval", "analyze"])
def test_a_failed_command_leaves_no_out_dir(tmp_path, capsys, command):
    missing = str(tmp_path / "missing.tsv")
    model = tmp_path / "m.model.tsv"
    save_model(train(FrequencyTable({"ana": GenderCounts(9, 1)}, NameType.FIRST, "m")), model)
    conf = write_twostage_conf(tmp_path / "ens.conf", str(model), "bnad = 0, 1")
    testset = tmp_path / "demo.test.tsv"
    write_testset_file(testset, [("ana", "female")])
    argv = {
        "ingest": ["--csv", missing, "--name-col", "name", "--gender-col", "gender"],
        "combine": [missing],
        "stats": [missing],
        "split": [missing, "--seed", "1"],
        "train": [missing],
        "eval": ["--test", str(testset), "--inferrer", f"m=mle:{model}", "--inferrer", f"twostage:{conf}"],
        "analyze": ["--test", str(testset), "--inferrer", f"twostage:{conf}"],
    }[command]
    capsys.readouterr()
    assert run(command, *argv, "--out-dir", str(tmp_path / "out" / "run")) == 1
    assert capsys.readouterr().err.startswith("namegender: error: ")
    assert not (tmp_path / "out").exists()


def test_a_failed_split_leaves_no_manifest_of_the_earlier_split(corpus_csv, tmp_path, capsys):
    table = ingest_tiny(corpus_csv, tmp_path / "in")
    out = tmp_path / "s2"
    assert run("split", str(table), "--seed", "1", "--test-fraction", "0.5", "--out-dir", str(out)) == 0
    manifest = (out / "split.manifest.json").read_bytes()
    capsys.readouterr()
    # a split whose input fails to read leaves the directory as it was
    assert run("split", str(tmp_path / "missing.tsv"), "--seed", "2", "--out-dir", str(out)) == 1
    assert (out / "split.manifest.json").read_bytes() == manifest
    (out / "tiny.test.tsv").unlink()
    (out / "tiny.test.tsv").mkdir()
    assert run("split", str(table), "--seed", "2", "--test-fraction", "0.5", "--out-dir", str(out)) == 1
    assert capsys.readouterr().err.count("\n") == 2
    # the train table now holds the seed-2 split, which the seed-1 manifest would misdescribe
    assert not (out / "split.manifest.json").exists()


def test_a_failed_infer_out_leaves_no_manifest_of_the_earlier_run(tmp_path, capsys):
    model = tmp_path / "m.model.tsv"
    save_model(train(FrequencyTable({"ana": GenderCounts(9, 1)}, NameType.FIRST, "m")), model)
    names = tmp_path / "names.txt"
    names.write_text("ana\n", encoding="utf-8")
    out = tmp_path / "out"
    assert run("infer", str(names), "--model", str(model), "--out", str(out / "p.tsv")) == 0
    assert (out / "infer.manifest.json").exists()
    predictions = (out / "p.tsv").read_bytes()
    (out / "q.tsv").mkdir()
    capsys.readouterr()
    assert run("infer", str(names), "--model", str(model), "--out", str(out / "q.tsv")) == 1
    assert capsys.readouterr().err.startswith("namegender: error: ")
    assert not (out / "infer.manifest.json").exists()
    assert (out / "p.tsv").read_bytes() == predictions


def test_twostage_spec_paths_resolve_against_the_config_directory(tmp_path, monkeypatch):
    conf_dir, elsewhere = tmp_path / "conf", tmp_path / "elsewhere"
    conf_dir.mkdir()
    elsewhere.mkdir()
    counts = {"ana": GenderCounts(99, 1), "pat": GenderCounts(5, 5)}
    save_model(train(FrequencyTable(counts, NameType.FIRST, "m")), conf_dir / "m.model.tsv")
    write_mock_file(conf_dir / "m.json", {"pat": {"label": "male", "p_female": 0.1}})
    for i, label in enumerate(("female", "female", "male")):
        p_female = 0.9 if label == "female" else 0.1
        write_mock_file(conf_dir / f"v{i}.json", {"pat": {"label": label, "p_female": p_female}})
    single = conf_dir / "single.conf"
    single.write_text("id = single\nmodel = m.model.tsv\nfallback = mock:m.json\n", encoding="utf-8")
    vote = conf_dir / "vote.conf"
    vote.write_text("id = vote\nmodel = m.model.tsv\nvoters = a=mock:v0.json; b=mock:v1.json; c=mock:v2.json\n",
                    encoding="utf-8")
    testset = tmp_path / "demo.test.tsv"
    write_testset_file(testset, [("ana", "female"), ("pat", "female")])
    monkeypatch.chdir(elsewhere)
    out = tmp_path / "out"
    assert run("eval", "--test", str(testset), "--inferrer", "twostage:../conf/single.conf",
               "--inferrer", f"twostage:{vote}", "--out-dir", str(out)) == 0
    rows = [row for row in (out / "report.tsv").read_text(encoding="utf-8").splitlines() if "\tdemo\t" in row]
    # pat goes to stage 2: the single fallback says male, the vote says female
    assert rows[0].startswith("single\tdemo\t2\t50.00") and rows[1].startswith("vote\tdemo\t2\t100.00")
    manifest = json.loads((out / "eval.manifest.json").read_text(encoding="utf-8"))
    beside = [str((conf_dir / f).resolve()) for f in ("m.model.tsv", "m.json", "v0.json", "v1.json", "v2.json")]
    assert sorted(manifest["config_digests"]) == sorted(["../conf/single.conf", str(vote), *beside])


@pytest.mark.parametrize("band", ["0.3", "0.3, x", "0.25, 0.5, 0.75", "0.8, 0.2", "0.25, 1.5", "nan, 0.5"])
def test_eval_twostage_bad_band_names_the_config_file_and_the_key(tmp_path, capsys, band):
    (tmp_path / "m.table.tsv").write_text("# name_type=first\tsource_id=m\nana\t9\t1\n", encoding="utf-8")
    assert run("train", str(tmp_path / "m.table.tsv"), "--out-dir", str(tmp_path)) == 0
    # the band is checked before the fallback, here one whose file is missing, is built
    ensemble = tmp_path / "ens.conf"
    ensemble.write_text(f"model = m.model.tsv\nfallback = mock:{tmp_path / 'missing.json'}\nband = {band}\n",
                        encoding="utf-8")
    testset = tmp_path / "demo.test.tsv"
    write_testset_file(testset, [("ana", "female")])
    capsys.readouterr()
    assert run("eval", "--test", str(testset), "--inferrer", f"twostage:{ensemble}",
               "--out-dir", str(tmp_path / "out")) == 1
    reason = "expected two numbers lo, hi with 0 <= lo < hi <= 1"
    assert capsys.readouterr().err == f"namegender: error: {ensemble}: config key 'band': {reason}\n"


def test_eval_reads_each_model_file_once_per_command(tmp_path, monkeypatch):
    model = tmp_path / "m.model.tsv"
    save_model(train(FrequencyTable({"ana": GenderCounts(99, 1)}, NameType.FIRST, "m")), model)
    (tmp_path / "sub").mkdir()
    # one file named three ways: by the mle spec, by absolute path, and relative to a config's directory
    first = write_twostage_conf(tmp_path / "a.conf", str(model), "id = ts_a")
    second = write_twostage_conf(tmp_path / "sub" / "b.conf", "../m.model.tsv", "id = ts_b")
    testset = tmp_path / "demo.test.tsv"
    write_testset_file(testset, [("ana", "female")])
    loads = []
    load_model = cli.mle.load_model
    monkeypatch.setattr(cli.mle, "load_model", lambda path: loads.append(path) or load_model(path))

    def accuracies() -> list[str]:
        assert run("eval", "--test", str(testset), "--inferrer", f"m=mle:{model}", "--inferrer", f"twostage:{first}",
                   "--inferrer", f"twostage:{second}", "--out-dir", str(tmp_path / "out")) == 0
        rows = (tmp_path / "out" / "report.tsv").read_text(encoding="utf-8").splitlines()[1:]
        return [row.split("\t")[3] for row in rows if "\tdemo\t" in row]

    assert accuracies() == ["100.00"] * 3
    assert len(loads) == 1
    # a model file rewritten between two commands in one process is read again
    save_model(train(FrequencyTable({"ana": GenderCounts(1, 99)}, NameType.FIRST, "m")), model)
    assert accuracies() == ["0.00"] * 3
    assert len(loads) == 2


def test_analyze_exports(tmp_path):
    testset = tmp_path / "demo.test.tsv"
    write_testset_file(testset, [("ana", "female"), ("josé", "male"), ("bo", "male")])
    mock = tmp_path / "mock.json"
    write_mock_file(mock, {
        "ana": {"label": "female", "p_female": 0.9},
        "josé": {"label": "female", "p_female": 0.8},
        "bo": {"label": "male", "p_female": 0.1},
    })
    out = tmp_path / "out"
    assert run("analyze", "--test", str(testset), "--inferrer", f"m=mock:{mock}",
               "--out-dir", str(out)) == 0
    lengths = (out / "lengths.tsv").read_text(encoding="utf-8")
    assert "TF\t3\t100.0000" in lengths
    non_english = (out / "non_english.tsv").read_text(encoding="utf-8").splitlines()
    assert "FF\t1\t100.0000" in non_english
    assert (out / "bigrams.tsv").exists()
    assert (out / "trigrams.tsv").exists()


def test_analyze_skips_the_ngram_exports_when_every_decided_prediction_is_right(tmp_path, capsys):
    testset = tmp_path / "demo.test.tsv"
    write_testset_file(testset, [("ana", "female"), ("bob", "male"), ("kim", "male")])
    mock = tmp_path / "mock.json"
    write_mock_file(mock, {"ana": {"label": "female", "p_female": 0.9}, "bob": {"label": "male", "p_female": 0.1}})
    out = tmp_path / "out"
    capsys.readouterr()
    assert run("analyze", "--test", str(testset), "--inferrer", f"m=mock:{mock}", "--out-dir", str(out)) == 0
    err = capsys.readouterr().err.splitlines()
    assert err[-2:] == ["WARNING skipping bigrams.tsv: ngram_inventory: false category is empty",
                        "WARNING skipping trigrams.tsv: ngram_inventory: false category is empty"]
    assert sorted(path.name for path in out.iterdir()) == ["analyze.manifest.json", "lengths.tsv", "non_english.tsv"]


def test_each_command_writes_its_diagnostics_to_stderr_as_level_message_lines(tmp_path):
    # in a fresh interpreter, as a user's command runs, so no log handler of pytest's can take the lines
    ssa, out = tmp_path / "ssa", tmp_path / "out"
    ssa.mkdir()
    (ssa / "yob2000.txt").write_text("Mary,F,9\nMary,M,1\nJohn,M,8\nPat,F,3\nPat,M,3\nAnna,F,7\nErik,M,6\n"
                                     "Lisa,F,5\nOmar,M,4\nRuth,F,2\n", encoding="utf-8")
    plain, full, testset = tmp_path / "plain.tsv", tmp_path / "full.tsv", tmp_path / "demo.test.tsv"
    plain.write_text("# name_type=first\tsource_id=plain\nanna\t7\t0\njohn\t0\t8\n", encoding="utf-8")
    full.write_text("# name_type=full\tsource_id=people\na smith\t2\t0\nmary jones\t3\t1\n", encoding="utf-8")
    write_testset_file(testset, [("mary", "female"), ("john", "male")])
    table, model = out / "ssa1999-2000.table.tsv", out / "ssa1999-2000.model.tsv"
    commands = {
        "ingest": ["ingest", "--ssa-dir", str(ssa), "--years", "1999-2000", "--out-dir", str(out)],
        "stats": ["stats", str(plain), "--bins", "4", "--out-dir", str(out)],
        "combine": ["combine", str(full), "--split-full", "--out-dir", str(out)],
        "split": ["split", str(table), "--seed", "1", "--test-fraction", "0.5", "--out-dir", str(out / "split")],
        "train": ["train", str(table), "--tau", "0.75", "--out-dir", str(out)],
        "analyze": ["analyze", "--test", str(testset), "--inferrer", f"mle:{model}", "--out-dir", str(out)],
    }
    script = "import sys\nfrom namegender.cli import main\n" + "".join(
        f"print({label!r}, main({argv!r}), file=sys.stderr)\n" for label, argv in commands.items())
    done = fresh_interpreter(script)
    assert done.stdout == ""
    assert done.stderr == (
        f"WARNING missing SSA year file: {ssa / 'yob1999.txt'}\n"
        "INFO ingested ssa1999-2000: 8 unique names, 10 records retained, 0 dropped\n"
        "ingest 0\n"
        "WARNING skipping ambiguity histogram: plain: no ambiguous names\n"
        "stats 0\n"
        "INFO to_first_names: dropped 1 first tokens failing cleaning\n"
        "INFO combined 1 tables into people (1 unique names)\n"
        "combine 0\n"
        "INFO split ssa1999-2000: 4 train, 3 test, 1 tied names excluded\n"
        "split 0\n"
        "INFO trained mle:ssa1999-2000 on 8 names (tau=0.75)\n"
        "train 0\n"
        "INFO length_histograms: no FF names, omitted\n"
        "INFO length_histograms: no FM names, omitted\n"
        "INFO non_english_distribution: no FF names, omitted\n"
        "INFO non_english_distribution: no FM names, omitted\n"
        "WARNING skipping bigrams.tsv: ngram_inventory: false category is empty\n"
        "WARNING skipping trigrams.tsv: ngram_inventory: false category is empty\n"
        "analyze 0\n"
    )


# --- reproducibility and config --------------------------------------------------------


# each command's required arguments
_MINIMAL_ARGV = {
    "ingest": ["ingest", "--csv", "names.csv"],
    "combine": ["combine", "t.table.tsv"],
    "stats": ["stats", "t.table.tsv"],
    "split": ["split", "t.table.tsv"],
    "train": ["train", "t.table.tsv"],
    "infer": ["infer", "-"],
    "eval": ["eval", "--test", "d.test.tsv", "--inferrer", "mock:m.json"],
    "analyze": ["analyze", "--test", "d.test.tsv", "--inferrer", "mock:m.json"],
}


@pytest.mark.parametrize("flag, value, takers", [
    ("--out-dir", "o", {"ingest", "combine", "stats", "split", "train", "eval", "analyze"}),
    ("--format", "structured", {"stats", "infer", "eval"}),
])
@pytest.mark.parametrize("command", _MINIMAL_ARGV)
def test_a_command_takes_only_the_shared_flags_it_reads(capsys, command, flag, value, takers):
    argv = [*_MINIMAL_ARGV[command], "--seed", "3", "--config", "c.conf", flag, value]
    if command in takers:
        args = cli.build_parser().parse_args(argv)
        assert (args.seed, args.config, getattr(args, flag[2:].replace("-", "_"))) == (3, "c.conf", value)
    else:
        with pytest.raises(SystemExit) as exited:
            run(*argv)
        assert exited.value.code == 2
        assert capsys.readouterr().err.endswith(f"error: unrecognized arguments: {flag} {value}\n")


def test_pipeline_outputs_byte_reproducible(corpus_csv, tmp_path):
    outputs = []
    for run_dir in ("r1", "r2"):
        out = tmp_path / run_dir
        table_path = ingest_tiny(corpus_csv, out)
        assert run("split", str(table_path), "--test-fraction", "0.3", "--seed", "5",
                   "--out-dir", str(out)) == 0
        assert run("train", str(out / "tiny-train.table.tsv"), "--out-dir", str(out)) == 0
        blob = b"".join(
            (out / name).read_bytes()
            for name in ("tiny.table.tsv", "tiny-train.table.tsv", "tiny.test.tsv",
                         "tiny.ties.txt", "tiny-train.model.tsv")
        )
        outputs.append(blob)
    assert outputs[0] == outputs[1]


def test_config_file_supplies_defaults(corpus_csv, tmp_path):
    out = tmp_path / "out"
    table_path = ingest_tiny(corpus_csv, out)
    config = tmp_path / "defaults.conf"
    config.write_text("seed = 11\ntest-fraction = 0.3\n", encoding="utf-8")
    assert run("split", str(table_path), "--config", str(config), "--out-dir", str(out)) == 0
    manifest = json.loads((out / "split.manifest.json").read_text(encoding="utf-8"))
    assert manifest["seed"] == 11

    def split_size(out: Path) -> int:  # test names and excluded ties: the share of the 8 names split off
        tested = (out / "tiny.test.tsv").read_text(encoding="utf-8").count("\n") - 1
        return tested + (out / "tiny.ties.txt").read_text(encoding="utf-8").count("\n")

    assert split_size(out) == 2  # round(8 * 0.3); the built-in 0.1 would give 1
    flags = tmp_path / "flags"
    assert run("split", str(table_path), "--config", str(config), "--seed", "5", "--test-fraction", "0.5",
               "--out-dir", str(flags)) == 0
    assert json.loads((flags / "split.manifest.json").read_text(encoding="utf-8"))["seed"] == 5
    assert split_size(flags) == 4


def test_manifest_digests_the_config_file(corpus_csv, tmp_path):
    out = tmp_path / "out"
    table_path = ingest_tiny(corpus_csv, out)
    config = tmp_path / "train.conf"
    config.write_text("tau = 0.6\n", encoding="utf-8")
    assert run("train", str(table_path), "--config", str(config), "--out-dir", str(out)) == 0
    assert load_model(out / "tiny.model.tsv").tau == 0.6
    manifest = json.loads((out / "train.manifest.json").read_text(encoding="utf-8"))
    assert manifest["config_digests"] == {str(config): hashlib.sha256(config.read_bytes()).hexdigest()}


def test_config_rejects_unknown_keys(corpus_csv, tmp_path, capsys):
    out = tmp_path / "out"
    table_path = ingest_tiny(corpus_csv, out)
    config = tmp_path / "defaults.conf"
    config.write_text("bogus = 1\n", encoding="utf-8")
    assert run("split", str(table_path), "--config", str(config), "--seed", "1",
               "--out-dir", str(out)) == 1
    assert "bogus" in capsys.readouterr().err


def test_config_refuses_two_spellings_of_one_option(corpus_csv, tmp_path, capsys):
    config = tmp_path / "defaults.conf"
    config.write_text(f"out-dir = {tmp_path / 'a'}\nout_dir = {tmp_path / 'b'}\n", encoding="utf-8")
    assert run("ingest", "--csv", str(corpus_csv), "--name-col", "name", "--gender-col", "gender",
               "--config", str(config)) == 1
    assert capsys.readouterr().err == (
        f"namegender: error: {config}: config keys 'out-dir' and 'out_dir' set one option\n"
    )
    assert not (tmp_path / "a").exists() and not (tmp_path / "b").exists()


@pytest.mark.parametrize("kind, line", [("config", 2), ("http", 3), ("twostage", 3)])
def test_every_key_value_file_refuses_an_unknown_key_naming_its_line(tmp_path, capsys, kind, line):
    model = tmp_path / "m.model.tsv"
    save_model(train(FrequencyTable({"ana": GenderCounts(9, 1)}, NameType.FIRST, "m")), model)
    write_mock_file(tmp_path / "empty.json", {})
    conf = tmp_path / f"{kind}.conf"
    text, key, flags = {
        "config": ("format = tsv\nsed = 2\n", "sed", ["--inferrer", f"mle:{model}", "--config", str(conf)]),
        "http": ("id = svc\nendpoint = http://127.0.0.1:9/?name={name}\nrate_limt = 5\n", "rate_limt",
                 ["--inferrer", f"http:{conf}"]),
        "twostage": (f"model = {model}\nfallback = mock:empty.json\nbnad = 0.0, 0.99\n", "bnad",
                     ["--inferrer", f"twostage:{conf}"]),
    }[kind]
    conf.write_text(text, encoding="utf-8")
    testset = tmp_path / "demo.test.tsv"
    write_testset_file(testset, [("ana", "female")])
    capsys.readouterr()
    assert run("eval", "--test", str(testset), *flags, "--out-dir", str(tmp_path / "out")) == 1
    assert capsys.readouterr().err == f"namegender: error: {conf}:{line}: unknown config key {key!r}\n"
    assert not list((tmp_path / "out").glob("*"))


@pytest.mark.parametrize("bins", ["1", "0", "-2"])
def test_stats_refuses_fewer_than_two_bins_from_the_flag_and_the_config(corpus_csv, tmp_path, capsys, bins):
    out = tmp_path / "out"
    table_path = ingest_tiny(corpus_csv, out)
    capsys.readouterr()
    with pytest.raises(SystemExit) as exit:
        run("stats", str(table_path), "--bins", bins, "--out-dir", str(out))
    assert exit.value.code == 2
    assert capsys.readouterr().err.endswith(f": error: argument --bins: expected at least 2 bins, got {bins}\n")
    config = tmp_path / "stats.conf"
    config.write_text(f"bins = {bins}\n", encoding="utf-8")
    assert run("stats", str(table_path), "--config", str(config), "--out-dir", str(out)) == 1
    assert capsys.readouterr().err == (
        f"namegender: error: {config}: config key 'bins': expected at least 2 bins, got {bins}\n"
    )
    assert not (out / "stats.tsv").exists()


@pytest.mark.parametrize("line, key", [("format = xml", "format"), ("seed = x", "seed"), ("test-fraction = y", "test-fraction")])
def test_config_values_are_checked_as_flags_are(corpus_csv, tmp_path, capsys, line, key):
    out = tmp_path / "out"
    table_path = ingest_tiny(corpus_csv, out)
    config = tmp_path / "defaults.conf"
    config.write_text(line + "\n", encoding="utf-8")
    capsys.readouterr()
    assert run("split", str(table_path), "--config", str(config), "--seed", "1", "--out-dir", str(out)) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"namegender: error: {config}: config key {key!r}: ") and err.count("\n") == 1
    assert not (out / "split.manifest.json").exists()


def test_unknown_inferrer_kind_rejected(tmp_path, capsys):
    testset = tmp_path / "demo.test.tsv"
    write_testset_file(testset, [("ana", "female")])
    assert run("eval", "--test", str(testset), "--inferrer", "nope:x",
               "--out-dir", str(tmp_path)) == 1
    assert "unknown inferrer kind" in capsys.readouterr().err


@pytest.mark.parametrize("id", ["x\ty", "x\ny", "x\ry"])
def test_eval_refuses_an_inferrer_id_holding_a_tab_or_line_break(tmp_path, capsys, id):
    model = tmp_path / "m.model.tsv"
    save_model(train(FrequencyTable({"ana": GenderCounts(9, 1)}, NameType.FIRST, "m")), model)
    testset = tmp_path / "demo.test.tsv"
    write_testset_file(testset, [("ana", "female")])
    capsys.readouterr()
    # a report row would gain a field
    assert run("eval", "--test", str(testset), "--inferrer", f"{id}=mle:{model}",
               "--out-dir", str(tmp_path / "out")) == 1
    assert capsys.readouterr().err == f"namegender: error: inferrer id {id!r} contains tab or newline\n"
    assert not (tmp_path / "out").exists()


def _keeps_its_field_counts(path: Path) -> bool:
    """Whether each line of a TSV file the program wrote has its header's field count. The fields after the first
    of a "# " line are key=value; an ingest report's lines are key<TAB>value, and malformed.line has three fields."""
    *lines, end = path.read_text(encoding="utf-8").split("\n")
    notes = [line.split("\t")[1:] for line in lines if line.startswith("# ")]
    rows = [line.split("\t") for line in lines if not line.startswith("# ")]
    report = path.name.endswith(".ingest-report.tsv")
    whole = all(len(row) == (2 + (row[0] == "malformed.line") if report else len(rows[0])) for row in rows)
    return end == "" and whole and all("=" in field for fields in notes for field in fields)


# names and ids that a TSV field cannot carry as they are
_BREAKING = st.text("ab\t\r\n", min_size=1, max_size=4)


@settings(deadline=None)
@given(st.lists(_BREAKING, min_size=1, max_size=4, unique=True), _BREAKING, _BREAKING, _BREAKING)
def test_every_tsv_line_the_program_writes_has_its_header_field_count(names, source_id, set_id, inferrer_id):
    with tempfile.TemporaryDirectory() as tmp:
        d = Path(tmp)
        model, table, test = str(d / "m.model.tsv"), str(d / "t.table.tsv"), str(d / "d.test.tsv")
        save_model(train(FrequencyTable({"a": GenderCounts(19, 1), "b": GenderCounts(1, 19)}, NameType.FIRST, "m")), model)
        labels = [("female", "male")[i % 2] for i in range(len(names))]
        with open(d / "c.csv", "w", newline="", encoding="utf-8") as fh:
            csv.writer(fh).writerows([("name", "gender"), *zip(names, labels)])
        Path(table).write_text(f"# name_type=first\tsource_id={source_id}\n" + "".join(f"{n}\t3\t1\n" for n in names),
                               encoding="utf-8")
        Path(test).write_text(f"# testset={set_id}\n" + "".join(f"{n}\t{g}\n" for n, g in zip(names, labels)),
                              encoding="utf-8")
        (d / "names.txt").write_text("".join(f"{n}\n" for n in names), encoding="utf-8")
        spec = f"{inferrer_id}=mle:{model}"
        commands = [
            ["ingest", "--csv", str(d / "c.csv"), "--name-col", "name", "--gender-col", "gender",
             "--source-id", source_id],
            ["stats", table, model, "--bins", "2"],
            ["split", table, "--seed", "1", "--test-fraction", "0.5"],
            ["infer", str(d / "names.txt"), "--inferrer", spec],
            ["eval", "--test", test, "--inferrer", spec],
            ["eval", "--test", test, "--inferrer", f"mle:{model}"],
            ["analyze", "--test", test, "--inferrer", f"mle:{model}"],
        ]
        for i, argv in enumerate(commands):
            out_dir, err = d / f"out{i}", io.StringIO()
            out = ["--out", str(out_dir / "o.tsv")] if argv[0] == "infer" else ["--out-dir", str(out_dir)]
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                status = run(*argv, *out)
            if status:  # refused: one error line
                assert status == 1 and err.getvalue().startswith("namegender: error: ")
                assert err.getvalue().count("\n") == 1
            else:
                written = sorted(out_dir.glob("*.tsv"))
                assert written and all(map(_keeps_its_field_counts, written)), (argv, written)


_TESTSET = "# testset=d\nana\tfemale\n"


# each case: the files written in the test's directory {d}, the command line, and its one error line
@pytest.mark.parametrize("files, argv, error", [
    ({}, "ingest --csv {d}/c.csv --name-col name", "--csv requires --name-col and --gender-col"),
    ({}, "ingest --ssa-dir {d}", "--ssa-dir requires --years"),
    ({"c.csv": ""}, "ingest --csv {d}/c.csv --name-col name --gender-col gender", "{d}/c.csv: file is empty"),
    ({"c.conf": "seed\n"}, "split {d}/t.table.tsv --config {d}/c.conf", "{d}/c.conf:1: expected key = value"),
    ({"t.table.tsv": "# name_type=first\tsource_id=t\npat\t10\t10\nsam\t5\t5\n"},
     "split {d}/t.table.tsv --seed 1 --test-fraction 0.5", "every sampled test name has tied counts"),
    ({"d.test.tsv": _TESTSET, "m.json": "{}"}, "eval --test {d}/d.test.tsv --inferrer mock:{d}/m.json --na x",
     "bad --na value 'x' (expected inferrer=dataset)"),
    ({"d.test.tsv": _TESTSET}, "eval --test {d}/d.test.tsv --inferrer foo", "bad inferrer spec 'foo' (expected kind:arg)"),
    ({"d.test.tsv": _TESTSET, "t.conf": "fallback = mock:m.json\n"},
     "eval --test {d}/d.test.tsv --inferrer twostage:{d}/t.conf", "{d}/t.conf: two-stage config requires model ="),
    ({"d.test.tsv": "ana\tfemale\n"}, "eval --test {d}/d.test.tsv --inferrer mock:{d}/m.json",
     "{d}/d.test.tsv:1: missing testset header"),
    ({"d.test.tsv": "# testset=d\nana\n"}, "eval --test {d}/d.test.tsv --inferrer mock:{d}/m.json",
     "{d}/d.test.tsv:2: expected name<TAB>gender"),
    ({"d.test.tsv": _TESTSET, "m.json": "[1]"}, "eval --test {d}/d.test.tsv --inferrer mock:{d}/m.json",
     "{d}/m.json: expected an object mapping names to entries"),
    ({"d.test.tsv": _TESTSET, "h.conf": "id = svc\n"}, "eval --test {d}/d.test.tsv --inferrer http:{d}/h.conf",
     "{d}/h.conf: id and endpoint are required"),
    ({"d.test.tsv": _TESTSET, "m.json": "{}"}, "analyze --test {d}/d.test.tsv --inferrer mock:{d}/m.json",
     "no decided predictions to analyze"),
    # a report row would gain a field
    ({"d.test.tsv": "# testset=a\tb\nana\tfemale\n", "m.json": "{}"},
     "eval --test {d}/d.test.tsv --inferrer mock:{d}/m.json", "{d}/d.test.tsv:1: test-set id 'a\\tb' contains a tab"),
])
def test_a_refused_input_fails_with_its_one_error_line(tmp_path, capsys, files, argv, error):
    for name, text in files.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    out_dir = ["--out-dir", str(tmp_path / "out")]
    capsys.readouterr()
    assert run(*argv.format(d=tmp_path).split(), *out_dir) == 1
    assert capsys.readouterr().err == f"namegender: error: {error.format(d=tmp_path)}\n"
    assert not (tmp_path / "out").exists()
