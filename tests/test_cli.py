from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import os
import select
import subprocess
import sys
import tempfile
from json.encoder import encode_basestring_ascii
from pathlib import Path

import pytest
import requests
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from namegender import cli
from namegender.corpus import FrequencyTable, GenderCounts, NameType, pairwise_overlap, read_table
from namegender.inferrers import AdapterConfigError, HttpAdapter, parse_adapter_config
from namegender.mle import load_model, save_model, train

from conftest import FakeResponse, FakeSession

DATA = Path(__file__).parent / "data"


def run(*argv: str) -> int:
    return cli.main(list(argv))


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


# Table and mock names hold quotes, backslashes, non-ASCII and astral
# characters; queried names add tabs, case and space variants.
TABLE_NAMES = st.text('aAbé"\\ あ\U0001d518', min_size=1, max_size=4).map(str.strip).filter(bool)
QUERY_NAMES = st.text('aAbé"\\\t あ\U0001d518', min_size=1, max_size=4).map(str.strip).filter(bool)
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
STREAM_NAMES = st.one_of(st.sampled_from(sorted(STREAM_MODEL)), st.text("aBé あ\t\x85\u2028\U0001d518", min_size=1, max_size=5))
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
                                                cli.build_inferrer(f"mle:{model_path}"), fmt == "structured")
            for source in (str(names_path), "-"):
                patch.setattr("sys.stdin", io.StringIO(text, newline=""))
                out = io.StringIO()
                with contextlib.redirect_stdout(out):
                    assert run("infer", source, "--model", str(model_path), "--format", fmt) == 0
                assert out.getvalue() == expected, (source, fmt)


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
    # hashlib and datetime only write a manifest; dataclasses (with inspect and ast) would generate code per record
    unused = ("hashlib", "_hashlib", "datetime", "dataclasses", "inspect", "ast")
    script = (
        "import sys\n"
        "from namegender.cli import main\n"
        f"code = main(['infer', '-', '--model', {str(model)!r}])\n"
        f"print(code, *(module in sys.modules for module in {unused!r}), file=sys.stderr)\n"
    )
    src = Path(cli.__file__).resolve().parents[1]
    done = subprocess.run([sys.executable, "-c", script], input="mary\n", capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(src)}, check=True)
    assert done.stdout.splitlines()[1] == "mary\tfemale\t0.950000\tmle:t"
    assert done.stderr.split() == ["0", *["False"] * len(unused)]
    names = tmp_path / "names.txt"
    names.write_text("mary\n", encoding="utf-8")
    assert run("infer", str(names), "--model", str(model), "--out", str(tmp_path / "out" / "pred.tsv")) == 0
    manifest = json.loads((tmp_path / "out" / "infer.manifest.json").read_text(encoding="utf-8"))
    digests = {str(p): hashlib.sha256(p.read_bytes()).hexdigest() for p in (names, model)}
    assert {**manifest["input_digests"], **manifest["config_digests"]} == digests


def test_manifest_is_written_once_the_command_has_freed_its_tables(corpus_csv, tmp_path, monkeypatch):
    # hashlib loads OpenSSL to write a manifest; with a table still alive that would set the step's peak RSS
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
    and an eval answered from a warm HTTP cache never loads requests."""
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
    )
    src = Path(cli.__file__).resolve().parents[1]
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, cwd=tmp_path,
                          env={**os.environ, "PYTHONPATH": str(src)}, check=True)
    assert done.stdout.split() == ["False", "False", "0", "False", "0", "False"]
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
    argv = {"infer": ["infer", "-"], "eval": ["eval", "--test", str(testset)], "analyze": ["analyze", "--test", str(testset)]}
    capsys.readouterr()
    assert run(*argv[command], "--inferrer", f"http:{conf}", "--out-dir", str(tmp_path / "out")) == 1
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
    adapter = cli.build_inferrer(f"x=http:{conf}")
    assert adapter.id == adapter.config.id == "x"
    assert adapter.config._replace(id="svc") == parse_adapter_config(conf)
    assert adapter.infer("ana").source == "x"
    assert sorted(p.name for p in (tmp_path / "cache").iterdir()) == ["x.sqlite"]
    # the renamed copy is checked as a parsed config is: _replace builds an unchecked one
    monkeypatch.setattr(cli, "parse_adapter_config", lambda path: parse_adapter_config(path)._replace(timeout=0.0))
    with pytest.raises(AdapterConfigError, match="timeout must be positive"):
        cli.build_inferrer(f"x=http:{conf}")


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


def write_twostage_conf(path: Path, model: str, *lines: str) -> Path:
    """A two-stage config over model whose fallback is a mock that knows no name."""
    write_mock_file(path.parent / "empty.json", {})
    path.write_text("\n".join([f"model = {model}", f"fallback = mock:{path.parent / 'empty.json'}", *lines]) + "\n",
                    encoding="utf-8")
    return path


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
    assert capsys.readouterr().err == f"namegender: error: {ensemble}: band = {band}: {reason}\n"


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


# --- reproducibility and config --------------------------------------------------------


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
