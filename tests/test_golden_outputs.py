"""Byte-for-byte pins of CLI outputs that the unit tests only sample.

The expected bytes were produced by the CLI itself and checked by hand;
any refactoring of ingestion or report rendering must leave them as is.
"""

from __future__ import annotations

from pathlib import Path

from namegender import cli

DATA = Path(__file__).parent / "data"

MESSY_CSV = (
    "name,gender,count\n"
    "mary,F,95\n"
    "mary,w,5\n"
    "john,M,x\n"
    "jane,F,0\n"
    "solo\n"
    "\n"
    "nocount,F\n"
    "mr,M,3\n"
    "bob2,M,4\n"
    "a,F,1\n"
    "xyz,F,2\n"
    "pat,,7\n"
    "pat,Q,7\n"
    "  Pat  Lee ,m,2\n"
)

MESSY_CSV_REPORT = (
    "# ingest-report\tsource=messy\n"
    "total_rows\t13\n"
    "retained\t3\n"
    "rejected.too_short\t1\n"
    "rejected.no_vowel\t1\n"
    "rejected.is_title\t1\n"
    "rejected.invalid_characters\t1\n"
    "unmappable_gender\t2\n"
    "malformed\t4\n"
    "malformed.line\t4\tbad count 'x'\n"
    "malformed.line\t5\tcount 0 < 1\n"
    "malformed.line\t6\trow has too few fields\n"
    "malformed.line\t8\tbad count ''\n"
)

MESSY_SSA_1990 = (
    "Mary,F,10\n"
    "\n"
    "John,M,abc\n"
    "Jane,F,-1\n"
    "Only,F\n"
    "Too,F,1,2\n"
    "Mr,M,3\n"
    "Li,X,3\n"
    "Anna,F,4\n"
    "   \n"
    "John,M,2\n"
)

MESSY_SSA_REPORT = (
    "# ingest-report\tsource=ssa1990-1992\n"
    "total_rows\t11\n"
    "retained\t5\n"
    "rejected.too_short\t0\n"
    "rejected.no_vowel\t0\n"
    "rejected.is_title\t1\n"
    "rejected.invalid_characters\t0\n"
    "unmappable_gender\t1\n"
    "malformed\t4\n"
    "malformed.line\t3\tyob1990.txt: bad count 'abc'\n"
    "malformed.line\t4\tyob1990.txt: count -1 < 1\n"
    "malformed.line\t5\tyob1990.txt: expected 3 fields\n"
    "malformed.line\t6\tyob1990.txt: expected 3 fields\n"
    "missing_year\t1991\n"
)


def test_csv_ingest_report_bytes_for_malformed_rows(tmp_path):
    csv_path = tmp_path / "messy.csv"
    csv_path.write_text(MESSY_CSV, encoding="utf-8")
    out = tmp_path / "out"
    assert cli.main([
        "ingest", "--csv", str(csv_path),
        "--name-col", "name", "--gender-col", "gender", "--count-col", "count",
        "--source-id", "messy", "--out-dir", str(out),
    ]) == 0
    assert (out / "messy.ingest-report.tsv").read_text(encoding="utf-8") == MESSY_CSV_REPORT
    assert (out / "messy.table.tsv").read_text(encoding="utf-8") == (
        "# name_type=first\tsource_id=messy\nmary\t100\t0\npat lee\t0\t2\n"
    )


def test_ssa_ingest_report_bytes_for_malformed_rows(tmp_path):
    ssa = tmp_path / "ssa"
    ssa.mkdir()
    (ssa / "yob1990.txt").write_text(MESSY_SSA_1990, encoding="utf-8")
    (ssa / "yob1992.txt").write_text("Anna,F,1\nAnna,M,1\n", encoding="utf-8")
    out = tmp_path / "out"
    assert cli.main(["ingest", "--ssa-dir", str(ssa), "--years", "1990-1992", "--out-dir", str(out)]) == 0
    assert (out / "ssa1990-1992.ingest-report.tsv").read_text(encoding="utf-8") == MESSY_SSA_REPORT
    assert (out / "ssa1990-1992.table.tsv").read_text(encoding="utf-8") == (
        "# name_type=first\tsource_id=ssa1990-1992\nanna\t5\t1\njohn\t0\t2\nmary\t10\t0\n"
    )


def test_synthetic_run_report_txt_and_json_bytes(tmp_path):
    """The criterion-8 run of the acceptance suite, rendered as text and JSON."""
    out = tmp_path / "run"
    mock_spec = f"mock:{DATA / 'mock_predictions.json'}"
    assert cli.main([
        "ingest", "--csv", str(DATA / "synthetic_names.csv"),
        "--name-col", "name", "--gender-col", "gender", "--count-col", "count",
        "--source-id", "synth", "--out-dir", str(out),
    ]) == 0
    assert cli.main([
        "split", str(out / "synth.table.tsv"), "--test-fraction", "0.1", "--seed", "7", "--out-dir", str(out),
    ]) == 0
    testset = str(out / "synth.test.tsv")
    assert cli.main(["eval", "--test", testset, "--inferrer", mock_spec, "--out-dir", str(out)]) == 0
    assert cli.main([
        "eval", "--test", testset, "--inferrer", mock_spec, "--format", "structured", "--out-dir", str(out),
    ]) == 0
    assert (out / "report.tsv").read_bytes() == (DATA / "golden_report.tsv").read_bytes()
    assert (out / "report.txt").read_bytes() == (DATA / "golden_report.txt").read_bytes()
    assert (out / "report.json").read_bytes() == (DATA / "golden_report.json").read_bytes()
