"""Command-line interface.

Subcommands: ingest, combine, stats, split, train, infer, eval, analyze.
Every command that writes artifacts returns what main needs to write a run
manifest (command line, input digests, seed, version, timestamp) next to them. All
randomness flows through the single --seed value recorded in the manifest,
so any command is byte-reproducible from identical inputs and seed; the
manifest itself is the only file carrying a timestamp.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import logging
import sys
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Callable, Iterator, Sequence, TextIO

from . import __version__
from . import analysis, corpus, evaluation, mle
from .corpus import CsvSchema, NameType
from .ensemble import (
    DEFAULT_DEFER_BAND,
    TwoStageConfig,
    TwoStageInferrer,
    VotingConfig,
    VotingInferrer,
)
from .inferrers import (
    AdapterUnreachableError,
    ExternalAdapterConfig,
    HttpAdapter,
    Inferrer,
    MleInferrer,
    MockInferrer,
    parse_adapter_config,
    parse_kv_file,
)

logger = logging.getLogger("namegender")

_FORMATS = ("tsv", "structured")


def _format(text: str) -> str:
    if text not in _FORMATS:
        raise ValueError(f"expected one of {', '.join(_FORMATS)}, got {text!r}")
    return text


# option -> (parser for --config values, built-in default)
_CONFIG_KEYS = {
    "seed": (int, None),
    "out_dir": (str, "."),
    "format": (_format, "tsv"),
    "tau": (float, mle.DEFAULT_TAU),
    "test_fraction": (float, 0.1),
    "bins": (int, None),
}

# A command's (out_dir, name, inputs, configs): main writes the run manifest once the command's data is freed
_Manifest = tuple[Path, str, Sequence[str | Path], Sequence[str | Path]]


def _sha256(path: str | Path) -> str:
    import hashlib  # loads OpenSSL (about 3.6 MB of RSS), which only a manifest needs

    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 16), b""):
            digest.update(block)
    return digest.hexdigest()


def _write_manifest(args: argparse.Namespace, manifest: _Manifest) -> None:
    from datetime import datetime, timezone  # about 0.6 MB of RSS, which only the timestamp needs

    out_dir, name, inputs, configs = manifest
    document = {
        "command": list(args._argv),
        "seed": args.seed,
        "tool_version": __version__,
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "input_digests": {str(p): _sha256(p) for p in inputs},
        "config_digests": {str(p): _sha256(p) for p in configs},
    }
    (out_dir / f"{name}.manifest.json").write_text(json.dumps(document, indent=2, sort_keys=True) + "\n", encoding="utf-8")


# --- inferrer specs -----------------------------------------------------------
#
# SPEC := [id=]kind:arg
#   mle:MODEL_FILE        trained frequency model
#   mock:JSON_FILE        fixed name -> prediction map
#   http:CONFIG_FILE      external service adapter
#   twostage:CONFIG_FILE  two-stage ensemble (see _build_twostage)


def _model(path: str | Path, models: dict[Path, mle.MleModel]) -> mle.MleModel:
    """The model in the file at path, read once per command: models maps each resolved path to its model."""
    key = Path(path).resolve()
    if key not in models:
        models[key] = mle.load_model(path)
    return models[key]


def _build_twostage(path: str, id: str | None, config_paths: list[Path], models: dict[Path, mle.MleModel]) -> Inferrer:
    """Two-stage config file keys:

    model = MODEL_FILE            stage-1 frequency model
    band = 0.25, 0.75             defer band (optional)
    fallback = SPEC               single fallback inferrer, or
    voters = SPEC; SPEC; SPEC     exactly three voting fallbacks
    id = NAME                     optional inferrer id
    """
    fields = parse_kv_file(path)
    if "model" not in fields:
        raise ValueError(f"{path}: two-stage config requires model =")
    base = Path(path).parent
    model_path = (base / fields["model"]).resolve() if not Path(fields["model"]).is_absolute() else Path(fields["model"])
    config_paths.append(Path(model_path))
    model = _model(model_path, models)
    band = DEFAULT_DEFER_BAND
    if "band" in fields:
        try:
            lo, hi = (float(x) for x in fields["band"].split(","))
            valid = 0.0 <= lo < hi <= 1.0
        except ValueError:
            valid = False
        if not valid:
            raise ValueError(f"{path}: band = {fields['band']}: expected two numbers lo, hi with 0 <= lo < hi <= 1")
        band = (lo, hi)
    if "voters" in fields:
        voters = tuple(
            build_inferrer(spec.strip(), config_paths, models) for spec in fields["voters"].split(";")
        )
        if len(voters) != 3:
            raise ValueError(f"{path}: voters must list exactly 3 specs")
        fallback: Inferrer = VotingInferrer(VotingConfig(voters))  # type: ignore[arg-type]
    elif "fallback" in fields:
        fallback = build_inferrer(fields["fallback"], config_paths, models)
    else:
        raise ValueError(f"{path}: two-stage config requires fallback = or voters =")
    spec_id = id or fields.get("id")
    return TwoStageInferrer(TwoStageConfig(model, fallback, band), id=spec_id)


def build_inferrer(
    spec: str, config_paths: list[Path] | None = None, models: dict[Path, mle.MleModel] | None = None
) -> Inferrer:
    """Construct an inferrer from a [id=]kind:arg spec string; specs built with one
    models map (resolved path -> model) share one model per file, so a command passes all its specs one map."""
    if config_paths is None:
        config_paths = []
    if models is None:
        models = {}
    id = None
    if "=" in spec.split(":", 1)[0]:
        id, spec = spec.split("=", 1)
    kind, sep, arg = spec.partition(":")
    if not sep:
        raise ValueError(f"bad inferrer spec {spec!r} (expected kind:arg)")
    if kind not in ("mle", "mock", "http", "twostage"):
        raise ValueError(f"unknown inferrer kind {kind!r}")
    config_paths.append(Path(arg))
    if kind == "mle":
        return MleInferrer(_model(arg, models), id=id)
    if kind == "mock":
        return MockInferrer.from_json(arg, id=id)
    if kind == "twostage":
        return _build_twostage(arg, id, config_paths, models)
    config = parse_adapter_config(arg)
    # _replace would skip the config's checks
    return HttpAdapter(config if id is None else ExternalAdapterConfig(**{**config._asdict(), "id": id}))


# --- commands -----------------------------------------------------------------


def _write_ingest_report(report: corpus.IngestReport, path: Path) -> None:
    lines = [f"# ingest-report\tsource={report.source}"]
    lines.append(f"total_rows\t{report.total_rows}")
    lines.append(f"retained\t{report.retained}")
    for reason in corpus.Rejection:
        lines.append(f"rejected.{reason.value}\t{report.rejections.get(reason, 0)}")
    lines.append(f"unmappable_gender\t{report.unmappable_gender}")
    lines.append(f"malformed\t{len(report.malformed)}")
    for line_no, message in report.malformed:
        lines.append(f"malformed.line\t{line_no}\t{message}")
    for year in report.missing_years:
        lines.append(f"missing_year\t{year}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _out_dir(path: str | Path) -> Path:
    """The directory at path, created if missing."""
    path = Path(path)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _parse_years(text: str) -> range:
    start, sep, end = text.partition("-")
    if not sep:
        year = int(start)
        return range(year, year + 1)
    return range(int(start), int(end) + 1)


def cmd_ingest(args: argparse.Namespace) -> _Manifest:
    out_dir = _out_dir(args.out_dir)
    if args.csv:
        if not args.name_col or not args.gender_col:
            raise ValueError("--csv requires --name-col and --gender-col")
        schema = CsvSchema(args.name_col, args.gender_col, args.count_col)
        table, report = corpus.ingest_labeled_csv(
            args.csv,
            schema,
            name_type=NameType(args.name_type),
            source_id=args.source_id,
        )
        inputs = [args.csv]
    else:
        if not args.years:
            raise ValueError("--ssa-dir requires --years")
        years = _parse_years(args.years)
        table, report = corpus.ingest_ssa_years(args.ssa_dir, years, source_id=args.source_id)
        inputs = sorted(str(p) for p in (Path(args.ssa_dir) / f"yob{y}.txt" for y in years) if p.exists())
    table_path = out_dir / f"{table.source_id}.table.tsv"
    corpus.write_table(table, table_path)
    _write_ingest_report(report, out_dir / f"{table.source_id}.ingest-report.tsv")
    logger.info("ingested %s: %d unique names, %d records retained, %d dropped",
                table.source_id, len(table), report.retained, report.total_rows - report.retained)
    return out_dir, "ingest", inputs, ()


def cmd_combine(args: argparse.Namespace) -> _Manifest:
    out_dir = _out_dir(args.out_dir)
    tables = []
    for path in args.tables:
        table = corpus.read_table(path)
        if table.name_type is NameType.FULL:
            if not args.split_full:
                raise ValueError(f"{path}: full-name table; rerun with --split-full")
            table = corpus.to_first_names(table)
        tables.append(table)
    merged = corpus.merge_tables(tables)
    if args.id:
        merged = corpus.FrequencyTable(merged.entries, merged.name_type, args.id)
    corpus.write_table(merged, out_dir / f"{merged.source_id}.table.tsv")
    logger.info("combined %d tables into %s (%d unique names)", len(tables), merged.source_id, len(merged))
    return out_dir, "combine", args.tables, ()


def cmd_stats(args: argparse.Namespace) -> _Manifest:
    out_dir = _out_dir(args.out_dir)
    tables = [corpus.read_table(p) for p in args.tables]
    document: dict[str, list[dict]] = {
        "datasets": [
            {"source_id": t.source_id, "name_type": t.name_type.value, **corpus.dataset_stats(t)._asdict()}
            for t in tables
        ]
    }
    if len(tables) >= 2:
        uniqueness = corpus.cross_dataset_uniqueness(tables)
        document["uniqueness"] = [
            {"source_id": t.source_id, "unique_across_all": c, "percentage": pct}
            for t, (c, pct) in zip(tables, uniqueness)
        ]
        overlap = corpus.pairwise_overlap(tables)
        document["overlap"] = [
            {"source_id": t.source_id, "cells": [{"count": c, "percentage": pct} for c, pct in row]}
            for t, row in zip(tables, overlap)
        ]

    if args.format == "structured":
        (out_dir / "stats.json").write_text(json.dumps(document, indent=2) + "\n", encoding="utf-8")
    else:
        datasets = document["datasets"]
        tsv = {"stats.tsv": ["\t".join(datasets[0])] + ["\t".join(map(str, d.values())) for d in datasets]}
        if "uniqueness" in document:
            tsv["uniqueness.tsv"] = ["source_id\tunique_across_all\tpercentage"] + [
                f"{u['source_id']}\t{u['unique_across_all']}\t{u['percentage']:.2f}" for u in document["uniqueness"]
            ]
            tsv["overlap.tsv"] = ["source_id\t" + "\t".join(t.source_id for t in tables)] + [
                o["source_id"] + "\t" + "\t".join(f"{c['count']} ({c['percentage']:.1f}%)" for c in o["cells"])
                for o in document["overlap"]
            ]
        for filename, lines in tsv.items():
            (out_dir / filename).write_text("\n".join(lines) + "\n", encoding="utf-8")

    if args.bins:
        for table in tables:
            try:
                hist = corpus.ambiguity_histogram(table, args.bins)
            except ValueError as exc:
                logger.warning("skipping ambiguity histogram: %s", exc)
                continue
            lines = [
                f"# ambiguity\tsource={table.source_id}\tcount={hist.count}"
                f"\tp25={hist.p25:.6f}\tp50={hist.p50:.6f}\tp75={hist.p75:.6f}",
                "bin_lo\tbin_hi\tpercentage",
            ]
            for i, pct in enumerate(hist.percentages):
                lines.append(f"{hist.bin_edges[i]:.6f}\t{hist.bin_edges[i + 1]:.6f}\t{pct:.4f}")
            (out_dir / f"ambiguity-{table.source_id}.tsv").write_text(
                "\n".join(lines) + "\n", encoding="utf-8"
            )
    return out_dir, "stats", args.tables, ()


def cmd_split(args: argparse.Namespace) -> _Manifest:
    if args.seed is None:
        raise ValueError("split requires --seed")
    out_dir = _out_dir(args.out_dir)
    table = corpus.read_table(args.table)
    result = evaluation.split_dataset(table, args.test_fraction, args.seed)
    corpus.write_table(result.train, out_dir / f"{result.train.source_id}.table.tsv")
    evaluation.write_testset(result.test, out_dir / f"{result.test.id}.test.tsv")
    ties_path = out_dir / f"{result.test.id}.ties.txt"
    ties_path.write_text("".join(f"{name}\n" for name in result.ties), encoding="utf-8")
    logger.info(
        "split %s: %d train, %d test, %d tied names excluded",
        table.source_id,
        len(result.train),
        result.test.size,
        len(result.ties),
    )
    return out_dir, "split", [args.table], ()


def cmd_train(args: argparse.Namespace) -> _Manifest:
    out_dir = _out_dir(args.out_dir)
    table = corpus.read_table(args.table)
    model = mle.train(table, args.tau, args.model_id)
    model_path = out_dir / f"{table.source_id}.model.tsv"
    mle.save_model(model, model_path)
    logger.info("trained %s on %d names (tau=%g)", model.model_id, len(table), model.tau)
    return out_dir, "train", [args.table], ()


# Characters read per block of infer input, about 1k names: infer holds the
# model and one block, and writes each block's lines before reading on.
_BLOCK_CHARS = 1 << 13
# Prediction objects whose output text infer keeps across blocks; past this
# many the cache starts over, so inferrers that build new objects per block
# do not grow it.
_FORMAT_CACHE_LIMIT = 1 << 14


def _name_blocks(source: TextIO) -> Iterator[list[str]]:
    """The stripped, non-blank lines of source, one list per block read.

    Lines end at "\n", "\r\n" or "\r" (stdin does not translate them to "\n"
    as a file read does; "\r\n" leaves a blank line, which is dropped).
    splitlines would also break names at \x0b, \x0c, \x1c-\x1e, \x85, \u2028, \u2029.
    A line cut by the end of a block is carried into the next block.
    """
    tail = ""
    while True:
        block = source.read(_BLOCK_CHARS)
        lines = (tail + block).replace("\r", "\n").split("\n")
        tail = lines.pop() if block else ""
        names = [name for name in map(str.strip, lines) if name]
        if names:
            yield names
        if not block:
            return


def _line_formatter(structured: bool) -> Callable[[Sequence[str], Sequence[mle.Prediction]], str]:
    """A function giving infer's output lines for one block, without the TSV header.

    The text around each name is formatted once per Prediction object: repeated
    names and unknowns share one object (see MleInferrer). The cache holds each
    Prediction it keys by id(), so the keys stay distinct.
    A structured line equals json.dumps(record, sort_keys=True): json writes a
    float (finite, as Prediction checks) as float.__repr__, and a mock's 1,
    true or null as json.dumps does.
    """
    if structured:
        def parts(p: mle.Prediction) -> tuple[mle.Prediction, str, str]:
            pf = p.p_female
            p_json = float.__repr__(pf) if isinstance(pf, float) else json.dumps(pf)
            return (p, f'{{"label": "{p.label.value}", "name": ',
                    f', "p_female": {p_json}, "source": {json.dumps(p.source)}}}\n')
        encode = encode_basestring_ascii
    else:
        def parts(p: mle.Prediction) -> tuple[mle.Prediction, str, str]:
            p_cell = "NA" if p.p_female is None else f"{p.p_female:.6f}"
            return p, "", f"\t{p.label.value}\t{p_cell}\t{p.source}\n"
        encode = str
    cache: dict[int, tuple[mle.Prediction, str, str]] = {}

    def format_block(names: Sequence[str], predictions: Sequence[mle.Prediction]) -> str:
        if len(cache) > _FORMAT_CACHE_LIMIT:
            cache.clear()
        lines = []
        for n, p in zip(names, predictions):
            entry = cache.get(id(p))
            if entry is None:
                entry = cache[id(p)] = parts(p)
            lines.append(entry[1] + encode(n) + entry[2])
        return "".join(lines)

    return format_block


def cmd_infer(args: argparse.Namespace) -> _Manifest | None:
    spec = f"mle:{args.model}" if args.model else args.inferrer
    if not spec:
        raise ValueError("infer requires --model or --inferrer")
    config_paths: list[Path] = []
    inferrer = build_inferrer(spec, config_paths)
    format_block = _line_formatter(args.format == "structured")
    out_path = Path(args.out) if args.out else None
    sink = None
    with contextlib.ExitStack() as stack:
        source = sys.stdin if args.names == "-" else stack.enter_context(open(args.names, encoding="utf-8"))
        try:
            for names in _name_blocks(source):
                text = format_block(names, inferrer.infer_batch(names))
                if sink is None:
                    if out_path is None:
                        sink = sys.stdout
                    else:
                        _out_dir(out_path.parent)
                        sink = stack.enter_context(open(out_path, "w", encoding="utf-8"))
                    if args.format != "structured":
                        sink.write("name\tlabel\tp_female\tsource\n")
                sink.write(text)
                sink.flush()
        except BaseException:
            # a failed run leaves no partial --out file behind
            if sink is not None and out_path is not None:
                sink.close()
                out_path.unlink(missing_ok=True)
            raise
    if sink is None:
        raise ValueError("no names to infer")
    if out_path is None:
        return None
    return out_path.parent, "infer", [] if args.names == "-" else [Path(args.names)], config_paths


def _tie_notes(inferrers: Sequence[Inferrer]) -> list[str]:
    """A note per two-stage inferrer whose voting fallback counted ties (specs build voting only there)."""
    return [
        f"{inferrer.id}: vote ties = {inferrer.config.fallback.tie_count}"
        for inferrer in inferrers
        if isinstance(inferrer, TwoStageInferrer)
        and isinstance(inferrer.config.fallback, VotingInferrer)
        and inferrer.config.fallback.tie_count
    ]


def cmd_eval(args: argparse.Namespace) -> _Manifest:
    out_dir = _out_dir(args.out_dir)
    testsets = [evaluation.read_testset(p) for p in args.test]
    config_paths: list[Path] = []
    models: dict[Path, mle.MleModel] = {}
    inferrers = [build_inferrer(spec, config_paths, models) for spec in args.inferrer]
    skip: dict[str, set[str]] = {}
    for item in args.na or []:
        inferrer_id, sep, dataset_id = item.partition("=")
        if not sep:
            raise ValueError(f"bad --na value {item!r} (expected inferrer=dataset)")
        skip.setdefault(inferrer_id, set()).add(dataset_id)
    report = evaluation.evaluate_run(testsets, inferrers, skip)
    report.notes.extend(_tie_notes(inferrers))
    if args.format == "structured":
        document = {"records": report.to_records(), "notes": report.notes}
        (out_dir / "report.json").write_text(json.dumps(document, indent=2) + "\n", encoding="utf-8")
    else:
        (out_dir / "report.tsv").write_text(report.to_tsv(), encoding="utf-8")
        (out_dir / "report.txt").write_text(report.to_text(), encoding="utf-8")
    return out_dir, "eval", args.test, config_paths


def cmd_analyze(args: argparse.Namespace) -> _Manifest:
    out_dir = _out_dir(args.out_dir)
    testset = evaluation.read_testset(args.test)
    config_paths: list[Path] = []
    inferrer = build_inferrer(args.inferrer, config_paths)
    predictions = inferrer.infer_batch([name for name, _ in testset.names])
    rated = analysis.assign_rate_types(testset, predictions)
    if not rated:
        raise ValueError("no decided predictions to analyze")
    analysis.write_length_export(analysis.length_histograms(rated), out_dir / "lengths.tsv")
    analysis.write_non_english_export(rated, out_dir / "non_english.tsv")
    for n, filename in ((2, "bigrams.tsv"), (3, "trigrams.tsv")):
        try:
            inventory = analysis.ngram_inventory(rated, n)
        except ValueError as exc:
            logger.warning("skipping %s: %s", filename, exc)
            continue
        analysis.write_ngram_export(inventory, out_dir / filename)
    return out_dir, "analyze", [args.test], config_paths


# --- argument parsing ---------------------------------------------------------


def _common_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=None, help="seed for any randomness")
    parser.add_argument("--config", default=None, help="key=value file of default option values")
    parser.add_argument("--out-dir", default=None, help="directory for output artifacts")
    parser.add_argument(
        "--format", choices=_FORMATS, default=None, help="output format"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="namegender",
        description="Build name-gender frequency models, infer, and evaluate inferrers.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="build a frequency table from a labeled corpus")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--csv", help="labeled CSV file (header row required)")
    group.add_argument("--ssa-dir", help="directory of yobYYYY.txt files")
    p.add_argument("--name-col", help="CSV column holding the name")
    p.add_argument("--gender-col", help="CSV column holding the gender tag")
    p.add_argument("--count-col", help="CSV column holding an occurrence count")
    p.add_argument("--name-type", choices=("first", "full"), default="first")
    p.add_argument("--years", help="year range for --ssa-dir, e.g. 1937-1999")
    p.add_argument("--source-id", help="identifier recorded in the table header")
    _common_flags(p)
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("combine", help="merge first-name tables by adding counts")
    p.add_argument("tables", nargs="+", help="table files to merge")
    p.add_argument("--id", help="source id for the merged table")
    p.add_argument("--split-full", action="store_true", help="reduce full-name tables to first names")
    _common_flags(p)
    p.set_defaults(func=cmd_combine)

    p = sub.add_parser("stats", help="dataset statistics, uniqueness, and overlap")
    p.add_argument("tables", nargs="+", help="table files")
    p.add_argument("--bins", type=int, default=None, help="also export ambiguity histograms")
    _common_flags(p)
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("split", help="split a table into train table and test set")
    p.add_argument("table", help="table file")
    p.add_argument("--test-fraction", type=float, default=None)
    _common_flags(p)
    p.set_defaults(func=cmd_split)

    p = sub.add_parser("train", help="train a thresholded frequency model")
    p.add_argument("table", help="table file")
    p.add_argument("--tau", type=float, default=None, help="decision threshold")
    p.add_argument("--model-id", default=None)
    _common_flags(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("infer", help="label names from a file or standard input")
    p.add_argument("names", help="file of names, one per line, or - for stdin")
    p.add_argument("--model", help="model file (shorthand for an mle: spec)")
    p.add_argument("--inferrer", help="inferrer spec [id=]kind:arg")
    p.add_argument("--out", help="write predictions to this file instead of stdout")
    _common_flags(p)
    p.set_defaults(func=cmd_infer)

    p = sub.add_parser("eval", help="score inferrers against labeled test sets")
    p.add_argument("--test", action="append", required=True, help="test-set file (repeatable)")
    p.add_argument("--inferrer", action="append", required=True, help="inferrer spec (repeatable)")
    p.add_argument(
        "--na",
        action="append",
        help="inferrer=dataset cell to mark NA (e.g. trained on that data)",
    )
    _common_flags(p)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("analyze", help="error analysis exports for one inferrer")
    p.add_argument("--test", required=True, help="test-set file")
    p.add_argument("--inferrer", required=True, help="inferrer spec")
    _common_flags(p)
    p.set_defaults(func=cmd_analyze)

    return parser


def _apply_config(args: argparse.Namespace) -> None:
    """Fill unset options from --config values, then built-in defaults.

    Every --config value is checked as its flag's would be, used or not."""
    config: dict[str, object] = {}
    keys: dict[str, str] = {}  # option -> the config key that set it
    if args.config:
        for key, value in parse_kv_file(args.config).items():
            attr = key.replace("-", "_")
            if attr not in _CONFIG_KEYS:
                raise ValueError(f"{args.config}: unknown config key {key!r}")
            if keys.setdefault(attr, key) != key:
                raise ValueError(f"{args.config}: config keys {keys[attr]!r} and {key!r} set one option")
            try:
                config[attr] = _CONFIG_KEYS[attr][0](value)
            except ValueError as exc:
                raise ValueError(f"{args.config}: config key {key!r}: {exc}") from None
    for attr, (_, builtin) in _CONFIG_KEYS.items():
        if hasattr(args, attr) and getattr(args, attr) is None:
            setattr(args, attr, config.get(attr, builtin))


def main(argv: Sequence[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(message)s", stream=sys.stderr)
    parser = build_parser()
    args = parser.parse_args(argv)
    args._argv = ["namegender", *argv]
    try:
        _apply_config(args)
        manifest = args.func(args)
        if manifest is not None:
            _write_manifest(args, manifest)
        return 0
    except (ValueError, OSError, AdapterUnreachableError) as exc:
        print(f"namegender: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
