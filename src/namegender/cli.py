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
import importlib.util
import sys
import time
from pathlib import Path
from types import ModuleType
from typing import Callable, Iterator, Sequence, TextIO

from . import __version__, corpus
from .corpus import NameType, log


def _lazy(name: str) -> ModuleType:
    """The package's module name, compiled and run on its first attribute access.

    So a command executes only the modules it uses. A module already imported
    is returned as it is, so its classes keep their identity."""
    fullname = f"{__package__}.{name}"
    module = sys.modules.get(fullname)
    if module is None:
        spec = importlib.util.find_spec(fullname)
        spec.loader = importlib.util.LazyLoader(spec.loader)
        module = sys.modules[fullname] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        setattr(sys.modules[__package__], name, module)
    return module


analysis, ensemble, evaluation, inferrers, mle = map(_lazy, ("analysis", "ensemble", "evaluation", "inferrers", "mle"))

_FORMATS = ("tsv", "structured")


def _format(text: str) -> str:
    if text not in _FORMATS:
        raise ValueError(f"expected one of {', '.join(_FORMATS)}, got {text!r}")
    return text


class _BadValue(argparse.ArgumentTypeError, ValueError):
    """A refused option value: argparse's usage error gives its reason, as parse_kv_file's error does."""


def _bins(text: str) -> int:
    bins = int(text)
    if bins < 2:
        raise _BadValue(f"expected at least 2 bins, got {bins}")
    return bins


# option -> (parser for --config values, built-in default)
_CONFIG_KEYS = {
    "seed": (int, None),
    "out_dir": (str, "."),
    "format": (_format, "tsv"),
    "tau": (float, None),  # train falls back to mle.DEFAULT_TAU
    "test_fraction": (float, 0.1),
    "bins": (_bins, None),
}
# --config key -> its value's parser; an option's key is its name, spelled with "_" or "-"
_CONFIG_FILE_KEYS = {key: parse for attr, (parse, _) in _CONFIG_KEYS.items() for key in (attr, attr.replace("_", "-"))}

# A command's (out_dir, inputs, configs): main writes the run manifest once the command's data is freed
_Manifest = tuple[Path, Sequence[str | Path], Sequence[str | Path]]


def _timestamp(time_ns: int) -> str:
    """The UTC time time_ns nanoseconds after the epoch, as datetime's isoformat() writes it, without datetime's import."""
    seconds, micros = divmod(time_ns // 1000, 1_000_000)
    return time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime(seconds)) + (f".{micros:06d}" if micros else "") + "+00:00"


def _write_manifest(args: argparse.Namespace, manifest: _Manifest) -> None:
    import json

    out_dir, inputs, configs = manifest
    if args.config:
        configs = [*configs, args.config]
    digests = {p: corpus.file_sha256(p) for p in dict.fromkeys(map(str, [*inputs, *configs]))}  # each distinct file hashed once
    document = {
        "command": list(args._argv),
        "seed": args.seed,
        "tool_version": __version__,
        "timestamp": _timestamp(time.time_ns()),
        "input_digests": {str(p): digests[str(p)] for p in inputs},
        "config_digests": {str(p): digests[str(p)] for p in configs},
    }
    (out_dir / f"{args.command}.manifest.json").write_text(json.dumps(document, indent=2, sort_keys=True) + "\n", encoding="utf-8")


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


def _out_dir(path: str | Path, command: str) -> Path:
    """The directory at path, created if missing, without the command's manifest: a command calls it just
    before it writes its first output, so a run that fails from then on leaves no manifest of an earlier run."""
    path = Path(path)
    path.mkdir(parents=True, exist_ok=True)
    (path / f"{command}.manifest.json").unlink(missing_ok=True)
    return path


def _parse_years(text: str) -> range:
    start, sep, end = text.partition("-")
    with contextlib.suppress(ValueError):
        if years := range(int(start), int(end if sep else start) + 1):
            return years
    raise _BadValue(f"expected YEAR or FIRST-LAST with FIRST <= LAST, got {text!r}")


def cmd_ingest(args: argparse.Namespace) -> _Manifest:
    if args.csv:
        if not args.name_col or not args.gender_col:
            raise ValueError("--csv requires --name-col and --gender-col")
        table, report = corpus.ingest_labeled_csv(args.csv, args.name_col, args.gender_col, args.count_col,
                                                  name_type=NameType(args.name_type), source_id=args.source_id)
        inputs = [args.csv]
    else:
        if not args.years:
            raise ValueError("--ssa-dir requires --years")
        table, report = corpus.ingest_ssa_years(args.ssa_dir, args.years, source_id=args.source_id)
        inputs = sorted(str(Path(args.ssa_dir) / f"yob{y}.txt") for y in args.years if y not in report.missing_years)
    out_dir = _out_dir(args.out_dir, args.command)
    corpus.write_table(table, out_dir / f"{table.source_id}.table.tsv")
    _write_ingest_report(report, out_dir / f"{table.source_id}.ingest-report.tsv")
    log("INFO", f"ingested {table.source_id}: {len(table)} unique names, {report.retained} records retained, "
                f"{report.total_rows - report.retained} dropped")
    return out_dir, inputs, ()


def cmd_combine(args: argparse.Namespace) -> _Manifest:
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
    out_dir = _out_dir(args.out_dir, args.command)
    corpus.write_table(merged, out_dir / f"{merged.source_id}.table.tsv")
    log("INFO", f"combined {len(tables)} tables into {merged.source_id} ({len(merged)} unique names)")
    return out_dir, args.tables, ()


def cmd_stats(args: argparse.Namespace) -> _Manifest:
    tables = [corpus.read_table(p) for p in args.tables]
    out_dir = _out_dir(args.out_dir, args.command)
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
        import json
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
                log("WARNING", f"skipping ambiguity histogram: {exc}")
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
    return out_dir, args.tables, ()


def cmd_split(args: argparse.Namespace) -> _Manifest:
    if args.seed is None:
        raise ValueError("split requires --seed")
    table = corpus.read_table(args.table)
    result = evaluation.split_dataset(table, args.test_fraction, args.seed)
    out_dir = _out_dir(args.out_dir, args.command)
    corpus.write_table(result.train, out_dir / f"{result.train.source_id}.table.tsv")
    evaluation.write_testset(result.test, out_dir / f"{result.test.id}.test.tsv")
    ties_path = out_dir / f"{result.test.id}.ties.txt"
    ties_path.write_text("".join(f"{name}\n" for name in result.ties), encoding="utf-8")
    log("INFO", f"split {table.source_id}: {len(result.train)} train, {result.test.size} test, "
                f"{len(result.ties)} tied names excluded")
    return out_dir, [args.table], ()


def cmd_train(args: argparse.Namespace) -> _Manifest:
    table = corpus.read_table(args.table)
    model = mle.train(table, mle.DEFAULT_TAU if args.tau is None else args.tau, args.model_id)
    out_dir = _out_dir(args.out_dir, args.command)
    mle.save_model(model, out_dir / f"{table.source_id}.model.tsv")
    log("INFO", f"trained {model.model_id} on {len(table)} names (tau={model.tau:g})")
    return out_dir, [args.table], ()


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

    The text after each name is formatted once per Prediction object: an MLE
    inferrer gives equal answers one object, and unknowns share one (see
    inferrers.py). The text before it is one string per label. The cache holds
    each Prediction it keys by id(), so the keys stay distinct. It is not keyed
    by value: a mock's p_female of 1, 1.0 and true are equal but print differently.
    A structured line equals json.dumps(record, sort_keys=True): json writes a
    float (finite, as Prediction checks) as float.__repr__, and a mock's 1,
    true or null as json.dumps does.
    """
    if structured:
        import json
        heads = {label: f'{{"label": "{label.value}", "name": ' for label in mle.GenderLabel}

        def parts(p: mle.Prediction) -> tuple[mle.Prediction, str, str]:
            pf = p.p_female
            p_json = float.__repr__(pf) if isinstance(pf, float) else json.dumps(pf)
            return p, heads[p.label], f', "p_female": {p_json}, "source": {json.dumps(p.source)}}}\n'
        encode = json.encoder.encode_basestring_ascii
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
    [inferrer], config_paths = ensemble.build_inferrers([spec])
    format_block = _line_formatter(args.format == "structured")
    out_path = Path(args.out) if args.out else None
    sink = None
    with contextlib.ExitStack() as stack:
        source = sys.stdin if args.names == "-" else stack.enter_context(open(args.names, encoding="utf-8-sig"))
        try:
            for names in _name_blocks(source):
                text = format_block(names, inferrer.infer_batch(names))
                if sink is None:
                    if out_path is None:
                        sink = sys.stdout
                    else:
                        _out_dir(out_path.parent, args.command)
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
    return out_path.parent, [] if args.names == "-" else [Path(args.names)], config_paths


def cmd_eval(args: argparse.Namespace) -> _Manifest:
    testsets = [evaluation.read_testset(p) for p in args.test]
    run, config_paths = ensemble.build_inferrers(args.inferrer)
    skip: dict[str, set[str]] = {}
    for item in args.na or []:
        inferrer_id, sep, dataset_id = item.partition("=")
        if not sep:
            raise ValueError(f"bad --na value {item!r} (expected inferrer=dataset)")
        skip.setdefault(inferrer_id, set()).add(dataset_id)
    report = evaluation.evaluate_run(testsets, run, skip)
    out_dir = _out_dir(args.out_dir, args.command)
    if args.format == "structured":
        import json
        document = {"records": report.to_records(), "notes": report.notes}
        (out_dir / "report.json").write_text(json.dumps(document, indent=2) + "\n", encoding="utf-8")
    else:
        (out_dir / "report.tsv").write_text(report.to_tsv(), encoding="utf-8")
        (out_dir / "report.txt").write_text(report.to_text(), encoding="utf-8")
    return out_dir, args.test, config_paths


def cmd_analyze(args: argparse.Namespace) -> _Manifest:
    testset = evaluation.read_testset(args.test)
    [inferrer], config_paths = ensemble.build_inferrers([args.inferrer])
    predictions = inferrer.infer_batch([name for name, _ in testset.names])
    groups = analysis.assign_rate_types(testset, predictions)
    if not any(groups.values()):
        raise ValueError("no decided predictions to analyze")
    out_dir = _out_dir(args.out_dir, args.command)
    analysis.write_length_export(analysis.length_histograms(groups), out_dir / "lengths.tsv")
    analysis.write_non_english_export(groups, out_dir / "non_english.tsv")
    for n, filename in ((2, "bigrams.tsv"), (3, "trigrams.tsv")):
        try:
            inventory = analysis.ngram_inventory(groups, n)
        except ValueError as exc:
            log("WARNING", f"skipping {filename}: {exc}")
            continue
        analysis.write_ngram_export(inventory, out_dir / filename)
    return out_dir, [args.test], config_paths


# --- argument parsing ---------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="namegender",
        description="Build name-gender frequency models, infer, and evaluate inferrers.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    # flags shared by several commands; each command takes only those it reads
    common, out_dir, fmt = (argparse.ArgumentParser(add_help=False) for _ in range(3))
    common.add_argument("--seed", type=int, default=None, help="seed for any randomness")
    common.add_argument("--config", default=None, help="key=value file of default option values")
    out_dir.add_argument("--out-dir", default=None, help="directory for output artifacts")
    fmt.add_argument("--format", choices=_FORMATS, default=None, help="output format")

    p = sub.add_parser("ingest", parents=[common, out_dir], help="build a frequency table from a labeled corpus")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--csv", help="labeled CSV file (header row required)")
    group.add_argument("--ssa-dir", help="directory of yobYYYY.txt files")
    p.add_argument("--name-col", help="CSV column holding the name")
    p.add_argument("--gender-col", help="CSV column holding the gender tag")
    p.add_argument("--count-col", help="CSV column holding an occurrence count")
    p.add_argument("--name-type", choices=("first", "full"), default="first")
    p.add_argument("--years", type=_parse_years, help="year range for --ssa-dir, e.g. 1937-1999")
    p.add_argument("--source-id", help="identifier recorded in the table header")
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("combine", parents=[common, out_dir], help="merge first-name tables by adding counts")
    p.add_argument("tables", nargs="+", help="table files to merge")
    p.add_argument("--id", help="source id for the merged table")
    p.add_argument("--split-full", action="store_true", help="reduce full-name tables to first names")
    p.set_defaults(func=cmd_combine)

    p = sub.add_parser("stats", parents=[common, out_dir, fmt], help="dataset statistics, uniqueness, and overlap")
    p.add_argument("tables", nargs="+", help="table files")
    p.add_argument("--bins", type=_bins, default=None, help="also export ambiguity histograms of this many (>= 2) bins")
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("split", parents=[common, out_dir], help="split a table into train table and test set")
    p.add_argument("table", help="table file")
    p.add_argument("--test-fraction", type=float, default=None)
    p.set_defaults(func=cmd_split)

    p = sub.add_parser("train", parents=[common, out_dir], help="train a thresholded frequency model")
    p.add_argument("table", help="table file")
    p.add_argument("--tau", type=float, default=None, help="decision threshold")
    p.add_argument("--model-id", default=None)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("infer", parents=[common, fmt], help="label names from a file or standard input")
    p.add_argument("names", help="file of names, one per line, or - for stdin")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--model", help="model file (shorthand for an mle: spec)")
    group.add_argument("--inferrer", help="inferrer spec [id=]kind:arg")
    p.add_argument("--out", help="write predictions to this file instead of stdout")
    p.set_defaults(func=cmd_infer)

    p = sub.add_parser("eval", parents=[common, out_dir, fmt], help="score inferrers against labeled test sets")
    p.add_argument("--test", action="append", required=True, help="test-set file (repeatable)")
    p.add_argument("--inferrer", action="append", required=True, help="inferrer spec (repeatable)")
    p.add_argument("--na", action="append", help="inferrer=dataset cell to mark NA (e.g. trained on that data)")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("analyze", parents=[common, out_dir], help="error analysis exports for one inferrer")
    p.add_argument("--test", required=True, help="test-set file")
    p.add_argument("--inferrer", required=True, help="inferrer spec")
    p.set_defaults(func=cmd_analyze)

    return parser


def _apply_config(args: argparse.Namespace) -> None:
    """Fill unset options from --config values, then built-in defaults.

    Every --config value is checked as its flag's would be, used or not."""
    config: dict[str, object] = {}
    keys: dict[str, str] = {}  # option -> the config key that set it
    if args.config:
        for key, value in corpus.parse_kv_file(args.config, _CONFIG_FILE_KEYS).items():
            attr = key.replace("-", "_")
            if keys.setdefault(attr, key) != key:
                raise ValueError(f"{args.config}: config keys {keys[attr]!r} and {key!r} set one option")
            config[attr] = value
    for attr, (_, builtin) in _CONFIG_KEYS.items():
        if hasattr(args, attr) and getattr(args, attr) is None:
            setattr(args, attr, config.get(attr, builtin))


def main(argv: Sequence[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = build_parser()
    args = parser.parse_args(argv)
    args._argv = ["namegender", *argv]
    try:
        _apply_config(args)
        manifest = args.func(args)
        if manifest is not None:
            _write_manifest(args, manifest)
        return 0
    except (ValueError, OSError) as exc:  # an unreachable endpoint is a ConnectionError
        print(f"namegender: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
