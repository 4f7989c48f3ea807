"""Output checks that compare the program's files with the generator's oracle.

Each check returns a list of problems; an empty list means the output is
correct. The expected values come from perfbench.gen, never from the
program under test, so a wrong answer cannot vouch for itself.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

from gen import REASONS, TAU, EvalOracle, IngestOracle, majority_label, threshold_label

METRIC_KEYS = ("accuracy", "precision", "recall", "f1", "gbe")


def read_table(path: Path) -> tuple[dict[str, str], dict[str, tuple[int, int]]]:
    """Parse a table or model file: (header fields, name -> (female, male))."""
    with path.open(encoding="utf-8") as fh:
        header = dict(item.partition("=")[::2] for item in fh.readline()[2:].rstrip("\n").split("\t"))
        entries = {}
        for line in fh:
            name, f, m = line.rstrip("\n").split("\t")
            entries[name] = (int(f), int(m))
    return header, entries


def _compare_counts(label: str, got: dict[str, tuple[int, int]], want: dict) -> list[str]:
    if len(got) != len(want):
        return [f"{label}: {len(got)} names, oracle has {len(want)}"]
    bad = [name for name, counts in want.items() if got.get(name) != tuple(counts)]
    if bad:
        return [f"{label}: {len(bad)} names differ from the oracle, e.g. {bad[0]!r}: {got.get(bad[0])} != {tuple(want[bad[0]])}"]
    return []


def check_table(path: Path, want: dict, name_type: str, source_id: str) -> list[str]:
    if not path.exists():
        return [f"{path.name}: missing"]
    header, entries = read_table(path)
    problems = _compare_counts(path.name, entries, want)
    if header.get("name_type") != name_type or header.get("source_id") != source_id:
        problems.append(f"{path.name}: header {header}")
    return problems


def check_ingest(out: Path, source_id: str, oracle: IngestOracle, name_type: str) -> list[str]:
    """The table and the ingest report's counts equal the oracle's."""
    problems = check_table(out / f"{source_id}.table.tsv", oracle.counts, name_type, source_id)
    report_path = out / f"{source_id}.ingest-report.tsv"
    if not report_path.exists():
        return problems + [f"{report_path.name}: missing"]
    fields = dict(line.split("\t", 1) for line in report_path.read_text(encoding="utf-8").splitlines()[1:])
    want = {
        "total_rows": oracle.total_rows,
        "retained": oracle.retained,
        "unmappable_gender": oracle.unmappable_gender,
        "malformed": 0,
        **{f"rejected.{reason}": oracle.rejections[reason] for reason in REASONS},
    }
    for key, value in want.items():
        if fields.get(key) != str(value):
            problems.append(f"{report_path.name}: {key} = {fields.get(key)}, oracle {value}")
    return problems


def merged(*tables: dict) -> dict[str, list[int]]:
    out: dict[str, list[int]] = {}
    for table in tables:
        for name, (f, m) in table.items():
            slot = out.setdefault(name, [0, 0])
            slot[0] += f
            slot[1] += m
    return out


def check_stats(out: Path, tables: dict[str, dict], bins: int) -> list[str]:
    """stats.tsv, uniqueness.tsv and each ambiguity histogram against the oracle."""
    problems = []
    lines = (out / "stats.tsv").read_text(encoding="utf-8").splitlines()[1:]
    rows = {line.split("\t")[0]: line.split("\t")[2:] for line in lines}
    keys = {sid: set(t) for sid, t in tables.items()}
    for sid, table in tables.items():
        ambiguous = sorted(f / (f + m) for f, m in table.values() if f and m)
        want = [sum(f + m for f, m in table.values()), len(table), len(table), 0, len(ambiguous)]
        if rows.get(sid) != [str(v) for v in want]:
            problems.append(f"stats.tsv {sid}: {rows.get(sid)} != {want}")
        hist = (out / f"ambiguity-{sid}.tsv").read_text(encoding="utf-8").splitlines()
        if f"count={len(ambiguous)}" not in hist[0].split("\t"):
            problems.append(f"ambiguity-{sid}.tsv: header {hist[0]!r}, oracle count {len(ambiguous)}")
        counts = [0] * bins
        for v in ambiguous:
            counts[min(int(v * bins), bins - 1)] += 1
        got = [float(line.split("\t")[2]) for line in hist[2:]]
        want_pct = [100.0 * c / len(ambiguous) for c in counts]
        if len(got) != bins or any(abs(a - b) > 1e-3 for a, b in zip(got, want_pct)):
            problems.append(f"ambiguity-{sid}.tsv: bins differ from the oracle")
    uniq = {line.split("\t")[0]: int(line.split("\t")[1]) for line in (out / "uniqueness.tsv").read_text(encoding="utf-8").splitlines()[1:]}
    for sid in tables:
        others = set().union(*(k for s, k in keys.items() if s != sid))
        if uniq.get(sid) != len(keys[sid] - others):
            problems.append(f"uniqueness.tsv {sid}: {uniq.get(sid)} != {len(keys[sid] - others)}")
    return problems


def read_testset(path: Path) -> tuple[str, list[tuple[str, str]]]:
    lines = path.read_text(encoding="utf-8").splitlines()
    return lines[0][len("# testset=") :], [tuple(line.split("\t")) for line in lines[1:] if line]  # type: ignore[misc]


def check_split(out: Path, source_id: str, table: dict, fraction: float) -> tuple[list[str], list[tuple[str, str]], dict]:
    """Train, test and ties partition the table; test labels are the
    oracle's majority genders. Returns (problems, test pairs, train counts)."""
    problems = []
    _, train = read_table(out / f"{source_id}-train.table.tsv")
    set_id, test = read_testset(out / f"{source_id}.test.tsv")
    ties = (out / f"{source_id}.ties.txt").read_text(encoding="utf-8").split()
    test_names = [name for name, _ in test]
    sampled = set(test_names) | set(ties)
    if set_id != source_id:
        problems.append(f"{source_id}.test.tsv: id {set_id!r}")
    if len(sampled) != round(len(table) * fraction) or sampled & set(train) or sampled | set(train) != set(table):
        problems.append(f"split of {source_id}: train/test/ties do not partition the table")
    wrong = [n for n, label in test if majority_label(*table.get(n, (1, 1))) != label]
    wrong += [n for n in ties if n not in table or table[n][0] != table[n][1]]
    if wrong:
        problems.append(f"split of {source_id}: {len(wrong)} test labels or ties disagree with the oracle, e.g. {wrong[0]!r}")
    problems += _compare_counts(f"{source_id}-train.table.tsv", train, {n: table[n] for n in table if n not in sampled})
    return problems, test, train


def check_model(path: Path, train: dict, source_id: str) -> list[str]:
    header, entries = read_table(path)
    problems = _compare_counts(path.name, entries, train)
    if header.get("tau") is None or float(header["tau"]) != TAU or header.get("source_id") != source_id:
        problems.append(f"{path.name}: header {header}")
    return problems


# --- eval and analyze -----------------------------------------------------------


def oracle_metrics(pairs: list[tuple[str, str]], predicted: list[str]) -> dict[str, float | None]:
    """The documented scoring rules, female positive, as percentages."""
    tf = tm = ff = fm = uf = 0
    for (_, observed), label in zip(pairs, predicted):
        if label == "female":
            tf += observed == "female"
            ff += observed == "male"
        elif label == "male":
            tm += observed == "male"
            fm += observed == "female"
        elif observed == "female":
            uf += 1
    total = len(pairs)
    precision = 100.0 * tf / (tf + ff) if tf + ff else None
    recall = 100.0 * tf / (tf + fm + uf) if tf + fm + uf else None
    f1 = 2 * precision * recall / (precision + recall) if precision is not None and recall is not None and precision + recall > 0 else None
    decided = tf + tm + ff + fm
    return {
        "accuracy": 100.0 * (tf + tm) / total,
        "precision": precision,
        "recall": recall,
        "f1": f1,
        "gbe": 100.0 * (ff - fm) / decided if decided else None,
    }


def _same(cell: str, value: float | None) -> bool:
    if value is None:
        return cell == "NA"
    return cell != "NA" and abs(float(cell) - value) <= 0.0051


def check_eval(report: Path, testsets: dict[str, list[tuple[str, str]]], oracle: EvalOracle, inferrers: tuple[str, ...]) -> list[str]:
    """Every report row, ALL rows included, equals the oracle's metrics to two decimals."""
    lines = report.read_text(encoding="utf-8").splitlines()
    rows = {(cells[0], cells[1]): cells[2:] for cells in (line.split("\t") for line in lines[1:])}
    problems = []
    if len(rows) != len(inferrers) * (len(testsets) + 1):
        problems.append(f"{report.name}: {len(rows)} rows")
    for inferrer in inferrers:
        sums = {key: [0.0, 0] for key in METRIC_KEYS}
        for set_id, pairs in testsets.items():
            values = oracle_metrics(pairs, [oracle.predict(inferrer, name) for name, _ in pairs])
            cells = rows.get((inferrer, set_id))
            if cells is None or cells[0] != str(len(pairs)) or not all(_same(c, values[k]) for c, k in zip(cells[1:], METRIC_KEYS)):
                problems.append(f"{report.name} {inferrer}/{set_id}: {cells} != oracle {values}")
            for key in METRIC_KEYS:
                if values[key] is not None:
                    sums[key][0] += values[key] * len(pairs)
                    sums[key][1] += len(pairs)
        agg = {key: (num / den if den else None) for key, (num, den) in sums.items()}
        cells = rows.get((inferrer, "ALL"))
        if cells is None or not all(_same(c, agg[k]) for c, k in zip(cells[1:], METRIC_KEYS)):
            problems.append(f"{report.name} {inferrer}/ALL: {cells} != oracle {agg}")
    return problems


def _is_non_english(name: str) -> bool:
    return any(ch not in "abcdefghijklmnopqrstuvwxyz" for ch in name)


def check_analyze(out: Path, pairs: list[tuple[str, str]], predicted: list[str]) -> list[str]:
    """Length histograms, non-English shares and n-gram inventories from oracle labels."""
    rated = []
    for (name, observed), label in zip(pairs, predicted):
        if label in ("female", "male"):
            rate = ("T" if label == observed else "F") + label[0].upper()
            rated.append((name, rate))
    problems = []
    got = {}
    for line in (out / "lengths.tsv").read_text(encoding="utf-8").splitlines()[1:]:
        rate, length, pct = line.split("\t")
        got[(rate, int(length))] = float(pct)
    want = {}
    for rate in ("TF", "FF", "TM", "FM"):
        lengths = [len(n) for n, r in rated if r == rate]
        for length in set(lengths):
            want[(rate, length)] = 100.0 * lengths.count(length) / len(lengths)
    if got.keys() != want.keys() or any(abs(got[k] - want[k]) > 1e-3 for k in want):
        problems.append("lengths.tsv differs from the oracle")
    for line in (out / "non_english.tsv").read_text(encoding="utf-8").splitlines()[1:]:
        rate, count, pct = line.split("\t")
        names = [n for n, r in rated if r == rate]
        share = 100.0 * sum(map(_is_non_english, names)) / len(names) if names else -1
        if int(count) != len(names) or abs(float(pct) - share) > 1e-3:
            problems.append(f"non_english.tsv {rate}: {count} {pct} != {len(names)} {share}")
    for n, filename in ((2, "bigrams.tsv"), (3, "trigrams.tsv")):
        true_grams: set[str] = set()
        false_grams: set[str] = set()
        for name, rate in rated:
            grams = true_grams if rate[0] == "T" else false_grams
            grams.update(name[i : i + n] for i in range(len(name) - n + 1))
        want_cells = [str(n), str(len(true_grams - false_grams)), str(len(false_grams - true_grams)), str(len(true_grams & false_grams))]
        cells = (out / filename).read_text(encoding="utf-8").splitlines()[1].split("\t")
        if cells != want_cells:
            problems.append(f"{filename}: {cells} != {want_cells}")
    return problems


# --- infer ------------------------------------------------------------------------


def expected_prediction(query: tuple[str, str, str], model: dict) -> tuple[str, float | None]:
    _, kind, name = query
    counts = model.get(name) if kind != "oov" else None
    if counts is None:
        return "unknown", None
    return threshold_label(*counts), counts[0] / (counts[0] + counts[1])


def _check_rows(rows, queries, model) -> tuple[list[str], int]:
    """rows: (name, label, p_female) per output line. Returns (problems,
    variants answered). A variant may get its normalized name's answer or
    unknown; which one is reported, not gated."""
    if len(rows) != len(queries):
        return [f"{len(rows)} output lines for {len(queries)} names"], 0
    answered = 0
    bad = []
    for i, ((name, label, p), query) in enumerate(zip(rows, queries)):
        want_label, want_p = expected_prediction(query, model)
        if name not in (query[0].strip(), query[2]):  # as given, or normalized
            bad.append(i)
            continue
        if query[1] == "variant" and label == "unknown" and p is None:
            continue
        ok = label == want_label and (p is None if want_p is None else p is not None and abs(p - want_p) <= 1e-6)
        if not ok:
            bad.append(i)
        elif query[1] == "variant":
            answered += 1
    if bad:
        i = bad[0]
        return [f"{len(bad)} predictions disagree with the oracle, e.g. line {i + 1}: {rows[i]} for {queries[i]}"], answered
    return [], answered


def check_infer_tsv(path: Path, queries, model) -> tuple[list[str], int]:
    lines = path.read_text(encoding="utf-8").splitlines()
    if not lines or lines[0] != "name\tlabel\tp_female\tsource":
        return [f"{path.name}: bad header"], 0
    rows = []
    for line in lines[1:]:
        name, label, p, _ = line.split("\t")
        rows.append((name, label, None if p == "NA" else float(p)))
    return _check_rows(rows, queries, model)


def check_infer_structured(path: Path, queries, model) -> tuple[list[str], int]:
    rows = []
    for line in path.read_text(encoding="utf-8").splitlines():
        record = json.loads(line)
        p = record["p_female"]
        if p is not None and not math.isfinite(p):
            return [f"{path.name}: non-finite p_female"], 0
        rows.append((record["name"], record["label"], p))
    return _check_rows(rows, queries, model)

