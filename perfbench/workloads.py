"""The four workloads: their set-up, the CLI steps of one pass, and the
check each step's output must pass.

Every workload is a closed loop: one client runs one CLI step at a time
and starts the next only when the previous one has ended.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import check
import gen
import proc


@dataclass
class Step:
    """One `namegender` invocation and the check of what it wrote."""

    kind: str
    argv: list[str]
    check: Callable[["Step"], list[str]]
    stdin: Path | None = None
    stdout: Path | None = None
    output: Path | None = None  # the file an infer check reads
    work: int = 0  # rows or names the step processes, for rates
    facts: dict[str, int] = field(default_factory=dict)


class Workload:
    name = ""
    calls_per_trace_pass = 1  # passes strung together into one in-process pass of --trace 1
    uses_http = False

    def setup(self, root: Path, seed: int, size: str) -> None:
        raise NotImplementedError

    def steps(self, out: Path, index: int) -> list[Step]:
        raise NotImplementedError

    def properties(self) -> dict[str, float]:
        return {}


class SsaBuild(Workload):
    """Raw SSA rows repeat ~19x, so ingest (normalize, accumulate, table write/read) dominates and no inference runs."""

    name = "ssa-build"

    def setup(self, root: Path, seed: int, size: str) -> None:
        self.seed = seed
        self.data = gen.ssa_build(root, seed, size)

    def properties(self) -> dict[str, float]:
        a, b = self.data["oracles"]
        rows = a.total_rows + b.total_rows
        names = [a.counts, b.counts]
        rejected = sum(a.rejections.values()) + sum(b.rejections.values())
        return {
            "corpus.raw_repeat_ratio": (a.total_rows / len(a.raw_names) + b.total_rows / len(b.raw_names)) / 2,
            "ambiguous_share": sum(1 for t in names for f, m in t.values() if f and m) / sum(map(len, names)),
            "rejected_row_share": rejected / rows,
            "input_rows": rows,
        }

    def steps(self, out: Path, index: int) -> list[Step]:
        ssa_dir = str(self.data["ssa_dir"])
        (a0, a1), (b0, b1) = self.data["ranges"]
        oa, ob = self.data["oracles"]
        tables = {"ssaA": oa.counts, "ssaB": ob.counts}
        combined = check.merged(oa.counts, ob.counts)
        state: dict = {}
        o = str(out)

        def check_split(step: Step) -> list[str]:
            problems, _, state["train"] = check.check_split(out, "ssa", combined, 0.1)
            return problems

        return [
            Step("ingest", ["ingest", "--ssa-dir", ssa_dir, "--years", f"{a0}-{a1}", "--source-id", "ssaA", "--out-dir", o],
                 lambda s: check.check_ingest(out, "ssaA", oa, "first"), work=oa.total_rows),
            Step("ingest", ["ingest", "--ssa-dir", ssa_dir, "--years", f"{b0}-{b1}", "--source-id", "ssaB", "--out-dir", o],
                 lambda s: check.check_ingest(out, "ssaB", ob, "first"), work=ob.total_rows),
            Step("stats", ["stats", f"{o}/ssaA.table.tsv", f"{o}/ssaB.table.tsv", "--bins", "20", "--out-dir", o],
                 lambda s: check.check_stats(out, tables, 20)),
            Step("combine", ["combine", f"{o}/ssaA.table.tsv", f"{o}/ssaB.table.tsv", "--id", "ssa", "--out-dir", o],
                 lambda s: check.check_table(out / "ssa.table.tsv", combined, "first", "ssa")),
            Step("split", ["split", f"{o}/ssa.table.tsv", "--seed", str(self.seed), "--test-fraction", "0.1", "--out-dir", o],
                 check_split),
            Step("train", ["train", f"{o}/ssa-train.table.tsv", "--out-dir", o],
                 lambda s: check.check_model(out / "ssa-train.model.tsv", state["train"], "ssa-train")),
        ]


class FullnameEval(Workload):
    """Distinct full-name rows (repeat ratio ~1) through ingest/split, then eval of five inferrers incl. a warm HTTP cache, and analyze."""

    name = "fullname-eval"
    uses_http = True

    def setup(self, root: Path, seed: int, size: str) -> None:
        self.seed = seed
        self.root = root
        self.oracle = gen.fullname_eval(root, seed, size)

    def properties(self) -> dict[str, float]:
        full = self.oracle.full
        names = self.oracle.first_counts
        return {
            "corpus.raw_repeat_ratio": full.repeat_ratio,
            "ambiguous_share": sum(1 for f, m in names.values() if f and m) / len(names),
            "rejected_row_share": (sum(full.rejections.values()) + full.unmappable_gender) / full.total_rows,
            "input_rows": full.total_rows,
            "ssa_test_names": len(self.oracle.ssa_test),
        }

    def steps(self, out: Path, index: int) -> list[Step]:
        w, o = self.root, str(out)
        oracle = self.oracle
        state: dict = {}

        def check_split(step: Step) -> list[str]:
            problems, state["test"], _ = check.check_split(out, "first", oracle.first_counts, 0.2)
            return problems

        def check_eval(step: Step) -> list[str]:
            testsets = {"first": state["test"], "ssa": oracle.ssa_test}
            step.work = sum(map(len, testsets.values())) * len(gen.EVAL_INFERRERS)
            return check.check_eval(out / "report.tsv", testsets, oracle, gen.EVAL_INFERRERS)

        def check_analyze(step: Step) -> list[str]:
            pairs = state["test"]
            return check.check_analyze(out, pairs, [oracle.predict("ts_mock", n) for n, _ in pairs])

        return [
            Step("ingest", ["ingest", "--csv", str(w / "names.csv"), "--name-col", "name", "--gender-col", "gender",
                            "--name-type", "full", "--source-id", "full", "--out-dir", o],
                 lambda s: check.check_ingest(out, "full", oracle.full, "full"), work=oracle.full.total_rows),
            Step("combine", ["combine", f"{o}/full.table.tsv", "--split-full", "--id", "first", "--out-dir", o],
                 lambda s: check.check_table(out / "first.table.tsv", oracle.first_counts, "first", "first")),
            Step("split", ["split", f"{o}/first.table.tsv", "--seed", str(self.seed), "--test-fraction", "0.2", "--out-dir", o],
                 check_split),
            Step("eval", ["eval", "--test", f"{o}/first.test.tsv", "--test", str(w / "ssa.test.tsv"),
                          "--inferrer", f"mle:{w / 'ssa.model.tsv'}", "--inferrer", f"mock:{w / 'mock.json'}",
                          "--inferrer", f"http:{w / 'svc.conf'}", "--inferrer", f"ts_mock=twostage:{w / 'ts_mock.conf'}",
                          "--inferrer", f"ts_vote=twostage:{w / 'ts_vote.conf'}", "--out-dir", o],
                 check_eval),
            Step("analyze", ["analyze", "--test", f"{o}/first.test.tsv", "--inferrer", f"twostage:{w / 'ts_mock.conf'}",
                             "--out-dir", o],
                 check_analyze),
        ]


def _infer_check(kind: str, queries, model) -> Callable[[Step], list[str]]:
    def run(step: Step) -> list[str]:
        fn = check.check_infer_structured if kind == "structured" else check.check_infer_tsv
        problems, answered = fn(step.output, queries, model)
        step.facts = {"variants": sum(1 for q in queries if q[1] == "variant"), "variant_answered": answered}
        return problems

    return run


class InferBulk(Workload):
    """One full-size model, 100k queried names (60% in-vocab, 20% case/space variants, 20% OOV): classify and output formatting dominate."""

    name = "infer-bulk"

    def setup(self, root: Path, seed: int, size: str) -> None:
        self.data = gen.infer_inputs(root, seed, size)

    def properties(self) -> dict[str, float]:
        return {**gen.query_shares(self.data["queries"]), "model_names": len(self.data["model"])}

    def steps(self, out: Path, index: int) -> list[Step]:
        d = self.data
        queries, model, n = d["queries"], d["model"], len(d["queries"])
        tsv = Step("infer", ["infer", str(d["queries_path"]), "--model", str(d["model_path"]), "--out", str(out / "pred.tsv")],
                   _infer_check("tsv", queries, model), output=out / "pred.tsv", work=n)
        structured = Step("infer", ["infer", "-", "--model", str(d["model_path"]), "--format", "structured"],
                          _infer_check("structured", queries, model), stdin=d["queries_path"], stdout=out / "pred.jsonl",
                          output=out / "pred.jsonl", work=n)
        return [tsv, structured]


class CliShort(Workload):
    """One name per `infer -` call on the full-size model: interpreter start, import and model load dominate each call."""

    name = "cli-short"
    calls_per_trace_pass = 10

    def setup(self, root: Path, seed: int, size: str) -> None:
        self.data = gen.infer_inputs(root, seed, size)
        self.order = list(range(len(self.data["queries"])))
        random.Random(seed).shuffle(self.order)

    def properties(self) -> dict[str, float]:
        return {**gen.query_shares(self.data["queries"]), "model_names": len(self.data["model"])}

    def steps(self, out: Path, index: int) -> list[Step]:
        d = self.data
        query = d["queries"][self.order[index % len(self.order)]]
        out.mkdir(parents=True, exist_ok=True)
        stdin = out / f"name-{index}.txt"
        stdin.write_text(query[0] + "\n", encoding="utf-8")
        return [Step("infer", ["infer", "-", "--model", str(d["model_path"])], _infer_check("tsv", [query], d["model"]),
                     stdin=stdin, stdout=out / f"pred-{index}.tsv", output=out / f"pred-{index}.tsv", work=1)]


WORKLOADS: dict[str, type[Workload]] = {w.name: w for w in (SsaBuild, FullnameEval, InferBulk, CliShort)}


def set_up(workload: Workload, root: Path, seed: int, size: str, warm: bool = True) -> None:
    """Write the workload's inputs under root and, if it has an HTTP
    adapter, fill that adapter's response cache."""
    root.mkdir(parents=True, exist_ok=True)
    workload.setup(root, seed, size)
    if warm and workload.uses_http:
        log = root / "warm.log"
        result = proc.run([str(Path(__file__).with_name("warm.py")), str(root)], cwd=root, stderr=log)
        if result.code != 0:
            raise SystemExit(f"perfbench: warming the HTTP cache failed:\n{log.read_text(errors='replace')[-2000:]}")
