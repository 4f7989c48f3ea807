"""README's walkthrough, run as written, and its Contracts section, checked against the suite."""

from __future__ import annotations

import ast
import io
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

from namegender import cli

from conftest import readme_blocks, readme_section, write_readme_inputs

ROOT = Path(__file__).resolve().parents[1]


def walkthrough() -> list[tuple[str, list[str]]]:
    """Each command line of README's walkthrough as (its standard input, its arguments after `namegender`)."""
    [block] = readme_blocks("Command-line walkthrough", "bash")
    commands = []
    for line in block.replace("\\\n", " ").splitlines():
        if not line or line.startswith("#"):
            continue
        stdin = ""
        if line.startswith("echo "):  # `echo mary | namegender infer - ...`
            echoed, line = line.split(" | ", 1)
            stdin = " ".join(shlex.split(echoed)[1:]) + "\n"
        program, *argv = shlex.split(line)
        assert program == "namegender", line
        commands.append((stdin, argv))
    return commands


def test_readme_walkthrough_runs(tmp_path, monkeypatch, capsys):
    write_readme_inputs(tmp_path)
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    commands = walkthrough()
    assert len(commands) == 11
    for stdin, argv in commands:
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
        assert cli.main(argv) == 0, capsys.readouterr().err
    work = tmp_path / "work"
    assert "mary\tfemale\t0.950000\tmle:demo-train\n" in capsys.readouterr().out
    # the merged model's cell is not scored, the mock's is
    rows = [row.split("\t")[:4] for row in (work / "report.tsv").read_text(encoding="utf-8").splitlines()]
    assert [row for row in rows if row[1] == "demo"] == [["mle:all", "demo", "4", "NA"], ["mymock", "demo", "4", "50.00"]]
    # analyze saw right and wrong answers, so it wrote both n-gram inventories
    assert {"bigrams.tsv", "trigrams.tsv"} <= {path.name for path in work.iterdir()}


_RUN_WALKTHROUGH = """
import io, sys
from namegender import cli
for stdin, argv in {commands!r}:
    sys.stdin = io.StringIO(stdin)
    if cli.main(argv) != 0:
        sys.exit(f"failed: {{argv}}")
"""


def test_readme_walkthrough_outputs_do_not_depend_on_the_hash_seed(tmp_path):
    src = Path(cli.__file__).resolve().parents[1]
    runs = []
    for seed in ("1", "2"):
        root = tmp_path / f"hashseed{seed}"
        root.mkdir()
        write_readme_inputs(root)
        env = {**os.environ, "PYTHONPATH": str(src), "PYTHONHASHSEED": seed, "XDG_CACHE_HOME": str(tmp_path / f"cache{seed}")}
        done = subprocess.run([sys.executable, "-c", _RUN_WALKTHROUGH.format(commands=walkthrough())], cwd=root,
                              env=env, capture_output=True, text=True)
        assert done.returncode == 0, done.stderr
        files = {"stdout": done.stdout.encode(), "stderr": done.stderr.encode()}
        for path in sorted(root.rglob("*")):
            if path.is_file():
                data = path.read_bytes()
                if path.name.endswith(".manifest.json"):  # the one field that may differ
                    data = re.sub(rb'"timestamp": "[^"]*"', b'"timestamp": ""', data)
                files[path.relative_to(root).as_posix()] = data
        runs.append(files)
    first, second = runs
    assert sorted(first) == sorted(second)
    assert len([name for name in first if name.startswith("work/")]) == 28
    assert [name for name in first if first[name] != second[name]] == []


def test_every_contract_names_tests_that_exist_or_is_open_with_a_roadmap_item():
    contracts = [line for line in readme_section("Contracts").splitlines() if line.startswith("- ")]
    items = set(re.findall(r"^(\d+)\. \*\*", (ROOT / "ROADMAP.md").read_text(encoding="utf-8"), re.MULTILINE))
    defined: dict[str, set[str]] = {}
    missing = []
    for contract in contracts:
        tests = re.findall(r"`(tests/\w+\.py)::(test_\w+)`", contract)
        open_items = re.findall(r"Open: ROADMAP item (\d+)\.$", contract)
        # a contract is checked by tests or open, never both or neither, and an open one names a ROADMAP item
        assert bool(tests) != bool(open_items), contract
        assert set(open_items) <= items, contract
        for file, name in tests:
            if file not in defined:
                tree = ast.parse((ROOT / file).read_text(encoding="utf-8"))
                defined[file] = {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}
            if name not in defined[file]:
                missing.append(f"{file}::{name}")
    assert contracts
    assert missing == []
