"""Child processes of the benchmark: one at a time, each waited for with
os.wait4 so its own CPU time and peak RSS are read from its rusage.

Linux carries a process's RSS high-water mark into the rusage of the
program it starts, so the timed steps are started by a small helper
process (launch.py) that holds no benchmark data, not by run.py.

A shared host changes the speed of a CPU by up to 2x over seconds, so a
step's plain wall time varies as much from run to run. A step can
therefore also run *beside a reference loop*: the process that starts
the step, and so the step, are pinned to one CPU, and that process runs a
fixed loop of dict and string work until the step ends. Both then run in
the same interval on the same CPU, so the step's CPU time multiplied by
the loop's speed, relative to its speed on a quiet host, is a cost that
no longer depends on how busy the host was.
"""

from __future__ import annotations

import json
import os
import random
import resource
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CHILD_TIMEOUT_S = 150.0

# What the `namegender` console script runs.
CLI = ["-c", "import sys; from namegender.cli import main; sys.exit(main())"]

# Reference loop rounds per CPU second on a quiet host (x86_64, 2.1 GHz).
QUIET_ROUNDS_PER_S = 500.0


def child_env() -> dict[str, str]:
    """The program is imported from this checkout's src/. Proxy settings are
    dropped so that no request can leave the machine, and the hash seed is
    fixed so that runs with one seed do the same work."""
    env = {k: v for k, v in os.environ.items() if "proxy" not in k.lower()}
    env.update(PYTHONPATH=str(SRC), PYTHONHASHSEED="0", NO_PROXY="*", no_proxy="*", PYTHONIOENCODING="utf-8")
    return env


class Reference:
    """The reference loop: lookups and string formatting over a table
    larger than the CPU caches, the kind of work the program does."""

    def __init__(self) -> None:
        rng = random.Random(0)
        self.table = {f"k{i}x{rng.random()}": i for i in range(50_000)}
        self.keys = rng.sample(list(self.table), 2000)
        cpu = min(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpu})  # children inherit this CPU

    def round(self) -> int:
        table = self.table
        lines = [f"{k.lower()}\t{table.get(k)}\t{table[k] / 7:.6f}" for k in self.keys]
        return len("\n".join(lines))


@dataclass
class ChildResult:
    code: int
    wall_s: float
    cpu_s: float
    maxrss_mb: float
    ref_cpu_s: float | None = None  # cpu_s at quiet-host speed, when run beside the reference loop


def _cpu_self() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def run(args: list[str], cwd: Path, stdin: Path | None = None, stdout: Path | None = None,
        stderr: Path | None = None, reference: Reference | None = None) -> ChildResult:
    """Run `python3 ARGS` to completion, alone or beside the reference loop;
    kill it after CHILD_TIMEOUT_S."""
    with open(stdin or os.devnull, "rb") as fin, open(stdout or os.devnull, "wb") as fout, \
            open(stderr or os.devnull, "wb") as ferr:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *args], stdin=fin, stdout=fout, stderr=ferr, cwd=cwd, env=child_env())
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            if reference is None:
                _, status, usage = os.wait4(proc.pid, 0)
            else:
                cpu_before, rounds = _cpu_self(), 0
                while True:
                    reference.round()
                    rounds += 1
                    pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
                    if pid:
                        break
                rate = rounds / (_cpu_self() - cpu_before)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
            timer.join()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    cpu = usage.ru_utime + usage.ru_stime
    ref_cpu = cpu * rate / QUIET_ROUNDS_PER_S if reference is not None else None
    return ChildResult(proc.returncode, wall, cpu, usage.ru_maxrss / 1024.0, ref_cpu)


class Launcher:
    """Client of the launch.py helper, which runs each timed step and
    returns its ChildResult."""

    def __init__(self) -> None:
        self.helper = subprocess.Popen(
            [sys.executable, str(Path(__file__).with_name("launch.py"))],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, cwd=ROOT,
        )

    def run(self, args: list[str], cwd: Path, stdin: Path | None, stdout: Path | None, stderr: Path | None,
            beside_reference: bool) -> ChildResult:
        request = {"args": args, "cwd": str(cwd), "beside_reference": beside_reference,
                   **{k: str(v) if v else None for k, v in (("stdin", stdin), ("stdout", stdout), ("stderr", stderr))}}
        self.helper.stdin.write(json.dumps(request) + "\n")
        self.helper.stdin.flush()
        line = self.helper.stdout.readline()
        if not line:
            raise RuntimeError("launch.py ended early")
        return ChildResult(**json.loads(line))

    def __enter__(self) -> "Launcher":
        return self

    def __exit__(self, *exc) -> None:
        self.helper.stdin.close()
        try:
            self.helper.wait(timeout=CHILD_TIMEOUT_S)
        finally:
            if self.helper.poll() is None:
                self.helper.kill()
                self.helper.wait()
            self.helper.stdout.close()
