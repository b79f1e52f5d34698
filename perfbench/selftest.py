"""Quick self-test of the benchmark itself (about a minute).

Usage (from the root of a checkout): ``python3 perfbench/selftest.py``

Runs every workload at tiny size, untraced and traced, and asserts that each
run exits 0 with a correct result whose last line carries exactly the
metrics ``BENCHMARK.json`` names for that mode, each with its unit, and that
each metric is also printed by name with its unit, and that no process the
run started is left when it exits.  Finally it checks that
the benchmark refuses to run, with a non-zero exit and no result, in a
directory holding only ``BENCHMARK.json`` and the benchmark's files.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import signal
import subprocess
import sys
import tempfile

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)


def run(cwd: str, workload: str, trace: int, size: str = "tiny"):
    argv = [
        sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
        "--seed", "3", "--seconds", "1", "--trace", str(trace), "--size", size,
    ]
    # A session of its own, so that whatever the run leaves behind can be found.
    with subprocess.Popen(argv, cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, start_new_session=True) as proc:
        try:
            stdout, stderr = proc.communicate(timeout=300)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            raise
    left = session_members(proc.pid) if os.path.isdir("/proc") else []
    return subprocess.CompletedProcess(argv, proc.returncode, stdout, stderr), left


def session_members(sid: int) -> list:
    """The processes still in session ``sid`` (zombies included)."""
    members = []
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        try:
            with open(f"/proc/{name}/stat") as handle:
                stat = handle.read()
        except OSError:
            continue
        if int(stat[stat.rindex(")") + 2:].split()[3]) == sid:
            members.append(int(name))
    return members


def check_run(spec: dict, workload: str, trace: int) -> None:
    proc, left = run(ROOT, workload, trace)
    where = f"{workload} --trace {trace}"
    if proc.returncode != 0:
        raise AssertionError(f"{where}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    if left:
        raise AssertionError(f"{where}: processes {left} still running after the run exited")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise AssertionError(f"{where}: result keys {sorted(result)}")
    if not (result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1):
        raise AssertionError(f"{where}: not correct: {result}")
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    if set(result["metrics"]) != {entry["name"] for entry in declared}:
        raise AssertionError(
            f"{where}: metrics {sorted(result['metrics'])} != declared "
            f"{sorted(entry['name'] for entry in declared)}"
        )
    text = "\n".join(lines[:-1])
    for entry in declared:
        printed = result["metrics"][entry["name"]]
        if printed["unit"] != entry["unit"] or not isinstance(printed["value"], (int, float)):
            raise AssertionError(f"{where}: {entry['name']} printed as {printed}")
        line = rf"^{re.escape(entry['name'])} = \S+ {re.escape(entry['unit'])}( |$)"
        if not re.search(line, text, re.MULTILINE):
            raise AssertionError(f"{where}: {entry['name']} not printed by name with its unit")
    print(f"ok   {where}: {len(declared)} metrics, {result['attempted']} operations checked")


def check_refuses_without_source() -> None:
    bare = tempfile.mkdtemp(prefix="bare-", dir=os.path.join(ROOT, ".perfbench"))
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(
            BENCH_DIR, os.path.join(bare, "perfbench"),
            ignore=shutil.ignore_patterns("__pycache__"),
        )
        proc, _ = run(bare, "bulk", 0, size="full")
        if proc.returncode == 0 or proc.stdout.strip():
            raise AssertionError(
                f"without src/ the benchmark exited {proc.returncode} with output {proc.stdout!r}"
            )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    print("ok   refuses to run without src/repro")


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    os.makedirs(os.path.join(ROOT, ".perfbench"), exist_ok=True)
    for workload in [entry["name"] for entry in spec["workloads"]]:
        for trace in (0, 1):
            check_run(spec, workload, trace)
    check_refuses_without_source()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
