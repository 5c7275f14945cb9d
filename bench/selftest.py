"""Smoke test of the benchmark itself: python3 bench/selftest.py

1. A tiny run of every workload, untraced and traced, emits exactly the
   metrics that BENCHMARK.json names, and every answer checks out.
2. A deliberately wrong expected value makes an op fail, and the failure
   reaches `failed` (and so `failed_ratio`) and `correct`.
3. The command prints a well-formed last line, and exits non-zero without
   one in a directory that holds only BENCHMARK.json and bench/.

Exits 0 when all of this holds.
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import run
import workloads

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def expect(condition: bool, message: object) -> None:
    if not condition:
        raise SystemExit(f"selftest failed: {message}")


def tiny_args(workload: str) -> argparse.Namespace:
    return run.parse_args(["--workload", workload, "--seed", "7", "--seconds", "0.01"])


def check_metric_names(sk, workdir: Path) -> None:
    end_to_end = {m["name"] for m in SPEC["end_to_end"]}
    per_layer = {m["name"] for m in SPEC["per_layer"]}
    for name in workloads.WORKLOADS:
        args = tiny_args(name)
        wl = workloads.WORKLOADS[name](7, sk, workdir)
        outcome, metrics = run.timed_run(args, wl, max_ops=3)
        expect(set(metrics) == end_to_end, (name, set(metrics) ^ end_to_end))
        expect(outcome.wrong == 0, outcome.examples)
        outcome, metrics = run.traced_run(args, workloads.WORKLOADS[name](7, sk, workdir), max_ops=2)
        expect(set(metrics) == per_layer, (name, set(metrics) ^ per_layer))
        expect(outcome.wrong == 0, outcome.examples)
        print(f"ok  {name}: all {len(end_to_end)} end-to-end and {len(per_layer)} per-layer metrics")


def check_wrong_expectations(sk, workdir: Path) -> None:
    """Corrupt one reference per workload; the op must fail and count as wrong."""
    corruptions = {
        "certify_grid": lambda wl, op: setattr(workloads, "is_prime", lambda m: False),
        "retrace_deep": lambda wl, op: wl.unit_bound.__setitem__(abs(op["n"]), 10**6),
        "alexander_dense": lambda wl, op: setattr(workloads, "closed_form_alexander",
                                                  lambda k: {0: 1}),
        "cli_session": lambda wl, op: wl.reference.__setitem__(tuple(op["argv"]), (0, "wrong\n")),
    }
    saved = workloads.is_prime, workloads.closed_form_alexander
    try:
        for name, corrupt in corruptions.items():
            wl = workloads.WORKLOADS[name](7, sk, workdir)
            op = wl.block(0)[0]
            corrupt(wl, op)
            outcome = run.Outcome()
            result, error, _, _ = wl.timed_call(op)
            run.judge(wl, op, result, error, outcome)
            expect((outcome.attempted, outcome.failed, outcome.wrong) == (1, 1, 1), outcome.examples)
            print(f"ok  {name}: a wrong expected value is a failed op ({outcome.examples[0][:60]}...)")
    finally:
        workloads.is_prime, workloads.closed_form_alexander = saved


def check_command(workdir: Path) -> None:
    cmd = [sys.executable, "bench/run.py", "--workload", "alexander_dense", "--seed", "3",
           "--seconds", "0.5", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=run.ROOT, capture_output=True, text=True, timeout=170)
    expect(proc.returncode == 0, proc.stderr)
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    expect(set(last) == {"correct", "attempted", "failed", "metrics"} and last["correct"], last)
    print("ok  the command prints the result object as its last line")

    bare = Path(tempfile.mkdtemp(dir=workdir))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    shutil.copytree(run.ROOT / "bench", bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(cmd, cwd=bare, capture_output=True, text=True, timeout=170)
    expect(proc.returncode != 0 and not proc.stdout.strip(), (proc.returncode, proc.stdout))
    print(f"ok  without src/ the command exits {proc.returncode} and prints no result")


def main() -> int:
    sk = run.import_shakekit()
    workroot = run.ROOT / ".bench_tmp"
    workroot.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="selftest-", dir=workroot))
    try:
        check_metric_names(sk, workdir)
        check_wrong_expectations(sk, workdir)
        check_command(workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workroot.rmdir()
        except OSError:
            pass
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
