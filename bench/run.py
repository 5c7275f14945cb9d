"""Benchmark for shakekit: one workload per run, every answer checked.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from a checkout: the package is imported from its ``src/`` (it is not
installed), and the run refuses to measure any other copy.  With
``--trace 0`` one closed-loop caller issues ops for S seconds, in whole
blocks, and the run prints the end-to-end metrics; with ``--trace 1`` it
replays block 0 untraced and then traced, and prints the per-layer
metrics.  The last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  See bench/README.md for what
each workload and metric is for.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))
sys.dont_write_bytecode = True  # leave no bytecode of the bench itself in the checkout

import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 5
IMPORT_PROBE_REPEATS = 3
TAIL_BEYOND = 10
# Timings are taken in host-speed-corrected milliseconds.  The speed of a
# shared host swings over seconds to minutes with its other tenants' load:
# on a 2-core Xeon host a fixed pure-Python probe loop ran up to 1.9x slower
# in busy spells, and the ops of certify_grid and retrace_deep slowed by
# about the 0.8th power of that (0.7-0.95 across runs).  So each op's wall
# time is multiplied by
# (PROBE_REF_S / probe) ** PROBE_ELASTICITY, where probe is the median of the
# probes run within PROBE_WINDOW_S of the op and PROBE_REF_S is the probe's
# time on the idle host.  Raw wall times are printed beside the metrics.  The
# slowdown can differ between the host's cores, so the run and everything
# it starts is pinned to one CPU: the probe then measures the core the op
# ran on.
PROBE_REF_S = 0.003
PROBE_LOOPS = 20_000
PROBE_RUNS = 5
PROBE_WINDOW_S = 0.3
PROBE_ELASTICITY = 0.8
# A run holds at least this many blocks, so that each rung's latency is a
# median of at least three samples.
MIN_BLOCKS = 3


class SetupError(RuntimeError):
    """The checkout cannot be measured (no shakekit under src/, or another copy)."""


def import_shakekit():
    try:
        import shakekit
        import shakekit.cli  # noqa: F401
    except ImportError as exc:
        raise SetupError(f"cannot import shakekit from {SRC}: {exc}") from exc
    path = Path(shakekit.__file__).resolve()
    if not path.is_relative_to(SRC.resolve()):
        raise SetupError(f"imported shakekit from {path}, not from {SRC}")
    return shakekit


def child_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(SRC))


def environment(sk) -> dict:
    import numpy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "shakekit": str(Path(sk.__file__).resolve()),
    }


def size_metrics(sk) -> dict[str, tuple[float, str]]:
    lines = sum(len(p.read_text(encoding="utf-8").splitlines())
                for p in sorted((SRC / "shakekit").rglob("*.py")))
    return {"size.src_lines": (lines, "lines"), "size.public_api": (len(sk.__all__), "count")}


def import_metrics() -> dict[str, tuple[float, str]]:
    """Median cumulative import time of shakekit.cli and of numpy in it (-X importtime)."""
    cli_ms, numpy_ms = [], []
    for _ in range(IMPORT_PROBE_REPEATS):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import shakekit.cli"],
                              env=child_env(), capture_output=True, text=True,
                              timeout=workloads.SUBPROCESS_TIMEOUT_S, check=True)
        cumulative = {}
        for line in proc.stderr.splitlines():
            fields = line.split("|")
            if len(fields) == 3 and fields[1].strip().isdigit():
                cumulative.setdefault(fields[2].strip(), int(fields[1]))
        cli_ms.append(cumulative["shakekit.cli"] / 1000)
        numpy_ms.append(cumulative.get("numpy", 0) / 1000)
    return {"cli.import_ms": (statistics.median(cli_ms), "ms"),
            "cli.import_numpy_ms": (statistics.median(numpy_ms), "ms")}


def setup(wl) -> list[dict]:
    """What a run does before its first timed op: inputs of block 0 and a warm-up."""
    ops = wl.block(0)
    wl.warmup()
    return ops


def probe() -> float:
    """Seconds of the fastest of PROBE_RUNS runs of a fixed pure-Python loop."""
    best = math.inf
    for _ in range(PROBE_RUNS):
        start = time.perf_counter()
        table: dict[int, int] = {}
        for i in range(PROBE_LOOPS):
            table[i & 255] = table.get(i & 255, 0) * 3 + i
        best = min(best, time.perf_counter() - start)
    return best


class SpeedCorrected:
    """Wall times of a sequence of calls, and the host's speed around each.

    A probe runs before the first call and after every call.  A call's
    corrected time is its wall time times (PROBE_REF_S / p) **
    PROBE_ELASTICITY, where p is the median of the probes within
    PROBE_WINDOW_S of it.
    """

    def __init__(self):
        self.probes: list[tuple[float, float]] = []  # (when, probe seconds)
        self.calls: list[tuple[float, float, float]] = []  # (start, end, wall seconds)
        self._probe()

    def _probe(self) -> None:
        start = time.perf_counter()
        seconds = probe()
        self.probes.append(((start + time.perf_counter()) / 2, seconds))

    def add(self, seconds: float) -> int:
        """Record a call that just took `seconds`; returns its index."""
        end = time.perf_counter()
        self.calls.append((end - seconds, end, seconds))
        self._probe()
        return len(self.calls) - 1

    def wall(self) -> list[float]:
        return [seconds for _, _, seconds in self.calls]

    def corrected(self) -> list[float]:
        out = []
        for start, end, seconds in self.calls:
            near = [p for t, p in self.probes
                    if start - PROBE_WINDOW_S <= t <= end + PROBE_WINDOW_S]
            out.append(seconds * (PROBE_REF_S / statistics.median(near)) ** PROBE_ELASTICITY)
        return out


def setup_seconds(args) -> tuple[float, float]:
    """Median corrected and wall time of fresh interpreters that import, generate and warm up."""
    timer = SpeedCorrected()
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run([sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
                        "--seed", str(args.seed), "--setup-probe"],
                       env=child_env(), stdout=subprocess.DEVNULL, check=True,
                       timeout=workloads.SUBPROCESS_TIMEOUT_S)
        timer.add(time.perf_counter() - start)
    return statistics.median(timer.corrected()), statistics.median(timer.wall())


def run_verify() -> tuple[bool, float]:
    """Whether a `verify` subprocess printed 10/10 PASS, and its wall time."""
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "shakekit.cli", "verify"], env=child_env(),
                          capture_output=True, text=True, timeout=workloads.SUBPROCESS_TIMEOUT_S)
    return workloads.verify_report_ok(proc.returncode, proc.stdout), time.perf_counter() - start


class Outcome:
    """Tally of attempted, failed (exception or wrong answer) and wrong ops."""

    def __init__(self):
        self.attempted = self.failed = self.wrong = 0
        self.examples: list[str] = []

    def add(self, op_desc, error: str | None, wrong: bool) -> None:
        self.attempted += 1
        if error is not None:
            self.failed += 1
            self.wrong += wrong
            if len(self.examples) < 5:
                self.examples.append(f"{op_desc}: {error}")


def execute(ops, call) -> list[tuple[dict, object, str | None]]:
    """Run ops in this process, one after another: (op, result, error) each."""
    records = []
    for op in ops:
        try:
            result, error = call(op), None
        except Exception as exc:  # a refused or crashed op is a failed op, not a crashed run
            result, error = None, f"{type(exc).__name__}: {exc}"
        records.append((op, result, error))
    return records


def judge(wl, op, result, error: str | None, outcome: Outcome) -> bool:
    """Check one op's answer and tally it; True when it is right."""
    problem = error if error is not None else wl.check(op, result)
    outcome.add(wl.properties(op), problem, wrong=error is None and problem is not None)
    return problem is None


def input_digest(wl, ops) -> str:
    text = json.dumps(ops, sort_keys=True).replace(str(wl.workdir), "<work>")
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def print_inputs(wl, ops) -> None:
    doc = {"workload": wl.name, "seed": wl.seed, "ops": len(ops),
           "sha256_16": input_digest(wl, ops), "op_properties": [wl.properties(op) for op in ops]}
    print("inputs", json.dumps(doc))


def timed_run(args, wl, max_ops: int | None = None) -> tuple[Outcome, dict]:
    """Closed loop over whole blocks; cli_session then runs `verify`.

    A run holds args.seconds / wl.BLOCK_S blocks (at least MIN_BLOCKS),
    where BLOCK_S is the corrected time of one block at this commit.  The
    block count, and with it the mix of op sizes the metrics are taken
    over, thus depends neither on how busy the host was nor on how fast the
    program under test is.  An op's latency is the median corrected time
    of its rung's ops (one per block): a burst of load that the probes
    around one op miss then moves no metric.  Failed ops are left out of the timings.
    max_ops shortens each block, for the benchmark's own smoke test.
    """
    setup_s, setup_wall_s = setup_seconds(args)
    setup(wl)
    gc.freeze()  # forked ops then leave the warmed-up heap alone
    outcome = Outcome()
    timer = SpeedCorrected()
    ran, by_rung, wall, peak_kib = [], {}, [], 0
    blocks = max(MIN_BLOCKS, round(args.seconds / wl.BLOCK_S))
    for b in range(blocks):
        for op in wl.block(b)[:max_ops]:
            result, error, seconds, kib = wl.timed_call(op)
            index = timer.add(seconds)
            peak_kib = max(peak_kib, kib)
            if judge(wl, op, result, error, outcome):
                by_rung.setdefault(wl.rung(op), []).append(index)
                wall.append(seconds)
            ran.append(op)

    if isinstance(wl, workloads.CliSession):
        # Printed, not a JSON metric: one run of a 3-4 s computation swings
        # too much between runs on a shared host to be gated on.
        verify_ok, verify_s = run_verify()
        outcome.add("verify", None if verify_ok else "verify did not print 10/10 PASS",
                    wrong=not verify_ok)
        print(f"verify_s {verify_s:.6g} s ({'10/10 PASS' if verify_ok else 'FAILED'})")
    print_inputs(wl, ran)

    corrected = timer.corrected()
    latencies = sorted(statistics.median(corrected[i] for i in indices)
                       for indices in by_rung.values() for _ in indices)
    n = len(latencies)
    tail_rank = max(0, n - 1 - TAIL_BEYOND)
    tail = latencies[tail_rank] if latencies else math.inf
    print(f"{len(ran)} ops in {blocks} blocks; tail percentile "
          f"p{100 * (tail_rank + 1) / max(n, 1):.1f} of {n} ops that passed "
          f"({n - 1 - tail_rank} beyond it)")
    if wall:
        print(f"wall time, uncorrected: setup_s {setup_wall_s:.6g}, ops_per_s {n / sum(wall):.6g}, "
              f"latency_p50_ms {1000 * statistics.median(wall):.6g}; "
              f"host slowdown of the ops (wall / corrected) median "
              f"{statistics.median(w / c for w, c in zip(timer.wall(), corrected)):.3f}")
    metrics = {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (n / sum(latencies) if latencies else 0.0, "1/s"),
        "latency_p50_ms": (1000 * statistics.median(latencies) if latencies else math.inf, "ms"),
        "latency_tail_ms": (1000 * tail, "ms"),
        "peak_rss_mb": (peak_kib / 1024, "MB"),
    }
    return outcome, metrics


def traced_run(args, wl, max_ops: int | None = None) -> tuple[Outcome, dict]:
    """Replay block 0 (plus `verify` for cli_session) untraced, then traced.

    The known-defect probes of certify_grid ride along: a refusal shows in
    the per-layer failure counts and is printed, but is not a failed op.
    max_ops shortens the lists, for the benchmark's own smoke test.
    """
    ops = setup(wl)[:max_ops]
    if isinstance(wl, workloads.CliSession):
        ops = ops + [{"argv": ["verify"]}]
    probes = wl.defect_probes()[:max_ops]
    ops = ops + probes
    print_inputs(wl, ops)

    start = time.perf_counter()
    plain = execute(ops, wl.call_in_process)
    plain_s = time.perf_counter() - start
    tracer = tracing.Tracer()
    tracer.install()
    try:
        start = time.perf_counter()
        traced = execute(ops, wl.call_in_process)
        traced_s = time.perf_counter() - start
    finally:
        tracer.uninstall()

    outcome = Outcome()
    refused = []
    for op, result, error in plain + traced:
        if op in probes and error is not None:
            refused.append(f"{wl.properties(op)}: {error}")
            continue
        judge(wl, op, result, error, outcome)
    if probes:
        print(f"known defect (ROADMAP item 3): {len(refused) // 2} of {len(probes)} probes "
              f"refused; {'; '.join(refused[:len(refused) // 2])}")

    metrics = tracer.metrics()
    metrics.update(import_metrics())
    metrics["trace.overhead_ratio"] = (traced_s / plain_s, "ratio")
    metrics.update(size_metrics(wl.sk))
    print(f"spans recorded: {len(tracer.spans)}; untraced {plain_s:.3f} s, traced {traced_s:.3f} s")
    return outcome, metrics


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    try:
        sk = import_shakekit()
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    workroot = ROOT / ".bench_tmp"
    workroot.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=workroot))
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, sk, workdir)
        if args.setup_probe:
            setup(wl)
            return 0
        print("env", json.dumps(environment(sk)))
        print("size", json.dumps({k: v for k, (v, _) in size_metrics(sk).items()}))
        run = traced_run if args.trace else timed_run
        outcome, metrics = run(args, wl)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workroot.rmdir()
        except OSError:
            pass

    for example in outcome.examples:
        print("failed op", example)
    for name, (value, unit) in metrics.items():
        print(f"{name:48s} {value:>14.6g} {unit}")
    print(f"attempted {outcome.attempted}, failed {outcome.failed} "
          f"(failed_ratio {outcome.failed / outcome.attempted:.4f}), wrong answers {outcome.wrong}")
    print(json.dumps({
        "correct": outcome.wrong == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        # A median or tail made of failed ops is infinite, which JSON cannot carry.
        "metrics": {name: {"value": value if math.isfinite(value) else None, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
