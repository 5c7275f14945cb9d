"""The four workloads: seeded inputs, the op each one times, and its check.

A workload's inputs come in blocks.  Block b is a pure function of
(workload, seed, b) and never calls shakekit, so a seed gives
byte-identical inputs on every commit.  Every block holds the workload's
whole ladder of sizes once; the seed picks the concrete values inside each
rung, the signs and the order.  Op costs span two orders of magnitude, so
if the seed chose the rungs the medians of a run would hinge on which ops
it happened to get.

Every check compares against a reference that does not go through the
code path being timed: the bench's own closed form, numpy, structural
facts about certificates, or the in-process CLI for the subprocess calls.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import pickle
import random
import select
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

SUBPROCESS_TIMEOUT_S = 150


def block_rng(workload: str, seed: int, b: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{b}")


# -- references that do not call shakekit --------------------------------


def family_matrix(k: int) -> list[list[int]]:
    """Seifert matrix of the k-th twisted-family member, (2k+2)x(2k+2)."""
    dim = 2 * k + 2
    A = [[0] * dim for _ in range(dim)]
    for i, row in enumerate([[1, 1, 1, 0], [0, 0, 1, 0], [1, 2, 0, 0], [0, 0, -1, 0]]):
        A[i][:4] = row
    A[1][dim - 1] = -1
    for i in range(4, dim):
        A[i][i - 1] = 1
    return A


def closed_form_alexander(k: int) -> dict[int, int]:
    """Coefficients of the nine-term Alexander polynomial of family member k."""
    out: dict[int, int] = {}
    for exp, coeff in [(-(k + 1), 1), (-k, -2), (-(k - 1), 1), (-1, -1), (0, 3),
                       (1, -1), (k - 1, 1), (k, -2), (k + 1, 1)]:
        out[exp] = out.get(exp, 0) + coeff
    return {e: c for e, c in out.items() if c}


def float_signature(A: list[list[int]]) -> int:
    """Signature of A + A^T from numpy eigenvalues (the form is nondegenerate)."""
    import numpy as np

    M = np.array(A, dtype=float)
    eigs = np.linalg.eigvalsh(M + M.T)
    if float(np.min(np.abs(eigs))) < 1e-6:
        raise ValueError("reference form is degenerate")
    return int(np.sum(eigs > 0)) - int(np.sum(eigs < 0))


def is_prime(m: int) -> bool:
    return m >= 2 and all(m % d for d in range(2, math.isqrt(m) + 1))


def sign_congruence(A: list[list[int]], rng: random.Random) -> list[list[int]]:
    """D A D for a seeded diagonal D of +-1: same sparsity, same invariants."""
    s = [rng.choice((1, -1)) for _ in A]
    return [[s[i] * s[j] * x for j, x in enumerate(row)] for i, row in enumerate(A)]


def scramble(A: list[list[int]], rng: random.Random, moves: int, cap: int) -> list[list[int]]:
    """P A P^T for a seeded unimodular P, built from elementary moves.

    Each move adds +-(row j) to row i and +-(column j) to column i; a move
    that would push an entry above `cap` in absolute value is skipped, so
    entry size (and with it the cost of the exact determinant) stays bounded.
    """
    M = [row[:] for row in A]
    n = len(M)
    for _ in range(moves):
        i, j = rng.sample(range(n), 2)
        s = rng.choice((1, -1))
        row = [M[i][col] + s * M[j][col] for col in range(n)]
        saved = M[i]
        M[i] = row
        col = [M[r][i] + s * M[r][j] for r in range(n)]
        if max(map(abs, row)) > cap or max(map(abs, col)) > cap:
            M[i] = saved
            continue
        for r in range(n):
            M[r][i] = col[r]
    return M


def matrix_properties(A: list[list[int]]) -> dict:
    cells = [x for row in A for x in row]
    return {
        "dim": len(A),
        "density": round(sum(1 for x in cells if x) / len(cells), 4),
        "max_abs": max(map(abs, cells)),
    }


# -- workloads ------------------------------------------------------------


class Workload:
    """One closed-loop caller; `call` is the timed op, `check` its verdict."""

    name = ""
    BLOCK_S: float  # corrected seconds of one block when the benchmark was defined

    def __init__(self, seed: int, sk, workdir: Path):
        self.seed = seed
        self.sk = sk
        self.workdir = workdir

    def block(self, b: int) -> list[dict]:
        """The ops of block b: the whole ladder once."""
        raise NotImplementedError

    def defect_probes(self) -> list[dict]:
        """Ops that fail today because of a known defect; run by the traced run only."""
        return []

    def call(self, op: dict):
        raise NotImplementedError

    def call_in_process(self, op: dict):
        return self.call(op)

    def timed_call(self, op: dict) -> tuple[object, str | None, float, int]:
        """(result, error, seconds, peak RSS in KiB) of one op in a fork of this process.

        The child inherits the warmed-up interpreter, times `call`, and sends
        the result back; whatever the op caches dies with the child, so no
        op is faster because an earlier op ran.  A child that sends nothing
        for SUBPROCESS_TIMEOUT_S is killed.  No thread is started, because
        a fork copies only the thread that calls it.
        """
        sys.stdout.flush()
        sys.stderr.flush()
        rfd, wfd = os.pipe()
        pid = os.fork()
        if pid == 0:  # child: never returns into the caller's code
            status = 1
            try:
                os.close(rfd)
                start = time.perf_counter()
                try:
                    result, error = self.call(op), None
                except Exception as exc:  # a refused or crashed op is a failed op
                    result, error = None, f"{type(exc).__name__}: {exc}"
                elapsed = time.perf_counter() - start
                with os.fdopen(wfd, "wb") as fh:
                    pickle.dump((result, error, elapsed), fh)
                status = 0
            finally:
                os._exit(status)
        os.close(wfd)
        data = b""
        try:
            with os.fdopen(rfd, "rb") as fh:
                if select.select([fh], [], [], SUBPROCESS_TIMEOUT_S)[0]:
                    data = fh.read()
                else:
                    os.kill(pid, signal.SIGKILL)
        finally:
            _, status, usage = os.wait4(pid, 0)
        code = os.waitstatus_to_exitcode(status)
        if code != 0 or not data:
            return None, f"op process ended with exit code {code}", math.inf, usage.ru_maxrss
        result, error, elapsed = pickle.loads(data)
        return result, error, elapsed, usage.ru_maxrss

    def check(self, op: dict, result) -> str | None:
        """None when the result is right, else what is wrong with it."""
        raise NotImplementedError

    def warmup(self) -> None:
        raise NotImplementedError

    def properties(self, op: dict) -> list:
        raise NotImplementedError

    def rung(self, op: dict):
        """Which rung of the ladder op is: every block has each rung once."""
        raise NotImplementedError


class CertifyGrid(Workload):
    """certify_complexity(n, c) over |n| = 1..25 with c in 1..3.

    A block holds every |n| in 1..25 once, with a seeded sign, at
    max_order 60.  c = 1 + (|n| + g) mod 3 for |n| in the g-th fifth of
    1..25, so every c appears across the cost ladder (c moves the cost of
    an op by up to 1.6x) and every block has the same (|n|, c) pairs.
    The seed picks the signs and the order.

    The framings 26 <= |n| <= 30 at max_order 13 all fail today
    (WitnessNotFound, ROADMAP item 3).  They are not timed ops, because a
    timed run must not fail; the traced run certifies each of them once
    and reports the refusals in its per-layer failure counts.
    """

    name = "certify_grid"
    BLOCK_S = 7.3
    FRAMINGS = range(1, 26)
    MAX_ORDER = 60
    DEFECT_FRAMINGS = range(26, 31)
    DEFECT_MAX_ORDER = 13

    def __init__(self, seed, sk, workdir):
        super().__init__(seed, sk, workdir)
        self.first_cert: dict[int, object] = {}

    def block(self, b):
        rng = block_rng(self.name, self.seed, b)
        ops = [self._op(rng, a, 1 + (a + (a - 1) // 5) % 3, self.MAX_ORDER) for a in self.FRAMINGS]
        rng.shuffle(ops)
        return ops

    def defect_probes(self):
        rng = block_rng(self.name + ":defect", self.seed, 0)
        return [self._op(rng, a, 1 + a % 3, self.DEFECT_MAX_ORDER) for a in self.DEFECT_FRAMINGS]

    @staticmethod
    def _op(rng, a, c, max_order):
        return {"n": a * rng.choice((1, -1)), "c": c, "max_order": max_order}

    def call(self, op):
        return self.sk.certify_complexity(op["n"], op["c"], max_order=op["max_order"])

    def check(self, op, cert):
        n, c, a = op["n"], op["c"], abs(op["n"])
        k, m = cert.witness.k, cert.witness.m
        if (cert.n, cert.c) != (n, c):
            return f"certificate is for (n={cert.n}, c={cert.c})"
        if not (is_prime(m) and m <= op["max_order"] and 0 < k < m and math.gcd(k, m) == 1):
            return f"witness {k}/{m} is not a primitive root of prime order <= {op['max_order']}"
        if a % 2 and ((k, m) != (1, 2) or cert.bound != c):
            return f"odd n: witness {k}/{m}, bound {cert.bound}; want 1/2 and {c}"
        if cert.bound != c * abs(cert.i_q - cert.i_qn) or cert.bound < c:
            return f"bound {cert.bound} != {c}*|{cert.i_q} - {cert.i_qn}| or < c"
        if cert.term != f"bar(Q*)_{a}^{c} o Q^{c}":
            return f"term {cert.term!r}"
        mirror = [s for s in cert.assumptions if "mirrored construction" in s]
        if (n < 0) != bool(mirror) or (mirror and f"framing {n} " not in mirror[0]):
            return f"mirror assumption {mirror} for n={n}"
        first = self.first_cert.setdefault(a, cert)
        base = [s for s in cert.assumptions if s not in mirror]
        first_base = [s for s in first.assumptions if "mirrored construction" not in s]
        if (first.witness, first.i_q, first.i_qn, first_base) != (cert.witness, cert.i_q, cert.i_qn, base):
            return f"certify({n}) disagrees with certify({first.n}) beyond n and the mirror"
        return None

    def warmup(self):
        self.sk.certify_complexity(2, 1)

    def properties(self, op):
        return [op["n"], op["c"], op["max_order"]]

    def rung(self, op):
        return abs(op["n"])


class RetraceDeep(Workload):
    """certify_complexity(n, c) with |n| <= 4 and c from 10 to 640.

    The ladder has 8 rungs, c log-spaced over [10, 640) with a seeded
    jitter of up to +-3%, and |n| = 4 - rung // 2.  The cost is about c
    times a factor that grows 4.5x from |n| = 1 to 4, so pairing the large
    c with the small |n| makes the op costs rise evenly along the ladder,
    about 1.4x a rung over an 11x range.  A block runs every rung once.
    The seed picks the jitter, the signs and the order.
    """

    name = "retrace_deep"
    BLOCK_S = 1.9
    RUNGS = 8

    def __init__(self, seed, sk, workdir):
        super().__init__(seed, sk, workdir)
        self.unit_bound: dict[int, int] = {}

    def block(self, b):
        rng = block_rng(self.name, self.seed, b)
        ops = []
        for i in range(self.RUNGS):
            c = round(10 * 64 ** ((i + 0.5) / self.RUNGS) * rng.uniform(0.97, 1.03))
            a = 4 - i // 2
            ops.append({"n": a * rng.choice((1, -1)), "c": c, "rung": i})
        rng.shuffle(ops)
        return ops

    def call(self, op):
        return self.sk.certify_complexity(op["n"], op["c"])

    def check(self, op, cert):
        n, c, a = op["n"], op["c"], abs(op["n"])
        if a not in self.unit_bound:
            self.unit_bound[a] = self.sk.certify_complexity(a, 1).bound
        if cert.bound != c * self.unit_bound[a]:
            return f"bound {cert.bound} != {c} * bound(|n|={a}, c=1) = {c * self.unit_bound[a]}"
        if (cert.n, cert.c, cert.term) != (n, c, f"bar(Q*)_{a}^{c} o Q^{c}"):
            return f"certificate is for n={cert.n}, c={cert.c}, term {cert.term!r}"
        return None

    def warmup(self):
        self.sk.certify_complexity(1, 10)

    def properties(self, op):
        return [op["n"], op["c"], 60]

    def rung(self, op):
        return op["rung"]


class AlexanderDense(Workload):
    """alexander(A) then classical_signature_seifert(A) on one matrix per op.

    Sparse rungs: family matrices of dimension 18, 26, ..., 82 under a
    seeded +-1 diagonal congruence.  Dense rungs: dimension 10, 14, ..., 30,
    scrambled by a seeded unimodular congruence with entries capped at 12.
    Every matrix of a run is distinct, so a per-matrix cache cannot help
    here.  A block runs every rung of both ladders once.
    """

    name = "alexander_dense"
    BLOCK_S = 4.1
    SPARSE_DIMS = tuple(range(18, 83, 8))
    DENSE_DIMS = tuple(range(10, 31, 4))
    ENTRY_CAP = 12

    def __init__(self, seed, sk, workdir):
        super().__init__(seed, sk, workdir)
        self.ref_signature: dict[int, int] = {}

    def block(self, b):
        rng = block_rng(self.name, self.seed, b)
        ops = [{"k": dim // 2 - 1, "kind": "sparse",
                "A": sign_congruence(family_matrix(dim // 2 - 1), rng)}
               for dim in self.SPARSE_DIMS]
        ops += [{"k": dim // 2 - 1, "kind": "dense",
                 "A": scramble(family_matrix(dim // 2 - 1), rng, 4 * dim, self.ENTRY_CAP)}
                for dim in self.DENSE_DIMS]
        rng.shuffle(ops)
        return ops

    def call(self, op):
        return self.sk.alexander(op["A"]), self.sk.classical_signature_seifert(op["A"])

    def check(self, op, result):
        delta, sig = result
        k = op["k"]
        if delta.coeffs != closed_form_alexander(k):
            return f"alexander {delta} is not the closed form for k={k}"
        if k not in self.ref_signature:
            self.ref_signature[k] = float_signature(family_matrix(k))
        if sig != self.ref_signature[k]:
            return f"signature {sig} != {self.ref_signature[k]} of the unscrambled matrix"
        return None

    def warmup(self):
        A = family_matrix(4)
        self.sk.alexander(A)
        self.sk.classical_signature_seifert(A)

    def properties(self, op):
        return [op["kind"], *matrix_properties(op["A"]).values()]

    def rung(self, op):
        return op["kind"], len(op["A"])


def random_pattern(rng: random.Random, depth: int) -> str:
    """A random expression in the CLI's pattern syntax over atoms P, Q, R."""

    def factor(text: str) -> str:
        return f"({text})" if " o " in text else text

    if depth <= 0 or rng.random() < 0.3:
        return rng.choice("PQR")
    inner = random_pattern(rng, depth - 1)
    kind = rng.randrange(7)
    if kind == 0:
        return f"{factor(inner)}*"
    if kind == 1:
        return f"bar({inner})"
    if kind == 2:
        return f"{factor(inner)}_{rng.randint(-3, 3)}"
    if kind == 3:
        return f"{factor(inner)}^{rng.randint(1, 3)}"
    if kind == 4:
        return f"{factor(inner)}#"
    if kind == 5:
        return f"{factor(inner)}^-1"
    return f"{inner} o {random_pattern(rng, depth - 1)}"


def random_bands(rng: random.Random) -> dict:
    n = rng.randint(2, 6)
    bands = []
    for _ in range(n):
        if rng.random() < 0.5:
            bands.append({"orientable": True, "half_twists": 2 * rng.randint(-2, 2),
                          "self_writhe": 2 * rng.randint(-1, 1)})
        else:
            bands.append({"orientable": False, "half_twists": rng.randint(-5, 5)})
    crossings = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            crossings[i][j] = crossings[j][i] = rng.randint(-2, 2)
    return {"bands": bands, "crossings": crossings}


def matrix_json(A: list[list[int]]) -> dict:
    return {"dim": len(A), "entries": A}


class CliSession(Workload):
    """Short `python -m shakekit.cli` calls, each in a fresh process.

    A block is one call of each of eight kinds in seeded order, on JSON
    files generated for that block.  The traced run replays the same argv
    lists through shakekit.cli.main in-process, then `verify`.
    """

    name = "cli_session"
    BLOCK_S = 2.0
    ROOTS = [(j, p) for p in (2, 3, 5, 7, 11, 13) for j in range(1, p)]

    def __init__(self, seed, sk, workdir):
        super().__init__(seed, sk, workdir)
        self.reference: dict[tuple, tuple[int, str]] = {}

    def block(self, b):
        rng = block_rng(self.name, self.seed, b)
        f = f"b{b}"
        files: dict[str, dict] = {}

        def write(name: str, doc: dict) -> str:
            files[name] = doc
            path = self.workdir / name
            path.write_text(json.dumps(doc), encoding="utf-8")
            return str(path)

        A = sign_congruence(family_matrix(rng.randint(2, 9)), rng)
        S = scramble(family_matrix(rng.randint(2, 5)), rng, 24, 8)
        L = sign_congruence(family_matrix(rng.randint(1, 6)), rng)
        j, p = rng.choice(self.ROOTS)
        tables = {atom: {"table": {str(t): rng.randint(-5, 5) for t in range(-15, 16)}}
                  for atom in "PQR"}
        argvs = [
            ["alexander", write(f"{f}_alexander.json", matrix_json(A))],
            ["signature", "--seifert", write(f"{f}_seifert.json", matrix_json(S))],
            ["signature", "--goeritz", write(f"{f}_bands_sig.json", random_bands(rng))],
            ["lt", write(f"{f}_lt.json", matrix_json(L)), "--root", f"{j}/{p}"],
            ["goeritz", write(f"{f}_bands.json", random_bands(rng))],
            ["pattern", "normalize", random_pattern(rng, 4)],
            ["pattern", "eval", random_pattern(rng, 4),
             "--assignment", write(f"{f}_assign.json", tables)],
            ["certify", "--framing", str(rng.randint(1, 6) * rng.choice((1, -1))),
             "--complexity", str(rng.randint(1, 4))],
        ]
        rng.shuffle(argvs)
        return [{"argv": argv, "files": {name: files[name] for name in files if name in " ".join(argv)}}
                for argv in argvs]

    def _env(self) -> dict:
        return dict(os.environ, PYTHONPATH=str(Path(self.sk.__file__).resolve().parents[1]))

    def call(self, op):
        """(exit code, stdout, peak RSS in KiB) of one CLI subprocess.

        The child is reaped with wait4 for its own peak RSS; a timer kills
        it if it outlives SUBPROCESS_TIMEOUT_S.
        """
        proc = subprocess.Popen(
            [sys.executable, "-m", "shakekit.cli", *op["argv"]],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, env=self._env(), text=True,
        )
        timer = threading.Timer(SUBPROCESS_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            out = proc.stdout.read()
        finally:
            proc.stdout.close()
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
            timer.cancel()
        return proc.returncode, out, usage.ru_maxrss

    def timed_call(self, op):
        """The CLI call already runs in a fresh process; its wall time includes start-up."""
        start = time.perf_counter()
        try:
            result, error = self.call(op), None
        except Exception as exc:
            result, error = None, f"{type(exc).__name__}: {exc}"
        return result, error, time.perf_counter() - start, result[2] if result else 0

    def call_in_process(self, op):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
            code = self.sk.cli.main(list(op["argv"]))
        return code, buf.getvalue(), 0

    def check(self, op, result):
        code, out, _ = result
        if op["argv"] == ["verify"]:  # replayed by the traced run only
            return None if verify_report_ok(code, out) else "verify did not print 10/10 PASS"
        if code != 0:
            return f"exit code {code}"
        key = tuple(op["argv"])
        if key not in self.reference:
            self.reference[key] = self.call_in_process(op)[:2]
        if (code, out) != self.reference[key]:
            return f"stdout differs from in-process cli.main: {out!r}"
        return None

    def warmup(self):
        self.call({"argv": ["pattern", "normalize", "P o Q"]})

    def properties(self, op):
        return op["argv"][:2] if op["argv"][0] in ("signature", "pattern") else op["argv"][:1]

    def rung(self, op):
        return tuple(self.properties(op))


WORKLOADS = {w.name: w for w in (CertifyGrid, RetraceDeep, AlexanderDense, CliSession)}


def verify_report_ok(code: int, out: str) -> bool:
    """`verify` passed: exit 0, ten PASS rows and the 10/10 summary line."""
    lines = out.strip().splitlines()
    return (code == 0 and len(lines) == 11 and lines[-1] == "10/10 checks passed"
            and all(line.startswith("PASS") for line in lines[:10]))
