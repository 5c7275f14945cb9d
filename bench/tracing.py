"""Spans and counters around shakekit's public functions, installed from outside.

The package is never edited: `install` rebinds each traced function in
every shakekit module namespace that holds it (``from .x import y`` binds
names per module), plus ``LaurentPoly.__mul__``/``__rmul__`` and numpy's
``eigvalsh``.  `uninstall` puts the originals back.

Each span records (name, start, end, parent).  A span's self time is its
duration minus the time of its children.  The two hottest leaves,
``LaurentPoly`` multiply and ``eval_symmetric_real``, only add a call and
their elapsed time (which still counts as child time of the open span), so
a multiply-heavy run does not keep millions of spans.
"""

from __future__ import annotations

import functools
import sys
from collections import Counter, defaultdict
from time import perf_counter

LAYERS = ("laurent", "exactlinalg", "seifert", "goeritz", "patterns", "complexity", "cli", "verify")

# (module, attribute, span name); leaves are counted, not recorded as spans.
SPANS = [
    ("shakekit.exactlinalg", "det_laurent", "exactlinalg.det_laurent"),
    ("shakekit.exactlinalg", "inertia_hermitian_at_root", "exactlinalg.inertia_hermitian_at_root"),
    ("shakekit.exactlinalg", "inertia_symmetric_exact", "exactlinalg.inertia_symmetric_exact"),
    ("shakekit.seifert", "alexander", "seifert.alexander"),
    ("shakekit.seifert", "lt_signature", "seifert.lt_signature"),
    ("shakekit.seifert", "delta_sign_scan", "seifert.delta_sign_scan"),
    ("shakekit.complexity", "certify_complexity", "complexity.certify_complexity"),
    ("shakekit.complexity", "find_witness_root", "complexity.find_witness_root"),
    ("shakekit.patterns", "eval_invariant", "patterns.eval_invariant"),
    ("shakekit.patterns", "normalize", "patterns.normalize"),
    ("shakekit.goeritz", "goeritz_form", "goeritz.goeritz_form"),
    ("shakekit.cli", "main", "cli.main"),
    ("shakekit.verify", "run_checks", "verify.run_checks"),
]
LEAVES = [("shakekit.laurent", "eval_symmetric_real", "laurent.eval_symmetric_real")]


class Tracer:
    """In-memory spans and counters; one per traced run."""

    def __init__(self):
        self.spans: list[tuple[str, float, float, int | None]] = []
        self.stack: list[list] = []  # open spans: [span index, name, child seconds]
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.failures: Counter = Counter()
        self.errors: Counter = Counter()  # (span name, exception type name)
        self.det_inputs: set = set()
        self.roots_tried = 0
        self.profile_args: set = set()
        self._undo: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------

    def span(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = tracer.stack[-1] if tracer.stack else None
            frame = [len(tracer.spans), name, 0.0]
            tracer.spans.append(None)
            tracer.stack.append(frame)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                tracer.failures[name] += 1
                tracer.errors[name, type(exc).__name__] += 1
                raise
            finally:
                end = perf_counter()
                tracer.stack.pop()
                tracer.spans[frame[0]] = (name, start, end, parent[0] if parent else None)
                tracer.calls[name] += 1
                tracer.self_s[name] += end - start - frame[2]
                if parent is not None:
                    parent[2] += end - start

        return wrapper

    def leaf(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                tracer.failures[name] += 1
                raise
            finally:
                elapsed = perf_counter() - start
                tracer.calls[name] += 1
                tracer.self_s[name] += elapsed
                if tracer.stack:
                    tracer.stack[-1][2] += elapsed

        return wrapper

    def inside(self, name: str) -> bool:
        return any(frame[1] == name for frame in self.stack)

    # -- installation --------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _rebind(self, original, wrapper) -> None:
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "shakekit" and not mod_name.startswith("shakekit."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._set(module, attr, wrapper)

    def install(self) -> None:
        import numpy
        import shakekit.cli  # noqa: F401  (loads every module whose names get rebound)
        import shakekit.complexity as complexity
        from shakekit.laurent import LaurentPoly

        for mod_name, attr, name in SPANS:
            original = getattr(sys.modules[mod_name], attr)
            self._rebind(original, self._hooked(name, self.span(name, original)))
        for mod_name, attr, name in LEAVES:
            original = getattr(sys.modules[mod_name], attr)
            self._rebind(original, self.leaf(name, original))

        mul = self.leaf("laurent.mul", LaurentPoly.__mul__)
        self._set(LaurentPoly, "__mul__", mul)
        self._set(LaurentPoly, "__rmul__", mul)
        self._set(numpy.linalg, "eigvalsh", self.span("exactlinalg.eigvalsh", numpy.linalg.eigvalsh))

        original_profile = complexity.a_family_profile
        self._rebind(original_profile, self._profile_factory(original_profile))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def _hooked(self, name: str, wrapper):
        """Add the per-call counters that need the call's arguments."""
        tracer = self
        if name == "exactlinalg.det_laurent":
            @functools.wraps(wrapper)
            def det(rows, *args, **kwargs):
                tracer.det_inputs.add(tuple(tuple(row) for row in rows))
                return wrapper(rows, *args, **kwargs)
            return det
        if name == "seifert.lt_signature":
            @functools.wraps(wrapper)
            def lt(*args, **kwargs):
                if tracer.inside("complexity.find_witness_root"):
                    tracer.roots_tried += 1
                return wrapper(*args, **kwargs)
            return lt
        return wrapper

    def _profile_factory(self, original):
        tracer = self
        span = self.span

        @functools.wraps(original)
        def factory(omega, *args, **kwargs):
            profile = original(omega, *args, **kwargs)
            traced = span("patterns.profile", profile)

            def counted(k):
                tracer.profile_args.add((omega, k))
                return traced(k)

            return counted

        return factory

    # -- results -------------------------------------------------------

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer metric name -> (value, unit)."""
        c, s = self.calls, self.self_s

        def ratio(num: float, den: float) -> float:
            return num / den if den else 0.0

        out = {
            "laurent.mul.calls": (c["laurent.mul"], "count"),
            "laurent.mul.self_s": (s["laurent.mul"], "s"),
            "laurent.eval_symmetric_real.calls": (c["laurent.eval_symmetric_real"], "count"),
            "laurent.eval_symmetric_real.self_s": (s["laurent.eval_symmetric_real"], "s"),
            "exactlinalg.det_laurent.calls": (c["exactlinalg.det_laurent"], "count"),
            "exactlinalg.det_laurent.self_s": (s["exactlinalg.det_laurent"], "s"),
            "exactlinalg.det_laurent.distinct_ratio": (
                ratio(len(self.det_inputs), c["exactlinalg.det_laurent"]), "ratio"),
            "exactlinalg.inertia_hermitian_at_root.calls": (
                c["exactlinalg.inertia_hermitian_at_root"], "count"),
            "exactlinalg.inertia_hermitian_at_root.self_s": (
                s["exactlinalg.inertia_hermitian_at_root"], "s"),
            "exactlinalg.inertia_hermitian_at_root.near_singular": (
                self.errors["exactlinalg.inertia_hermitian_at_root", "NearSingular"], "count"),
            "exactlinalg.eigvalsh.self_s": (s["exactlinalg.eigvalsh"], "s"),
            "exactlinalg.inertia_symmetric_exact.calls": (
                c["exactlinalg.inertia_symmetric_exact"], "count"),
            "exactlinalg.inertia_symmetric_exact.self_s": (
                s["exactlinalg.inertia_symmetric_exact"], "s"),
            "seifert.alexander.self_s": (s["seifert.alexander"], "s"),
            "seifert.lt_signature.calls": (c["seifert.lt_signature"], "count"),
            "seifert.lt_signature.self_s": (s["seifert.lt_signature"], "s"),
            "seifert.delta_sign_scan.self_s": (s["seifert.delta_sign_scan"], "s"),
            "complexity.find_witness_root.self_s": (s["complexity.find_witness_root"], "s"),
            "complexity.roots_tried": (self.roots_tried, "count"),
            "complexity.witness_yield": (
                ratio(c["complexity.find_witness_root"] - self.failures["complexity.find_witness_root"],
                      self.roots_tried), "ratio"),
            "patterns.eval_invariant.self_s": (s["patterns.eval_invariant"], "s"),
            "patterns.profile_calls": (c["patterns.profile"], "count"),
            "patterns.profile_distinct_ratio": (
                ratio(len(self.profile_args), c["patterns.profile"]), "ratio"),
            "patterns.normalize.self_s": (s["patterns.normalize"], "s"),
            "goeritz.goeritz_form.self_s": (s["goeritz.goeritz_form"], "s"),
            "cli.main.self_s": (s["cli.main"], "s"),
            "verify.run_checks.self_s": (s["verify.run_checks"], "s"),
        }
        for layer in LAYERS:
            failed = sum(n for name, n in self.failures.items() if name.split(".")[0] == layer)
            out[f"{layer}.failures"] = (failed, "count")
        return out
