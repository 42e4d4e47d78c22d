"""Per-layer tracing from outside the program.

The tracer replaces public functions and methods of ramibound with wrappers
that count calls and accumulate self time: the span of a call minus the
spans of the traced calls it made.  A function imported by name into
several modules (``from .series import frobenius``) is replaced in every
namespace that holds it, so all call sites are seen.  Spans are aggregated
per name as they close; the traced run makes over a million calls, too many
to keep one record each.
"""

from __future__ import annotations

import sys
import time

# (metric prefix, owner, attribute) for every traced callable.  The owner is
# a module name, or "module:Class" for a method.  "construct" wraps __init__,
# which runs the dataclass validation in __post_init__.
TRACED = [
    ("series.construct", "ramibound.series:TruncatedSeries", "__init__"),
    ("series.mul", "ramibound.series:TruncatedSeries", "__mul__"),
    ("series.scale", "ramibound.series:TruncatedSeries", "scale"),
    ("series.in_ideal", "ramibound.series:TruncatedSeries", "in_ideal"),
    ("series.frobenius", "ramibound.series", "frobenius"),
    ("series.invert_unit", "ramibound.series", "invert_unit"),
    ("series.weierstrass_prep", "ramibound.series", "weierstrass_prep"),
    ("eisenstein.construct", "ramibound.eisenstein:EisensteinPolynomial", "__init__"),
    ("eisenstein.invariants", "ramibound.eisenstein:EisensteinPolynomial", "invariants"),
    ("eisenstein.substitute", "ramibound.eisenstein", "substitute"),
    ("eisenstein.berkowitz_charpoly", "ramibound.eisenstein", "berkowitz_charpoly"),
    ("eisenstein.tau_v_search", "ramibound.eisenstein", "tau_v_search"),
    ("bounds.compute_s", "ramibound.bounds", "compute_s"),
    ("breuil.module_build", "ramibound.breuil:BreuilModule", "__init__"),
    ("breuil.mat_det", "ramibound.breuil", "mat_det"),
    ("breuil.snf_mod_uT", "ramibound.breuil", "snf_mod_uT"),
    ("breuil.apply_phi", "ramibound.breuil", "apply_phi"),
    ("breuil.verify_inclusion_p_s", "ramibound.breuil", "verify_inclusion_p_s"),
    ("breuil.h4", "ramibound.breuil", "h4"),
    ("breuil.module_from_json", "ramibound.breuil", "module_from_json"),
    ("oracle.prop2_max_t", "ramibound.oracle", "prop2_max_t"),
    ("oracle.lemma4_check", "ramibound.oracle", "lemma4_check"),
    ("oracle.cor5_check", "ramibound.oracle", "cor5_check"),
    ("oracle.descent_minimal_s", "ramibound.oracle", "descent_minimal_s"),
    ("suites.suite_prop2", "ramibound.suites", "suite_prop2"),
    ("suites.suite_cor5", "ramibound.suites", "suite_cor5"),
    ("suites.suite_lemma1", "ramibound.suites", "suite_lemma1"),
    ("suites.suite_lemma2", "ramibound.suites", "suite_lemma2"),
    ("cli.main", "ramibound.cli", "main"),
]

# Recursive functions whose inner calls are folded into the outermost span.
OUTERMOST_ONLY = {"breuil.mat_det"}

# Work counts read off the results of traced calls.
COUNTS = ["eisenstein.tau_candidates", "oracle.candidates", "oracle.witnesses"]


def _on_result(name, counts):
    if name == "oracle.prop2_max_t":
        def hook(result):
            counts["oracle.candidates"] += result.candidates_visited
            counts["oracle.witnesses"] += len(result.witnesses)
        return hook
    if name == "eisenstein.tau_v_search":
        def hook(result):
            counts["eisenstein.tau_candidates"] += result.candidates
        return hook
    return None


class Tracer:
    """Installs and removes the wrappers; keeps calls, self time and counts."""

    def __init__(self):
        self.calls = {name: 0 for name, _, _ in TRACED}
        self.self_s = {name: 0.0 for name, _, _ in TRACED}
        self.counts = {name: 0 for name in COUNTS}
        self._stack: list[float] = []
        self._patched: list[tuple[object, str, object]] = []
        self._wrappers = {}

    def _wrap(self, name, fn):
        calls, self_s, stack = self.calls, self.self_s, self._stack
        clock = time.perf_counter
        hook = _on_result(name, self.counts)

        def traced(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span = clock() - start
                child = stack.pop()
                calls[name] += 1
                self_s[name] += span - child
                if stack:
                    stack[-1] += span
            if hook is not None:
                hook(result)
            return result

        if name not in OUTERMOST_ONLY:
            return traced
        active = [False]

        def outermost(*args, **kwargs):
            if active[0]:
                return fn(*args, **kwargs)
            active[0] = True
            try:
                return traced(*args, **kwargs)
            finally:
                active[0] = False

        return outermost

    def install(self):
        """Wrap every traced callable in every ramibound namespace holding it."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        modules = [m for k, m in sys.modules.items()
                   if m is not None and (k == "ramibound" or k.startswith("ramibound."))]
        for name, owner, attr in TRACED:
            mod_name, _, cls_name = owner.partition(":")
            holder = sys.modules[mod_name]
            if cls_name:
                holder = getattr(holder, cls_name)
            original = getattr(holder, attr)
            wrapper = self._wrappers.get(name)
            if wrapper is None:
                wrapper = self._wrappers[name] = self._wrap(name, original)
            targets = [holder] if cls_name else modules
            for target in targets:
                for key, value in list(vars(target).items()):
                    if value is original:
                        self._patched.append((target, key, original))
                        setattr(target, key, wrapper)
            if not cls_name:
                # dispatch tables such as suites.SUITES hold the function too
                for target in modules:
                    for table in vars(target).values():
                        if isinstance(table, dict):
                            for key, value in list(table.items()):
                                if value is original:
                                    self._patched.append((table, key, original))
                                    table[key] = wrapper

    def uninstall(self):
        for target, key, original in reversed(self._patched):
            if isinstance(target, dict):
                target[key] = original
            else:
                setattr(target, key, original)
        self._patched.clear()

    def metrics(self) -> dict:
        """Per-layer metrics: <layer>.<function>.calls/.self_s and work counts."""
        out = {}
        for name, _, _ in TRACED:
            out[f"{name}.calls"] = (self.calls[name], "count")
            out[f"{name}.self_s"] = (self.self_s[name], "s")
        for name in COUNTS:
            out[name] = (self.counts[name], "count")
        cand = self.counts["oracle.candidates"]
        out["oracle.witness_yield"] = (
            self.counts["oracle.witnesses"] / cand if cand else 0.0, "ratio")
        return out
