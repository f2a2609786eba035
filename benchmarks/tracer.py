"""Span tracing of the cbizero layers from outside the library.

`Tracer.install()` replaces public functions and methods of the
``cbizero`` modules with wrappers.  A function imported by name into
other modules is replaced there too, so every call path goes through
the wrapper.  ``scipy.integrate.quad`` is wrapped to count calls and the
``IntegrationWarning``s that ``quadrature.adaptive`` suppresses.
Mechanism evaluations are counted, not spanned, because there are tens
of millions of them.

Each wrapper appends one span ``[name, layer, start, end, parent, op,
tag]`` to an in-memory list; ``parent`` is the index of the enclosing
span (-1 at the top) and ``op`` the index of the benchmark operation.
`layer_metrics` turns the spans and counters into the per-layer metrics
after the pass; `dump` writes the spans out.
"""

from __future__ import annotations

import gzip
import json
import math
import sys
import time
import warnings
from collections import Counter
from typing import Callable, Dict, Iterable, Optional

import scipy.integrate

NAME, LAYER, START, END, PARENT, OP, TAG = range(7)

CHECKS = ("grey_check", "conservativity_check", "positivity_threshold", "largest_root")

# (module, attribute) of every wrapped function; the layer is the module
FUNCTIONS = (
    ("mechanisms", CHECKS),
    ("quadrature", ("adaptive", "tail_verdict_upper", "tail_verdict_lower")),
    ("classify", ("classify_zero_state", "rv_fastpath")),
    ("zeroset", ("laplace_exponent", "gzero_density")),
    ("cutout", ("_sweep", "sample_cutout", "cutout_with_sampler", "empirical_gzero",
                "statistics", "intersect")),
    ("ou", ("ou_sampler", "sample_ou_cutout")),
)

# (module, class, methods) of every wrapped method
METHODS = (
    ("flow", "FlowSolver", ("v_from_infinity", "v_from_lambda", "tail_time", "cbi_laplace")),
    ("cutout", "DurationSampler", ("from_mechanisms", "from_tail", "sample_array")),
)

MECHANISM_CLASSES = ("StableBranching", "QuadraticBranching", "CustomBranching",
                     "StableImmigration", "GammaImmigration", "LampertiImmigration",
                     "CompoundPoissonImmigration", "CustomImmigration")
CUSTOM_CLASSES = ("CustomBranching", "CustomImmigration")

LAYERS = ("mechanisms", "quadrature", "classify", "flow", "zeroset", "cutout", "ou")


class Tracer:
    """Spans and counters for one benchmark pass."""

    def __init__(self, extra_modules: Iterable = ()):
        self.spans: list = []
        self.stack: list = []
        self.op: Optional[int] = None
        self.counts: Counter = Counter()
        self.evals = [0, 0]          # all mechanism calls, custom ones
        self.extra_modules = list(extra_modules)
        self.missing: list = []
        self._restore: list = []

    # -- spans ------------------------------------------------------------

    def begin(self, name: str, layer: str) -> list:
        rec = [name, layer, 0.0, 0.0, self.stack[-1] if self.stack else -1, self.op, None]
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        rec[START] = time.perf_counter()
        return rec

    def end(self, rec: list) -> None:
        rec[END] = time.perf_counter()
        self.stack.pop()

    def _wrap(self, layer: str, name: str, fn: Callable,
              on_result: Optional[Callable] = None) -> Callable:
        tracer = self

        def wrapper(*args, **kwargs):
            rec = tracer.begin(name, layer)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.end(rec)
                rec[TAG] = "error"
                raise
            tracer.end(rec)
            if on_result is not None:
                on_result(rec, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    # -- installation -----------------------------------------------------

    def _modules(self):
        mods = [m for n, m in sys.modules.items()
                if n == "cbizero" or n.startswith("cbizero.")]
        return mods + self.extra_modules

    def _rebind(self, original, replacement) -> None:
        for mod in self._modules():
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, replacement)
                    self._restore.append((mod, attr, original))

    def _set(self, owner, attr, value) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> "Tracer":
        """Wrap every boundary; the cbizero package must be imported."""
        hooks = self._result_hooks()
        for module_name, names in FUNCTIONS:
            mod = sys.modules[f"cbizero.{module_name}"]
            for name in names:
                original = getattr(mod, name, None)
                if original is None:
                    self.missing.append(f"{module_name}.{name}")
                    continue
                self._rebind(original, self._wrap(module_name, name, original,
                                                  hooks.get(name)))
        for module_name, class_name, names in METHODS:
            cls = getattr(sys.modules[f"cbizero.{module_name}"], class_name)
            for name in names:
                raw = cls.__dict__.get(name)
                if raw is None:
                    self.missing.append(f"{module_name}.{class_name}.{name}")
                    continue
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self._wrap(module_name, name, raw.__func__,
                                                     hooks.get(name)))
                else:
                    wrapped = self._wrap(module_name, name, raw, hooks.get(name))
                self._set(cls, name, wrapped)
        self._install_mechanism_counters()
        self._set(scipy.integrate, "quad", self._counting_quad(scipy.integrate.quad))
        return self

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def _install_mechanism_counters(self) -> None:
        mechanisms = sys.modules["cbizero.mechanisms"]
        evals, counts = self.evals, self.counts
        for class_name in MECHANISM_CLASSES:
            cls = getattr(mechanisms, class_name)
            original = cls.__dict__["__call__"]
            custom = class_name in CUSTOM_CLASSES

            def call(mech, q, _original=original, _custom=custom):
                evals[0] += 1
                if _custom:
                    evals[1] += 1
                try:
                    return _original(mech, q)
                except Exception:
                    counts["mechanisms.errors"] += 1
                    raise

            self._set(cls, "__call__", call)

    def _counting_quad(self, quad: Callable) -> Callable:
        counts = self.counts
        category = scipy.integrate.IntegrationWarning

        def counting_quad(*args, **kwargs):
            counts["quadrature.quad_calls"] += 1
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always", category)
                result = quad(*args, **kwargs)
            counts["quadrature.quad_warnings"] += sum(
                1 for w in caught if issubclass(w.category, category))
            return result

        return counting_quad

    def _result_hooks(self) -> Dict[str, Callable]:
        counts = self.counts

        def verdict(rec, estimate):
            counts["quadrature.verdicts"] += 1
            counts["quadrature.panels"] += estimate.panels_used
            counts["quadrature.inconclusive"] += estimate.verdict == "inconclusive"

        def classified(rec, report):
            rec[TAG] = report.method
            counts["classify.calls"] += 1
            counts["classify.fastpath"] += report.method == "RVFastPath"
            counts["classify.inconclusive"] += report.zero_class == "Inconclusive"

        def built(rec, sampler):
            counts["cutout.table_points"] += len(sampler.log_time_rev)

        def sampled(rec, durations):
            counts["cutout.marks"] += len(durations)

        def swept(rec, result):
            counts["cutout.records"] += result[0].shape[0]
            counts["cutout.realizations"] += 1

        return {"tail_verdict_upper": verdict, "tail_verdict_lower": verdict,
                "classify_zero_state": classified, "from_tail": built,
                "sample_array": sampled, "_sweep": swept}

    # -- results ----------------------------------------------------------

    def layer_metrics(self, wall_s: float, import_s: float) -> Dict[str, float]:
        spans = self.spans
        children = [0.0] * len(spans)
        for rec in spans:
            if rec[PARENT] >= 0:
                children[rec[PARENT]] += rec[END] - rec[START]
        self_by_layer: Counter = Counter()
        for i, rec in enumerate(spans):
            self_by_layer[rec[LAYER]] += rec[END] - rec[START] - children[i]

        def ancestors(i):
            parent = spans[i][PARENT]
            while parent >= 0:
                yield spans[parent]
                parent = spans[parent][PARENT]

        def time_of(names, tag=None, under=None, not_under=None):
            """Time in spans named `names`, outermost only (no double count)."""
            total = 0.0
            for i, rec in enumerate(spans):
                if rec[NAME] not in names or (tag is not None and rec[TAG] != tag):
                    continue
                above = [a[NAME] for a in ancestors(i)]
                if any(a in names for a in above):
                    continue
                if under is not None and under not in above:
                    continue
                if not_under is not None and not_under in above:
                    continue
                total += rec[END] - rec[START]
            return total

        def calls(name):
            return sum(1 for rec in spans if rec[NAME] == name)

        def errors(layer):
            """Exceptions that escaped the layer (raised by its outermost span)."""
            return sum(1 for rec in spans
                       if rec[LAYER] == layer and rec[TAG] == "error"
                       and (rec[PARENT] < 0 or spans[rec[PARENT]][LAYER] != layer))

        c = self.counts
        classify_calls = c["classify.calls"]
        marks, sweep_s = c["cutout.marks"], time_of({"_sweep"})
        metrics = {
            "mechanisms.evals": self.evals[0],
            "mechanisms.custom_evals": self.evals[1],
            "mechanisms.checks_s": time_of(set(CHECKS)),
            "mechanisms.errors": c["mechanisms.errors"] + errors("mechanisms"),
            "quadrature.quad_calls": c["quadrature.quad_calls"],
            "quadrature.quad_warnings": c["quadrature.quad_warnings"],
            "quadrature.verdicts": c["quadrature.verdicts"],
            "quadrature.panels": c["quadrature.panels"],
            "quadrature.inconclusive": c["quadrature.inconclusive"],
            "quadrature.verdict_s": time_of({"tail_verdict_upper", "tail_verdict_lower"}),
            "quadrature.adaptive_self_s": math.fsum(
                rec[END] - rec[START] - children[i]
                for i, rec in enumerate(spans) if rec[NAME] == "adaptive"),
            "classify.calls": classify_calls,
            "classify.fastpath_share": (c["classify.fastpath"] / classify_calls
                                        if classify_calls else 0.0),
            "classify.fastpath_s": time_of({"rv_fastpath"}),
            "classify.numeric_s": time_of({"classify_zero_state"}, tag="NumericIntegral"),
            "classify.inconclusive": c["classify.inconclusive"],
            "flow.v_inf_calls": calls("v_from_infinity"),
            "flow.v_inf_s": time_of({"v_from_infinity"}),
            "flow.tail_time_calls": calls("tail_time"),
            "flow.tail_time_s": time_of({"tail_time"}),
            "flow.v_lambda_s": time_of({"v_from_lambda"}),
            "flow.cbi_laplace_s": time_of({"cbi_laplace"}),
            "flow.errors": errors("flow"),
            "zeroset.laplace_s": time_of({"laplace_exponent"}),
            "zeroset.gzero_s": time_of({"gzero_density"}),
            "zeroset.errors": errors("zeroset"),
            "cutout.build_s": time_of({"from_mechanisms", "from_tail"},
                                      not_under="ou_sampler"),
            "cutout.table_points": c["cutout.table_points"],
            "cutout.sweep_s": sweep_s,
            "cutout.marks": marks,
            "cutout.records": c["cutout.records"],
            "cutout.records_per_mark": c["cutout.records"] / marks if marks else 0.0,
            "cutout.ns_per_mark": 1e9 * sweep_s / marks if marks else 0.0,
            "cutout.stats_s": time_of({"statistics"}),
            "cutout.realizations": c["cutout.realizations"],
            "cutout.intersect_s": time_of({"intersect"}),
            "ou.build_s": time_of({"ou_sampler"}),
            "ou.sweep_s": time_of({"_sweep"}, under="sample_ou_cutout"),
            "cli.import_s": import_s,
        }
        for layer in LAYERS:
            metrics[f"{layer}.self_s"] = float(self_by_layer[layer])
        total_self = sum(self_by_layer.values())
        metrics["trace.self_share"] = total_self / wall_s if wall_s > 0 else 0.0
        metrics["trace.spans"] = len(spans)
        return metrics

    def dump(self, path: str, ops: list) -> None:
        """Write the spans (times relative to the first span) as gzipped JSON."""
        origin = self.spans[0][START] if self.spans else 0.0
        payload = {
            "fields": ["name", "layer", "start_s", "end_s", "parent", "op", "tag"],
            "ops": ops,
            "missing_boundaries": self.missing,
            "spans": [[r[NAME], r[LAYER], r[START] - origin, r[END] - origin,
                       r[PARENT], r[OP], r[TAG]] for r in self.spans],
        }
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump(payload, fh)
