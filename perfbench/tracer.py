"""Per-layer spans recorded around calls into catlp's public functions.

The library is not modified: :meth:`Tracer.install` rebinds each traced
function, in every ``catlp`` module that holds it, to a wrapper that records
a span (layer, parent span, command id, start, end).  ``from .abstraction
import abstract_of`` copies the name into ``reduct``, ``analysis`` and
``cli``, so rebinding only the defining module would miss those callers.

Spans nest: ``stable_models -> is_stable -> gl_reduct -> theta_atom``.  A
layer's self time is the duration of its spans minus the time their direct
child spans cover.
"""

from __future__ import annotations

import sys
from array import array
from time import perf_counter

#: Traced functions by defining module; ``theta_atom`` and ``beta_atom``
#: together form the naming layer.
LAYERS = {
    ("parser", "load_program"): "parser.load_program",
    ("parser", "desugar_weight"): "parser.desugar_weight",
    ("parser", "desugar_aggregate"): "parser.desugar_aggregate",
    ("abstraction", "abstract_of"): "abstraction.abstract_of",
    ("abstraction", "build_abstract"): "abstraction.build_abstract",
    ("abstraction", "classify_catom"): "abstraction.classify_catom",
    ("abstraction", "satisfiable_sets"): "abstraction.satisfiable_sets",
    ("reduct", "theta_atom"): "reduct.naming",
    ("reduct", "beta_atom"): "reduct.naming",
    ("reduct", "reduct_size_bound"): "reduct.reduct_size_bound",
    ("reduct", "gl_reduct"): "reduct.gl_reduct",
    ("reduct", "least_model"): "reduct.least_model",
    ("reduct", "minimal_models"): "reduct.minimal_models",
    ("reduct", "is_stable"): "reduct.is_stable",
    ("reduct", "stable_models"): "reduct.stable_models",
    ("fixpoint", "fixpoint_stable"): "fixpoint.fixpoint_stable",
    ("fixpoint", "tp_step"): "fixpoint.tp_step",
    ("fixpoint", "cond_satisfies"): "fixpoint.cond_satisfies",
    ("core", "complement"): "core.complement",
    ("core", "is_model"): "core.is_model",
    ("analysis", "translate_normal"): "analysis.translate_normal",
    ("analysis", "dependency_graph"): "analysis.dependency_graph",
    ("analysis", "cycle_report"): "analysis.cycle_report",
    ("cli", "run"): "cli.run",
}


class Tracer:
    """Span recorder; install, run commands, uninstall, then read ``metrics``."""

    def __init__(self):
        self.layer_names = sorted(set(LAYERS.values()))
        self.span_layer = array("i")
        self.span_parent = array("i")
        self.span_command = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.command = 0
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        # Counts read off arguments and results at the span boundaries.
        self.rules_emitted = 0
        self.minimal_models_atoms_max = 0
        self.stable_verdicts = 0
        self._abstract_of = None
        self._cache_before = None

    # -- wrapping -------------------------------------------------------------

    def _wrap(self, fn, layer: int, after=None):
        stack = self._stack
        layers, parents, commands = self.span_layer, self.span_parent, self.span_command
        starts, ends = self.span_start, self.span_end

        def traced(*args, **kwargs):
            index = len(starts)
            layers.append(layer)
            parents.append(stack[-1] if stack else -1)
            commands.append(self.command)
            ends.append(0.0)
            stack.append(index)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = perf_counter()
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        return traced

    def _after_gl_reduct(self, args, result):
        self.rules_emitted += len(result.rules)

    def _after_minimal_models(self, args, result):
        self.minimal_models_atoms_max = max(self.minimal_models_atoms_max, len(args[0].atoms))

    def _after_is_stable(self, args, result):
        self.stable_verdicts += bool(result)

    def install(self) -> None:
        """Rebind every traced function in every loaded ``catlp`` module."""
        hooks = {
            "reduct.gl_reduct": self._after_gl_reduct,
            "reduct.minimal_models": self._after_minimal_models,
            "reduct.is_stable": self._after_is_stable,
        }
        modules = [m for name, m in list(sys.modules.items())
                   if name == "catlp" or name.startswith("catlp.")]
        self._abstract_of = sys.modules["catlp.abstraction"].abstract_of
        self._cache_before = self._abstract_of.cache_info()
        for (module, function), layer in LAYERS.items():
            original = getattr(sys.modules[f"catlp.{module}"], function)
            wrapper = self._wrap(original, self.layer_names.index(layer), hooks.get(layer))
            for holder in modules:
                for attr, value in list(vars(holder).items()):
                    if value is original:
                        self._patches.append((holder, attr, original))
                        setattr(holder, attr, wrapper)

    def uninstall(self) -> None:
        for holder, attr, original in reversed(self._patches):
            setattr(holder, attr, original)
        self._patches.clear()

    # -- results --------------------------------------------------------------

    def self_times(self, factors=None) -> tuple[list[int], list[float]]:
        """Calls and self seconds per layer, indexed like ``layer_names``.

        ``factors`` maps a command id to the scale for its spans' times.
        """
        covered = [0.0] * len(self.span_start)
        calls = [0] * len(self.layer_names)
        self_s = [0.0] * len(self.layer_names)
        for index, parent in enumerate(self.span_parent):
            if parent >= 0:
                covered[parent] += self.span_end[index] - self.span_start[index]
        for index, layer in enumerate(self.span_layer):
            scale = factors[self.span_command[index]] if factors else 1.0
            calls[layer] += 1
            self_s[layer] += scale * (
                self.span_end[index] - self.span_start[index] - covered[index])
        return calls, self_s

    def metrics(self, factors=None) -> dict[str, float]:
        """Every per-layer statistic the spans and boundary counts give."""
        calls, self_s = self.self_times(factors)
        out: dict[str, float] = {}
        for layer, name in enumerate(self.layer_names):
            out[f"{name}.calls"] = calls[layer]
            out[f"{name}.self_s"] = self_s[layer]
        after = self._abstract_of.cache_info()
        out["abstraction.abstract_of.misses"] = after.misses - self._cache_before.misses
        out["reduct.gl_reduct.rules_emitted"] = self.rules_emitted
        out["reduct.minimal_models.atoms_max"] = self.minimal_models_atoms_max
        tried = calls[self.layer_names.index("reduct.is_stable")]
        out["reduct.stable_yield"] = self.stable_verdicts / tried if tried else 0.0
        return out

    def write_spans(self, path) -> None:
        """One tab-separated line per span: command, layer, parent, start, end."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("span\tcommand\tlayer\tparent\tstart\tend\n")
            for index in range(len(self.span_start)):
                handle.write("%d\t%d\t%s\t%d\t%.9f\t%.9f\n" % (
                    index, self.span_command[index],
                    self.layer_names[self.span_layer[index]], self.span_parent[index],
                    self.span_start[index], self.span_end[index]))
