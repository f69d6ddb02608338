"""Per-layer tracing of cind from outside the package.

The tracer replaces module attributes and class methods of the loaded ``cind``
modules with wrappers.  A wrapper either records a span (name, layer, start,
end, parent span, verdict id) or bumps a counter; nothing under ``src/`` is
edited.  Spans stay in memory and are summarised, and optionally written out,
when the pass ends.

Functions called once per value (``Node.__hash__``, ``zip_values``,
``truncate_term``, ``Measuring.eval``, ...) are counted, never timed: a span
per call would cost more than the work it measures.  Their time lands in the
self time of the enclosing span.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from collections import defaultdict

LAYERS = ("kernel", "carriers", "transport", "measuring", "oracle", "dsl",
          "gallery", "cli")

# public functions that are not spanned: called once per value, or recursive
PER_VALUE = {
    "kernel": {"node", "is_bottom", "functor_map", "zip_values", "unit_value",
               "nat_apply", "const_sig", "shape_sig"},
    "carriers": {"term_depth", "truncate_term", "render_term", "render_value",
                 "fold"},
}

# the spans whose inclusive time is reported as its own metric
INCLUSIVE = {
    "dsl.parse_s": ("dsl.parse",),
    "measuring.transport_s": ("measuring.push_measuring",
                              "measuring.pull_measuring",
                              "measuring.embed_measuring"),
    "oracle.build_s": ("oracle.build",),
    "oracle.search_s": ("oracle.solve",),
    "transport.restrict_s": ("transport.restrict_coalgebra",),
    "transport.expand_s": ("transport.expand_algebra",),
    "transport.pushout_s": ("transport.pushout_algebra",),
    "transport.pushforward_s": ("transport.pushforward_coalgebra",),
    "transport.pullback_s": ("transport.pullback_algebra",),
}

COUNTS = (
    "kernel.node_hash_calls", "kernel.node_eq_calls", "kernel.fvalues_values",
    "kernel.zip_calls",
    "carriers.terms_enumerated", "carriers.truncate_calls",
    "measuring.law_checked", "measuring.eval_calls",
    "oracle.solve_calls", "oracle.steps", "oracle.solutions_kept",
    "oracle.verdicts", "oracle.raw_tables_tried", "oracle.raw_lawful",
    "oracle.cells", "oracle.law_instances", "oracle.c_initial_targets",
    "oracle.morphism_candidates", "oracle.budget_outs",
    "transport.restrict_states", "transport.restrict_kept",
)


def union_length(intervals) -> float:
    """Total length covered by a collection of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans) -> list:
    """Per span: its duration minus the part of its interval that its child
    spans cover.  ``spans`` are (name, layer, start, end, parent, verdict)."""
    children = defaultdict(list)
    for s in spans:
        if s[4] >= 0:
            children[s[4]].append(s)
    out = []
    for i, (_, _, start, end, _, _) in enumerate(spans):
        covered = union_length((max(c[2], start), min(c[3], end))
                               for c in children[i] if c[3] > start and c[2] < end)
        out.append(end - start - covered)
    return out


def _family_size(sig, n_elems: int) -> int:
    """|F(A)|: the number of signature values over an n-element carrier."""
    m = len(sig.monoid.elements)
    if sig.kind == "const":
        return m
    return 1 + m * n_elems ** sig.arity


class Tracer:
    """Spans and counters for one pass.  ``install`` patches the loaded cind
    modules; ``uninstall`` puts every original back."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.verdict = -1
        self.counts = dict.fromkeys(COUNTS, 0)
        self.solver_verdicts = set()
        self._saved = []

    # -- wrappers ---------------------------------------------------------

    def _spanned(self, name, layer, fn, on_result=None):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append([name, layer, clock(), 0.0, stack[-1] if stack else -1,
                          self.verdict])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][3] = clock()
            if on_result is not None:
                on_result(args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _counted(self, key, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def _sized(self, key, fn):
        """Counts the length of each result instead of the calls."""
        counts = self.counts

        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            counts[key] += len(result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _set(self, owner, attr, value):
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _replace_everywhere(self, modules, original, wrapped):
        """Rebind every module-level reference to ``original``, so calls from
        other cind modules (``from .x import f``) reach the wrapper too."""
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, attr, wrapped)

    # -- result hooks -----------------------------------------------------

    def _on_solve(self, args, result):
        c = self.counts
        c["oracle.solve_calls"] += 1
        c["oracle.steps"] += result.steps
        c["oracle.solutions_kept"] += len(result.solutions)
        c["oracle.budget_outs"] += not result.exhaustive
        self.solver_verdicts.add(self.verdict)

    def _on_build(self, args, result):
        _, coalg, alg = args
        n_states, n_elems = len(coalg.states), len(alg.elements)
        self.counts["oracle.cells"] += n_states * n_elems
        self.counts["oracle.law_instances"] += n_states * _family_size(alg.sig, n_elems)

    def _on_raw(self, args, result):
        c, a, b = args[0], args[1], args[2]
        self.counts["oracle.raw_tables_tried"] += \
            len(b.elements) ** (len(c.states) * len(a.elements))
        self.counts["oracle.raw_lawful"] += len(result)

    def _on_algebra_morphisms(self, args, result):
        a, b = args[0], args[1]
        self.counts["oracle.morphism_candidates"] += len(b.elements) ** len(a.elements)

    def _on_coalgebra_morphisms(self, args, result):
        c, d = args[0], args[1]
        self.counts["oracle.morphism_candidates"] += len(d.states) ** len(c.states)

    def _on_c_initial(self, args, result):
        self.counts["oracle.c_initial_targets"] += len(args[2])

    def _on_law(self, args, result):
        self.counts["measuring.law_checked"] += result.checked

    def _on_restrict(self, args, result):
        self.counts["transport.restrict_states"] += len(args[1].states)
        self.counts["transport.restrict_kept"] += len(result.kept)

    # -- install ----------------------------------------------------------

    def install(self):
        layers = {layer: importlib.import_module(f"cind.{layer}") for layer in LAYERS}
        kernel, measuring, oracle = layers["kernel"], layers["measuring"], layers["oracle"]
        modules = [m for name, m in sys.modules.items()
                   if name == "cind" or name.startswith("cind.")]
        hooks = {
            "measuring.check_law": self._on_law,
            "oracle.raw_lawful_tables": self._on_raw,
            "oracle.algebra_morphisms": self._on_algebra_morphisms,
            "oracle.coalgebra_morphisms": self._on_coalgebra_morphisms,
            "oracle.check_c_initial": self._on_c_initial,
            "transport.restrict_coalgebra": self._on_restrict,
        }
        sized = {"kernel.fvalues": "kernel.fvalues_values",
                 "carriers.terms_up_to": "carriers.terms_enumerated"}
        counted = {"kernel.zip_values": "kernel.zip_calls",
                   "carriers.truncate_term": "carriers.truncate_calls"}
        for layer, mod in layers.items():
            for attr, fn in list(vars(mod).items()):
                if (attr.startswith("_") or not callable(fn) or isinstance(fn, type)
                        or getattr(fn, "__module__", None) != mod.__name__):
                    continue
                name = f"{layer}.{attr}"
                if attr in PER_VALUE.get(layer, ()):
                    if name not in counted:
                        continue
                    wrapped = self._counted(counted[name], fn)
                else:
                    inner = self._sized(sized[name], fn) if name in sized else fn
                    wrapped = self._spanned(name, layer, inner, hooks.get(name))
                self._replace_everywhere(modules, fn, wrapped)

        node_hash, node_eq = kernel.Node.__hash__, kernel.Node.__eq__
        self._set(kernel.Node, "__hash__", self._counted("kernel.node_hash_calls", node_hash))
        self._set(kernel.Node, "__eq__", self._counted("kernel.node_eq_calls", node_eq))
        self._set(measuring.Measuring, "eval",
                  self._counted("measuring.eval_calls", measuring.Measuring.eval))
        structure = oracle._Structure
        self._set(structure, "__init__", self._spanned(
            "oracle.build", "oracle", structure.__init__, self._on_build))
        self._set(structure, "solve", self._spanned(
            "oracle.solve", "oracle", structure.solve, self._on_solve))

    def uninstall(self):
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)

    # -- summary ----------------------------------------------------------

    def layer_metrics(self) -> dict:
        """Every per-layer metric of the pass: counters, self times per layer,
        and the inclusive times of the named spans."""
        spans = self.spans
        out = {}
        selfs = self_times(spans)
        for layer in LAYERS:
            out[f"{layer}.self_s"] = sum((t for s, t in zip(spans, selfs) if s[1] == layer), 0.0)
        for metric, names in INCLUSIVE.items():
            out[metric] = union_length((s[2], s[3]) for s in spans if s[0] in names)
        counts = dict(self.counts)
        counts["oracle.verdicts"] = len(self.solver_verdicts)
        out.update(counts)
        return out

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "layer", "start", "end", "parent", "verdict"],
                       "spans": self.spans}, fh)
