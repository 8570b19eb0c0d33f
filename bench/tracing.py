"""Layer spans for the traced run, recorded at fluxq's public entry points.

``Tracer.install`` replaces each entry point listed in ``ENTRY_POINTS``, in
every ``fluxq`` module namespace that holds it, by a wrapper that records a
span when the call enters its layer (its defining module) from another
layer.  A call made while the innermost open span already belongs to the
same layer is passed straight through, so recursion inside a module is one
span.  ``remove`` puts the original functions back.

Spans are kept in memory as ``(item, name, layer, start, end, parent)``
tuples, where ``parent`` is the index of the enclosing span or -1, and are
written out by ``write`` when the run ends.
"""

from __future__ import annotations

import gzip
import importlib
import json
import sys
import time

LAYERS = ("cli", "parser", "types", "queries", "updates", "subtyping",
          "values", "evaluator", "enumeration", "printer")

ENTRY_POINTS = {
    "cli": ("main",),
    "parser": ("parse_program", "parse_type", "parse_value",
               "parse_env_bindings"),
    "types": ("check_signature", "check_type_declared"),
    "queries": ("check_query_program", "synth_expr", "synth_for",
                "filter_label"),
    "updates": ("check_update_program", "synth_stmt", "synth_iter"),
    "subtyping": ("subtype", "atom_subtype"),
    "values": ("member",),
    "evaluator": ("eval_query", "apply_update"),
    "enumeration": ("types_upto", "values_upto"),
    "printer": ("type_str", "value_str"),
}


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.item = -1
        self._open: list[int] = []  # indices of the open spans, innermost last
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, fn, layer: str, name: str):
        spans = self.spans
        open_ = self._open
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if open_ and spans[open_[-1]][2] == layer:
                return fn(*args, **kwargs)
            index = len(spans)
            spans.append((self.item, name, layer, 0.0, 0.0,
                          open_[-1] if open_ else -1))
            open_.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                open_.pop()
                item, _, _, _, _, parent = spans[index]
                spans[index] = (item, name, layer, start, end, parent)

        return traced

    def install(self) -> None:
        homes = {layer: importlib.import_module(f"fluxq.{layer}") for layer in LAYERS}
        modules = [m for key, m in sys.modules.items()
                   if m is not None and (key == "fluxq" or key.startswith("fluxq."))]
        for layer, names in ENTRY_POINTS.items():
            for name in names:
                original = getattr(homes[layer], name)
                wrapper = self._wrap(original, layer, name)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._saved.append((module, attr, original))
                            setattr(module, attr, wrapper)

    def remove(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def layer_totals(self) -> dict[str, dict[str, float]]:
        """Per layer: spans entered from another layer, and self time (span
        time minus the time covered by its child spans)."""
        child_time = [0.0] * len(self.spans)
        for _, _, _, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        totals = {layer: {"calls": 0, "self_s": 0.0} for layer in LAYERS}
        for index, (_, _, layer, start, end, _) in enumerate(self.spans):
            totals[layer]["calls"] += 1
            totals[layer]["self_s"] += end - start - child_time[index]
        return totals

    def write(self, path) -> None:
        with gzip.open(path, "wt", encoding="utf-8") as out:
            for index, (item, name, layer, start, end, parent) in enumerate(self.spans):
                out.write(json.dumps({"id": index, "item": item, "name": name,
                                      "layer": layer, "start": start,
                                      "end": end, "parent": parent}) + "\n")
