"""Per-layer tracing from outside the package.

``Tracer(treebraid)`` replaces the public functions of the modules
``tree``, ``cells``, ``forms``, ``delta``, ``oracle`` and ``cli`` (and
the two class entry points in ``ENTRY_POINTS``) with wrappers.  Calls
between modules go through module attributes, so the wrappers see them.

- A span wrapper records [name, start, end, parent span] in memory and
  tallies exceptions by type.
- Functions called once per cell or per pair of cells (``COUNTED``)
  would record millions of spans per pass; their wrappers only count
  calls and truthy returns.

``metrics()`` turns the spans and counts of one pass into the per-layer
figures.  A metric's target that the package no longer has is listed
in ``missing`` and its figures read 0, so a refactor that deletes a
helper does not stop the run.  These wrappers stand in for a stage
recorder inside the package; once one exists they should read it.
"""

import functools
import inspect
import time
from collections import Counter

LAYERS = ("tree", "cells", "forms", "delta", "oracle", "cli")

COUNTED = frozenset({
    "tree.direction",
    "cells.upper_bound_exists", "cells.lub_is_critical",
    "cells.edge_disrespectful_in_lub", "cells.is_critical",
    "cells.is_valid_reduced", "cells.radial_rank",
    "delta.m_cup_adjacent", "delta.cup_constant",
    "forms.eval_form", "forms.classify_exceptional",
    "forms.corresponding_cell",
})

# (module, class, attribute): constructors and class methods traced as
# spans; attribute "__init__" is reported under the class name
ENTRY_POINTS = (("forms", "ROrder", "__init__"),
                ("delta", "DeltaGraph", "from_json"))

# the wrapped call whose total inclusive time each "<name>.s" reports
TIMED = (
    "tree.subdivide_for", "tree.trees_homeomorphic",
    "cells.enumerate_reduced_1cells", "cells.count_critical_cells",
    "forms.ROrder", "forms.build_M", "forms.cup_normal_form",
    "forms.coboundary_oracle_check",
    "delta.build_delta", "delta.DeltaGraph.from_json", "delta.hierarchy",
    "delta.reconstruct_tree", "delta.detect_n", "delta.decide_isomorphic",
    "oracle.build_complex", "oracle.betti", "oracle.verify_morse_counts",
    "oracle.verify_d_equals_delta",
)
CALLS = ("tree.direction", "cells.upper_bound_exists",
         "forms.classify_exceptional", "forms.cup_normal_form",
         "forms.eval_form", "delta.m_cup_adjacent", "cli.main")

# sizes summed over a pass, read from return values: metric -> (target,
# function of the returned value)
SIZES = {
    "tree.subdivided_vertices": ("tree.subdivide_for", len),
    "cells.reduced_cells": ("cells.enumerate_reduced_1cells", len),
    "cells.critical_1cells": ("cells.count_critical_cells", lambda r: r[0]),
    "cells.critical_2cells": ("cells.count_critical_cells", lambda r: r[1]),
    "delta.delta_edges": ("delta.build_delta", lambda r: len(r.edges)),
    "delta.hierarchy_classes": ("delta.hierarchy", lambda r: len(r.classes)),
    "oracle.complex_cells": ("oracle.build_complex",
                             lambda r: sum(map(len, r.cells_by_dim))),
}
TARGETS = sorted(set(TIMED) | set(CALLS) | {t for t, _ in SIZES.values()})


class Tracer:
    def __init__(self, package):
        self.spans = []
        self._stack = []
        self.calls = Counter()
        self.truthy = Counter()
        self.raised = Counter()
        self.sizes = Counter()
        self._undo = []
        self.wrapped = set()
        for layer in LAYERS:
            mod = getattr(package, layer, None)
            if mod is None:
                continue
            for name, fn in list(vars(mod).items()):
                if (inspect.isfunction(fn) and not name.startswith("_")
                        and fn.__module__ == mod.__name__):
                    key = "%s.%s" % (layer, name)
                    self._patch(mod, name, key, fn, self._wrap(key, fn))
        for layer, cls_name, attr in ENTRY_POINTS:
            cls = getattr(getattr(package, layer, None), cls_name, None)
            raw = getattr(cls, "__dict__", {}).get(attr)
            if raw is None:
                continue
            key = "%s.%s" % (layer, cls_name)
            if isinstance(raw, classmethod):
                key += "." + attr
                self._patch(cls, attr, key, raw,
                            classmethod(self._wrap(key, raw.__func__)))
            else:
                self._patch(cls, attr, key, raw, self._wrap(key, raw))
        self.missing = [t for t in TARGETS if t not in self.wrapped]

    def _patch(self, owner, attr, key, original, wrapper):
        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, original))
        self.wrapped.add(key)

    def _wrap(self, key, fn):
        calls, truthy = self.calls, self.truthy
        if key in COUNTED:
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                result = fn(*args, **kwargs)
                calls[key] += 1
                if result:
                    truthy[key] += 1
                return result
            return counted

        spans, stack, raised, sizes = (self.spans, self._stack, self.raised,
                                       self.sizes)
        size_fns = [(m, f) for m, (t, f) in SIZES.items() if t == key]
        clock = time.perf_counter

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            record = [key, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(record)
            calls[key] += 1
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                raised[key, type(exc).__name__] += 1
                raise
            finally:
                record[2] = clock()
                stack.pop()
            for metric, size in size_fns:
                sizes[metric] += size(result)
            return result
        return spanned

    def uninstall(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def metrics(self):
        """Per-layer figures of everything recorded so far."""
        spans = self.spans
        children = [[] for _ in spans]
        for i, (_, _, _, parent) in enumerate(spans):
            if parent >= 0:
                children[parent].append(i)
        # inclusive time of the outermost span of each name
        inclusive = Counter()
        for i, (name, start, end, parent) in enumerate(spans):
            p = parent
            while p >= 0 and spans[p][0] != name:
                p = spans[p][3]
            if p < 0:
                inclusive[name] += end - start
        out = {"%s.s" % t: inclusive[t] for t in TIMED}
        out.update(("%s.calls" % t, self.calls[t]) for t in CALLS)
        out.update((m, self.sizes[m]) for m in SIZES)

        def ratio(a, b):
            return a / b if b else 0.0

        ub, ev, mc = ("cells.upper_bound_exists", "forms.eval_form",
                      "delta.m_cup_adjacent")
        out["cells.upper_bound_hit_ratio"] = ratio(self.truthy[ub],
                                                   self.calls[ub])
        out["forms.eval_form.hit_ratio"] = ratio(self.truthy[ev],
                                                 self.calls[ev])
        out["delta.edge_hit_ratio"] = ratio(self.sizes["delta.delta_edges"],
                                            self.calls[mc])
        out["delta.reconstruct_tree.refused"] = sum(
            v for (k, exc), v in self.raised.items()
            if k == "delta.reconstruct_tree" and exc == "Undefined")
        out["cli.main.self_s"] = self._self_time("cli.main", "cli.", children)
        out["trace.spans"] = len(spans)
        out["trace.missing_targets"] = len(self.missing)
        return out

    def _self_time(self, name, layer_prefix, children):
        """Time inside spans called ``name`` not covered by the nearest
        descendant spans of other layers."""
        spans = self.spans
        total = 0.0
        for i, (key, start, end, _) in enumerate(spans):
            if key != name:
                continue
            covered = 0.0
            todo = list(children[i])
            while todo:
                j = todo.pop()
                if spans[j][0].startswith(layer_prefix):
                    todo.extend(children[j])
                else:
                    covered += spans[j][2] - spans[j][1]
            total += end - start - covered
        return total
