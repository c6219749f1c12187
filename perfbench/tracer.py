"""In-process span tracer for the thermoshift modules.

The tracer wraps, from the outside, every public function and public method
(plus ``__init__``) of each package module and patches every namespace that
holds one, so from-imported names (``cli`` binds ``gibbs_measure`` and
friends) are traced too.  Spans live in memory as tuples

    (name id, parent span, invocation id, start, end, inclusive s, self s)

and are written out when the run ends.  A generator function gets one span
whose time is the sum of its ``next`` calls; that time is charged to the
generator, not to the consumer that drives it.
"""

from __future__ import annotations

import dataclasses
import functools
import inspect
import json
import os
import sys
from collections import defaultdict
from time import perf_counter

LAYERS = ("cli", "modelio", "sft", "potentials", "transfer", "measures",
          "variational", "hofbauer", "interval_maps")

# private callables traced as well, because a metric needs them
EXTRA = {"cli._write_csv"}


def _add(key, amount):
    def hook(counters, args, kwargs, result):
        counters[key] += amount(args, result)
    return hook


def _max_bits(counters, args, kwargs, result):
    counters["sft.count_bits_max"] = max(counters["sft.count_bits_max"],
                                         result.bit_length())


# name -> hook(counters, args, kwargs, result), for count metrics
HOOKS = {
    "cli._write_csv": _add("cli.csv_rows", lambda a, r: r),
    "modelio.parse": _add("modelio.parse_bytes", lambda a, r: os.path.getsize(a[0])),
    "sft.SubshiftOfFiniteType.count_words": _max_bits,
    "potentials.LocallyConstantPotential.__init__":
        _add("potentials.table_words", lambda a, r: len(a[0].table)),
    "transfer.leading_eigen":
        _add("transfer.eigen_iterations", lambda a, r: r.iterations),
    "variational.lattice_equilibrium":
        _add("variational.lattice_configs", lambda a, r: a[1].sft.m ** a[0]),
    "measures.MarkovMeasure.sample_path":
        _add("measures.sample_steps", lambda a, r: a[1]),
    "interval_maps.bowen_dimension":
        _add("interval_maps.root_steps", lambda a, r: r.iterations),
    "hofbauer.HofbauerPotential.s_array":
        _add("hofbauer.series_terms", lambda a, r: a[1]),
    "hofbauer.CriticalPowerFamily.s_array":
        _add("hofbauer.series_terms", lambda a, r: a[1]),
}

# spans deeper than this below cli.main are written only as totals; all of
# them would take tens of megabytes per run
SPAN_DEPTH = 3

# generator name -> counter of items it yielded
GENERATOR_COUNTERS = {
    "sft.SubshiftOfFiniteType.cylinders": "sft.cylinder_words",
    "measures.MarkovMeasure.support_words": "measures.support_words",
}


class Tracer:
    def __init__(self):
        self.names = []
        self.spans = []
        self.stack = []          # open spans as [span index, child seconds]
        self.invocation = -1
        self.counters = defaultdict(int)
        self._patches = []

    # -- recording ---------------------------------------------------------------

    def _call_wrapper(self, nid, fn, hook):
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            frame = [idx, 0.0]
            parent = stack[-1][0] if stack else -1
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                dur = t1 - t0
                if stack:
                    stack[-1][1] += dur
                spans[idx] = (nid, parent, self.invocation, t0, t1, dur,
                              dur - frame[1])
            if hook is not None:
                hook(self.counters, args, kwargs, result)
            return result

        return traced

    def _generator_wrapper(self, nid, fn, counter):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self.stack[-1][0] if self.stack else -1
            idx = len(self.spans)
            self.spans.append(None)
            return self._drive(fn(*args, **kwargs), nid, idx, parent, counter)

        return traced

    def _drive(self, gen, nid, idx, parent, counter):
        stack = self.stack
        busy = child = 0.0
        first = last = None
        items = 0
        try:
            while True:
                frame = [idx, 0.0]
                stack.append(frame)
                t0 = perf_counter()
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    last = perf_counter()
                    stack.pop()
                    busy += last - t0
                    child += frame[1]
                    if stack:
                        stack[-1][1] += last - t0
                    if first is None:
                        first = t0
                items += 1
                yield item
        finally:
            gen.close()
            if first is not None:
                self.spans[idx] = (nid, parent, self.invocation, first, last,
                                   busy, busy - child)
            if counter:
                self.counters[counter] += items

    def _wrap(self, name, fn):
        nid = len(self.names)
        self.names.append(name)
        if inspect.isgeneratorfunction(fn):
            return self._generator_wrapper(nid, fn, GENERATOR_COUNTERS.get(name))
        return self._call_wrapper(nid, fn, HOOKS.get(name))

    # -- patching ----------------------------------------------------------------

    def install(self, package):
        """Wrap every traced callable of ``package`` and patch all its holders."""
        modules = [sys.modules[f"{package}.{layer}"] for layer in LAYERS]
        namespaces = modules + [sys.modules[package]]
        for layer, mod in zip(LAYERS, modules):
            for attr, obj in list(vars(mod).items()):
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                public = not attr.startswith("_") or f"{layer}.{attr}" in EXTRA
                if inspect.isfunction(obj) and public:
                    wrapped = self._wrap(f"{layer}.{attr}", obj)
                    for ns in namespaces:
                        for key, val in list(vars(ns).items()):
                            if val is obj:
                                self._patch(ns, key, wrapped)
                elif inspect.isclass(obj) and not issubclass(obj, BaseException):
                    self._install_class(layer, obj)

    def _install_class(self, layer, cls):
        for attr, val in list(vars(cls).items()):
            if attr == "__init__":
                if dataclasses.is_dataclass(cls):
                    continue
            elif attr.startswith("_"):
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            if isinstance(val, classmethod):
                self._patch(cls, attr, classmethod(self._wrap(name, val.__func__)))
            elif isinstance(val, staticmethod):
                self._patch(cls, attr, staticmethod(self._wrap(name, val.__func__)))
            elif inspect.isfunction(val):
                self._patch(cls, attr, self._wrap(name, val))

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- analysis ------------------------------------------------------------------

    def layer_self(self, invocations=None):
        """Self seconds per layer: span time minus the time its children cover.

        ``invocations`` restricts the sum to spans of those invocation ids.
        """
        out = dict.fromkeys(LAYERS, 0.0)
        for span in self.spans:
            if span is not None and (invocations is None or span[2] in invocations):
                out[self.names[span[0]].split(".", 1)[0]] += span[6]
        return out

    def inclusive(self, names, exclude_under=()):
        """(seconds, calls) over the outermost spans of ``names``.

        A span nested inside another span of ``names`` is not counted again;
        a span with an ancestor in ``exclude_under`` is skipped.
        """
        ids = {i for i, n in enumerate(self.names) if n in names}
        blocking = ids | {i for i, n in enumerate(self.names) if n in exclude_under}
        total, calls = 0.0, 0
        spans = self.spans
        for span in spans:
            if span is None or span[0] not in ids:
                continue
            parent = spans[span[1]] if span[1] >= 0 else None
            while parent is not None and parent[0] not in blocking:
                parent = spans[parent[1]] if parent[1] >= 0 else None
            if parent is None:
                total += span[5]
                calls += 1
        return total, calls

    def write(self, path):
        """Write spans as JSON lines: every span down to SPAN_DEPTH calls
        below ``cli.main``, then per invocation and callable the number of
        calls and their summed inclusive and self seconds over all depths."""
        depth = [0] * len(self.spans)
        totals = defaultdict(lambda: [0, 0.0, 0.0])
        with open(path, "w", encoding="utf-8") as fh:
            for i, span in enumerate(self.spans):
                if span is None:
                    continue
                nid, parent, inv, start, end, incl, own = span
                depth[i] = depth[parent] + 1 if parent >= 0 else 0
                total = totals[(inv, nid)]
                total[0] += 1
                total[1] += incl
                total[2] += own
                if depth[i] <= SPAN_DEPTH:
                    fh.write(json.dumps({
                        "span": i, "name": self.names[nid], "parent": parent,
                        "invocation": inv, "start": start, "end": end,
                        "inclusive_s": incl, "self_s": own}) + "\n")
            for (inv, nid), (calls, incl, own) in sorted(totals.items()):
                fh.write(json.dumps({
                    "total": self.names[nid], "invocation": inv, "calls": calls,
                    "inclusive_s": incl, "self_s": own}) + "\n")
