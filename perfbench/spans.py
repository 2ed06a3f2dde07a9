"""Outside-in tracing: spans recorded around the package's public functions.

`traced(package, recorder)` wraps every public function defined in the
layer modules and swaps the wrapper in wherever a module of the package
holds a reference to the original (for example both
`anonarray.verify.classify` and `anonarray.construct.classify`), then
restores the originals.  Nothing in the package changes on disk.

A span is [name, start, end, parent index]; spans stay in memory and are
written out by the caller when the run ends.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

LAYERS = ("io", "model", "constraints", "verify", "homogeneity", "construct")


def _count_credentials(counts, args, kwargs, result):
    counts["model.rows_projected"] += args[0].n_rows
    counts["model.distinct_tuples"] += len(result.counts)


def _neighborhoods(counts, args, kwargs, result):
    counts["homogeneity.neighborhoods.members"] += sum(len(nb.members) for nb in result)


def _construct_padding(counts, args, kwargs, result):
    counts["construct.rows_appended"] += result.padding_count


# Counts taken from a call's arguments and result, after its span closes.
COUNTERS = {
    "model.count_credentials": _count_credentials,
    "homogeneity.neighborhoods": _neighborhoods,
    "construct.construct_padding": _construct_padding,
}


class Recorder:
    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self._stack = []

    def wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        counter = COUNTERS.get(name)
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if counter is not None:
                counter(counts, args, kwargs, result)
            return result

        return wrapper

    def summary(self):
        """Per span name: calls, inclusive seconds (outermost spans only)
        and self seconds (duration minus the direct children's)."""
        calls = Counter()
        total = defaultdict(float)
        self_s = defaultdict(float)
        for name, start, end, parent in self.spans:
            calls[name] += 1
            self_s[name] += end - start
            if parent >= 0:
                self_s[self.spans[parent][0]] -= end - start
        for i, (name, start, end, parent) in enumerate(self.spans):
            p = parent
            while p >= 0 and self.spans[p][0] != name:
                p = self.spans[p][3]
            if p < 0:
                total[name] += end - start
        return {
            name: {"calls": calls[name], "s": total[name], "self_s": self_s[name]}
            for name in calls
        }

    def descendants_of(self, ancestor_name, name):
        """Number of spans called `name` with an ancestor called `ancestor_name`."""
        n = 0
        for span in self.spans:
            if span[0] != name:
                continue
            p = span[3]
            while p >= 0 and self.spans[p][0] != ancestor_name:
                p = self.spans[p][3]
            n += p >= 0
        return n

    def dump(self, path):
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "fields": ["name", "start_s", "end_s", "parent"],
                    "spans": [[n, s - t0, e - t0, p] for n, s, e, p in self.spans],
                    "counts": dict(self.counts),
                },
                fh,
            )


@contextmanager
def traced(package, recorder):
    """Route every call to a layer's public functions through `recorder`."""
    wrappers = {}
    for layer in LAYERS:
        module = sys.modules[f"{package.__name__}.{layer}"]
        for attr, obj in vars(module).items():
            if (
                not attr.startswith("_")
                and inspect.isfunction(obj)
                and obj.__module__ == module.__name__
            ):
                wrappers[obj] = recorder.wrap(f"{layer}.{attr}", obj)
    swapped = []
    prefix = package.__name__ + "."
    for mod_name, module in list(sys.modules.items()):
        if module is None or not (mod_name == package.__name__ or mod_name.startswith(prefix)):
            continue
        for attr, obj in list(vars(module).items()):
            if inspect.isfunction(obj) and obj in wrappers:
                setattr(module, attr, wrappers[obj])
                swapped.append((module, attr, obj))
    try:
        yield recorder
    finally:
        for module, attr, obj in swapped:
            setattr(module, attr, obj)
