"""Spans and counters recorded around calls into doobmds, from outside it.

A Tracer replaces module attributes of the program with timing wrappers, so
no file under src/ changes.  Every call into a wrapped function becomes a
span (name, start, end, parent) kept in memory; the caller writes the spans
out when the traced operation has ended.  A layer's self time is the time
inside its spans minus the time inside their direct child spans.

Wrapped names are public functions and Code methods, plus two private
functions of search whose split a layer metric needs: _member_tuples, timed
as sub-code enumeration when count_mds calls it, and _compatibility, whose
pair tests are counted but not timed.
"""

from __future__ import annotations

import importlib
import sys
import time
from array import array
from collections import Counter, defaultdict
from contextlib import contextmanager

# (module, attribute, span name).  Graph constructors all count as one layer.
SPANS = (
    ("graphs", "doob_graph", "graphs.doob_graph"),
    ("graphs", "shrikhande", "graphs.doob_graph"),
    ("graphs", "complete_graph", "graphs.doob_graph"),
    ("search", "count_mds", "search.count"),
    ("codes", "read_code", "codes.parse"),
    ("symmetry", "doob_symmetries", "symmetry.group"),
    ("symmetry", "orbits_of_codes", "symmetry.orbits"),
    ("reduction", "derive_pairing", "reduction.pairing"),
    ("reduction", "reduce_sh_coordinates", "reduction.reduce"),
    ("parity", "build_parity_code", "parity.build"),
    ("cli", "main", "cli.main"),
)

# Span names whose self time is a layer metric, and the metric it feeds.
LAYER_TIMES = {
    "graphs.doob_graph": "graphs.doob_graph_s",
    "search.subcodes": "search.subcodes_s",
    "search.count": "search.count_s",
    "codes.construct": "codes.construct_s",
    "codes.verify": "codes.verify_s",
    "codes.parse": "codes.parse_s",
    "cli.main": "cli.self_s",
    "symmetry.group": "symmetry.group_s",
    "symmetry.orbits": "symmetry.orbits_s",
    "reduction.pairing": "reduction.pairing_s",
    "reduction.reduce": "reduction.reduce_s",
    "parity.build": "parity.build_s",
}

COUNTERS = (
    "search.subcodes",
    "search.leaves",
    "search.pair_tests",
    "symmetry.generators",
    "symmetry.images",
    "symmetry.orbits",
    "reduction.codes",
    "parity.codes",
)

# The lru caches that would otherwise hide set-up work from a traced phase.
CACHED = (
    ("graphs", "doob_graph"),
    ("graphs", "shrikhande"),
    ("graphs", "complete_graph"),
    ("symmetry", "doob_symmetries"),
    ("reduction", "derive_pairing"),
    ("reduction", "sh_codes"),
    ("reduction", "k4_pair_codes"),
    ("parity", "even_point_indices"),
    ("parity", "_vertex_profile"),
)


def _module(name):
    return importlib.import_module(f"doobmds.{name}")


def clear_program_caches():
    """Empty the program's lru caches so the next call pays its set-up again."""
    for module, attribute in CACHED:
        getattr(_module(module), attribute).cache_clear()


# Counters taken from a wrapped call's result: span name -> (counter, amount).
_COUNT_ON = {
    "search.count": ("search.leaves", lambda result: result),
    "search.subcodes": ("search.subcodes", len),
    "symmetry.group": ("symmetry.generators", lambda result: len(result.generators)),
    "symmetry.orbits": ("symmetry.orbits", lambda result: len(result.classes)),
    "reduction.reduce": ("reduction.codes", lambda result: 1),
    "parity.build": ("parity.codes", lambda result: 1),
}


class Tracer:
    """In-memory span and counter recorder for one traced operation.

    Span fields live in flat arrays rather than one object per span, so that
    a few hundred thousand spans add no work to the garbage collector.
    """

    def __init__(self):
        self.names = []
        self.parents = array("l")  # index of the enclosing span, or -1
        self.starts = array("d")
        self.ends = array("d")
        self.counters = Counter({name: 0 for name in COUNTERS})
        self._stack = [-1]

    @property
    def spans(self):
        """Every span as [name, start, end, parent]."""
        return [list(span) for span in zip(self.names, self.starts, self.ends, self.parents)]

    def _open(self, name):
        index = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1])
        self.ends.append(0.0)
        self._stack.append(index)
        self.starts.append(time.perf_counter())
        return index

    def _close(self, index):
        self.ends[index] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name, fn, only_under=None):
        names, stack, counters = self.names, self._stack, self.counters
        open_span, close_span = self._open, self._close
        counter, amount = _COUNT_ON.get(name, (None, None))

        def wrapper(*args, **kwargs):
            if only_under is not None and (stack[-1] < 0 or names[stack[-1]] != only_under):
                return fn(*args, **kwargs)
            index = open_span(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                close_span(index)
            if counter is not None:
                counters[counter] += amount(result)
            return result

        return wrapper

    def _counting(self, name, fn, amount):
        counters = self.counters

        def wrapper(*args, **kwargs):
            counters[name] += amount(args)
            return fn(*args, **kwargs)

        return wrapper

    def _replace(self, original, replacement):
        """Point every doobmds module attribute bound to original at replacement."""
        for module_name, module in list(sys.modules.items()):
            if module is None or not module_name.startswith("doobmds"):
                continue
            for attribute, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attribute, replacement)

    @contextmanager
    def span(self, name):
        """Record the enclosed block as one span under the current one."""
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    def install(self):
        for module, attribute, name in SPANS:
            original = getattr(_module(module), attribute)
            self._replace(original, self._wrap(name, original))
        search = _module("search")
        self._replace(
            search._member_tuples,
            self._wrap("search.subcodes", search._member_tuples, only_under="search.count"),
        )
        self._replace(
            search._compatibility,
            self._counting("search.pair_tests", search._compatibility, lambda a: len(a[0]) ** 2),
        )
        symmetry = _module("symmetry")
        self._replace(
            symmetry.apply_perm_to_code,
            self._counting("symmetry.images", symmetry.apply_perm_to_code, lambda a: 1),
        )
        code = _module("codes").Code
        for attribute, name in (("__post_init__", "codes.construct"), ("assert_mds", "codes.verify")):
            setattr(code, attribute, self._wrap(name, vars(code)[attribute]))


def self_times(spans):
    """Total self time per span name: duration minus direct children's durations."""
    child_time = defaultdict(float)
    for _, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    totals = defaultdict(float)
    for index, (name, start, end, _) in enumerate(spans):
        totals[name] += end - start - child_time[index]
    return totals


def layer_metrics(spans, counters):
    """Per-layer self times (seconds) and counters, every name present."""
    totals = self_times(spans)
    out = {metric: totals.get(name, 0.0) for name, metric in LAYER_TIMES.items()}
    out.update({name: counters.get(name, 0) for name in COUNTERS})
    return out
