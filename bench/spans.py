"""Spans around calls into the program's layers, recorded from outside.

Each traced function is replaced, for the length of one round, at every
module attribute that refers to it, which covers the name a caller inside
the package resolves (``census.canonical_code`` as well as
``planar.canonical_code``).  A span is (name, start, end, parent); spans are
kept in flat arrays and written out once the run ends.  Generator functions
get one span per resume, so time the consumer spends between two items is
not charged to the generator.
"""

from __future__ import annotations

import sys
import time
from array import array
from collections import Counter
from contextlib import contextmanager
from typing import Callable, Iterator, List, Tuple

# (defining module, function, span name, kind).  Kinds: "call" records a
# span, "gen" a span per resume of the generator it returns, "count" only
# counts calls (contract_edge runs millions of times per round).
LAYERS: Tuple[Tuple[str, str, str, str], ...] = (
    ("generate", "levels", "generate.levels", "gen"),
    ("generate", "successors", "generate.successors", "gen"),
    ("planar", "canonical_code", "planar.canonical_code", "call"),
    ("planar", "triangulation_from_code", "planar.triangulation_from_code", "call"),
    ("planar", "underlying_graph", "planar.underlying_graph", "call"),
    ("planar", "planar_code_read", "planar.planar_code_read", "call"),
    ("planar", "verify_triangulation", "planar.verify_triangulation", "call"),
    ("planar", "canonical_form", "planar.canonical_form", "call"),
    ("domination", "classify", "domination.classify", "call"),
    ("domination", "contraction_search", "domination.contraction_search", "call"),
    ("domination", "contract_edge", "domination.contract_edge", "count"),
    ("domination", "exact_gamma_c", "domination.exact_gamma_c", "call"),
    ("domination", "exact_gamma", "domination.exact_gamma", "call"),
    ("domination", "all_minimum_cds", "domination.all_minimum_cds", "call"),
    ("graphs", "enumerate_connected_sets", "graphs.enumerate_connected_sets", "call"),
    ("families", "family", "families.family", "call"),
    ("families", "icosa_chain", "families.icosa_chain", "call"),
    ("census", "census_records", "census.census_records", "call"),
    ("census", "levels_from_planar_code", "census.levels_from_planar_code", "call"),
)

SPAN_NAMES = [name for _, _, name, kind in LAYERS if kind != "count"]


class Tracer:
    """Spans and counters of one traced round."""

    def __init__(self) -> None:
        self.name = array("B")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.stack: List[int] = [-1]
        self.counts: Counter = Counter()

    def _open(self, nid: int) -> int:
        i = len(self.name)
        self.name.append(nid)
        self.parent.append(self.stack[-1])
        self.end.append(0.0)
        self.stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def _close(self, i: int) -> None:
        self.end[i] = time.perf_counter()
        self.stack.pop()

    def wrap(self, fn: Callable, name: str, kind: str) -> Callable:
        counts = self.counts
        if kind == "count":
            def counted(*args, **kwargs):
                counts[name + ".calls"] += 1
                return fn(*args, **kwargs)
            return counted
        nid = SPAN_NAMES.index(name)
        on_return = _ON_RETURN.get(name)
        open_, close = self._open, self._close
        if kind == "call":
            def spanned(*args, **kwargs):
                i = open_(nid)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    close(i)
                if on_return is not None:
                    on_return(counts, result)
                return result
            return spanned

        class Resumes:
            def __init__(self, it):
                self.it = it

            def __iter__(self):
                return self

            def __next__(self):
                i = open_(nid)
                try:
                    item = next(self.it)
                finally:
                    close(i)
                counts[name + ".yields"] += 1
                if on_return is not None:
                    on_return(counts, item)
                return item

        def generator(*args, **kwargs):
            counts[name + ".calls"] += 1
            return Resumes(fn(*args, **kwargs))
        return generator

    def metrics(self) -> Counter:
        """Calls, self time and total time per layer, plus the counters.

        A generator's calls come from its counter, not from its spans (one
        per resume).  ``<parent>/<child>.total_s`` is the time of the
        child's spans opened directly inside a span of the parent.
        """
        k = len(SPAN_NAMES)
        calls = [0] * k
        total = [0.0] * k
        self_s = [0.0] * k
        under: Counter = Counter()
        child = [0.0] * len(self.name)
        for i in range(len(self.name) - 1, -1, -1):
            d = self.end[i] - self.start[i]
            nid = self.name[i]
            calls[nid] += 1
            total[nid] += d
            self_s[nid] += d - child[i]
            p = self.parent[i]
            if p >= 0:
                child[p] += d
                under[SPAN_NAMES[self.name[p]] + "/" + SPAN_NAMES[nid] + ".total_s"] += d
        out = Counter(self.counts)
        out.update(under)
        for nid, name in enumerate(SPAN_NAMES):
            out.setdefault(name + ".calls", calls[nid])
            out[name + ".self_s"] = self_s[nid]
            out[name + ".total_s"] = total[nid]
        return out

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name\tstart_s\tend_s\tparent\n")
            for i in range(len(self.name)):
                fh.write(f"{SPAN_NAMES[self.name[i]]}\t{self.start[i]!r}\t"
                         f"{self.end[i]!r}\t{self.parent[i]}\n")


def _count_method(counts: Counter, cert) -> None:
    counts["domination.classify." + cert.method.replace("-", "_")] += 1


def _count_visited(counts: Counter, visited: int) -> None:
    counts["graphs.connected_sets_visited"] += visited


def _count_classes(counts: Counter, item) -> None:
    n, level = item
    if n > 4:  # order 4 is the K4 seed, not a generated level
        counts["generate.classes"] += len(level)


_ON_RETURN = {
    "domination.classify": _count_method,
    "graphs.enumerate_connected_sets": _count_visited,
    "generate.levels": _count_classes,
}


@contextmanager
def installed(tracer: Tracer) -> Iterator[None]:
    """Route every reference to a traced function through ``tracer`` while open."""
    modules = [m for name, m in sorted(sys.modules.items())
               if m is not None and (name == "tridom" or name.startswith("tridom."))]
    saved: List[Tuple[object, str, object]] = []
    try:
        for modname, attr, name, kind in LAYERS:
            original = getattr(sys.modules["tridom." + modname], attr)
            wrapper = tracer.wrap(original, name, kind)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        saved.append((m, key, value))
                        setattr(m, key, wrapper)
        yield
    finally:
        for m, key, value in reversed(saved):
            setattr(m, key, value)
