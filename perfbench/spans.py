"""In-memory spans around calls into perfcol's public functions.

A span records a name, its start and end on the perf_counter clock, the
span that was open when it began, and a few attributes.  Spans stay in a
list until the repetition ends; the harness writes them out in one piece.

Tracing never edits the package: install() rebinds a public function, in
every loaded perfcol module that holds it, to a wrapper that opens a span
around the original.  Only functions called at most a few thousand times
per run are wrapped.  The cam predicates run millions of times inside the
enumeration scan, so they are timed in batches by the benchmark instead
(see workloads.py), and a wrapper per call would distort what it measures.
"""

from __future__ import annotations

import sys
from contextlib import contextmanager
from time import perf_counter


def _mk(args, kwargs):
    return {"m": args[0], "k": args[1]}


def _n_in(args, kwargs):
    return {"n_in": len(args[0])}


def _survey(args, kwargs):
    return {"solid": args[0], "m": args[1]}


def _outcome(args, kwargs, result):
    mode = kwargs.get("mode", args[2] if len(args) > 2 else "first")
    return {"mode": mode, "realizable": result.realizable,
            "labeled": result.labeled_count}


# (public name in perfcol, span name, attributes from the arguments,
#  attributes from the result)
TARGETS = (
    ("enumerate_cams", "enumeration.enumerate_cams", _mk, None),
    ("canonical_form", "enumeration.canonical_form", None, None),
    ("canonical_dedup", "enumeration.canonical_dedup", _n_in, None),
    ("platonic_survey", "search.platonic_survey", _survey, None),
    ("find_perfect_coloring", "search.find_perfect_coloring", None, _outcome),
    ("spectral_filter", "spectral.spectral_filter", None, None),
    ("char_poly", "spectral.char_poly", None, None),
    ("build_witness", "graphs.build_witness", None, None),
    ("verify_coloring", "graphs.verify_coloring", None, None),
)


class Tracer:
    """Records spans; one instance per repetition."""

    def __init__(self):
        self.spans: list[dict] = []
        self._open: list[dict] = []

    def _begin(self, name: str, attrs: dict) -> dict:
        rec = {"id": len(self.spans),
               "parent": self._open[-1]["id"] if self._open else None,
               "name": name, "start": 0.0, "end": 0.0, "attrs": attrs}
        self.spans.append(rec)
        self._open.append(rec)
        rec["start"] = perf_counter()
        return rec

    def _end(self, rec: dict) -> None:
        rec["end"] = perf_counter()
        self._open.pop()

    @contextmanager
    def span(self, name: str, **attrs):
        rec = self._begin(name, attrs)
        try:
            yield rec["attrs"]
        finally:
            self._end(rec)

    def wrap(self, fn, name, before=None, after=None):
        def traced(*args, **kwargs):
            rec = self._begin(name, before(args, kwargs) if before else {})
            try:
                result = fn(*args, **kwargs)
            finally:
                self._end(rec)
            if after:
                rec["attrs"].update(after(args, kwargs, result))
            return result
        traced.__wrapped__ = fn
        return traced

    def install(self, package) -> None:
        """Wrap every TARGETS function wherever a perfcol module binds it."""
        prefix = package.__name__ + "."
        modules = [mod for name, mod in list(sys.modules.items())
                   if name == package.__name__ or name.startswith(prefix)]
        for public, name, before, after in TARGETS:
            original = getattr(package, public)
            wrapper = self.wrap(original, name, before, after)
            for mod in modules:
                if getattr(mod, public, None) is original:
                    setattr(mod, public, wrapper)


class NullTracer:
    """Stands in for Tracer in untraced repetitions; records nothing."""

    spans = ()

    @contextmanager
    def span(self, name: str, **attrs):
        yield attrs


def self_times(spans: list[dict]) -> dict[int, float]:
    """Each span's duration minus the time covered by its direct children.

    Spans come from one thread, so children never overlap each other.
    """
    own = {s["id"]: s["end"] - s["start"] for s in spans}
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["end"] - s["start"]
    return own
