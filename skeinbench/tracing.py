"""Outside-in tracing of the library's layers, for the traced run only.

Nothing in ``skein`` is edited.  :meth:`Tracer.install` rebinds names where
the library's callers look them up, and :meth:`Tracer.uninstall` restores
them:

* ``canon_key``, ``resolve_crossing`` and ``flat_eval`` in module
  ``skein.yamada`` (reached through ``sys.modules``: the package attribute
  ``skein.yamada`` is the function, not the module);
* ``state_circle_counts`` in ``skein.tl``;
* ``bracket`` and ``cable`` in ``skein.cabling``;
* ``+``, ``-`` and ``*`` of ``skein.LocalizedElement``.

Those layers run up to millions of times per pass, so they are aggregated
as a call count plus self time, kept with a stack of open frames.  The
benchmark's own calls into the library (parse, yamada, bracket, phi_plane,
full_report) and each op are coarse spans: they also enter the stack, and
each is kept in memory as (id, parent id, op id, name, start, end) and
written out when the run ends.

A frame's self time is its duration minus the durations of the frames it
directly encloses, so the self times of all layers plus ``other`` (the
self time of spans that are not a measured layer) add up to the traced op
time; :meth:`Tracer.coverage_gap` measures how far they miss.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

#: aggregated layer of each rebound name: (module, attribute) -> layer
REBOUND = {
    ("skein.yamada", "canon_key"): "core.canon_key",
    ("skein.yamada", "resolve_crossing"): "diagrams.resolve_crossing",
    ("skein.yamada", "flat_eval"): "yamada.dc",
    ("skein.tl", "state_circle_counts"): "core.state_circle_counts",
    ("skein.cabling", "bracket"): "tl.bracket",
    ("skein.cabling", "cable"): "cabling.cable",
}
LOCALIZED_OPS = ("__add__", "__sub__", "__mul__")

#: layer that the self time of each coarse span counts towards
SPAN_LAYER = {
    "parse_diagram": "diagrams.parse_diagram",
    "yamada": "yamada.expand",
    "bracket": "tl.bracket",
    "phi_plane": "other",
    "full_report": "symmetry.full_report",
    "op": "other",
}

#: every layer whose self time is reported, ``other`` last
LAYERS = (
    "diagrams.parse_diagram",
    "yamada.expand",
    "diagrams.resolve_crossing",
    "yamada.dc",
    "core.canon_key",
    "rings.localized",
    "core.state_circle_counts",
    "tl.bracket",
    "cabling.cable",
    "symmetry.full_report",
    "other",
)


class Tracer:
    def __init__(self) -> None:
        self.clock = time.perf_counter
        self.stack: list[list[float]] = []  # per open frame: [child seconds]
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counters: dict[str, int] = defaultdict(int)
        self.flat_states: set = set()
        self.spans: list[tuple] = []
        self.span_ids: list[int] = []  # ids of the open coarse spans
        self.op_id = 0
        self.op_s = 0.0
        self._saved: list[tuple[object, str, object]] = []

    # -- frames -----------------------------------------------------------------

    def _frame(self, layer: str, fn, after=None):
        """Wrap ``fn`` as one frame of ``layer``: count the call, book its
        self time, and charge its duration to the enclosing frame, or to
        ``op_s`` when it is a root.  ``after(args, result)`` counts work
        items; its time is booked as ``other``."""
        stack, clock = self.stack, self.clock
        calls, self_s = self.calls, self.self_s

        def charge(dt: float) -> None:
            if stack:
                stack[-1][0] += dt
            else:
                self.op_s += dt

        def traced(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                self_s[layer] += t1 - t0 - frame[0]
                calls[layer] += 1
                charge(t1 - t0)
            if after is not None:
                after(args, result)
                # counting is tracing work, not the caller's: book it as other
                t2 = clock()
                self_s["other"] += t2 - t1
                charge(t2 - t1)
            return result

        return traced

    def span(self, name: str, fn):
        """Wrap one of the benchmark's own calls into the library: a frame of
        its layer that is also recorded as a coarse span.  The span's own
        bookkeeping falls outside the frame, in the enclosing frame's self
        time (or in no op time at all, for an op)."""
        clock, spans, span_ids = self.clock, self.spans, self.span_ids
        framed = self._frame(SPAN_LAYER[name], fn)

        def traced(*args, **kwargs):
            span_id = len(spans)
            parent = span_ids[-1] if span_ids else -1
            spans.append(None)  # reserve the id; filled in on exit
            span_ids.append(span_id)
            t0 = clock()
            try:
                return framed(*args, **kwargs)
            finally:
                spans[span_id] = (span_id, parent, self.op_id, name, t0, clock())
                span_ids.pop()

        return traced

    def op(self, fn):
        """Wrap a whole op; ops are the roots of the span tree."""
        inner = self.span("op", fn)

        def traced(*args, **kwargs):
            self.op_id += 1
            return inner(*args, **kwargs)

        return traced

    # -- rebinding ----------------------------------------------------------------

    def _count_flat(self, args, _result) -> None:
        self.flat_states.add(args[0])

    def _count_circles(self, _args, result) -> None:
        self.counters["core.circle_states"] += len(result)

    def _count_terms(self, _args, result) -> None:
        self.counters["cabling.terms"] += len(result.terms)

    def install(self) -> None:
        after = {
            "yamada.dc": self._count_flat,
            "core.state_circle_counts": self._count_circles,
            "cabling.cable": self._count_terms,
        }
        for (module_name, attr), layer in REBOUND.items():
            module = sys.modules[module_name]
            fn = getattr(module, attr)
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._frame(layer, fn, after.get(layer)))
        localized = sys.modules["skein.rings"].LocalizedElement
        for attr in LOCALIZED_OPS:
            fn = localized.__dict__[attr]
            self._saved.append((localized, attr, fn))
            setattr(localized, attr, self._frame("rings.localized", fn))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, fn = self._saved.pop()
            setattr(owner, attr, fn)

    # -- results ------------------------------------------------------------------

    def coverage_gap(self) -> float:
        """Traced op time minus the summed self times; zero up to rounding."""
        return self.op_s - sum(self.self_s.values())
