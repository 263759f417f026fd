"""In-memory spans around calls into the package's layers.

A :class:`Recorder` replaces a public function or method with a wrapper
that records one span per call: layer, name, start and end (ns on the
recorder's clock) and the index of the enclosing span.  Spans stay in
memory until the run ends; then :meth:`Recorder.dump` writes them out and
:meth:`Recorder.layer_times` folds them into per-layer totals and self
times.
"""

from __future__ import annotations

import json


class Recorder:
    def __init__(self, clock):
        self.clock = clock
        self.spans: list[list] = []  # [layer, name, start_ns, end_ns, parent]
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def wrap(self, layer: str, fn, name=None):
        """``fn`` recording a span per call; ``name(args)`` may label it."""
        spans, stack, clock = self.spans, self._stack, self.clock
        label = name or (lambda args: fn.__name__)

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([layer, label(args), clock(), 0,
                          stack[-1] if stack else -1])
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][3] = clock()

        traced.__wrapped__ = fn
        return traced

    def patch(self, owner, attr: str, layer: str, name=None) -> None:
        """Replace ``owner.attr`` by its traced wrapper until :meth:`restore`."""
        # A class keeps the raw descriptor (say, a classmethod) for restore;
        # the wrapper calls what attribute access returns.
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._undo.append((owner, attr, raw))
        setattr(owner, attr, self.wrap(layer, getattr(owner, attr), name))

    def restore(self) -> None:
        while self._undo:
            owner, attr, raw = self._undo.pop()
            setattr(owner, attr, raw)

    def durations(self, layer: str, name=None) -> list[float]:
        """Seconds spent in each span of ``layer`` (optionally one name)."""
        return [(s[3] - s[2]) / 1e9 for s in self.spans
                if s[0] == layer and (name is None or s[1] == name)]

    def layer_times(self) -> dict[str, dict[str, float]]:
        """Per layer: ``total`` (outermost spans only) and ``self`` seconds.

        A span's self time is its duration minus its direct children's.
        A layer's total counts a span only when no enclosing span belongs to
        the same layer, so recursion into a layer is not counted twice.
        """
        child_ns = [0] * len(self.spans)
        for s in self.spans:
            if s[4] >= 0:
                child_ns[s[4]] += s[3] - s[2]
        out: dict[str, dict[str, float]] = {}
        for i, s in enumerate(self.spans):
            layer = s[0]
            acc = out.setdefault(layer, {"total": 0.0, "self": 0.0})
            dur = s[3] - s[2]
            acc["self"] += (dur - child_ns[i]) / 1e9
            if not self.inside(i, layer):
                acc["total"] += dur / 1e9
        return out

    def inside(self, i: int, layer: str) -> bool:
        """Whether span ``i`` runs inside an enclosing span of ``layer``."""
        p = self.spans[i][4]
        while p >= 0:
            if self.spans[p][0] == layer:
                return True
            p = self.spans[p][4]
        return False

    def dump(self, path: str) -> None:
        with open(path, "w") as f:
            json.dump({"fields": ["layer", "name", "start_ns", "end_ns", "parent"],
                       "spans": self.spans}, f, separators=(",", ":"))
