"""In-memory span tracer that wraps engine functions from outside the engine.

A wrapper goes on the name a caller looks up: ``from x import f`` binds
``f`` in the caller's module, so ``learner.attune`` is wrapped rather than
``fingerprints.attune``. Spans carry their parent's id; a span's self time
is its duration minus the part of it that child spans cover.
"""

import functools
import time
from collections import defaultdict
from contextlib import contextmanager


class Tracer:
    """Spans ``(id, parent id or -1, name, start, end)`` plus named counters."""

    def __init__(self):
        self.spans = []
        self.counters = defaultdict(float)
        self._stack = []

    def wrap(self, name, fn, before=None, after=None):
        """Return ``fn`` recording one span per call.

        ``before(counters, args, kwargs)`` runs ahead of the call and
        ``after(counters, args, kwargs, result)`` after it returns; both are
        optional counting hooks and are not timed.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before(self.counters, args, kwargs)
            sid = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append(None)
            self._stack.append(sid)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                self._stack.pop()
                self.spans[sid] = (sid, parent, name, t0, t1)
            if after is not None:
                after(self.counters, args, kwargs, result)
            return result

        return traced

    @contextmanager
    def installed(self, targets):
        """Wrap every ``(name, owner, attribute, before, after)`` target for
        the duration of the block and restore the originals afterwards.

        A target whose attribute does not exist is skipped, so its layer
        reports zero calls.
        """
        saved = []
        try:
            for name, owner, attr, before, after in targets:
                original = vars(owner).get(attr)
                if original is None:
                    continue
                if isinstance(original, classmethod):
                    wrapped = classmethod(self.wrap(name, original.__func__, before, after))
                else:
                    wrapped = self.wrap(name, original, before, after)
                saved.append((owner, attr, original))
                setattr(owner, attr, wrapped)
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)


def self_times(spans):
    """Map span id -> duration minus the union of its children's intervals."""
    children = defaultdict(list)
    for _, parent, _, t0, t1 in spans:
        if parent >= 0:
            children[parent].append((t0, t1))
    out = {}
    for sid, _, _, t0, t1 in spans:
        covered = 0.0
        reach = t0
        for c0, c1 in sorted(children[sid]):
            lo, hi = max(c0, reach), min(c1, t1)
            if hi > lo:
                covered += hi - lo
            reach = max(reach, c1)
        out[sid] = (t1 - t0) - covered
    return out


def layer_totals(spans):
    """Map span name -> (calls, total self seconds)."""
    own = self_times(spans)
    calls = defaultdict(int)
    seconds = defaultdict(float)
    for sid, _, name, _, _ in spans:
        calls[name] += 1
        seconds[name] += own[sid]
    return {name: (calls[name], seconds[name]) for name in calls}
