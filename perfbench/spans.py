"""Spans around the calls into each impulsebvp module, recorded from outside
the package.

A public function can be bound in several modules (``from .operator import
apply_T`` gives ``solver`` and ``audit`` their own name for it), so
:meth:`Tracer.wrap_function` replaces every binding of the same object in
every loaded ``impulsebvp`` module.  Public methods are wrapped once on
their class.  Spans stay in memory as lists
``[name, start, end, parent, size, request]`` and are aggregated after the
command that caused them has finished; ``parent`` is the index of the
enclosing span (-1 at the top) and ``request`` numbers that command.
"""

import sys
import time

import numpy as np

NAME, START, END, PARENT, SIZE, REQUEST = range(6)


class Tracer:
    """Installs span-recording wrappers and keeps the spans they record.

    ``last`` holds the most recent return value per span name, so that
    output checks can inspect what a wrapped call produced.
    """

    def __init__(self):
        self.spans = []
        self.last = {}
        self.enabled = True
        self.request = 0
        self._stack = []
        self._undo = []

    def _wrapper(self, fn, name, sized):
        spans, stack, last = self.spans, self._stack, self.last
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            size = np.size(args[1]) if sized else 0
            rec = [name, clock(), 0.0, stack[-1] if stack else -1, size, self.request]
            stack.append(len(spans))
            spans.append(rec)
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[END] = clock()
                stack.pop()
            last[name] = out
            return out

        return wrapper

    def wrap_function(self, fn, name):
        """Replace every binding of ``fn`` in the loaded impulsebvp modules."""
        wrapper = self._wrapper(fn, name, sized=False)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "impulsebvp" and not mod_name.startswith("impulsebvp."):
                continue
            for attr, val in list(vars(mod).items()):
                if val is fn:
                    self._undo.append((mod, attr, fn))
                    setattr(mod, attr, wrapper)

    def wrap_method(self, cls, attr, name, sized=False):
        """Wrap ``cls.attr``; ``sized`` records the size of the first argument."""
        fn = cls.__dict__[attr]
        self._undo.append((cls, attr, fn))
        setattr(cls, attr, self._wrapper(fn, name, sized))

    def uninstall(self):
        for owner, attr, fn in reversed(self._undo):
            setattr(owner, attr, fn)
        self._undo.clear()

    def drain(self):
        """Totals of the spans recorded since the last drain, which are then
        dropped; call it after each command, when no span is open.

        Returns ``(by_name, by_parent)`` with
        ``by_name[name] = [calls, duration, self time, size]`` and
        ``by_parent[(name, parent name)] = [calls, duration, size]``, the
        parent name being None for top-level spans.  Self time is the
        duration minus that of the direct child spans; the program is
        single-threaded, so children nest strictly inside their parent.
        """
        spans = self.spans
        child_time = [0.0] * len(spans)
        for rec in spans:
            if rec[PARENT] >= 0:
                child_time[rec[PARENT]] += rec[END] - rec[START]
        by_name, by_parent = {}, {}
        for i, rec in enumerate(spans):
            dur = rec[END] - rec[START]
            agg = by_name.setdefault(rec[NAME], [0, 0.0, 0.0, 0])
            agg[0] += 1
            agg[1] += dur
            agg[2] += dur - child_time[i]
            agg[3] += rec[SIZE]
            pname = spans[rec[PARENT]][NAME] if rec[PARENT] >= 0 else None
            agg = by_parent.setdefault((rec[NAME], pname), [0, 0.0, 0])
            agg[0] += 1
            agg[1] += dur
            agg[2] += rec[SIZE]
        spans.clear()
        return by_name, by_parent
