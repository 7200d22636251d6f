"""Spans around the calls into hardylane's public functions.

install() wraps every public function of the package's modules under every
name a caller looks it up by (its own module, the modules that imported it
and the package namespace), plus HardyParams validation.  Each call inside
an operation records a span: name, start, end and parent.  Calls made from
classify_field's worker threads take the main thread's innermost open span
as their parent.  Spans are reduced operation by operation (reduce_op) and
then dropped, so memory stays bounded however long the run.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
import threading
from collections import defaultdict
from time import perf_counter

#: Modules whose public functions are layer boundaries.  The kernel is
#: traced at its facade (hardylane._kernels), not inside the backend.
MODULES = ("_kernels", "cli", "constructions", "exponents", "integrability",
           "iteration", "plotting", "radial", "regions", "schemas")

#: Modules whose calls to their own functions are not spans.  exponents'
#: helpers (mu_zero, snap_mu, tau_pair) are a few arithmetic lines called
#: about 25 times per witness; spanning its internal calls more than
#: doubled the witness time.  Calls into exponents from other modules are
#: still spans.
UNTRACED_OWN_CALLS = ("hardylane.exponents",)


def _count_points(counters, args, kwargs, out):
    counters["_kernels.points"] += len(args[3])


def _count_steps(counters, args, kwargs, out):
    counters["iteration.traces"] += 1
    counters["iteration.steps"] += len(out.steps) - 1


def _count_witness(counters, args, kwargs, out):
    counters[f"regions.witnesses_{out.mechanism}"] += 1


def _count_bytes(key):
    def count(counters, args, kwargs, out):
        counters[key] += os.path.getsize(args[-1])
    return count


#: Counters read off a call's arguments or result, keyed by span name.
COUNTERS = {
    "_kernels.classify_codes": _count_points,
    "iteration.iterate_plain": _count_steps,
    "iteration.iterate_clamped": _count_steps,
    "regions.nonexistence_witness": _count_witness,
    "plotting.emit_csv": _count_bytes("plotting.csv_bytes"),
    "plotting.emit_svg": _count_bytes("plotting.svg_bytes"),
}


class Tracer:
    """Records spans while an operation is open; reduces each operation."""

    def __init__(self):
        self.counters = defaultdict(float)
        self.calls = defaultdict(int)      # span name -> calls
        self.inclusive = defaultdict(float)  # name -> wall time with one open
        self.self_time = defaultdict(float)  # name -> attributed wall time
        self.ops = 0
        self.worst_self_excess = 0.0       # max(sum of self - op duration)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._main = None
        self._spans = None                 # [name, start, end, parent]
        self._restore = []

    # -- recording ---------------------------------------------------------

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name):
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            parent = self._main[-1] if self._main else -1
        span = [name, 0.0, 0.0, parent]
        with self._lock:
            idx = len(self._spans)
            self._spans.append(span)
        stack.append(idx)
        span[1] = perf_counter()
        return span

    def _close(self, span):
        span[2] = perf_counter()
        self._stack().pop()

    def wrap(self, fn, name):
        count = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self._spans is None:
                return fn(*args, **kwargs)
            span = self._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(span)
            if count is not None:
                count(self.counters, args, kwargs, out)
            return out
        return traced

    def op(self, fn, *args):
        """Run one operation inside a root span and reduce its spans.

        Returns (output, seconds the operation took, without the reduction).
        """
        self._spans = []
        self._main = self._stack()
        span = self._open("op")
        try:
            out = fn(*args)
        finally:
            self._close(span)
            spans, self._spans = self._spans, None
            self.reduce_op(spans)
        return out, span[2] - span[1]

    # -- installing ----------------------------------------------------------

    def install(self):
        """Wrap every public function under every name it is reachable by."""
        wrappers = {}
        for short in MODULES:
            mod = sys.modules[f"hardylane.{short}"]
            for name, obj in vars(mod).items():
                if (inspect.isfunction(obj) and not name.startswith("_")
                        and obj.__module__ == mod.__name__):
                    wrappers[id(obj)] = (obj, self.wrap(obj, f"{short}.{name}"))
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or mod_name in UNTRACED_OWN_CALLS or not (
                    mod_name == "hardylane"
                    or mod_name.startswith("hardylane.")):
                continue
            for name, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, name, hit[1])
                    self._restore.append((mod, name, obj))
        from hardylane.exponents import HardyParams
        post = HardyParams.__post_init__
        HardyParams.__post_init__ = self.wrap(post, "exponents.HardyParams")
        self._restore.append((HardyParams, "__post_init__", post))

    def uninstall(self):
        for owner, name, obj in reversed(self._restore):
            setattr(owner, name, obj)
        self._restore = []

    # -- reduction -----------------------------------------------------------

    def reduce_op(self, spans):
        """Self and inclusive wall time per span name for one operation.

        A sweep over span boundaries divides each interval of wall time
        equally among the innermost open spans (one per thread), so the
        self times of an operation's spans sum to its duration even when
        classify_field's threads overlap.  Inclusive time counts wall time
        during which at least one span of the name is open.
        """
        events = []
        for k, (name, start, end, parent) in enumerate(spans):
            events.append((start, 1, k))
            events.append((end, 0, k))
            self.calls[name] += 1
        events.sort()
        open_kids = defaultdict(int)
        leaves = set()
        open_names = defaultdict(int)
        self_sum = 0.0
        now = events[0][0]
        for t, is_open, k in events:
            dt = t - now
            if dt > 0.0:
                share = dt / len(leaves) if leaves else 0.0
                for leaf in leaves:
                    self.self_time[spans[leaf][0]] += share
                self_sum += share * len(leaves)
                for name in open_names:
                    self.inclusive[name] += dt
                now = t
            name, _, _, parent = spans[k]
            if is_open:
                if parent >= 0:
                    open_kids[parent] += 1
                    leaves.discard(parent)
                leaves.add(k)
                open_names[name] += 1
            else:
                leaves.discard(k)
                if parent >= 0:
                    open_kids[parent] -= 1
                    if open_kids[parent] == 0 and spans[parent][2] > t:
                        leaves.add(parent)
                open_names[name] -= 1
                if open_names[name] == 0:
                    del open_names[name]
        duration = spans[0][2] - spans[0][1]
        self.ops += 1
        self.worst_self_excess = max(self.worst_self_excess,
                                     self_sum - duration)
