"""Span tracer that wraps the package's public functions from outside.

Every call of a wrapped function records one span ``(name, parent, start,
end)``.  A layer's self time is its span's duration minus the time its child
spans cover.  The tracer patches each function under every name that binds
it in a ``jointtomo`` namespace (a function imported into another module is
one object under two names) and restores every original on exit.
"""

import functools
import inspect
import re
import sys
import time
from collections import Counter

import numpy as np

from jointtomo import TomographyError

# The layers the benchmark attributes time to.  ``basis``, ``serialize`` and
# ``cli`` are not layers here: basis runs inside its callers' spans, and the
# other two do file and argument I/O that no workload exercises.
PACKAGE = "jointtomo"
LAYER_MODULES = ("bench", "channels", "measurement", "estimator", "refine")
FAILURE_STAGES = ("targets", "stage1", "kronecker", "scale", "correct", "other")
_STAGE_PREFIX = re.compile(r"^\[(\w+)\]")


def failure_stage(exc: BaseException) -> str:
    """The ``[stage]`` label the estimators put in front of an error message."""
    m = _STAGE_PREFIX.match(str(exc))
    return m.group(1) if m and m.group(1) in FAILURE_STAGES else "other"


def public_functions() -> dict:
    """``{"module.F": (owner, attr, function)}`` for every public function
    defined in the layer modules, including public methods of their classes."""
    found = {}
    for short in LAYER_MODULES:
        mod = sys.modules.get(f"{PACKAGE}.{short}")
        if mod is None:
            continue
        for name, obj in vars(mod).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj):
                found[f"{short}.{name}"] = (mod, name, obj)
            elif inspect.isclass(obj):
                for attr, member in vars(obj).items():
                    if not attr.startswith("_") and inspect.isfunction(member):
                        found[f"{short}.{name}.{attr}"] = (obj, attr, member)
    return found


class Tracer:
    """Context manager that records spans of the package's public functions.

    A ``TomographyError`` leaving a span is counted by stage; other
    exceptions pass through uncounted.
    """

    def __init__(self):
        self.names = []
        self.spans = []
        self.failures = Counter()
        self._stack = []
        self._patched = []

    # -- installation ------------------------------------------------------
    def __enter__(self):
        targets = public_functions()
        namespaces = [m for n, m in list(sys.modules.items())
                      if n == PACKAGE or n.startswith(PACKAGE + ".")]
        try:
            for fid, (qualname, (owner, attr, fn)) in enumerate(targets.items()):
                self.names.append(qualname)
                wrapper = self._wrap(fid, fn)
                self._patch(owner, attr, fn, wrapper)
                if inspect.isclass(owner):
                    continue  # a class is one object; patching it once reaches every alias
                for mod in namespaces:
                    for name, value in list(vars(mod).items()):
                        if value is fn and not (mod is owner and name == attr):
                            self._patch(mod, name, fn, wrapper)
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc_info):
        self._restore()
        return False

    def _patch(self, owner, attr, original, wrapper):
        setattr(owner, attr, wrapper)
        self._patched.append((owner, attr, original))

    def _restore(self):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def _wrap(self, fid: int, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        failures = self.failures

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                return fn(*args, **kwargs)
            except TomographyError as exc:
                # Count each error once: where it first carries a stage label,
                # or, unlabelled, where it leaves the outermost span.
                if not getattr(exc, "_perfbench_counted", False):
                    stage = failure_stage(exc)
                    if stage != "other" or parent == -1:
                        failures[stage] += 1
                        exc._perfbench_counted = True
                raise
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (fid, parent, start, end)

        return functools.wraps(fn)(traced)

    # -- analysis ----------------------------------------------------------
    def layer_stats(self) -> dict:
        """Per wrapped function: ``calls``, ``self_s`` (total) and
        ``self_ms_p50``; plus ``covered_s``, the time under outermost spans."""
        stats = {name: {"calls": 0, "self_s": 0.0, "self_ms_p50": 0.0} for name in self.names}
        if not self.spans:
            return {"layers": stats, "covered_s": 0.0}
        arr = np.array(self.spans, dtype=float)
        fid = arr[:, 0].astype(int)
        parent = arr[:, 1].astype(int)
        dur = arr[:, 3] - arr[:, 2]
        child = np.zeros(len(arr))
        nested = parent >= 0
        np.add.at(child, parent[nested], dur[nested])
        self_time = dur - child
        order = np.argsort(fid, kind="stable")
        bounds = np.searchsorted(fid[order], np.arange(len(self.names) + 1))
        for k, name in enumerate(self.names):
            own = self_time[order[bounds[k]:bounds[k + 1]]]
            if own.size:
                stats[name] = {"calls": int(own.size), "self_s": float(own.sum()),
                               "self_ms_p50": float(np.median(own) * 1e3)}
        return {"layers": stats, "covered_s": float(dur[~nested].sum())}
