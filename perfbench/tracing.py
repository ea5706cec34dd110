"""Outside-in tracing for the benchmark's traced pass.

Nothing here edits ``src/``.  For the duration of one traced pass the
:class:`Tracer` replaces layer functions with timing wrappers, at every
name a caller looks them up by: the defining module, every module that
copied the binding with ``from x import f``, and class attributes for
methods.  :meth:`Tracer.uninstall` puts the originals back.

Each wrapped call is a *frame*.  Frames nest on one stack (the simulated
system is single-threaded), so a frame's self time is its duration minus
the time its child frames cover, and the self times of all frames inside
a timed unit add up to the unit's wall time exactly.  Frames of most
layers are also recorded as *spans* — name, start, end, parent span,
unit id — kept in memory and written out by :meth:`Tracer.write`.  Leaf
functions called tens of thousands of times per second (the DES block
function, ``xor_bytes``, the scheduler's event plumbing, replay-cache
checks, histogram records) keep only aggregated counts and timers.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

Hook = Callable[["Tracer", tuple, dict, Any, bool], None]

#: The result a hook sees when the wrapped call raised.
RAISED = object()


class Tracer:
    """Frames, spans and counters for one traced pass."""

    def __init__(self) -> None:
        self.self_s: Dict[str, float] = defaultdict(float)
        self.total_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.counts: Dict[str, int] = defaultdict(int)
        # [name, start, end, parent span index, unit id]
        self.spans: List[list] = []
        self.unit = -1  # id stamped on new spans; set per timed unit
        self._child_s: List[float] = []  # per open frame: children's time
        #: Names of the open frames, outermost first (hooks read it).
        self.open_frames: List[str] = []
        self._open_span = -1
        self._patches: List[Tuple[Any, str, Any]] = []

    def clear(self) -> None:
        """Forget everything recorded so far; patches stay installed."""
        for table in (self.self_s, self.total_s, self.calls, self.counts):
            table.clear()
        self.spans.clear()

    # -- frames ------------------------------------------------------------

    def wrap(self, fn: Callable, name: str, layer: str, span: bool,
             hook: Optional[Hook] = None) -> Callable:
        """A wrapper that runs *fn* inside a frame named *name*.

        *layer* is the self-time bucket.  ``calls[name]`` and
        ``total_s[name]`` count only outermost frames of that name, so a
        function that recurses into its own layer is counted once.
        *hook* sees ``(tracer, args, kwargs, result, outermost)`` after
        every call, with *result* :data:`RAISED` if the call raised.
        """
        child_s, names, spans = self._child_s, self.open_frames, self.spans
        self_s, total_s, calls = self.self_s, self.total_s, self.calls
        clock = time.perf_counter

        def traced(*args: Any, **kwargs: Any) -> Any:
            outermost = name not in names
            index = parent = -1
            if span:
                parent = self._open_span
                index = len(spans)
                spans.append([name, 0.0, 0.0, parent, self.unit])
                self._open_span = index
            child_s.append(0.0)
            names.append(name)
            result = RAISED
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                duration = clock() - start
                names.pop()
                self_s[layer] += duration - child_s.pop()
                if child_s:
                    child_s[-1] += duration
                if outermost:
                    calls[name] += 1
                    total_s[name] += duration
                if span:
                    spans[index][1] = start
                    spans[index][2] = start + duration
                    self._open_span = parent
                if hook is not None:
                    hook(self, args, kwargs, result, outermost)

        traced.__wrapped__ = fn  # type: ignore[attr-defined]
        for attr in ("cache_clear", "cache_info"):
            if hasattr(fn, attr):
                setattr(traced, attr, getattr(fn, attr))
        return traced

    # -- patching ------------------------------------------------------------

    def patch(self, module_name: str, qualname: str, name: str, layer: str,
              span: bool = True, hook: Optional[Hook] = None) -> None:
        """Wrap ``module_name.qualname`` wherever callers look it up."""
        module = importlib.import_module(module_name)
        owner: Any = module
        *path, attr = qualname.split(".")
        for part in path:
            owner = getattr(owner, part)
        raw = owner.__dict__[attr]
        is_static = isinstance(raw, staticmethod)
        fn = raw.__func__ if is_static else raw
        wrapper = self.wrap(fn, name, layer, span, hook)
        self._set(owner, attr, staticmethod(wrapper) if is_static else wrapper)
        if owner is module:
            # ``from module import fn`` copied the binding: rebind copies.
            for other_name, other in list(sys.modules.items()):
                if other is module or not other_name.startswith("repro"):
                    continue
                for key, value in list(vars(other).items()):
                    if value is fn:
                        self._set(other, key, wrapper)

    def _set(self, owner: Any, attr: str, value: Any) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        """Restore every patched binding, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- output --------------------------------------------------------------

    def write(self, path: str, header: Dict[str, Any]) -> None:
        """Write the recorded spans as one JSON document."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({**header, "span_fields":
                       ["name", "start_s", "end_s", "parent", "unit"],
                       "spans": self.spans}, handle)
            handle.write("\n")
