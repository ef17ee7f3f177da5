"""Out-of-program tracing for the traced benchmark run.

The program is not edited: the tracer wraps the public entry points of
each layer from outside, for the length of a traced run, and restores
them afterwards.  Coarse layer boundaries become *spans* (kept in
memory, dumped when the run ends).  Per-packet calls get *counters*: a
call count plus their self time, charged to their layer and subtracted
from the enclosing span, without a span record — a report pass makes
about 80k such calls.

Every module-level function is replaced in every ``repro`` module that
imported it by name, so ``from x import f`` call sites are traced too.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import sys
import threading
import types
from collections import Counter, defaultdict
from time import perf_counter
from typing import Callable, Optional

# Frame fields on the per-thread stack.
_SPAN_ID, _LEAF_S, _CHILD_S, _SPAN_CHILD_S, _NEAREST_SPAN = range(5)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.calls: Counter = Counter()
        self.leaf_s: Counter = Counter()  # layer -> counter-call self time
        self.totals: Counter = Counter()  # named sums (frames, events, ...)
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.missing: list[str] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._restore: list[Callable[[], None]] = []

    # -- stack -----------------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _enter_layer(self, layer: str) -> bool:
        """Open a span of ``layer``; True when it is the outermost one in
        this thread (nested calls of one layer are counted once)."""
        layers = getattr(self._local, "open_layers", None)
        if layers is None:
            layers = self._local.open_layers = Counter()
        layers[layer] += 1
        return layers[layer] == 1

    def _exit_layer(self, layer: str) -> None:
        layers = self._local.open_layers
        layers[layer] -= 1
        if not layers[layer]:
            del layers[layer]

    # -- wrappers ----------------------------------------------------------
    def span(self, fn: Callable, name: str, layer: str, on_exit: Optional[Callable] = None) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            parent = stack[-1] if stack else None
            span_id = next(tracer._ids)
            frame = [span_id, 0.0, 0.0, 0.0, span_id]
            outermost = tracer._enter_layer(layer)
            stack.append(frame)
            result = None
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = perf_counter()
                stack.pop()
                tracer._exit_layer(layer)
                elapsed = end - start
                tracer.spans.append({
                    "id": span_id,
                    "parent": parent[_NEAREST_SPAN] if parent else None,
                    "name": name,
                    "layer": layer,
                    "start": start,
                    "end": end,
                    "leaf_s": frame[_LEAF_S],
                })
                tracer.calls[name] += 1
                if parent is not None:
                    parent[_CHILD_S] += elapsed
                    parent[_SPAN_CHILD_S] += elapsed
                if on_exit is not None:
                    on_exit(tracer, args, result, elapsed, outermost)

        return wrapper

    def counter(self, fn: Callable, name: str, layer: str) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            parent = stack[-1] if stack else None
            frame = [None, 0.0, 0.0, 0.0, parent[_NEAREST_SPAN] if parent else None]
            stack.append(frame)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                tracer.calls[name] += 1
                tracer.leaf_s[layer] += elapsed - frame[_CHILD_S]
                if parent is not None:
                    parent[_CHILD_S] += elapsed
                    # Spans below this call are already subtracted from
                    # the enclosing span through the span tree.
                    parent[_SPAN_CHILD_S] += frame[_SPAN_CHILD_S]
                    parent[_LEAF_S] += elapsed - frame[_SPAN_CHILD_S]

        return wrapper

    def busy(self, fn: Callable, name: str) -> Callable:
        """A coroutine function timed by its running steps only, so time
        spent waiting on the socket is not counted as work."""
        tracer = self

        @types.coroutine
        def stepped(coro):
            send, error = None, None
            while True:
                start = perf_counter()
                try:
                    yielded = coro.throw(error) if error is not None else coro.send(send)
                except StopIteration as stop:
                    tracer.totals[name] += perf_counter() - start
                    return stop.value
                tracer.totals[name] += perf_counter() - start
                try:
                    send, error = (yield yielded), None
                except BaseException as exc:  # delivered into the coroutine
                    send, error = None, exc

        @functools.wraps(fn)
        async def wrapper(*args, **kwargs):
            tracer.calls[name] += 1
            return await stepped(fn(*args, **kwargs))

        return wrapper

    def timed(self, fn: Callable, name: str) -> Callable:
        """A plain call whose time is summed under ``name``."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.totals[name] += perf_counter() - start
                tracer.calls[name] += 1

        return wrapper

    # -- installation --------------------------------------------------------
    def install(self, hooks) -> None:
        """Wrap every hook's target: ``(module, "Class.attr" or "func",
        kind, name, layer, on_exit)`` with kind in span/counter/busy/timed."""
        for module_name, target, kind, name, layer, on_exit in hooks:
            try:
                module = importlib.import_module(module_name)
                owner, _, attr = target.rpartition(".")
                holder = getattr(module, owner) if owner else module
                original = inspect.getattr_static(holder, attr)
            except (ImportError, AttributeError):
                self.missing.append(f"{module_name}.{target}")
                continue
            if kind == "span":
                wrapped = self.span(original, name, layer, on_exit)
            elif kind == "counter":
                wrapped = self.counter(original, name, layer)
            elif kind == "busy":
                wrapped = self.busy(original, name)
            else:
                wrapped = self.timed(original, name)
            if owner:
                setattr(holder, attr, wrapped)
                self._restore.append(functools.partial(setattr, holder, attr, original))
            else:
                self._replace_everywhere(original, wrapped)
        if self.missing:
            print("trace hooks not found: " + ", ".join(self.missing), file=sys.stderr)

    def _replace_everywhere(self, original, wrapped) -> None:
        for module in list(sys.modules.values()):
            if not getattr(module, "__name__", "").startswith("repro"):
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapped)
                    self._restore.append(functools.partial(setattr, module, key, original))

    def uninstall(self) -> None:
        while self._restore:
            self._restore.pop()()
