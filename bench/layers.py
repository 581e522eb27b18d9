"""Per-layer spans for the traced run: one layer per `ruta` module.

`Tracer.install()` wraps, for every module in LAYERS:

- its public module-level functions, rebound in every `ruta` module that
  holds the same object, so names imported with `from x import f` are counted
  where they are looked up;
- the public methods and classmethods of its classes (properties and
  dunder methods stay unwrapped and count towards their caller);
- the callbacks that other layers hand it (`VirtualClock.call_at`, watch
  handlers, `SimNode.bindings` handlers, `on_delta` hooks, ...), each timed
  as the layer that defined the callback.

A span opens only when control crosses into another layer, so a layer's
self time is the time spent while it is the innermost layer on the stack.
Callbacks defined outside `ruta` (the benchmark's own generators and
receivers) form the `bench` pseudo-layer.  `uninstall()` restores every
attribute it replaced.
"""

from __future__ import annotations

import enum
import importlib
import inspect
from collections import Counter
from time import perf_counter_ns
from typing import Callable

LAYERS = ("srou", "netsim", "kvstore", "schema", "prober", "pathengine", "dataplane")
OUTSIDE = "bench"

# (layer, qualified callable) -> [(position including self, keyword)] of
# arguments that are callbacks into another layer
CALLBACK_ARGS = {
    ("netsim", "VirtualClock.call_at"): [(2, "fn")],
    ("netsim", "Network.bind"): [(4, "handler")],
    ("kvstore", "KvStore.watch_prefix"): [(4, "on_event")],
    ("kvstore", "KvStore.acquire_lock"): [(3, "granted")],
    ("schema", "register_node"): [(None, "done")],
    ("prober", "StunExchange.__init__"): [(2, "send_request"), (3, "on_result"),
                                          (4, "on_error")],
    ("pathengine", "RouteSync.__init__"): [(4, "on_delta")],
    ("pathengine", "LinkStateSync.__init__"): [(2, "on_delta")],
    ("dataplane", "AppEndpoint.__init__"): [(5, "on_app")],
    ("dataplane", "HostPort.__init__"): [(7, "deliver")],
}


def layer_of(fn: Callable) -> str:
    module = getattr(fn, "__module__", None) or ""
    head, _, tail = module.partition(".")
    return tail if head == "ruta" and tail in LAYERS else OUTSIDE


class Tracer:
    def __init__(self):
        self.modules = {name: importlib.import_module(f"ruta.{name}") for name in LAYERS}
        self.calls: Counter = Counter()
        self.self_ns: Counter = Counter()
        self.watch_events = 0
        self._layer = None    # innermost open layer, None outside any span
        self._child_ns = 0    # time of closed child spans inside the open span
        self._undo: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        self.calls.clear()
        self.self_ns.clear()
        self.watch_events = 0

    # -- spans ----------------------------------------------------------------

    def _span(self, layer: str, key: str, fn: Callable, hooks=()) -> Callable:
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls[key] += 1
            if hooks:
                args, kwargs = self._wrap_callbacks(args, kwargs, hooks)
            if self._layer == layer:
                return fn(*args, **kwargs)
            outer_layer, outer_child = self._layer, self._child_ns
            self._layer, self._child_ns = layer, 0
            t0 = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = perf_counter_ns() - t0
                self.self_ns[layer] += dur - self._child_ns
                self._layer, self._child_ns = outer_layer, outer_child + dur

        wrapper.__wrapped__ = fn
        return wrapper

    def callback(self, fn: Callable, watch: bool = False) -> Callable:
        if fn is None or getattr(fn, "__wrapped__", None) is not None:
            return fn
        span = self._span(layer_of(fn), "callback", fn)
        if not watch:
            return span

        def on_event(ev):
            self.watch_events += 1
            return span(ev)

        on_event.__wrapped__ = fn
        return on_event

    def _wrap_callbacks(self, args, kwargs, hooks):
        for pos, name in hooks:
            watch = name == "on_event"
            if pos is not None and len(args) > pos:
                args = args[:pos] + (self.callback(args[pos], watch),) + args[pos + 1:]
            elif name in kwargs:
                kwargs = dict(kwargs, **{name: self.callback(kwargs[name], watch)})
        return args, kwargs

    # -- install / uninstall ----------------------------------------------------

    def _replace(self, owner, name: str, new) -> None:
        self._undo.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, new)

    def install(self) -> None:
        functions = {}  # id(original) -> wrapper
        for layer, mod in self.modules.items():
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__ \
                        and not name.startswith("_"):
                    hooks = CALLBACK_ARGS.get((layer, name), ())
                    functions[id(obj)] = self._span(layer, f"{layer}.{name}", obj, hooks)
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    self._install_class(layer, obj)
        for mod in self.modules.values():
            for name, obj in list(vars(mod).items()):
                if id(obj) in functions:
                    self._replace(mod, name, functions[id(obj)])

    def _install_class(self, layer: str, cls: type) -> None:
        if issubclass(cls, (BaseException, enum.Enum)):
            return
        for name, attr in list(vars(cls).items()):
            key = f"{layer}.{cls.__name__}.{name}"
            hooks = CALLBACK_ARGS.get((layer, f"{cls.__name__}.{name}"), ())
            if name == "__init__" and hooks:
                self._replace(cls, name, self._span(layer, key, attr, hooks))
            elif name.startswith("_"):
                continue
            elif isinstance(attr, classmethod):
                self._replace(cls, name, classmethod(self._span(layer, key, attr.__func__)))
            elif inspect.isfunction(attr):
                self._replace(cls, name, self._span(layer, key, attr, hooks))

    def uninstall(self) -> None:
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)

    # -- readout ------------------------------------------------------------------

    def layer_calls(self, layer: str) -> int:
        prefix = layer + "."
        return sum(n for key, n in self.calls.items() if key.startswith(prefix))
