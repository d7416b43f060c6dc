"""Per-layer cost ledger, attached to the simulator from outside.

The layers are the ``repro`` sub-packages.  Nothing under ``src/`` is
edited: :meth:`Ledger.install` replaces functions and methods of the
layer modules with wrappers, after import and before the testbed is
built.

Three kinds of wrapper:

* **span** -- every public function and method of a layer module.  A
  call that enters the layer from another layer opens a span for it;
  a call from inside the layer only bumps its call count, so
  intra-layer calls cost one extra Python call and no clock read.
* **count-only** -- hot leaf calls (:data:`COUNT_ONLY`).  Their own
  time stays with the caller's layer, so that the wrappers do not
  swamp the run; spans they open below themselves still count.
* **dispatch** -- every fired engine event, every backhaul handler and
  every trace subscriber becomes a span of the layer that defined the
  callback.  Without these, one medium-completion closure would hide
  the MAC, channel and PHY work done inside it.

Self time is kept by transition: at each span entry or exit the time
since the previous transition is charged to the layer that was
running.  The self times therefore add up to the traced total by
construction; the benchmark checks that against an independent clock reading of the
timed phase.
"""

from __future__ import annotations

import functools
import importlib
import pkgutil
import sys
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

#: The ``repro`` sub-packages measured as layers, in report order.
LAYERS: Tuple[str, ...] = (
    "sim",
    "mac",
    "channel",
    "mobility",
    "phy",
    "net",
    "core",
    "transport",
    "shard",
    "ha",
    "soak",
    "faults",
    "invariants",
    "obs",
    "scenarios",
)
#: Code outside the layers (apps, baselines, metrics, the benchmark)
#: and time no span covers.
OTHER = "other"

#: Hot leaf calls that are counted but not timed:
#: ``(module, class or None, function)``.
COUNT_ONLY: Tuple[Tuple[str, Optional[str], str], ...] = (
    ("repro.channel.link", "Link", "mean_rx_power_dbm"),
    ("repro.channel.link", "ChannelMap", "link"),
    ("repro.mobility.vehicle", "VehicleTrack", "position_at"),
    ("repro.phy.per", "_IdentityLru", "get"),
)

#: Spanned functions whose batch size is tallied as well: function ->
#: index of the positional argument whose ``len`` is added to the
#: ``<key>#items`` counter.
TALLIED: Dict[Tuple[str, Optional[str], str], int] = {
    ("repro.channel.link_batch", None, "warm_snapshots"): 1,
    ("repro.phy.batch", None, "prewarm_receivers"): 0,
}


def _unwrap(fn: Callable) -> Callable:
    while hasattr(fn, "__wrapped__"):
        fn = fn.__wrapped__
    return fn


def layer_of_module(module: Optional[str]) -> str:
    """``repro.mac.medium`` -> ``mac``; anything else -> ``other``."""
    if module and module.startswith("repro."):
        head = module.split(".", 2)[1]
        if head in LAYERS:
            return head
    return OTHER


class Ledger:
    """Call counts and per-layer self time of one traced process."""

    def __init__(self) -> None:
        self.names: List[str] = list(LAYERS) + [OTHER]
        self._index = {name: i for i, name in enumerate(self.names)}
        #: Self seconds per layer index, accumulated since install.
        self.self_s = [0.0] * len(self.names)
        #: ``module:qualname`` -> one-element call counter.
        self.calls: Dict[str, List[int]] = {}
        # Transition state: the running layer, the time it started
        # running, and the layers interrupted below it.
        self._state = [self._index[OTHER], perf_counter()]
        self._stack: List[int] = []
        self._code_layer: Dict[object, int] = {}
        self._timer_type: Optional[type] = None
        self._timed_self = [0.0] * len(self.names)
        self._phase_start: List[float] = []
        #: Instances kept by :meth:`track`, per ``#new`` counter key.
        self.instances: Dict[str, List[object]] = {}

    # ------------------------------------------------------------------
    # wrappers
    # ------------------------------------------------------------------

    def _counter(self, key: str) -> List[int]:
        cell = self.calls.get(key)
        if cell is None:
            cell = self.calls[key] = [0]
        return cell

    def _span(
        self, fn: Callable, layer: int, key: str, tally: Optional[int] = None
    ) -> Callable:
        calls = self._counter(key)
        if tally is not None:
            items = self._counter(key + "#items")
            batch = fn

            @functools.wraps(batch)
            def fn(*args, **kwargs):
                items[0] += len(args[tally])
                return batch(*args, **kwargs)

        state = self._state
        stack = self._stack
        self_s = self.self_s

        @functools.wraps(fn)
        def span(*args, **kwargs):
            calls[0] += 1
            if state[0] == layer:
                return fn(*args, **kwargs)
            now = perf_counter()
            self_s[state[0]] += now - state[1]
            stack.append(state[0])
            state[0] = layer
            state[1] = now
            try:
                return fn(*args, **kwargs)
            finally:
                now = perf_counter()
                self_s[layer] += now - state[1]
                state[0] = stack.pop()
                state[1] = now

        return span

    def _count_only(self, fn: Callable, key: str) -> Callable:
        calls = self._counter(key)

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            calls[0] += 1
            return fn(*args, **kwargs)

        return counted

    def _callback_layer(self, callback: Callable) -> int:
        """Layer that defined ``callback`` (Timers and partials unwrapped)."""
        while True:
            if isinstance(callback, functools.partial):
                callback = callback.func
                continue
            owner = getattr(callback, "__self__", None)
            if self._timer_type is not None and isinstance(owner, self._timer_type):
                callback = owner._callback
                continue
            break
        func = _unwrap(getattr(callback, "__func__", callback))
        code = getattr(func, "__code__", None)
        if code is None:
            return self._index[layer_of_module(type(callback).__module__)]
        layer = self._code_layer.get(code)
        if layer is None:
            module = getattr(func, "__module__", None)
            layer = self._code_layer[code] = self._index[layer_of_module(module)]
        return layer

    def _dispatch_span(self, callback: Callable, key: str) -> Callable:
        """Wrap a callback handed to another layer as a span of its own."""
        layer = self._callback_layer(callback)
        return self._span(callback, layer, key)

    # ------------------------------------------------------------------
    # installation
    # ------------------------------------------------------------------

    def install(self) -> None:
        """Import every layer module and wrap its functions and methods."""
        modules = []
        for layer in LAYERS:
            package = importlib.import_module(f"repro.{layer}")
            modules.append(package)
            for info in pkgutil.walk_packages(
                package.__path__, prefix=f"repro.{layer}."
            ):
                modules.append(importlib.import_module(info.name))
        count_only = {(m, c, f) for m, c, f in COUNT_ONLY}

        replaced: Dict[int, Callable] = {}
        for module in modules:
            name = module.__name__
            layer = self._index[layer_of_module(name)]
            for attr, value in list(vars(module).items()):
                if isinstance(value, type) and value.__module__ == name:
                    self._wrap_class(value, name, layer, count_only)
                elif (
                    callable(value)
                    and getattr(value, "__module__", None) == name
                    and hasattr(value, "__code__")
                    and not attr.startswith("_")
                ):
                    key = f"{name}:{value.__qualname__}"
                    if (name, None, attr) in count_only:
                        wrapper = self._count_only(value, key)
                    else:
                        tally = TALLIED.get((name, None, attr))
                        wrapper = self._span(value, layer, key, tally)
                    replaced[id(value)] = wrapper
        # Patch each function under every name its callers use
        # (``from repro.channel.link_batch import warm_snapshots`` binds
        # a second name in repro.mac.medium).
        for module in list(sys.modules.values()):
            for attr, value in list(getattr(module, "__dict__", {}).items()):
                wrapper = replaced.get(id(value))
                if wrapper is not None and _unwrap(wrapper) is value:
                    setattr(module, attr, wrapper)
        self._install_dispatch()

    def _wrap_class(self, cls: type, module: str, layer: int, count_only) -> None:
        for attr, value in list(vars(cls).items()):
            if attr.startswith("__"):
                continue
            key = f"{module}:{cls.__qualname__}.{attr}"
            if (module, cls.__name__, attr) in count_only:
                setattr(cls, attr, self._count_only(value, key))
                continue
            if attr.startswith("_"):
                continue
            if isinstance(value, staticmethod):
                setattr(cls, attr, staticmethod(self._span(value.__func__, layer, key)))
            elif isinstance(value, classmethod):
                setattr(cls, attr, classmethod(self._span(value.__func__, layer, key)))
            elif hasattr(value, "__code__"):
                setattr(cls, attr, self._span(value, layer, key))

    def _install_dispatch(self) -> None:
        from repro.net.backhaul import EthernetBackhaul
        from repro.obs.trace import Tracer
        from repro.sim.engine import EventHandle, Timer

        self._timer_type = Timer
        ledger = self
        fire_calls = self._counter("repro.sim.engine:EventHandle._fire")
        fire = EventHandle._fire

        def dispatch_fire(handle):
            fire_calls[0] += 1
            callback = handle.callback
            if callback is None:
                return fire(handle)
            layer = ledger._callback_layer(callback)
            state = ledger._state
            if state[0] == layer:
                return fire(handle)
            now = perf_counter()
            ledger.self_s[state[0]] += now - state[1]
            ledger._stack.append(state[0])
            state[0] = layer
            state[1] = now
            try:
                return fire(handle)
            finally:
                now = perf_counter()
                ledger.self_s[layer] += now - state[1]
                state[0] = ledger._stack.pop()
                state[1] = now

        EventHandle._fire = dispatch_fire

        register = EthernetBackhaul.register

        @functools.wraps(register)
        def register_spanned(backhaul, node_id, handler):
            return register(
                backhaul,
                node_id,
                ledger._dispatch_span(handler, "backhaul-handler"),
            )

        EthernetBackhaul.register = register_spanned

        subscribe = Tracer.subscribe

        @functools.wraps(subscribe)
        def subscribe_spanned(tracer, sink, names=None):
            return subscribe(
                tracer, ledger._dispatch_span(sink, "trace-subscriber"), names
            )

        Tracer.subscribe = subscribe_spanned

    def track(self, cls: type, keep: bool = False) -> None:
        """Count constructions of ``cls`` (``<module>:<Class>#new``) and,
        with ``keep``, hold every instance in :attr:`instances`."""
        key = f"{cls.__module__}:{cls.__qualname__}#new"
        made = self._counter(key)
        kept = self.instances.setdefault(key, [])
        init = cls.__init__

        @functools.wraps(init)
        def init_tracked(obj, *args, **kwargs):
            init(obj, *args, **kwargs)
            made[0] += 1
            if keep:
                kept.append(obj)

        cls.__init__ = init_tracked

    # ------------------------------------------------------------------
    # timed phase
    # ------------------------------------------------------------------

    def _transition(self) -> None:
        now = perf_counter()
        state = self._state
        self.self_s[state[0]] += now - state[1]
        state[1] = now

    def phase_enter(self) -> None:
        """Start of the timed phase: checkpoint the self times."""
        self._transition()
        self._phase_start = list(self.self_s)

    def phase_exit(self) -> None:
        """End of the timed phase: keep the self time it added."""
        self._transition()
        for i, value in enumerate(self.self_s):
            self._timed_self[i] += value - self._phase_start[i]

    def timed_self_s(self) -> Dict[str, float]:
        """Self seconds per layer inside the timed phase."""
        return dict(zip(self.names, self._timed_self))

    def count(self, key: str) -> int:
        cell = self.calls.get(key)
        return cell[0] if cell is not None else 0

    def counts(self) -> Dict[str, int]:
        return {key: cell[0] for key, cell in sorted(self.calls.items())}
