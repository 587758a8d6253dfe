"""Host-time spans recorded around the simulator's layer boundaries.

The traced run wraps the public, non-generator functions of each layer
(listed in :data:`LAYER_FUNCTIONS`) in a span wrapper owned by this file;
nothing under ``src/`` changes.  Each span records its name, start, end,
parent span and the scheduler thread that was current when it opened.

Entry points decorated with ``repro.kernel.lib.entrypoint`` are wrapped
*inside* the decorator (its ``func`` closure cell is swapped), so the
span covers only the function body: routing and gate transitions stay in
the ``core`` spans that enclose it, and the body's own time lands in its
own layer.

Only non-generator functions are wrapped.  Such a function runs to
completion without yielding to the cooperative scheduler, and the
simulator runs in one OS thread, so spans nest strictly and one stack
gives every span its parent.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from array import array
from time import perf_counter

#: layer -> [(module, class name or None, function names or None)].
#: ``None`` as the function list means every public function the class
#: itself defines.  A class name ending in ``*`` matches every class of
#: the module whose name ends with the rest (all gate classes).
LAYER_FUNCTIONS = {
    "net": [
        ("repro.kernel.net.stack", "NetworkStack", None),
        ("repro.kernel.net.device", "NetDevice", None),
    ],
    "client": [
        ("repro.apps.host", "HostEndpoint", None),
    ],
    "core": [
        ("repro.core.image", "Router", ["route"]),
        ("repro.core.gates", "*Gate", ["call"]),
    ],
    "hw": [
        ("repro.hw.mmu", "MMU", ["check"]),
    ],
    "fs": [
        ("repro.kernel.fs.vfs", "Vfs", None),
    ],
    "apps": [
        ("repro.apps.redis", "RedisServer", ["execute"]),
        ("repro.apps.nginx", "NginxServer", ["handle"]),
        ("repro.apps.sqlite", "SqliteEngine", ["execute"]),
        ("repro.apps.base", None, ["evaluate_profile"]),
    ],
    "explore": [
        ("repro.explore.explorer", None, ["explore"]),
        ("repro.explore.safety", None, ["safety_leq"]),
    ],
}

#: Spans opened under a span of this layer count as this layer: the
#: load generator runs the same ``kernel/net`` code in-process, and its
#: share must not be mistaken for the guest's.
INHERITING_LAYER = "client"


def _is_generator(func):
    impl = getattr(func, "__wrapped_impl__", func)
    return inspect.isgeneratorfunction(inspect.unwrap(impl))


def _targets(module, cls_pattern, names):
    """Yield (owner, attribute name, function) for one table row."""
    if cls_pattern is None:
        for name in names:
            yield module, name, getattr(module, name)
        return
    if cls_pattern.startswith("*"):
        classes = [obj for key, obj in vars(module).items()
                   if inspect.isclass(obj) and key.endswith(cls_pattern[1:])
                   and obj.__module__ == module.__name__]
    else:
        classes = [getattr(module, cls_pattern)]
    for cls in classes:
        for name, attr in vars(cls).items():
            if not inspect.isfunction(attr) or name.startswith("_"):
                continue
            if names is not None and name not in names:
                continue
            yield cls, name, attr


class SpanRecorder:
    """Records spans into flat arrays while :attr:`active` is set."""

    def __init__(self):
        self.names = []           # span-name id -> "layer:qualname"
        self.layers = []          # span-name id -> layer
        self.name_id = array("H")
        self.parent = array("l")
        self.thread = array("H")
        self.start = array("d")
        self.end = array("d")
        self.thread_names = []
        self._thread_ids = {}
        self._stack = []
        self._restore = []
        self.active = False
        #: Returns the current scheduler thread (or None).
        self.current_thread = lambda: None
        #: Totals the probes below add up while active.
        self.counters = {"wire_bytes": 0, "rx_depth_sum": 0,
                         "rx_depth_samples": 0, "fs_bytes_read": 0,
                         "fs_bytes_written": 0}
        self.guest_stack = None

    # -- wrapping -------------------------------------------------------------
    def _thread_id(self):
        thread = self.current_thread()
        name = thread.name if thread is not None else "-"
        tid = self._thread_ids.get(name)
        if tid is None:
            tid = self._thread_ids[name] = len(self.thread_names)
            self.thread_names.append(name)
        return tid

    def wrap(self, layer, qualname, func, probe=(None, None)):
        """Return ``func`` wrapped in a span named ``layer:qualname``.

        ``probe`` is a ``(before, after)`` pair of counting hooks, called
        as ``before(recorder, args)`` and ``after(recorder, args, result)``.
        """
        before, after = probe
        name_id = len(self.names)
        self.names.append("%s:%s" % (layer, qualname))
        self.layers.append(layer)
        recorder = self
        stack = self._stack
        start, end = self.start, self.end

        @functools.wraps(func)
        def traced(*args, **kwargs):
            if not recorder.active:
                return func(*args, **kwargs)
            if before is not None:
                before(recorder, args)
            index = len(start)
            recorder.name_id.append(name_id)
            recorder.parent.append(stack[-1] if stack else -1)
            recorder.thread.append(recorder._thread_id())
            end.append(0.0)
            stack.append(index)
            start.append(perf_counter())
            try:
                result = func(*args, **kwargs)
            finally:
                end[index] = perf_counter()
                stack.pop()
            if after is not None:
                after(recorder, args, result)
            return result

        return traced

    def install(self, table=LAYER_FUNCTIONS):
        """Wrap every function of ``table``; :meth:`uninstall` undoes it."""
        for layer, rows in table.items():
            for module_name, cls_pattern, names in rows:
                module = importlib.import_module(module_name)
                for owner, name, func in _targets(module, cls_pattern, names):
                    if _is_generator(func):
                        continue
                    qualname = (name if inspect.ismodule(owner)
                                else "%s.%s" % (owner.__name__, name))
                    self._wrap_one(layer, qualname, owner, name, func)
        return self

    def _wrap_one(self, layer, qualname, owner, name, func):
        probe = PROBES.get(qualname, (None, None))
        impl = getattr(func, "__wrapped_impl__", None)
        if impl is not None:
            # An entry point: swap the body inside the routing wrapper.
            cell = func.__closure__[func.__code__.co_freevars.index("func")]
            cell.cell_contents = self.wrap(layer, qualname, impl, probe)
            self._restore.append(
                lambda cell=cell, impl=impl: setattr(
                    cell, "cell_contents", impl))
            return
        traced = self.wrap(layer, qualname, func, probe)
        if inspect.ismodule(owner):
            # Module functions are also bound by name wherever they were
            # imported with ``from module import name``.
            for other in list(sys.modules.values()):
                if getattr(other, "__name__", "").startswith("repro") and \
                        getattr(other, name, None) is func:
                    setattr(other, name, traced)
                    self._restore.append(functools.partial(
                        setattr, other, name, func))
        else:
            setattr(owner, name, traced)
            self._restore.append(functools.partial(setattr, owner, name,
                                                   func))

    def uninstall(self):
        while self._restore:
            self._restore.pop()()
        self.active = False

    # -- accounting -----------------------------------------------------------
    def __len__(self):
        return len(self.start)

    def span(self, index):
        """One span as a dict (for inspection and tests)."""
        return {
            "name": self.names[self.name_id[index]],
            "start": self.start[index],
            "end": self.end[index],
            "parent": self.parent[index],
            "thread": self.thread_names[self.thread[index]],
        }

    def account(self):
        """Per-layer self time and call counts over every recorded span.

        Returns ``(self_s, calls, root_s, effective)``: self time in
        seconds per layer, span count per layer, the summed duration of
        root spans, and the layer each span was counted in.  A span's
        self time is its duration minus the durations of its direct
        children, so the self times add up to ``root_s``.  A span under
        an :data:`INHERITING_LAYER` span counts as that layer.
        """
        n = len(self.start)
        effective = [""] * n
        child = [0.0] * n
        self_s = {}
        calls = {}
        root_s = 0.0
        for i in range(n):
            duration = self.end[i] - self.start[i]
            parent = self.parent[i]
            layer = self.layers[self.name_id[i]]
            if parent >= 0:
                child[parent] += duration
                if effective[parent] == INHERITING_LAYER:
                    layer = INHERITING_LAYER
            else:
                root_s += duration
            effective[i] = layer
            calls[layer] = calls.get(layer, 0) + 1
        for i in range(n):
            layer = effective[i]
            self_s[layer] = (self_s.get(layer, 0.0)
                             + (self.end[i] - self.start[i]) - child[i])
        return self_s, calls, root_s, effective

    def inclusive_s(self, qualname):
        """Summed duration and count of the spans named ``qualname``."""
        total = 0.0
        count = 0
        for i in range(len(self.start)):
            if self.names[self.name_id[i]].split(":", 1)[1] == qualname:
                total += self.end[i] - self.start[i]
                count += 1
        return total, count


def _add(key, amount):
    """A hook adding ``amount(*hook arguments)`` to one counter."""
    def hook(recorder, *values):
        recorder.counters[key] += amount(*values)
    return hook


def _rx_depth(recorder, args):
    stack = args[0]
    if stack is recorder.guest_stack:
        recorder.counters["rx_depth_sum"] += len(stack.device.rx_queue)
        recorder.counters["rx_depth_samples"] += 1


#: (before, after) counting hooks keyed by qualname.
#: ``NetDevice.transmit`` runs for both ends of the link, so its byte
#: count is every byte on the wire.
PROBES = {
    "NetDevice.transmit": (
        _add("wire_bytes", lambda args: len(args[1])), None),
    "NetworkStack.pump": (_rx_depth, None),
    "Vfs.read": (
        None, _add("fs_bytes_read", lambda args, result: len(result))),
    "Vfs.readv": (None, _add("fs_bytes_read", lambda args, result: result)),
    "Vfs.write": (
        None, _add("fs_bytes_written", lambda args, result: result)),
    "Vfs.writev": (
        None, _add("fs_bytes_written", lambda args, result: result)),
}
