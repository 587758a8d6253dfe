"""Structured tracing on the virtual clock.

The tracer is the event firehose of the observability layer
(:mod:`repro.obs`): every gate crossing, PKRU write, protection or
injected fault, supervisor decision, allocator operation, scheduler
context switch, and TCP segment can emit a :class:`TraceEvent` stamped
with the virtual-cycle clock.  Aggregation lives in
:class:`~repro.obs.metrics.MetricsRegistry` (the tracer feeds it as
events arrive); rendering lives in :mod:`repro.obs.export`.

Two invariants keep observation from perturbing the system:

* **The tracer never touches the clock.**  Events read
  ``clock.cycles``; they never ``charge()``.  Enabling tracing changes
  no virtual-time measurement, which ``tests/test_obs.py`` asserts down
  to the cycle.
* **Disabled means one attribute check.**  Hook sites consult the
  module-level :data:`ACTIVE` singleton and test ``.enabled`` once; with
  the default :class:`NullTracer` installed that is the entire cost of
  instrumentation.

Install a tracer with :func:`install_tracer` / :func:`uninstall_tracer`,
or scoped with the :func:`tracing` context manager (which nests: the
previous tracer is restored on exit).
"""

from __future__ import annotations

from contextlib import contextmanager

from repro.obs.metrics import MetricsRegistry

#: Event categories the exporters and tests key on.
CATEGORIES = (
    "gate",         # one cross-compartment crossing (a span)
    "pkru",         # one PKRU register write
    "fault",        # a protection or injected fault fired
    "supervisor",   # one supervision decision
    "alloc",        # one allocator operation
    "sched",        # one scheduler context switch
    "net",          # one TCP segment sent or received, or a frame dropped
    "ept",          # one address-space switch or shared-window RPC alloc
    "irq",          # one interrupt delivery
    "fs",           # one VFS/ramfs operation
    "explore",      # one exploration-engine wave scheduled
    "tlb",          # one permission-TLB hit, miss, or flush
    "reconfig",     # one live-reconfiguration phase or step
)


class TraceEvent:
    """One recorded event.

    ``dur`` is ``None`` for instant events; spans (gate crossings) carry
    their duration in virtual cycles.  ``args`` is a flat dict of
    event-specific attributes, JSON-serialisable by construction.
    """

    __slots__ = ("name", "cat", "ts", "dur", "args", "core")

    def __init__(self, name, cat, ts, dur=None, args=None, core=None):
        self.name = name
        self.cat = cat
        self.ts = ts
        self.dur = dur
        self.args = args or {}
        #: Virtual core the event was recorded on (None outside SMP
        #: slices); the Chrome exporter renders one lane per core.
        self.core = core

    @property
    def is_span(self):
        return self.dur is not None

    def __repr__(self):
        span = " dur=%.0f" % self.dur if self.dur is not None else ""
        return "TraceEvent(%s/%s ts=%.0f%s)" % (
            self.cat, self.name, self.ts, span,
        )


class NullTracer:
    """The disabled tracer: every hook is a no-op.

    Hook sites check :attr:`enabled` once and skip the call entirely, so
    the only cost of the instrumentation with tracing off is that single
    attribute test — and, by the never-touch-the-clock invariant, zero
    virtual cycles either way.
    """

    enabled = False
    events = ()
    metrics = None

    def gate_begin(self, gate, ctx, library):
        return None

    def gate_end(self, token, ctx, status="ok", overhead=0.0):
        pass

    def entry_begin(self, library, ctx):
        return None

    def entry_end(self, token, ctx):
        pass

    def thread_wake(self, thread):
        pass

    def pkru_write(self, op, key):
        pass

    def fault(self, fault_type, **args):
        pass

    def supervision(self, compartment, action, fault_type, attempt, **args):
        pass

    def alloc_op(self, op, region, size, fast=None):
        pass

    def context_switch(self, previous, current):
        pass

    def tcp_segment(self, direction, flags, nbytes, port=None):
        pass

    def net_drop(self, reason):
        pass

    def space_switch(self, previous, current, direction):
        pass

    def window_alloc(self, space, nbytes, offset, wrapped):
        pass

    def irq(self, line, handlers):
        pass

    def fs_op(self, layer, op):
        pass

    def explore_wave(self, index, scheduled, evaluated, cache_hits, pruned):
        pass

    def tlb_op(self, op):
        pass

    def core_dispatch(self, core, depth, thread=None):
        pass

    def reconfig(self, action, **args):
        pass

    def reconfig_blackout(self, cycles, queued):
        pass

    def instant(self, name, cat, **args):
        pass

    def __repr__(self):
        return "NullTracer()"


#: The process-wide disabled singleton hook sites see by default.
NULL_TRACER = NullTracer()


class Tracer:
    """Records structured events; feeds the metrics registry as it goes.

    Args:
        clock: the :class:`~repro.hw.clock.Clock` events are stamped
            with.  ``None`` stamps instant events at 0 (gate spans always
            use the execution context's clock).
        metrics: a :class:`~repro.obs.metrics.MetricsRegistry` to
            aggregate into; a fresh one is created when omitted.
        keep_events: set False to aggregate metrics only (long campaigns
            that do not need the event stream).
    """

    enabled = True

    def __init__(self, clock=None, metrics=None, keep_events=True):
        self.clock = clock
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.keep_events = keep_events
        self.events = []
        #: Open gate spans: [label, child_cycles_accumulator] entries.
        self._stack = []
        #: :class:`~repro.obs.spans.SpanTracker` driven by the entry,
        #: gate, wake, and core hooks (None = span tracing off).
        self.spans = None
        #: Virtual core of the slice currently executing (stamped by the
        #: SMP scheduler via :meth:`core_dispatch`; None when serial).
        self.current_core = None

    # -- internals -----------------------------------------------------------
    def _now(self):
        return self.clock.cycles if self.clock is not None else 0.0

    def _record(self, event):
        if self.keep_events:
            event.core = self.current_core
            self.events.append(event)

    def instant(self, name, cat, **args):
        """Record a free-form instant event (rarely needed directly)."""
        self._record(TraceEvent(name, cat, self._now(), args=args))

    # -- gate crossings (spans) ------------------------------------------------
    def gate_begin(self, gate, ctx, library):
        """Open a crossing span; returns a token for :meth:`gate_end`.

        Called by :meth:`repro.core.gates.Gate._call_once` before the
        domain switch; ``ctx.current_library`` still names the caller.
        """
        label = "%s->%s:%s" % (gate.src.name, gate.dst.name, library)
        frame = [label, 0.0]
        self._stack.append(frame)
        return (gate, library, ctx.current_library, ctx.clock.cycles,
                ctx.gate_depth, frame,
                tuple(entry[0] for entry in self._stack))

    def gate_end(self, token, ctx, status="ok", overhead=0.0):
        """Close a crossing span opened by :meth:`gate_begin`.

        ``overhead`` is the crossing's *pure* isolation cost — the cycles
        the gate charged entering and leaving the domain, measured by
        :meth:`~repro.core.gates.Gate._call_once` — as opposed to
        ``dur``, which includes the callee's work.  Request spans book
        exactly this overhead as gate cycles.
        """
        gate, library, src_library, begin, depth, frame, stack = token
        end = ctx.clock.cycles
        duration = end - begin
        if self._stack and self._stack[-1] is frame:
            self._stack.pop()
        if self._stack:
            self._stack[-1][1] += duration
        self_cycles = max(0.0, duration - frame[1])
        self._record(TraceEvent(
            frame[0], "gate", begin, dur=duration,
            args={
                "kind": gate.kind,
                "src": gate.src.name,
                "dst": gate.dst.name,
                "src_comp": gate.src.index,
                "dst_comp": gate.dst.index,
                "library": library,
                "src_library": src_library,
                "depth": depth,
                "one_way_cost": gate.one_way_cost(),
                "status": status,
                "self_cycles": self_cycles,
                "overhead_cycles": overhead,
                "stack": stack,
            },
        ))
        self.metrics.record_gate(
            gate.src.name, gate.dst.name, gate.src.index, gate.dst.index,
            gate.kind, library, duration,
        )
        if self.spans is not None:
            self.spans.on_gate(ctx, frame[0], gate.kind, begin, duration,
                               overhead, depth, status)

    # -- entry-point calls (span claiming) ---------------------------------------
    def entry_begin(self, library, ctx):
        """An entry-point call is starting (gated *or* same-compartment
        direct); drives span claiming.  Returns a token for
        :meth:`entry_end`, or None when no span tracking applies.  Never
        records an event — the gated path already has its gate span, and
        direct calls are the zero-overhead baseline."""
        if self.spans is None:
            return None
        return self.spans.on_entry_begin(library, ctx)

    def entry_end(self, token, ctx):
        """Close an entry-point call opened by :meth:`entry_begin`."""
        if token is not None:
            self.spans.on_entry_end(token, ctx)

    def thread_wake(self, thread):
        """A thread became runnable (wake/wake_all/sleep expiry).

        Counter-only, span-tracker-only: the scheduler fires this on
        every wake-up, and request spans use it to count how many
        reschedules the serving thread took between two requests.
        """
        if self.spans is not None:
            self.spans.on_thread_wake(thread)

    # -- instant hooks ----------------------------------------------------------
    def pkru_write(self, op, key):
        """One write to the PKRU register (``allow``/``deny``/``restore``)."""
        self._record(TraceEvent(
            "pkru-%s" % op, "pkru", self._now(),
            args={"op": op, "key": key},
        ))
        self.metrics.record_pkru_write(op)

    def fault(self, fault_type, **args):
        """A protection or injected fault fired."""
        self._record(TraceEvent(fault_type, "fault", self._now(), args=args))
        self.metrics.record_fault(fault_type)

    def supervision(self, compartment, action, fault_type, attempt, **args):
        """The supervisor decided what one compartment fault becomes."""
        args.update({"compartment": compartment, "fault": fault_type,
                     "attempt": attempt})
        self._record(TraceEvent(
            "supervise-%s" % action, "supervisor", self._now(), args=args,
        ))
        self.metrics.record_supervision(action)

    def alloc_op(self, op, region, size, fast=None):
        """One allocator operation (``alloc``/``free``), fast or slow path."""
        self._record(TraceEvent(
            "%s-%s" % (op, "fast" if fast else "slow")
            if op == "alloc" else op,
            "alloc", self._now(),
            args={"op": op, "region": region, "bytes": size, "fast": fast},
        ))
        self.metrics.record_alloc(op, region, size, fast)

    def context_switch(self, previous, current):
        """The scheduler dispatched a different thread.

        Also tells the span tracker the previous slice is over, which
        closes a request span's post-entry linger window (see
        :meth:`repro.obs.spans.SpanTracker.on_thread_dispatch`).
        """
        self._record(TraceEvent(
            "switch", "sched", self._now(),
            args={"from": previous, "to": current},
        ))
        self.metrics.record_context_switch()
        if self.spans is not None:
            self.spans.on_thread_dispatch(current)

    def tcp_segment(self, direction, flags, nbytes, port=None):
        """One TCP segment left (``tx``) or reached (``rx``) the stack."""
        self._record(TraceEvent(
            "tcp-%s" % direction, "net", self._now(),
            args={"direction": direction, "flags": flags, "bytes": nbytes,
                  "port": port},
        ))
        self.metrics.record_tcp_segment(direction)

    def net_drop(self, reason):
        """The stack dropped one malformed received frame (``reason``)."""
        self._record(TraceEvent(
            "net-drop", "net", self._now(), args={"reason": reason},
        ))
        self.metrics.record_net_drop(reason)

    def space_switch(self, previous, current, direction):
        """The execution context moved to another VM's address space."""
        self._record(TraceEvent(
            "as-switch", "ept", self._now(),
            args={"from": previous, "to": current, "direction": direction},
        ))
        self.metrics.record_space_switch()

    def window_alloc(self, space, nbytes, offset, wrapped):
        """One descriptor allocation in the inter-VM shared window."""
        self._record(TraceEvent(
            "ivshmem-alloc", "ept", self._now(),
            args={"space": space, "bytes": nbytes, "offset": offset,
                  "wrapped": wrapped},
        ))
        self.metrics.record_window_alloc(nbytes, wrapped)

    def irq(self, line, handlers):
        """One interrupt delivered through the first-level handler."""
        self._record(TraceEvent(
            "irq-%d" % line, "irq", self._now(),
            args={"line": line, "handlers": handlers},
        ))
        self.metrics.record_irq(line)

    def fs_op(self, layer, op):
        """One filesystem operation (``vfscore`` or ``ramfs`` layer)."""
        self._record(TraceEvent(
            "%s-%s" % (layer, op), "fs", self._now(),
            args={"layer": layer, "op": op},
        ))
        self.metrics.record_fs_op(layer, op)

    def explore_wave(self, index, scheduled, evaluated, cache_hits, pruned):
        """The exploration engine finished one antichain wave."""
        self._record(TraceEvent(
            "wave-%d" % index, "explore", self._now(),
            args={"wave": index, "scheduled": scheduled,
                  "evaluated": evaluated, "cache_hits": cache_hits,
                  "pruned": pruned},
        ))
        self.metrics.record_explore_wave(scheduled, evaluated, cache_hits,
                                         pruned)

    def tlb_op(self, op):
        """One permission-TLB event (``hit``/``miss``/``flush``).

        Counter-only by default: hits happen on every hot-path access, so
        recording an event object per hit would swamp the stream and the
        exporters.  The aggregate lands in the metrics snapshot's ``tlb``
        section (which appears only when the TLB actually ran).
        """
        self.metrics.record_tlb(op)

    def core_dispatch(self, core, depth, thread=None):
        """One SMP dispatch on ``core`` with ``depth`` threads left queued.

        Counter-only, like :meth:`tlb_op`: the SMP scheduler fires this
        on every slice, so recording an event object each time would
        swamp the stream under load.  The aggregate lands in the metrics
        snapshot's ``sched`` section and ``runqueue_depth`` histogram
        (which appear only when the SMP scheduler actually ran).  As a
        side effect the slice's core is remembered, so every event
        recorded until the next dispatch is stamped with it (the Chrome
        exporter's per-core lanes) and request spans know which core
        served them.
        """
        self.current_core = core
        self.metrics.record_core_dispatch(core, depth)
        if self.spans is not None:
            self.spans.on_core_dispatch(core, thread)

    def reconfig(self, action, **args):
        """One live-reconfiguration action (plan, phase entry, step,
        commit, rollback, resume, harden)."""
        self._record(TraceEvent(
            "reconfig-%s" % action, "reconfig", self._now(), args=args,
        ))
        self.metrics.record_reconfig(action)

    def reconfig_blackout(self, cycles, queued):
        """The blackout window of one migration: virtual cycles between
        QUIESCE entry and RESUME, with ``queued`` requests waiting."""
        self._record(TraceEvent(
            "reconfig-blackout", "reconfig", self._now(),
            args={"cycles": cycles, "queued": queued},
        ))
        self.metrics.record_reconfig_blackout(cycles, queued)

    # -- introspection ----------------------------------------------------------
    def events_in(self, cat):
        """All recorded events of one category."""
        return [e for e in self.events if e.cat == cat]

    def gate_pairs(self):
        """Set of (src_comp, dst_comp) pairs with at least one span."""
        return {
            (e.args["src_comp"], e.args["dst_comp"])
            for e in self.events if e.cat == "gate"
        }

    def __repr__(self):
        return "Tracer(%d events)" % len(self.events)


#: The tracer hook sites consult.  Swapped by :func:`install_tracer`;
#: the default is the no-op singleton, so instrumentation costs one
#: ``.enabled`` check until somebody opts in.
ACTIVE = NULL_TRACER


def install_tracer(tracer):
    """Make ``tracer`` the active tracer; returns the previous one."""
    global ACTIVE
    previous = ACTIVE
    ACTIVE = tracer
    return previous


def uninstall_tracer():
    """Reset to the disabled singleton; returns the previous tracer."""
    return install_tracer(NULL_TRACER)


def get_tracer():
    """The currently active tracer (the null singleton when disabled)."""
    return ACTIVE


@contextmanager
def tracing(tracer=None, clock=None):
    """Scoped tracing: install for a block, restore the previous tracer.

    Yields the installed :class:`Tracer` (a fresh one bound to ``clock``
    when none is passed).  Nests: an inner ``tracing()`` block diverts
    events to its own tracer and hands the outer one back on exit.
    """
    tracer = tracer if tracer is not None else Tracer(clock=clock)
    previous = install_tracer(tracer)
    try:
        yield tracer
    finally:
        install_tracer(previous)
