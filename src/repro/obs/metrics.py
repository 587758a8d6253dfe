"""Metric aggregation for the observability layer.

The :class:`MetricsRegistry` turns the tracer's event stream into
constant-space aggregates: counters per gate pair / library / fault type
/ supervision action / allocator path, plus fixed-bucket latency
histograms per gate pair.  The invariant the tests pin down: for every
gate pair, the latency histogram's total count equals the sum of that
pair's crossing counters — histograms and counters observe the same
stream, so they can never drift apart.

Nothing here touches the virtual clock; aggregation is free in modelled
time (see the module docstring of :mod:`repro.obs.tracer`).
"""

from __future__ import annotations

#: Bucket upper bounds (virtual cycles) for gate-crossing latency.
#: Spans the range from a plain function call (~5 cycles) to an EPT RPC
#: with marshalling and supervision (tens of thousands).
GATE_LATENCY_BUCKETS = (
    50.0, 100.0, 250.0, 500.0, 1000.0, 2500.0, 5000.0, 10000.0,
    25000.0, 50000.0, 100000.0,
)

#: Bucket upper bounds (bytes) for allocation sizes.
ALLOC_SIZE_BUCKETS = (16.0, 32.0, 64.0, 128.0, 256.0, 512.0, 1024.0,
                      4096.0, 16384.0, 65536.0)

#: Bucket upper bounds (virtual cycles) for reconfiguration blackout
#: windows (QUIESCE entry -> RESUME).  Spans a cheap same-mechanism gate
#: swap (a few thousand cycles) to a full MPK->EPT migration that boots
#: per-compartment VMs (hundreds of thousands).
RECONFIG_BLACKOUT_BUCKETS = (
    1_000.0, 5_000.0, 10_000.0, 25_000.0, 50_000.0, 100_000.0,
    250_000.0, 500_000.0, 1_000_000.0,
)

#: Bucket upper bounds (threads) for the run-queue depth observed at
#: each SMP dispatch.  Depth 0 means the dispatched thread was the only
#: runnable one; deep queues are the queueing-delay signal the open-loop
#: load harness is after.
RUNQUEUE_DEPTH_BUCKETS = (
    0.0, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0,
)


class Histogram:
    """A fixed-bucket histogram with an overflow bucket.

    ``counts[i]`` counts observations ``<= buckets[i]`` (and greater
    than the previous bound); ``counts[-1]`` is the overflow bucket.

    Boundary rule: bucket bounds are **inclusive upper bounds**.  A
    value exactly equal to ``buckets[i]`` lands in ``counts[i]``, never
    in ``counts[i + 1]`` — e.g. with bounds ``(50, 100)``, observing
    exactly ``50.0`` increments the first bucket, and exactly
    ``buckets[-1]`` increments the last bounded bucket, not overflow.
    This matters because the tree's cost model produces exact round
    values (a gate's one-way cost, a power-of-two allocation size), so
    edge hits are the common case, not a float accident;
    ``tests/test_obs.py::TestHistogramBucketEdges`` pins the rule.
    """

    __slots__ = ("buckets", "counts", "total", "sum")

    def __init__(self, buckets):
        self.buckets = tuple(float(b) for b in buckets)
        if list(self.buckets) != sorted(self.buckets):
            raise ValueError("histogram buckets must be ascending")
        self.counts = [0] * (len(self.buckets) + 1)
        self.total = 0
        self.sum = 0.0

    def observe(self, value):
        self.total += 1
        self.sum += value
        for i, bound in enumerate(self.buckets):
            if value <= bound:
                self.counts[i] += 1
                return
        self.counts[-1] += 1

    @property
    def mean(self):
        return self.sum / self.total if self.total else 0.0

    def to_dict(self):
        return {
            "buckets": list(self.buckets),
            "counts": list(self.counts),
            "total": self.total,
            "sum": self.sum,
            "mean": self.mean,
        }

    def __repr__(self):
        return "Histogram(total=%d mean=%.1f)" % (self.total, self.mean)


class MetricsRegistry:
    """Counters and histograms aggregated from the trace stream.

    Args:
        timeseries: optional
            :class:`~repro.obs.timeseries.WindowedTelemetry` every
            recording hook tees into, so the same stream that feeds the
            whole-run aggregates also feeds the windowed flight
            recorder.  The aggregate :meth:`snapshot` shape is
            unaffected (the perf-gate baselines stay byte-identical);
            windowed state is read through the telemetry object itself.
    """

    def __init__(self, timeseries=None):
        self.timeseries = timeseries
        #: (src_name, dst_name, gate_kind) -> crossings.
        self.gate_crossings = {}
        #: (src_name, dst_name) -> latency Histogram (virtual cycles).
        self.gate_latency = {}
        #: (src_comp_index, dst_comp_index) -> crossings.
        self.gate_pairs = {}
        #: callee micro-library -> gated calls into it.
        self.crossings_by_library = {}
        self.pkru_writes = 0
        #: fault type name -> occurrences.
        self.faults = {}
        #: supervision action -> decisions.
        self.supervision = {}
        self.alloc_fast = 0
        self.alloc_slow = 0
        self.frees = 0
        #: heap region name -> operations.
        self.alloc_by_region = {}
        self.alloc_sizes = Histogram(ALLOC_SIZE_BUCKETS)
        self.context_switches = 0
        #: "tx"/"rx" -> segments.
        self.tcp_segments = {"tx": 0, "rx": 0}
        #: Received frames the stack dropped as malformed: reason -> count.
        self.net_drops = {}
        #: EPT backend: cross-VM address-space switches.
        self.space_switches = 0
        #: EPT backend: shared-window descriptor allocations.
        self.window_allocs = 0
        self.window_bytes = 0.0
        self.window_wraps = 0
        #: interrupt line -> deliveries.
        self.irqs = {}
        #: "layer.op" (e.g. "vfscore.open") -> operations.
        self.fs_ops = {}
        #: Exploration engine: wavefront and cache accounting.
        self.explore_waves = 0
        self.explore_scheduled = 0
        self.explore_evaluated = 0
        self.explore_cache_hits = 0
        self.explore_pruned = 0
        #: Permission-TLB events ("hit"/"miss"/"flush").
        self.tlb = {"hit": 0, "miss": 0, "flush": 0}
        #: Live reconfiguration: action -> occurrences.
        self.reconfig = {}
        self.reconfig_blackout = Histogram(RECONFIG_BLACKOUT_BUCKETS)
        #: Requests observed queued during blackout windows (summed).
        self.reconfig_queued = 0
        #: SMP scheduler: core index -> dispatches on that core.
        self.core_dispatches = {}
        self.runqueue_depth = Histogram(RUNQUEUE_DEPTH_BUCKETS)

    # -- recording hooks (called by the Tracer) --------------------------------
    def record_gate(self, src, dst, src_comp, dst_comp, kind, library,
                    duration):
        key = (src, dst, kind)
        self.gate_crossings[key] = self.gate_crossings.get(key, 0) + 1
        pair = (src_comp, dst_comp)
        self.gate_pairs[pair] = self.gate_pairs.get(pair, 0) + 1
        self.crossings_by_library[library] = (
            self.crossings_by_library.get(library, 0) + 1
        )
        histogram = self.gate_latency.get((src, dst))
        if histogram is None:
            histogram = self.gate_latency[(src, dst)] = Histogram(
                GATE_LATENCY_BUCKETS,
            )
        histogram.observe(duration)
        if self.timeseries is not None:
            self.timeseries.bump("gate.crossings")
            self.timeseries.bump("gate.cycles", duration)

    def record_pkru_write(self, op):
        self.pkru_writes += 1
        if self.timeseries is not None:
            self.timeseries.bump("pkru.writes")

    def record_fault(self, fault_type):
        self.faults[fault_type] = self.faults.get(fault_type, 0) + 1
        if self.timeseries is not None:
            self.timeseries.bump("faults")

    def record_supervision(self, action):
        self.supervision[action] = self.supervision.get(action, 0) + 1
        if self.timeseries is not None:
            self.timeseries.bump("supervision.%s" % action)

    def record_alloc(self, op, region, size, fast):
        if op == "alloc":
            if fast:
                self.alloc_fast += 1
            else:
                self.alloc_slow += 1
            self.alloc_sizes.observe(size)
        else:
            self.frees += 1
        self.alloc_by_region[region] = self.alloc_by_region.get(region, 0) + 1
        if self.timeseries is not None:
            self.timeseries.bump("alloc.%s" % op)

    def record_context_switch(self):
        self.context_switches += 1
        if self.timeseries is not None:
            self.timeseries.bump("sched.switches")

    def record_tcp_segment(self, direction):
        self.tcp_segments[direction] = self.tcp_segments.get(direction, 0) + 1
        if self.timeseries is not None:
            self.timeseries.bump("net.%s" % direction)

    def record_net_drop(self, reason):
        self.net_drops[reason] = self.net_drops.get(reason, 0) + 1
        if self.timeseries is not None:
            self.timeseries.bump("net.drop.%s" % reason)

    def record_space_switch(self):
        self.space_switches += 1
        if self.timeseries is not None:
            self.timeseries.bump("ept.space_switches")

    def record_window_alloc(self, nbytes, wrapped):
        self.window_allocs += 1
        self.window_bytes += nbytes
        if wrapped:
            self.window_wraps += 1
        if self.timeseries is not None:
            self.timeseries.bump("ept.window_allocs")

    def record_irq(self, line):
        self.irqs[line] = self.irqs.get(line, 0) + 1
        if self.timeseries is not None:
            self.timeseries.bump("irqs")

    def record_fs_op(self, layer, op):
        key = "%s.%s" % (layer, op)
        self.fs_ops[key] = self.fs_ops.get(key, 0) + 1
        if self.timeseries is not None:
            self.timeseries.bump("fs.ops")

    def record_explore_wave(self, scheduled, evaluated, cache_hits, pruned):
        self.explore_waves += 1
        self.explore_scheduled += scheduled
        self.explore_evaluated += evaluated
        self.explore_cache_hits += cache_hits
        self.explore_pruned += pruned

    def record_tlb(self, op):
        self.tlb[op] = self.tlb.get(op, 0) + 1
        if self.timeseries is not None:
            self.timeseries.bump("tlb.%s" % op)

    def record_reconfig(self, action):
        self.reconfig[action] = self.reconfig.get(action, 0) + 1
        if self.timeseries is not None:
            self.timeseries.bump("reconfig.%s" % action)

    def record_reconfig_blackout(self, cycles, queued):
        self.reconfig_blackout.observe(cycles)
        self.reconfig_queued += queued

    def record_core_dispatch(self, core, depth):
        self.core_dispatches[core] = self.core_dispatches.get(core, 0) + 1
        self.runqueue_depth.observe(depth)
        if self.timeseries is not None:
            self.timeseries.bump("sched.dispatches.core-%d" % core)
            self.timeseries.bump("sched.runqueue_depth", depth)

    # -- derived views ----------------------------------------------------------
    def total_crossings(self):
        return sum(self.gate_crossings.values())

    def crossings_for_pair(self, src, dst):
        """Crossings src->dst summed over gate kinds (names, not indices)."""
        return sum(
            count for (s, d, _), count in self.gate_crossings.items()
            if (s, d) == (src, dst)
        )

    def snapshot(self):
        """A JSON-serialisable snapshot of every aggregate.

        The ``explore``, ``tlb``, ``reconfig``, ``sched`` and
        ``net_drops`` sections appear only when those subsystems ran (or,
        for ``net_drops``, a frame was dropped) under this registry, so
        snapshots of runs that never touch them keep their exact shape.
        The ``sched`` section and the ``runqueue_depth`` histogram are
        emitted only by the SMP scheduler; serial runs never record a
        core dispatch.
        """
        explore = {}
        if self.explore_waves:
            explore["explore"] = {
                "waves": self.explore_waves,
                "scheduled": self.explore_scheduled,
                "evaluated": self.explore_evaluated,
                "cache_hits": self.explore_cache_hits,
                "pruned": self.explore_pruned,
            }
        if any(self.tlb.values()):
            explore["tlb"] = dict(sorted(self.tlb.items()))
        if self.reconfig or self.reconfig_blackout.total:
            explore["reconfig"] = dict(
                sorted(self.reconfig.items()),
                queued_requests=self.reconfig_queued,
            )
        if self.core_dispatches:
            explore["sched"] = {
                "core-%d" % core: {"dispatches": count}
                for core, count in sorted(self.core_dispatches.items())
            }
        if self.net_drops:
            explore["net_drops"] = dict(sorted(self.net_drops.items()))
        histograms = {
            "gate_latency_cycles": {
                "%s->%s" % pair: histogram.to_dict()
                for pair, histogram in sorted(self.gate_latency.items())
            },
            "alloc_size_bytes": self.alloc_sizes.to_dict(),
        }
        if self.reconfig_blackout.total:
            histograms["reconfig_blackout_cycles"] = (
                self.reconfig_blackout.to_dict()
            )
        if self.runqueue_depth.total:
            histograms["runqueue_depth"] = self.runqueue_depth.to_dict()
        return {
            "counters": {
                "gate_crossings": {
                    "%s->%s/%s" % key: count
                    for key, count in sorted(self.gate_crossings.items())
                },
                "gate_pairs": {
                    "%d->%d" % pair: count
                    for pair, count in sorted(self.gate_pairs.items())
                },
                "crossings_by_library": dict(
                    sorted(self.crossings_by_library.items())
                ),
                "pkru_writes": self.pkru_writes,
                "faults": dict(sorted(self.faults.items())),
                "supervision": dict(sorted(self.supervision.items())),
                "alloc": {
                    "fast": self.alloc_fast,
                    "slow": self.alloc_slow,
                    "free": self.frees,
                },
                "alloc_by_region": dict(
                    sorted(self.alloc_by_region.items())
                ),
                "context_switches": self.context_switches,
                "tcp_segments": dict(self.tcp_segments),
                "address_space_switches": self.space_switches,
                "shared_window": {
                    "allocs": self.window_allocs,
                    "bytes": self.window_bytes,
                    "wraps": self.window_wraps,
                },
                "irqs": {
                    "line-%d" % line: count
                    for line, count in sorted(self.irqs.items())
                },
                "fs_ops": dict(sorted(self.fs_ops.items())),
                **explore,
            },
            "histograms": histograms,
        }

    def __repr__(self):
        return "MetricsRegistry(%d crossings, %d faults)" % (
            self.total_crossings(), sum(self.faults.values()),
        )
