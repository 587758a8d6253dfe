"""Request spans: decomposition invariants, claiming, linger, faults.

Pins the tentpole contract of :mod:`repro.obs.spans`:

* the decomposition identity ``queue + gate + app == latency`` holds for
  every completed span — by unit arithmetic, by hypothesis over the
  reading space, end-to-end under the load harness (serial and SMP),
  and under a periodic fault-injection campaign with degraded replies;
* span context survives ``Block`` reschedules (sqlite worker wake-ups)
  and SMP core migrations, and the serial scheduler never needs a
  causality clamp;
* gate attribution is identical between the serial and SMP schedulers
  for the same seeded workload (the linger window never books work from
  another request's slice).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.sqlite import SqliteApp
from repro.bench.load import run_load
from repro.core.toolchain.build import build_image
from repro.core.vm import FlexOSInstance, Machine
from repro.errors import ReproError
from repro.faults.injector import FaultInjector, FaultSpec
from repro.kernel.sched import yield_
from repro.obs import RequestSpan, SpanTracker, TelemetryHub, Tracer, tracing
from tests.conftest import make_config

N_REQUESTS = 24
RATE_RPS = 20000.0


class _FakeThread:
    def __init__(self, name, ready_at=0.0):
        self.name = name
        self.ready_at_cycles = ready_at
        self.span = None


def _completed_span(arrival=100.0, begin=150.0, end=400.0, complete=420.0,
                    gate=60.0):
    span = RequestSpan(1, "req", "feed", arrival)
    span._serve_begin(begin, _FakeThread("t"), 0, False, 0)
    span.add_gate("a->b", "call", begin, gate, gate, 1, "ok")
    span._serve_end(end)
    span.complete_cycles = complete
    return span


class TestSpanArithmetic:
    def test_decomposition_sums_to_latency(self):
        span = _completed_span()
        d = span.decomposition()
        assert d["queue_cycles"] + d["gate_cycles"] + d["app_cycles"] \
            == pytest.approx(d["latency_cycles"])
        assert span.check()

    def test_parts_match_clock_readings(self):
        span = _completed_span(arrival=100.0, begin=150.0, end=400.0,
                               complete=420.0, gate=60.0)
        assert span.queue_pre_cycles == 50.0
        assert span.queue_post_cycles == 20.0
        assert span.service_cycles == 250.0
        assert span.gate_cycles == 60.0
        assert span.app_cycles == 190.0
        assert span.latency_cycles == 320.0

    def test_unclaimed_span_is_pure_queueing(self):
        span = RequestSpan(2, "req", "feed", 100.0)
        span.complete_cycles = 300.0
        assert span.queue_cycles == span.latency_cycles == 200.0
        assert span.gate_cycles == span.app_cycles == 0.0
        assert span.check()

    def test_check_requires_completion(self):
        span = RequestSpan(3, "req", "feed", 0.0)
        with pytest.raises(ReproError):
            span.check()

    def test_check_rejects_unordered_readings(self):
        span = _completed_span(begin=150.0, end=400.0, complete=390.0)
        with pytest.raises(ReproError):
            span.check()

    def test_check_rejects_negative_app_residual(self):
        # Gate overhead exceeding service time means crossings were
        # double-booked; the residual goes negative and check() fires.
        span = _completed_span(begin=150.0, end=200.0, gate=500.0,
                               complete=220.0)
        with pytest.raises(ReproError):
            span.check()

    def test_child_ring_bounds_retained_tree(self):
        from repro.obs.spans import MAX_CHILDREN
        span = RequestSpan(4, "req", "feed", 0.0)
        for i in range(MAX_CHILDREN + 7):
            span.add_gate("a->b", "call", float(i), 1.0, 1.0, 1, "ok")
        assert len(span.children) == MAX_CHILDREN
        assert span.dropped_children == 7
        assert span.gate_crossings == MAX_CHILDREN + 7

    def test_dispatch_wait_uses_later_of_arrival_and_ready(self):
        span = RequestSpan(5, "req", "feed", 100.0)
        span._serve_begin(250.0, _FakeThread("t", ready_at=180.0), 0,
                          False, 0)
        assert span.dispatch_wait_cycles == 70.0     # ready later wins
        other = RequestSpan(6, "req", "feed", 100.0)
        other._serve_begin(250.0, _FakeThread("t", ready_at=40.0), 0,
                           False, 0)
        assert other.dispatch_wait_cycles == 150.0   # arrival later wins

    @given(
        arrival=st.floats(0.0, 1e9),
        queue_pre=st.floats(0.0, 1e6),
        service=st.floats(0.0, 1e6),
        queue_post=st.floats(0.0, 1e6),
        gate_share=st.floats(0.0, 1.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_identity_over_the_reading_space(self, arrival, queue_pre,
                                             service, queue_post,
                                             gate_share):
        """Any causally ordered readings with gate <= service decompose
        into non-negative parts summing to the measured latency."""
        begin = arrival + queue_pre
        end = begin + service
        complete = end + queue_post
        span = RequestSpan(7, "req", "feed", arrival)
        span._serve_begin(begin, _FakeThread("t", ready_at=arrival), 0,
                          False, 0)
        gate = service * gate_share
        if gate:
            span.add_gate("a->b", "call", begin, gate, gate, 1, "ok")
        span._serve_end(end)
        span.complete_cycles = complete
        assert span.check()


class TestTrackerFeeds:
    def test_duplicate_feed_rejected(self):
        tracker = SpanTracker()
        tracker.register_feed("f", "redis")
        with pytest.raises(ReproError):
            tracker.register_feed("f", "redis")

    def test_thread_cannot_serve_two_feeds(self):
        tracker = SpanTracker()
        tracker.register_feed("a", "redis", threads=["worker"])
        with pytest.raises(ReproError):
            tracker.register_feed("b", "redis", threads=["worker"])

    def test_complete_next_is_fifo(self):
        tracker = SpanTracker()
        tracker.register_feed("f", "redis")
        first = tracker.inject("f", arrival_cycles=10.0)
        second = tracker.inject("f", arrival_cycles=20.0)
        assert tracker.complete_next("f", now=30.0) is first
        assert tracker.complete_next("f", now=40.0) is second
        with pytest.raises(ReproError):
            tracker.complete_next("f")

    def test_unclaimed_completion_counted(self):
        tracker = SpanTracker()
        tracker.register_feed("f", "redis")
        tracker.inject("f", arrival_cycles=10.0)
        span = tracker.complete_next("f", now=25.0)
        assert not span.claimed
        assert tracker.unclaimed_completions == 1
        assert span.check()

    def test_completion_clamped_to_causal_floor(self):
        """A completion observed on a core-local clock behind the
        arrival (SMP overlap) clamps forward and is counted."""
        tracker = SpanTracker()
        tracker.register_feed("f", "redis")
        tracker.inject("f", arrival_cycles=100.0)
        span = tracker.complete_next("f", now=60.0)
        assert span.complete_cycles == 100.0
        assert span.clamped
        assert tracker.causality_clamps == 1
        assert span.check()

    def test_completion_sink_fires(self):
        tracker = SpanTracker()
        tracker.register_feed("f", "redis")
        seen = []
        tracker.on_complete = seen.append
        tracker.inject("f", arrival_cycles=0.0)
        span = tracker.complete_next("f", now=5.0)
        assert seen == [span]


def _load_summary(app, mechanism, cores, rate_rps=RATE_RPS,
                  connections=2):
    hub = TelemetryHub(window_cycles=100_000.0)
    result = run_load(app, mechanism, rate_rps=rate_rps,
                      n_requests=N_REQUESTS, seed=1, cores=cores,
                      connections=connections, hub=hub)
    assert result.completed == N_REQUESTS
    hub.spans.check_all()
    return hub.spans.summary(), hub


class TestLoadDecomposition:
    @pytest.mark.parametrize("app", ["redis", "nginx", "sqlite"])
    def test_smp_load_decomposes_every_request(self, app):
        summary, _ = _load_summary(app, "intel-mpk", cores=2)
        assert summary["completed"] == N_REQUESTS
        assert summary["claimed"] == N_REQUESTS
        assert summary["unclaimed_completions"] == 0
        totals = summary["totals"]
        parts = (totals["queue_cycles"] + totals["gate_cycles"]
                 + totals["app_cycles"])
        assert parts == pytest.approx(totals["latency_cycles"])
        assert summary["gate_crossings"] > 0

    def test_serial_never_clamps(self):
        summary, _ = _load_summary("redis", "intel-mpk", cores=None)
        assert summary["causality_clamps"] == 0
        assert summary["migrations"] == 0

    def test_monolithic_layout_books_zero_gate_cycles(self):
        summary, _ = _load_summary("redis", "none", cores=2)
        assert summary["gate_crossings"] == 0
        assert summary["totals"]["gate_cycles"] == 0.0
        # The decomposition still sums: latency is queue + app only.
        totals = summary["totals"]
        assert totals["queue_cycles"] + totals["app_cycles"] \
            == pytest.approx(totals["latency_cycles"])

    def test_gate_attribution_identical_serial_and_smp(self):
        """The linger window never books another slice's crossings: the
        same seeded workload attributes the same crossings per request
        whether slices interleave (SMP) or not (serial)."""
        serial, _ = _load_summary("redis", "intel-mpk", cores=None)
        smp, _ = _load_summary("redis", "intel-mpk", cores=2)
        assert serial["gate_crossings"] == smp["gate_crossings"] > 0
        assert serial["totals"]["gate_cycles"] == pytest.approx(
            smp["totals"]["gate_cycles"])

    def test_smp_records_migrations_and_clamps(self):
        """Two cores interleave the connection handlers: threads migrate
        between claims and some handoffs need the causal clamp — both
        are observable and the invariant still holds (check_all above
        already ran on this workload shape)."""
        summary, hub = _load_summary("redis", "intel-mpk", cores=2)
        assert summary["migrations"] > 0
        assert summary["causality_clamps"] > 0
        clamped = [span for span in hub.spans.spans if span.clamped]
        assert len(clamped) > 0
        migrated = [span for span in hub.spans.spans if span.migrated]
        assert len(migrated) == summary["migrations"]

    def test_blocking_worker_span_survives_reschedule(self):
        """sqlite workers Block on the arrival queue between requests:
        every span's serving thread was woken at least once since its
        previous claim, and the claim still decomposes cleanly."""
        summary, hub = _load_summary("sqlite", "intel-mpk", cores=2)
        assert summary["wakeups"] == N_REQUESTS
        assert all(span.wakeups >= 1 for span in hub.spans.spans)
        # Workers never cross cores mid-request; sqlite clamps stay 0
        # because completion happens on the serving core itself.
        assert summary["causality_clamps"] == 0

    def test_closed_loop_saturation_also_decomposes(self):
        summary, _ = _load_summary("redis", "intel-mpk", cores=2,
                                   rate_rps=None)
        assert summary["completed"] == summary["claimed"] == N_REQUESTS


class TestFaultCampaignDecomposition:
    def _run_campaign(self, period, n=16):
        """Serve a sqlite insert burst on the SMP scheduler while a
        periodic injector degrades every ``period``-th gated call."""
        config = make_config(mechanism="intel-mpk", isolate=("sqlite",))
        instance = FlexOSInstance(
            build_image(config), machine=Machine(), cores=2,
        ).boot()
        injector = instance.attach_injector(FaultInjector())
        idx = instance.image.compartment_of("sqlite").index
        injector.victims[idx] = instance.private_object(
            "app", "app_secret", value="token",
        )
        instance.set_fault_policy("sqlite", "degrade")
        hub = TelemetryHub(window_cycles=50_000.0)
        hub.bind_clock(instance.clock)
        hub.spans.register_feed("sqlite", "sqlite",
                                threads=["db-worker"])
        with tracing(hub.tracer()), instance.run():
            engine = SqliteApp.make_engine(instance)
            engine.execute("CREATE TABLE kv (k, v)")
            injector.every(period, FaultSpec("stray-read", dst=idx))
            rows = list(range(n))
            for row in rows:
                hub.spans.inject("sqlite", name="row-%d" % row,
                                 arrival_cycles=instance.clock.cycles)

            def worker():
                while rows:
                    row = rows.pop(0)
                    result = engine.execute_degradable(
                        "INSERT INTO kv (k, v) VALUES (%d, 'v%d')"
                        % (row, row))
                    hub.spans.complete_next(
                        "sqlite", now=instance.clock.cycles,
                        status="ok" if result is not None
                        else "degraded")
                    yield yield_()
                return n
            instance.sched.create_thread("db-worker", worker)
            instance.sched.run()
        return hub, engine

    def test_degraded_requests_still_decompose(self):
        hub, engine = self._run_campaign(period=3)
        assert hub.spans.check_all() == 16
        statuses = [span.status for span in hub.spans.spans]
        assert statuses.count("degraded") == engine.aborted > 0
        assert statuses.count("ok") > 0
        totals = hub.spans.summary()["totals"]
        parts = (totals["queue_cycles"] + totals["gate_cycles"]
                 + totals["app_cycles"])
        assert parts == pytest.approx(totals["latency_cycles"])

    def test_degraded_spans_record_their_crossings(self):
        """A degraded request still took its gates (entry, fault, the
        supervision path): its span books overhead like any other and
        its app residual stays non-negative."""
        hub, _ = self._run_campaign(period=4)
        degraded = [span for span in hub.spans.spans
                    if span.status == "degraded"]
        assert degraded
        for span in degraded:
            assert span.gate_crossings > 0
            assert span.app_cycles >= 0.0
            assert span.check()

    @given(period=st.integers(2, 9))
    @settings(max_examples=6, deadline=None)
    def test_invariant_holds_for_any_fault_period(self, period):
        hub, _ = self._run_campaign(period=period, n=12)
        assert hub.spans.check_all() == 12


class CountingTracer(Tracer):
    """Counts entry_begin/entry_end balance around the span plumbing."""

    def __init__(self, clock):
        super().__init__(clock=clock)
        self.begins = {}
        self.open = 0

    def entry_begin(self, library, ctx):
        self.begins[library] = self.begins.get(library, 0) + 1
        self.open += 1
        return ("count", super().entry_begin(library, ctx))

    def entry_end(self, token, ctx):
        self.open -= 1
        _, inner = token
        if inner is not None:
            super().entry_end(inner, ctx)


class TestEntryHooksExactlyOnce:
    """Router.route entry hooks under the SMP scheduler."""

    def test_smp_load_entry_hooks_once_per_request(self):
        n_requests = 24
        tracer = CountingTracer(clock=None)
        result = run_load("redis", "intel-mpk", rate_rps=None,
                          n_requests=n_requests, cores=2, connections=2,
                          tracer=tracer)
        assert result.completed == n_requests
        assert tracer.open == 0, "unbalanced entry_begin/entry_end"
        assert tracer.begins["redis"] == n_requests
