"""Functional application runs: the executing substrate, optionally traced.

The figure benchmarks score the *analytic* request profiles; the
functional runs here execute the real system — actual TCP bytes through
the network stack for Redis, an actual journalled VFS for SQLite — and
report virtual-time metrics.  ``benchmarks/bench_functional.py`` drives
these under pytest-benchmark; the CLI's ``trace`` and ``metrics``
commands reuse them to produce observability artifacts
(:mod:`repro.obs`).

Tracing is opt-in and free when off: pass ``trace=True`` (or a
pre-built :class:`~repro.obs.Tracer`) and the run executes under
:func:`repro.obs.tracing`; because the tracer never charges the virtual
clock, a traced run's ``cycles_per_request`` is identical to an
untraced one.
"""

from __future__ import annotations

from contextlib import nullcontext

from repro.apps.host import HostEndpoint
from repro.apps.redis import RedisApp, redis_benchmark_client
from repro.apps.sqlite import SqliteApp, insert_benchmark
from repro.core.config import CompartmentSpec, SafetyConfig
from repro.core.toolchain.build import build_image
from repro.core.vm import FlexOSInstance, Machine
from repro.errors import ReproError
from repro.hw.costs import CostModel
from repro.kernel.net.device import LinkedDevices
from repro.obs import Tracer, tracing

#: Default library split per functional app: the paper's canonical
#: victims (network stack for Redis, filesystem for SQLite).
DEFAULT_ISOLATE = {
    "redis": ("lwip",),
    "sqlite": ("vfscore", "ramfs"),
}

FUNCTIONAL_APPS = tuple(sorted(DEFAULT_ISOLATE))


def config_for(mechanism, isolate, mpk_gate="full"):
    """Two-compartment SafetyConfig: ``isolate`` libraries in comp2."""
    if mechanism == "none":
        return SafetyConfig(
            [CompartmentSpec("comp1", mechanism="none", default=True)], {},
            mpk_gate=mpk_gate,
        )
    return SafetyConfig(
        [CompartmentSpec("comp1", mechanism=mechanism, default=True),
         CompartmentSpec("comp2", mechanism=mechanism)],
        {lib: "comp2" for lib in isolate},
        mpk_gate=mpk_gate,
    )


class FunctionalRun:
    """One completed functional run and everything it left behind.

    Keeps the booted instance (for ``ctx.transitions`` /
    ``work_by_library`` introspection) and, when tracing was requested,
    the tracer whose events and metrics describe the run.
    """

    __slots__ = ("app", "mechanism", "n_requests", "elapsed_cycles",
                 "instance", "tracer")

    def __init__(self, app, mechanism, n_requests, elapsed_cycles,
                 instance, tracer=None):
        self.app = app
        self.mechanism = mechanism
        self.n_requests = n_requests
        self.elapsed_cycles = elapsed_cycles
        self.instance = instance
        self.tracer = tracer

    @property
    def cycles_per_request(self):
        return self.elapsed_cycles / self.n_requests

    @property
    def ctx(self):
        return self.instance.ctx

    def metrics_snapshot(self):
        """The aggregated metrics of a traced run (None when untraced)."""
        if self.tracer is None:
            return None
        return self.tracer.metrics.snapshot()

    def __repr__(self):
        return "FunctionalRun(%s/%s, %.0f cyc/req%s)" % (
            self.app, self.mechanism, self.cycles_per_request,
            ", traced" if self.tracer is not None else "",
        )


def _tracer_scope(trace, tracer, clock):
    if tracer is None and trace:
        tracer = Tracer(clock=clock)
    scope = tracing(tracer) if tracer is not None else nullcontext()
    return tracer, scope


def run_functional_redis(mechanism, n_requests=40, isolate=None,
                         mpk_gate="full", trace=False, tracer=None):
    """Serve ``n_requests`` Redis commands over the real TCP stack."""
    isolate = isolate if isolate is not None else DEFAULT_ISOLATE["redis"]
    costs = CostModel.xeon_4114()
    machine = Machine(costs)
    link = LinkedDevices(costs)
    instance = FlexOSInstance(
        build_image(config_for(mechanism, isolate, mpk_gate)),
        machine=machine, net_device=link.a,
    ).boot()
    host = HostEndpoint(link.b, "10.0.0.1", costs, machine.clock)
    tracer, scope = _tracer_scope(trace, tracer, machine.clock)
    with scope, instance.run():
        server = RedisApp.make_server(instance)
        sock = instance.libc.socket(instance.net).bind(6379).listen()
        start = machine.clock.cycles
        instance.sched.create_thread(
            "redis", lambda: server.serve(sock, instance.libc, n_requests),
        )
        instance.sched.create_thread(
            "bench", lambda: redis_benchmark_client(host, "10.0.0.2",
                                                    6379, n_requests),
        )
        instance.sched.run()
        elapsed = machine.clock.cycles - start
    if server.commands != n_requests:
        raise ReproError(
            "functional redis served %d of %d commands"
            % (server.commands, n_requests)
        )
    return FunctionalRun("redis", mechanism, n_requests, elapsed,
                         instance, tracer)


def run_functional_sqlite(mechanism, n_requests=100, isolate=None,
                          mpk_gate="full", trace=False, tracer=None):
    """Commit ``n_requests`` INSERTs through the journalled VFS."""
    isolate = isolate if isolate is not None else DEFAULT_ISOLATE["sqlite"]
    instance = FlexOSInstance(
        build_image(config_for(mechanism, isolate, mpk_gate)),
        machine=Machine(),
    ).boot()
    tracer, scope = _tracer_scope(trace, tracer, instance.clock)
    with scope, instance.run():
        engine = SqliteApp.make_engine(instance)
        start = instance.clock.cycles
        count = insert_benchmark(engine, n_requests)
        elapsed = instance.clock.cycles - start
    if count != n_requests:
        raise ReproError(
            "functional sqlite committed %d of %d inserts"
            % (count, n_requests)
        )
    return FunctionalRun("sqlite", mechanism, n_requests, elapsed,
                         instance, tracer)


_RUNNERS = {
    "redis": run_functional_redis,
    "sqlite": run_functional_sqlite,
}


def run_functional(app, mechanism, n_requests=None, **kwargs):
    """Dispatch to the named app's functional runner."""
    runner = _RUNNERS.get(app)
    if runner is None:
        raise ReproError(
            "unknown functional app %r (have: %s)"
            % (app, ", ".join(FUNCTIONAL_APPS))
        )
    if n_requests is not None:
        kwargs["n_requests"] = n_requests
    return runner(mechanism, **kwargs)
