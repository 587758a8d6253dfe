"""End-to-end reconfiguration runs: redis under traffic, harden probes.

Two drivers sit on top of the engine:

* :func:`run_reconfig_redis` boots a two-compartment redis instance,
  serves real TCP requests, and migrates the live layout from inside a
  dedicated reconfiguration thread once enough requests completed —
  optionally with a fault armed at a chosen migration checkpoint.  The
  client records every reply byte-for-byte so a run can be compared
  against a never-migrated reference (:func:`reference_replies`): the
  atomicity invariant's functional half.

* :func:`run_harden_probes` exercises harden-on-fault without the
  scheduler: campaign probes draw contained faults into an isolated
  compartment until the supervisor's :class:`~repro.faults.supervisor
  .HardenPolicy` trips, then the engine migrates the instance one rung
  up the :data:`~repro.reconfig.harden.HARDEN_LADDER`.

The migrating thread's body runs at ``gate_depth == 0`` with the
execution context in the default compartment (the scheduler dispatches
thread bodies outside any gate), so COMMIT swaps the layout at a
naturally quiescent point — the cooperative-scheduler analogue of
stop-the-world.
"""

from __future__ import annotations

from repro.apps.host import HostEndpoint
from repro.apps.redis import RedisApp
from repro.core.config import CompartmentSpec, SafetyConfig
from repro.core.toolchain.build import build_image
from repro.core.vm import FlexOSInstance, Machine
from repro.errors import ReproError
from repro.faults.campaign import (
    CampaignConfig,
    _prepare_injector,
    boot_campaign_instance,
    lwip_alloc_probe,
)
from repro.faults.injector import FaultInjector, FaultSpec
from repro.faults.supervisor import make_policy
from repro.hw.costs import CostModel
from repro.kernel.net.device import LinkedDevices
from repro.kernel.sched import yield_
from repro.reconfig.engine import ReconfigurationEngine
from repro.reconfig.policy import HardenOnFaultPolicy, PolicyState

#: Libraries the reconfig drivers isolate by default.
DEFAULT_ISOLATE = ("lwip",)


def reconfig_config(mechanism, mpk_gate="full", isolate=DEFAULT_ISOLATE,
                    allocators=None, hardening=()):
    """A migration-compatible two-compartment SafetyConfig.

    Unlike :func:`repro.bench.functional.config_for`, mechanism
    ``none`` keeps BOTH compartments (with function-call gates), so any
    two layouts built here share compartment names and library
    assignment — the structural precondition for a live migration.
    """
    allocators = allocators or {}
    return SafetyConfig(
        [CompartmentSpec("comp1", mechanism=mechanism, default=True,
                         allocator=allocators.get("comp1")),
         CompartmentSpec("comp2", mechanism=mechanism,
                         hardening=hardening,
                         allocator=allocators.get("comp2"))],
        {lib: "comp2" for lib in isolate},
        sharing="dss",
        mpk_gate=mpk_gate,
    )


def _recv_reply(host, sock):
    """Generator: one complete RESP reply, bulk payload included.

    ``recv_until`` stops at the first CRLF it sees, so a ``$n`` bulk
    header and its payload line may arrive across calls depending on
    segmentation.  For byte-exact reply comparison the client must be
    deterministic about framing, so this completes the payload
    explicitly.
    """
    reply = yield from host.recv_until(sock)
    if reply.startswith(b"$") and not reply.startswith(b"$-1"):
        header, _, rest = reply.partition(b"\r\n")
        need = int(header[1:]) + 2 - len(rest)
        if need > 0:
            reply += yield from host.recv_exactly(sock, need)
    return reply


def recording_client(host, server_ip, port, n_requests, replies,
                     key=b"mykey", value=b"x" * 3):
    """Generator: the redis-benchmark loop, recording each full reply."""
    sock = host.socket()
    yield from host.connect_blocking(sock, server_ip, port)
    host.send(sock, b"SET %s %s\r\n" % (key, value))
    replies.append((yield from _recv_reply(host, sock)))
    for _ in range(n_requests - 1):
        host.send(sock, b"GET %s\r\n" % key)
        replies.append((yield from _recv_reply(host, sock)))
    host.close(sock)
    return len(replies)


class ReconfigRun:
    """One completed reconfiguration run and everything it produced."""

    __slots__ = ("instance", "engine", "reports", "replies", "commands",
                 "elapsed_cycles", "tracer")

    def __init__(self, instance, engine, reports, replies, commands,
                 elapsed_cycles, tracer=None):
        self.instance = instance
        self.engine = engine
        self.reports = reports
        self.replies = replies
        self.commands = commands
        self.elapsed_cycles = elapsed_cycles
        self.tracer = tracer

    @property
    def committed(self):
        return all(r.committed for r in self.reports)

    def __repr__(self):
        return "ReconfigRun(%d migrations, %d replies, %s)" % (
            len(self.reports), len(self.replies),
            "committed" if self.committed else "rolled-back",
        )


def run_reconfig_redis(source, targets, n_requests=40, migrate_after=10,
                       inject_at=None, tracer=None):
    """Serve redis traffic and migrate the live layout mid-run.

    ``targets`` is a sequence of SafetyConfigs applied one after the
    other (spaced evenly across the remaining requests), each from a
    thread body — i.e. at a scheduler-quiescent point, with requests
    still queued on the device.  ``inject_at`` arms a migration-window
    fault at that checkpoint index of the *first* migration.
    """
    from contextlib import nullcontext

    from repro.obs import tracing

    targets = list(targets)
    costs = CostModel.xeon_4114()
    machine = Machine(costs)
    link = LinkedDevices(costs)
    instance = FlexOSInstance(
        build_image(source), machine=machine, net_device=link.a,
    ).boot()
    host = HostEndpoint(link.b, "10.0.0.1", costs, machine.clock)
    engine = ReconfigurationEngine(instance)
    if inject_at is not None:
        injector = instance.attach_injector(FaultInjector())
        injector.arm_migration(inject_at)

    replies = []
    span = max(1, (n_requests - migrate_after) // max(1, len(targets)))
    waypoints = [min(migrate_after + i * span, n_requests - 1)
                 for i in range(len(targets))]

    scope = tracing(tracer) if tracer is not None else nullcontext()
    with scope, instance.run():
        server = RedisApp.make_server(instance)
        sock = instance.libc.socket(instance.net).bind(6379).listen()

        def migrate_body():
            for waypoint, target in zip(waypoints, targets):
                while server.commands < waypoint:
                    yield yield_()
                engine.migrate(target)

        start = machine.clock.cycles
        instance.sched.create_thread(
            "redis", lambda: server.serve(sock, instance.libc, n_requests),
        )
        instance.sched.create_thread(
            "bench", lambda: recording_client(host, "10.0.0.2", 6379,
                                              n_requests, replies),
        )
        instance.sched.create_thread("reconfig", migrate_body)
        instance.sched.run()
        elapsed = machine.clock.cycles - start
    if server.commands != n_requests:
        raise ReproError(
            "reconfig redis served %d of %d commands"
            % (server.commands, n_requests)
        )
    return ReconfigRun(instance, engine, list(engine.reports), replies,
                       server.commands, elapsed, tracer)


def reference_replies(config, n_requests=40):
    """The replies of a never-migrated instance under the same load."""
    return run_reconfig_redis(config, targets=(),
                              n_requests=n_requests).replies


class HardenRun:
    """Outcome of one harden-on-fault exercise."""

    __slots__ = ("instance", "engine", "reports", "faults_drawn",
                 "tripped_after")

    def __init__(self, instance, engine, reports, faults_drawn,
                 tripped_after):
        self.instance = instance
        self.engine = engine
        self.reports = reports
        self.faults_drawn = faults_drawn
        self.tripped_after = tripped_after

    @property
    def hardened(self):
        return any(r.committed for r in self.reports)


def run_harden_probes(mechanism="intel-mpk", mpk_gate="light",
                      harden_after=3, n_faults=6, inner="degrade"):
    """Draw contained faults until HardenPolicy trips, then migrate.

    Each fault is an injected allocator OOM inside the isolated lwip
    compartment, absorbed by the ``inner`` policy; after
    ``harden_after`` of them the supervisor queues the compartment for
    hardening and the engine migrates the whole instance one rung up
    the ladder.
    """
    config = CampaignConfig(mechanism=mechanism, mpk_gate=mpk_gate,
                            policy=inner, kinds=("alloc-oom",),
                            isolate=("lwip",))
    instance, _link = boot_campaign_instance(config)
    policy = make_policy("harden", after=harden_after, inner=inner)
    instance.supervisor.set_default_policy(policy)
    injector, _secret = _prepare_injector(instance, config)
    engine = ReconfigurationEngine(instance)
    reconfig_policy = HardenOnFaultPolicy(policy)
    comp_index = instance.image.compartment_of("lwip").index
    heap = instance.memmgr.heap_of(comp_index)
    faults_drawn = 0
    tripped_after = None
    reports = []
    with instance.run():
        for _ in range(n_faults):
            injector.arm(FaultSpec("alloc-oom", dst=comp_index))
            try:
                lwip_alloc_probe(heap)
            except ReproError:
                pass
            finally:
                injector.disarm()
                heap.fail_next(0)
            faults_drawn += 1
            proposal = reconfig_policy.propose(
                PolicyState(instance=instance, engine=engine))
            if proposal is not None:
                if tripped_after is None:
                    tripped_after = faults_drawn
                if proposal.target is not None:
                    reports.append(engine.migrate(proposal.target))
    return HardenRun(instance, engine, reports, faults_drawn,
                     tripped_after)
