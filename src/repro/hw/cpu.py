"""Execution context: the CPU state isolation decisions hang off.

An :class:`ExecutionContext` carries everything a domain transition
manipulates: the virtual clock, the cost model, the MMU, the current
compartment id, the PKRU (for MPK-backed images), the address space (for
EPT-backed images), the executing micro-library, and the current thread.

Kernel and application code is ordinary Python; cross-library calls are
routed through gates by the :func:`repro.kernel.lib.entrypoint` decorator,
which needs to know the *current* context.  That context is kept in a
module-level slot managed by :func:`use_context` so that deeply nested
substrate code does not have to thread it through every signature.
"""

from __future__ import annotations

from contextlib import contextmanager

from repro.errors import ReproError
from repro.hw.tlb import PermissionTLB, default_enabled

_CURRENT = None


def current_context():
    """The context installed by the innermost :func:`use_context` block."""
    if _CURRENT is None:
        raise ReproError("no execution context is active")
    return _CURRENT


def maybe_current_context():
    """Like :func:`current_context` but returns None outside any block."""
    return _CURRENT


@contextmanager
def host_side():
    """Run a block outside any execution context.

    Used for load-generator code (redis-benchmark, wrk, the iPerf client)
    that the paper runs on separate host cores: its work must neither be
    charged to the measured instance's clock nor routed through its gates.
    Never yield control to a scheduler inside such a block.
    """
    global _CURRENT
    previous = _CURRENT
    _CURRENT = None
    try:
        yield
    finally:
        _CURRENT = previous


@contextmanager
def use_context(ctx):
    """Install ``ctx`` as the active execution context for a block."""
    global _CURRENT
    previous = _CURRENT
    _CURRENT = ctx
    try:
        yield ctx
    finally:
        _CURRENT = previous


class ExecutionContext:
    """Mutable CPU state for one virtual hart running one image."""

    def __init__(self, clock, costs, mmu, compartment=0, pkru=None,
                 address_space=None):
        self.clock = clock
        self.costs = costs
        self.mmu = mmu
        self.compartment = compartment
        self.pkru = pkru
        self.address_space = address_space
        #: Per-context permission TLB consulted by ``MMU.check``; None
        #: (the ``FLEXOS_TLB=off`` kill switch) forces every check down
        #: the slow path.  Purely a wall-clock optimisation — see
        #: :mod:`repro.hw.tlb`.
        self.tlb = PermissionTLB() if default_enabled() else None
        #: Micro-library whose code is executing.  Each call path into a
        #: library (direct call, gate, no-router entry point) saves it,
        #: assigns it and restores it in a ``finally``.
        self.current_library = None
        self.current_thread = None
        #: Gate-transition counters, keyed by (from_comp, to_comp).
        self.transitions = {}
        #: Depth of nested cross-compartment calls (for diagnostics).
        self.gate_depth = 0
        #: Router installed by a booted image; None means direct calls.
        self.router = None
        #: Fault injector armed by a campaign; gates consult it at every
        #: crossing (None in normal operation).
        self.fault_injector = None
        #: Supervisor consulted when a callee compartment faults (None
        #: means the fault propagates unchanged, the pre-supervision
        #: behaviour).
        self.supervisor = None
        #: Callable(library_name) -> float multiplier applied to modelled
        #: work, used to charge software-hardening instrumentation.
        self.work_multiplier = None
        #: Cycles of modelled work charged per library (before gates).
        self.work_by_library = {}

    def charge_work(self, cycles, library=None):
        """Charge modelled computation, applying hardening multipliers.

        ``library`` defaults to the library currently executing; hardened
        libraries pay their instrumentation tax on every cycle of work.
        """
        library = library or self.current_library
        multiplier = 1.0
        if self.work_multiplier is not None and library is not None:
            multiplier = self.work_multiplier(library)
        charged = cycles * multiplier
        self.clock.charge(charged)
        if library is not None:
            self.work_by_library[library] = (
                self.work_by_library.get(library, 0.0) + charged
            )

    def record_transition(self, src, dst):
        key = (src, dst)
        self.transitions[key] = self.transitions.get(key, 0) + 1

    def total_transitions(self):
        return sum(self.transitions.values())

    def __repr__(self):
        return "ExecutionContext(comp=%s lib=%s cycles=%.0f)" % (
            self.compartment, self.current_library, self.clock.cycles,
        )
