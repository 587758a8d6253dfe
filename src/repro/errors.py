"""Exception hierarchy for the FlexOS reproduction.

Every error raised by the simulated hardware, the kernel substrate, the
FlexOS core, or the toolchain derives from :class:`ReproError` so callers
can catch the whole family at once.  Faults that model *hardware* behaviour
(e.g. an MPK key mismatch) carry enough structured context for the porting
workflow (see :mod:`repro.porting.workflow`) to act on them the way a
developer acts on a crash report.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class ConfigError(ReproError):
    """A safety configuration is malformed or internally inconsistent."""


class BuildError(ReproError):
    """The toolchain could not produce an image from the configuration."""


class TransformError(BuildError):
    """A source-to-source transformation produced invalid output.

    The paper keeps Coccinelle out of the TCB because compile-time checks
    detect invalid transformations; this exception is those checks firing.
    """


class LinkError(BuildError):
    """Linker-script generation failed (e.g. section/compartment mismatch)."""


class FaultContext:
    """Snapshot of the execution context at the moment a fault fired.

    Captured by the MMU when it raises a :class:`ProtectionFault` so crash
    reports (see :mod:`repro.porting.workflow`) can show *where* the
    machine was — gate nesting depth, running thread, PKRU contents,
    address space and virtual-clock time — the way a real MPK #PF handler
    dumps the PKRU alongside the faulting address.
    """

    __slots__ = ("gate_depth", "thread", "compartment", "library",
                 "pkru_keys", "address_space", "cycles")

    def __init__(self, gate_depth=0, thread=None, compartment=None,
                 library=None, pkru_keys=None, address_space=None,
                 cycles=0.0):
        self.gate_depth = gate_depth
        self.thread = thread
        self.compartment = compartment
        self.library = library
        self.pkru_keys = pkru_keys
        self.address_space = address_space
        self.cycles = cycles

    @classmethod
    def capture(cls, ctx):
        """Snapshot ``ctx`` (an :class:`~repro.hw.cpu.ExecutionContext`)."""
        thread = getattr(ctx, "current_thread", None)
        pkru = getattr(ctx, "pkru", None)
        space = getattr(ctx, "address_space", None)
        return cls(
            gate_depth=getattr(ctx, "gate_depth", 0),
            thread=getattr(thread, "name", None),
            compartment=getattr(ctx, "compartment", None),
            library=getattr(ctx, "current_library", None),
            pkru_keys=(tuple(sorted(pkru.allowed_keys()))
                       if pkru is not None else None),
            address_space=getattr(space, "name", None),
            cycles=ctx.clock.cycles if getattr(ctx, "clock", None) else 0.0,
        )

    def describe(self):
        """Multi-line, crash-report-style rendering."""
        lines = [
            "gate depth:    %d" % self.gate_depth,
            "thread:        %s" % (self.thread or "<boot>"),
            "compartment:   %s" % self.compartment,
            "library:       %s" % (self.library or "-"),
        ]
        if self.pkru_keys is not None:
            lines.append("PKRU keys:     %s" % list(self.pkru_keys))
        if self.address_space is not None:
            lines.append("address space: %s" % self.address_space)
        lines.append("cycles:        %.0f" % self.cycles)
        return "\n".join(lines)

    def __repr__(self):
        return "FaultContext(depth=%d thread=%s comp=%s)" % (
            self.gate_depth, self.thread, self.compartment,
        )


class ProtectionFault(ReproError):
    """A memory access violated the current protection domain.

    Models an MPK page fault (key mismatch) or an EPT violation (page not
    mapped in the accessing VM's address space).

    Attributes:
        symbol: name of the variable or buffer that was touched.
        accessor: compartment id of the code performing the access.
        owner: compartment id owning the data.
        access: "read", "write" or "exec".
        library: micro-library whose code performed the access, if known.
        owner_library: micro-library that owns the data, if known (this
            is the library the porting workflow annotates).
        context: optional :class:`FaultContext` snapshot at fault time.
    """

    def __init__(self, symbol, accessor, owner, access="read", library=None,
                 owner_library=None, context=None):
        self.symbol = symbol
        self.accessor = accessor
        self.owner = owner
        self.access = access
        self.library = library
        self.owner_library = owner_library
        self.context = context
        super().__init__(
            "protection fault: %s access to %r (owner comp%s) from comp%s%s"
            % (
                access,
                symbol,
                owner,
                accessor,
                " in %s" % library if library else "",
            )
        )


class EntryPointViolation(ReproError):
    """A compartment was entered at an address that is not a legal gate.

    Both backends provide this form of CFI: MPK because gates are hardcoded
    at build time, EPT because the RPC server validates function pointers.
    """

    def __init__(self, function, compartment):
        self.function = function
        self.compartment = compartment
        super().__init__(
            "illegal entry point %r for compartment %s" % (function, compartment)
        )


class HardeningViolation(ReproError):
    """Base class for errors detected by a software hardening mechanism."""


class KasanViolation(HardeningViolation):
    """KASan detected an out-of-bounds or use-after-free access."""


class UbsanViolation(HardeningViolation):
    """UBSan detected undefined behaviour (e.g. signed overflow)."""


class CfiViolation(HardeningViolation):
    """CFI rejected an indirect-call target."""


class StackSmashDetected(HardeningViolation):
    """The stack protector found a clobbered canary on function return."""


class IagoViolation(ReproError):
    """An RPC argument tried to confuse the callee (Iago-style attack).

    Section 3.3 assumes "interfaces correctly check arguments and are
    free of confused deputy/Iago situations"; the EPT RPC server enforces
    the check this assumption rests on: pointer arguments must reference
    shared memory, never the callee's private data.
    """


class AllocationError(ReproError):
    """An allocator could not satisfy a request.

    ``injected`` is True when the failure came from a fault-injection
    hook rather than genuine exhaustion (see
    :meth:`repro.kernel.allocators.base.Allocator.fail_next`).
    """

    injected = False


class TransientFault(ReproError):
    """A fault that is expected to succeed if the operation is replayed.

    The supervisor's ``retry`` policy only ever replays faults of this
    family (plus allocator OOM, which pressure may relieve).
    """


class RpcDropFault(TransientFault):
    """An EPT RPC descriptor or reply was lost in the shared window.

    The cross-VM RPC protocol has no hardware delivery guarantee; a
    dropped descriptor surfaces to the caller as a timed-out call that is
    safe to replay (the server never started executing it).
    """

    def __init__(self, gate_kind, compartment):
        self.gate_kind = gate_kind
        self.compartment = compartment
        super().__init__(
            "RPC descriptor dropped on %s gate into %s"
            % (gate_kind, compartment)
        )


class CompartmentFault(ReproError):
    """A fault inside a callee compartment, structured for supervision.

    Raised by :class:`~repro.core.gates.Gate` after the unwind path has
    restored the caller's domain: the crash stayed *inside* the
    compartment that caused it, and the supervisor decided not to
    propagate the raw hardware fault.

    Attributes:
        compartment: index of the faulting compartment.
        compartment_name: its configured name.
        gate_kind: the gate variant the call crossed.
        cause: the original exception raised in the callee.
        context: :class:`FaultContext` of the original fault, if any.
    """

    def __init__(self, compartment, compartment_name, gate_kind, cause,
                 message=None):
        self.compartment = compartment
        self.compartment_name = compartment_name
        self.gate_kind = gate_kind
        self.cause = cause
        self.context = getattr(cause, "context", None)
        super().__init__(
            message
            or "compartment fault in %s (comp%s) across %s gate: %s"
            % (compartment_name, compartment, gate_kind, cause)
        )


class DegradedService(CompartmentFault):
    """The supervisor's ``degrade`` policy converted a compartment fault.

    Applications catch this to answer with an app-level error (Redis
    ``-ERR``, Nginx 503, SQLite transaction abort) instead of dying.
    """

    def __init__(self, compartment, compartment_name, gate_kind, cause):
        super().__init__(
            compartment, compartment_name, gate_kind, cause,
            message="degraded service: compartment %s (comp%s) faulted "
                    "across %s gate: %s"
                    % (compartment_name, compartment, gate_kind, cause),
        )


class InvalidFree(ReproError):
    """free() was called on a pointer the allocator does not own."""


class FsError(ReproError):
    """A filesystem operation failed (POSIX-style errno in ``errno``)."""

    def __init__(self, errno, message):
        self.errno = errno
        super().__init__("%s (errno %d)" % (message, errno))


class NetworkError(ReproError):
    """A network-stack operation failed.

    ``reason`` is a short key naming what was wrong (``runt``,
    ``checksum``, ``proto``, ...).  The receive path counts dropped
    frames under it.
    """

    def __init__(self, message="", reason="error"):
        super().__init__(message)
        self.reason = reason


class SchedulerError(ReproError):
    """The scheduler was asked to do something impossible."""


class ReconfigError(ReproError):
    """A live reconfiguration could not be planned.

    Raised *before* any migration phase runs — an incompatible target
    layout (different compartment names, library assignment or sharing
    strategy) or an unsupported mechanism.  Unlike
    :class:`MigrationFault`, this never triggers a rollback because
    nothing was touched yet.
    """


class MigrationFault(ReproError):
    """A fault fired inside a migration window.

    Either injected by :meth:`repro.faults.injector.FaultInjector
    .on_migration_point` (campaigns attacking the reconfiguration
    itself) or raised by the engine when the QUIESCE drain times out.
    The migration engine converts it into a rollback to the source
    layout; it never escapes :meth:`~repro.reconfig.engine
    .ReconfigurationEngine.migrate`.

    Attributes:
        phase: the migration checkpoint that faulted (``prepare``,
            ``quiesce``, ``commit``, ``commit-finalize``, ``resume``).
        step: the commit step label, when the fault hit one.
    """

    def __init__(self, phase, step=None, message=None):
        self.phase = phase
        self.step = step
        super().__init__(
            message
            or "migration fault at %s%s"
            % (phase, " (%s)" % step if step else "")
        )


class ExplorationError(ReproError):
    """The design-space explorer was misused (e.g. empty budget set).

    When an evaluator fails mid-walk, ``partial`` carries the
    :class:`~repro.explore.explorer.ExplorationResult` accumulated up to
    the failure (finalised over what was measured), so a long run's
    labellings survive the crash.
    """

    def __init__(self, message, partial=None):
        self.partial = partial
        super().__init__(message)
