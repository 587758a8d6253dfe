"""MMU access checks.

A single checkpoint implements both isolation families the paper supports:

* **Intra-AS (MPK-style)**: the region's protection key must be enabled in
  the executing context's PKRU.
* **Inter-AS (EPT-style)**: the region must be mapped in the executing
  context's address space (private regions of other VMs simply are not).

Both checks can be active at once (an EPT-backed compartment still has page
permissions).  W^X is enforced structurally at region creation; the MMU
additionally refuses EXEC on non-executable pages, which is what makes the
MPK backend's "static binary analysis coupled with strict W(+)X" argument
hold in the model.

The check itself is two-tiered.  The slow path below re-derives the full
verdict; the fast path consults the context's
:class:`~repro.hw.tlb.PermissionTLB` first and skips the re-derivation
when a previously allowed ``(region, access)`` pair is presented under an
unchanged protection state (see :mod:`repro.hw.tlb` for the tag scheme).
The tiers are observationally identical: same faults, same virtual-cycle
charges (both tiers charge none), and a hit still increments ``checks``.
"""

from __future__ import annotations

from repro.errors import FaultContext, ProtectionFault
from repro.hw.memory import AccessType, Perm
from repro.hw.tlb import EPOCH, bump_epoch
from repro.obs import tracer as obs

#: Permission bit each access type needs — hoisted so the hot path does a
#: module-level dict lookup instead of building this table per check.
_NEEDED_PERM = {
    AccessType.READ: Perm.R,
    AccessType.WRITE: Perm.W,
    AccessType.EXEC: Perm.X,
}


class MMU:
    """Checks every modelled memory access against the current domain."""

    def __init__(self, memory, costs):
        self.memory = memory
        self.costs = costs
        #: Total checks performed (useful to assert coverage in tests).
        #: Permission-TLB hits count too: a hit is still a check.
        self.checks = 0
        self._enforcing = True

    @property
    def enforcing(self):
        """When False, checks are skipped (used to model a hardware bypass
        vulnerability in the "react to hardware breaking" example)."""
        return self._enforcing

    @enforcing.setter
    def enforcing(self, value):
        value = bool(value)
        if value != self._enforcing:
            self._enforcing = value
            # Every cached allow verdict predates the toggle; fault
            # injection relies on re-enabled enforcement faulting again.
            bump_epoch()

    def _fault(self, tracer, ctx, region, access, symbol, owner_library):
        """Build a :class:`ProtectionFault` with a full context snapshot."""
        if tracer.enabled:
            tracer.fault(
                "ProtectionFault", symbol=symbol, access=access.value,
                accessor=ctx.compartment, owner=region.compartment,
                library=ctx.current_library,
            )
        return ProtectionFault(
            symbol, ctx.compartment, region.compartment,
            access=access.value, library=ctx.current_library,
            owner_library=owner_library,
            context=FaultContext.capture(ctx),
        )

    def check(self, ctx, region, access, symbol=None, owner_library=None):
        """Validate one access; raises :class:`ProtectionFault` on denial.

        The full two-tier check: TLB fast path, then slow re-derivation.
        """
        self.checks += 1
        if not self._enforcing:
            return

        tlb = ctx.tlb
        if tlb is not None:
            pkru = ctx.pkru
            space = ctx.address_space
            tag = (
                EPOCH[0],
                pkru.word if pkru is not None else -1,
                space.asid if space is not None else -1,
            )
            if tlb.entries.get((region, access)) == tag:
                tlb.hits += 1
                tracer = obs.ACTIVE
                if tracer.enabled:
                    tracer.tlb_op("hit")
                return

        tracer = obs.ACTIVE
        symbol = symbol or region.name

        # Page permissions first (hardware checks these regardless of keys).
        if not region.perm & _NEEDED_PERM[access]:
            raise self._fault(tracer, ctx, region, access, symbol,
                              owner_library)

        # EPT-style: region must be mapped in this context's address space.
        if ctx.address_space is not None:
            if not ctx.address_space.is_mapped(region):
                raise self._fault(tracer, ctx, region, access, symbol,
                                  owner_library)

        # MPK-style: protection key must be enabled in the PKRU.
        if ctx.pkru is not None:
            allowed = (
                ctx.pkru.can_write(region.pkey)
                if access is AccessType.WRITE
                else ctx.pkru.can_read(region.pkey)
            )
            if not allowed:
                raise self._fault(tracer, ctx, region, access, symbol,
                                  owner_library)

        if tlb is not None:
            # Only allow verdicts are cached; denials raised above so the
            # fault path always re-derives with a fresh context snapshot.
            tlb.misses += 1
            if tracer.enabled:
                tracer.tlb_op("miss")
            tlb.insert((region, access), tag)
