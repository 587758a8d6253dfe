"""Page-granular physical memory with protection metadata.

Memory is modelled as a flat 64-bit space carved into :class:`Region`
objects (a contiguous, page-aligned range with permissions, an MPK
protection key, and an owning compartment).  Isolation-relevant data lives
in :class:`MemoryObject` cells or :class:`ByteBuffer` ranges whose accessors
take the current :class:`~repro.hw.cpu.ExecutionContext`; every access is
checked by the :class:`~repro.hw.mmu.MMU` and faults exactly where real MPK
or EPT hardware would.
"""

from __future__ import annotations

import bisect
import enum

from repro.errors import AllocationError, ConfigError
from repro.hw.mpk import DEFAULT_PKEY
from repro.hw.tlb import bump_epoch

PAGE_SIZE = 4096
PAGE_MASK = PAGE_SIZE - 1


def page_align_up(value):
    """Round ``value`` up to the next page boundary."""
    return (value + PAGE_MASK) & ~PAGE_MASK


class AccessType(enum.Enum):
    """The three kinds of memory access the MMU distinguishes."""

    READ = "read"
    WRITE = "write"
    EXEC = "exec"


class Perm(enum.Flag):
    """Page permissions (W^X is enforced at region creation)."""

    NONE = 0
    R = enum.auto()
    W = enum.auto()
    X = enum.auto()
    RW = R | W
    RX = R | X


class Region:
    """A contiguous page-aligned memory range with uniform protection.

    Attributes:
        name: linker-section-style name, e.g. ``".data.comp1"``.
        base: start address (page aligned).
        size: length in bytes (page aligned).
        perm: page permissions.
        pkey: MPK protection key stamped in the PTEs.
        compartment: id of the owning compartment (None for TCB/global).
        kind: one of ``data|rodata|bss|text|heap|stack|dss|shared|mmio``.
    """

    __slots__ = (
        "name",
        "base",
        "size",
        "perm",
        "pkey",
        "compartment",
        "kind",
        "_bytes",
    )

    def __init__(self, name, base, size, perm=Perm.RW, pkey=DEFAULT_PKEY,
                 compartment=None, kind="data"):
        if base & PAGE_MASK or size & PAGE_MASK:
            raise ConfigError("region %s is not page aligned" % name)
        if perm & Perm.W and perm & Perm.X:
            raise ConfigError("region %s violates W^X" % name)
        self.name = name
        self.base = base
        self.size = size
        self.perm = perm
        self.pkey = pkey
        self.compartment = compartment
        self.kind = kind
        self._bytes = None  # lazily created backing store

    @property
    def end(self):
        return self.base + self.size

    def contains(self, addr):
        return self.base <= addr < self.end

    def backing(self):
        """Byte backing store, created on first use."""
        if self._bytes is None:
            self._bytes = bytearray(self.size)
        return self._bytes

    def set_pkey(self, pkey):
        """Re-stamp the region's protection key (boot-time protection).

        Bumps the global protection epoch: a re-stamp changes what every
        cached permission-TLB verdict for this region means, exactly like
        a PTE rewrite forces a TLB shootdown on real hardware.
        """
        self.pkey = pkey
        bump_epoch()

    def __repr__(self):
        return "Region(%s @0x%x +0x%x pkey=%d comp=%s %s)" % (
            self.name, self.base, self.size, self.pkey,
            self.compartment, self.perm,
        )


class PhysicalMemory:
    """The machine's physical memory: an ordered set of regions.

    Regions are allocated bump-style from ``base``.  Lookup by address is
    O(log n) via bisection on region bases.
    """

    def __init__(self, base=0x1000_0000, size=1 << 34):
        self.base = base
        self.size = size
        self._cursor = base
        self._bases = []     # sorted region base addresses
        self._regions = []   # regions, parallel to _bases
        self._by_compartment = {}  # compartment id -> [regions]

    def add_region(self, name, size, perm=Perm.RW, pkey=DEFAULT_PKEY,
                   compartment=None, kind="data"):
        """Carve a fresh region out of unallocated memory."""
        size = page_align_up(max(size, 1))
        if self._cursor + size > self.base + self.size:
            raise AllocationError("physical memory exhausted")
        region = Region(name, self._cursor, size, perm=perm, pkey=pkey,
                        compartment=compartment, kind=kind)
        self._cursor += size
        # Bump allocation hands out strictly increasing bases, so the
        # sorted order bisection relies on is append order.
        assert not self._bases or region.base > self._bases[-1], \
            "bump allocator produced a non-monotonic base"
        self._bases.append(region.base)
        self._regions.append(region)
        self._by_compartment.setdefault(compartment, []).append(region)
        return region

    def region_at(self, addr):
        """Region containing ``addr``, or None."""
        idx = bisect.bisect(self._bases, addr) - 1
        if idx < 0:
            return None
        region = self._regions[idx]
        return region if region.contains(addr) else None

    def regions(self):
        return list(self._regions)

    def regions_of(self, compartment):
        return list(self._by_compartment.get(compartment, ()))

    def __repr__(self):
        return "PhysicalMemory(%d regions, cursor=0x%x)" % (
            len(self._regions), self._cursor,
        )


class MemoryObject:
    """A typed cell living in a region; all access is protection-checked.

    This is the unit the porting workflow reasons about: a symbol that, when
    touched from the wrong compartment, produces a crash report naming
    itself.  Values are arbitrary Python objects, which keeps the substrate
    fast while preserving the isolation semantics.
    """

    __slots__ = ("symbol", "region", "offset", "_value", "library")

    def __init__(self, symbol, region, offset=0, value=None, library=None):
        self.symbol = symbol
        self.region = region
        self.offset = offset
        self._value = value
        self.library = library

    @property
    def address(self):
        return self.region.base + self.offset

    def read(self, ctx):
        """Checked read; returns the stored value."""
        ctx.mmu.check(ctx, self.region, AccessType.READ, symbol=self.symbol,
                      owner_library=self.library)
        return self._value

    def write(self, ctx, value):
        """Checked write."""
        ctx.mmu.check(ctx, self.region, AccessType.WRITE, symbol=self.symbol,
                      owner_library=self.library)
        self._value = value

    def peek(self):
        """Unchecked read for debuggers and tests."""
        return self._value

    def __repr__(self):
        return "MemoryObject(%s @0x%x in %s)" % (
            self.symbol, self.address, self.region.name,
        )


class ByteBuffer:
    """A checked window over a region's byte backing store.

    Used by the network stack and the filesystem for payload data, so that
    copying costs are charged per byte and stray cross-compartment buffer
    accesses fault like any other access.
    """

    __slots__ = ("symbol", "region", "offset", "size")

    def __init__(self, symbol, region, offset, size):
        if offset + size > region.size:
            raise AllocationError(
                "buffer %s overflows region %s" % (symbol, region.name)
            )
        self.symbol = symbol
        self.region = region
        self.offset = offset
        self.size = size

    @property
    def address(self):
        return self.region.base + self.offset

    def read_bytes(self, ctx, start=0, length=None):
        length = self.size - start if length is None else length
        self._bounds(start, length)
        ctx.mmu.check(ctx, self.region, AccessType.READ, symbol=self.symbol)
        if length == 0:
            # Still protection-checked above, but free: no cycles, and no
            # materializing the region's backing store for an empty slice.
            return b""
        ctx.clock.charge(ctx.costs.memcpy_per_byte * length)
        data = self.region.backing()
        lo = self.offset + start
        return bytes(data[lo:lo + length])

    def write_bytes(self, ctx, payload, start=0):
        self._bounds(start, len(payload))
        ctx.mmu.check(ctx, self.region, AccessType.WRITE, symbol=self.symbol)
        if not payload:
            return
        ctx.clock.charge(ctx.costs.memcpy_per_byte * len(payload))
        data = self.region.backing()
        lo = self.offset + start
        data[lo:lo + len(payload)] = payload

    def read_vec(self, ctx, spans):
        """Gather: read ``[(start, length), ...]`` with one check.

        The batched equivalent of one :meth:`read_bytes` per span — same
        bounds errors, same fault behaviour, and the same total cycle
        charge (``memcpy_per_byte`` × total bytes) — but the whole batch
        is validated by a single MMU check, since every span lives in the
        same region under the same protection state.  Returns the list of
        payloads in span order.
        """
        spans = list(spans)
        for start, length in spans:
            self._bounds(start, length)
        ctx.mmu.check(ctx, self.region, AccessType.READ, symbol=self.symbol)
        total = sum(length for _, length in spans)
        if total == 0:
            return [b"" for _ in spans]
        ctx.clock.charge(ctx.costs.memcpy_per_byte * total)
        data = self.region.backing()
        base = self.offset
        return [
            bytes(data[base + start:base + start + length])
            for start, length in spans
        ]

    def write_vec(self, ctx, spans):
        """Scatter: write ``[(start, payload), ...]`` with one check.

        Mirror of :meth:`read_vec`; returns total bytes written.
        """
        spans = [(start, payload) for start, payload in spans]
        for start, payload in spans:
            self._bounds(start, len(payload))
        ctx.mmu.check(ctx, self.region, AccessType.WRITE, symbol=self.symbol)
        total = sum(len(payload) for _, payload in spans)
        if total == 0:
            return 0
        ctx.clock.charge(ctx.costs.memcpy_per_byte * total)
        data = self.region.backing()
        base = self.offset
        for start, payload in spans:
            data[base + start:base + start + len(payload)] = payload
        return total

    def _bounds(self, start, length):
        if start < 0 or length < 0 or start + length > self.size:
            raise AllocationError(
                "out-of-bounds access to buffer %s: start=%d len=%d size=%d"
                % (self.symbol, start, length, self.size)
            )
