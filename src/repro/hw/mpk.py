"""Intel Memory Protection Keys model.

MPK stores a 4-bit protection key in each page-table entry and a per-thread
PKRU register holding, for each of the 16 keys, an access-disable and a
write-disable bit.  The MMU checks the key of every touched page against
the PKRU.  FlexOS associates one key per compartment and reserves one key
for the shared communication domain; leftover keys become additional shared
domains between restricted compartment groups.
"""

from __future__ import annotations

from repro.errors import ConfigError
from repro.obs import tracer as obs

#: Number of protection keys the hardware offers.
NUM_PKEYS = 16

#: Key 0 is the default key of unannotated pages.
DEFAULT_PKEY = 0


class PKRU:
    """Per-thread protection-key rights register.

    Permissions are tracked as two bit masks over the 16 keys.  A key is
    readable when its access-disable bit is clear, writable when both its
    access-disable and write-disable bits are clear.
    """

    def __init__(self, allowed=(DEFAULT_PKEY,)):
        self._access_disable = (1 << NUM_PKEYS) - 1
        self._write_disable = (1 << NUM_PKEYS) - 1
        #: Both masks packed into one integer — the register value a real
        #: ``rdpkru`` would return.  The permission TLB tags cached
        #: verdicts with this word, so any register write (including a
        #: gate restore on the way back) revalidates or invalidates them
        #: without a flush, exactly like hardware ``wrpkru``.
        self.word = self._pack()
        for key in allowed:
            self.allow(key)

    def _pack(self):
        return (self._access_disable << NUM_PKEYS) | self._write_disable

    @staticmethod
    def _check_key(key):
        if not 0 <= key < NUM_PKEYS:
            raise ConfigError("protection key out of range: %r" % key)

    def allow(self, key, write=True):
        """Grant access (and optionally write) rights for ``key``."""
        self._check_key(key)
        self._access_disable &= ~(1 << key)
        if write:
            self._write_disable &= ~(1 << key)
        else:
            self._write_disable |= 1 << key
        self.word = self._pack()
        tracer = obs.ACTIVE
        if tracer.enabled:
            tracer.pkru_write("allow", key)

    def deny(self, key):
        """Revoke all rights for ``key``."""
        self._check_key(key)
        self._access_disable |= 1 << key
        self._write_disable |= 1 << key
        self.word = self._pack()
        tracer = obs.ACTIVE
        if tracer.enabled:
            tracer.pkru_write("deny", key)

    def can_read(self, key):
        self._check_key(key)
        return not (self._access_disable >> key) & 1

    def can_write(self, key):
        self._check_key(key)
        return self.can_read(key) and not (self._write_disable >> key) & 1

    def snapshot(self):
        """Return an opaque value restorable with :meth:`restore`."""
        return (self._access_disable, self._write_disable)

    def restore(self, snap):
        self._access_disable, self._write_disable = snap
        self.word = self._pack()
        tracer = obs.ACTIVE
        if tracer.enabled:
            tracer.pkru_write("restore", None)

    def apply_transition(self, deny_mask, allow_mask):
        """Apply a precomputed gate transition as one register write.

        ``deny_mask`` keys lose all rights, then ``allow_mask`` keys gain
        read+write — the batched equivalent of the per-key ``deny``/
        ``allow`` loop a gate entry performs, collapsed into the single
        ``wrpkru`` the real hardware would execute.  Gates use this only
        with tracing disabled: the traced path keeps the per-key loop so
        the ``pkru`` event stream (and its counters, pinned by the perf
        baselines) is unchanged.
        """
        self._access_disable = (self._access_disable | deny_mask) & ~allow_mask
        self._write_disable = (self._write_disable | deny_mask) & ~allow_mask
        self.word = self._pack()

    def allowed_keys(self):
        """Set of keys with at least read access."""
        return {k for k in range(NUM_PKEYS) if self.can_read(k)}

    def __repr__(self):
        return "PKRU(allowed=%s)" % sorted(self.allowed_keys())


class PkeyAllocator:
    """Allocates the 16 hardware keys to compartments and shared domains.

    Mirrors the paper's policy: key 0 stays the default/TCB key, each
    compartment gets a private key, one key is reserved for the global
    shared domain, and remaining keys may back restricted shared domains
    between groups of compartments.
    """

    def __init__(self):
        self._next = DEFAULT_PKEY + 1
        self._owners = {DEFAULT_PKEY: "default"}

    def allocate(self, owner):
        """Allocate a fresh key for ``owner`` (a descriptive name)."""
        if self._next >= NUM_PKEYS:
            raise ConfigError(
                "out of protection keys: MPK supports at most %d domains"
                % NUM_PKEYS
            )
        key = self._next
        self._next += 1
        self._owners[key] = owner
        return key

    @property
    def remaining(self):
        return NUM_PKEYS - self._next

    def owner_of(self, key):
        return self._owners.get(key)

    def owners(self):
        return dict(self._owners)
