"""Micro-library registry and cross-library call routing.

In FlexOS source code, cross-library calls are abstract gates that the
toolchain instantiates at build time.  Our runtime equivalent is the
:func:`entrypoint` decorator: functions marked as a library's public entry
points are the *only* way into that library, and at call time the active
image decides whether the call is a plain function call (same compartment)
or a domain transition through a gate (different compartments).

When no execution context is active (plain unit tests of the substrate)
the decorator is a transparent pass-through, which mirrors the paper's
"same compartment == code identical to before porting, zero overhead".
"""

from __future__ import annotations

import functools

from repro.errors import ConfigError
from repro.hw.cpu import maybe_current_context

#: Global registry of micro-libraries, keyed by name.
LIBRARY_REGISTRY = {}


class MicroLibrary:
    """Descriptor of one Unikraft-style micro-library.

    Attributes:
        name: library name (``lwip``, ``uksched``, ...).
        role: ``core`` (TCB), ``kernel`` or ``user``.
        loc: representative size, used for TCB accounting.
        entry_points: names of functions decorated as entry points.
    """

    def __init__(self, name, role="kernel", loc=0):
        if role not in ("core", "kernel", "user"):
            raise ConfigError("bad library role %r for %s" % (role, name))
        self.name = name
        self.role = role
        self.loc = loc
        self.entry_points = set()

    @property
    def in_tcb(self):
        return self.role == "core"

    def __repr__(self):
        return "MicroLibrary(%s, role=%s, %d entry points)" % (
            self.name, self.role, len(self.entry_points),
        )


def register_library(name, role="kernel", loc=0):
    """Register (or fetch) the micro-library called ``name``."""
    lib = LIBRARY_REGISTRY.get(name)
    if lib is None:
        lib = MicroLibrary(name, role=role, loc=loc)
        LIBRARY_REGISTRY[name] = lib
    return lib


def get_library(name):
    if name not in LIBRARY_REGISTRY:
        raise ConfigError("unknown micro-library %r" % name)
    return LIBRARY_REGISTRY[name]


# The libraries the prototype ships (paper Section 4), with representative
# line counts used by the TCB accounting in :mod:`repro.core.tcb`.
register_library("ukboot", role="core", loc=400)
register_library("ukalloc", role="core", loc=500)
register_library("uksched", role="core", loc=450)
register_library("ukintr", role="core", loc=250)
register_library("uktime", role="kernel", loc=300)
register_library("lwip", role="kernel", loc=4200)
register_library("vfscore", role="kernel", loc=1500)
register_library("ramfs", role="kernel", loc=700)
register_library("newlib", role="user", loc=5200)


def entrypoint(library):
    """Mark a function as a public entry point of ``library``.

    Calls to the function are routed through the active image's gates when
    an execution context with a router is installed; otherwise the function
    is called directly.  The decorated function keeps its signature.
    """
    lib = register_library(library)

    def decorate(func):
        lib.entry_points.add(func.__name__)
        func.__flexos_library__ = library
        func.__flexos_entry__ = True

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            ctx = maybe_current_context()
            if ctx is None:
                return func(*args, **kwargs)
            if ctx.router is not None:
                return ctx.router.route(library, func, args, kwargs)
            previous_lib = ctx.current_library
            ctx.current_library = library
            try:
                return func(*args, **kwargs)
            finally:
                ctx.current_library = previous_lib

        wrapper.__flexos_library__ = library
        wrapper.__flexos_entry__ = True
        wrapper.__wrapped_impl__ = func
        return wrapper

    return decorate


def work(cycles, library=None):
    """Charge modelled computation from substrate code.

    Looks up the active context; a no-op when code runs outside any
    simulation (so the substrate stays usable as plain Python).
    """
    ctx = maybe_current_context()
    if ctx is not None:
        ctx.charge_work(cycles, library=library)
