"""Built OS images: compartments, sections, entry points, gate routing.

``build_image`` (toolchain) produces an :class:`Image` — the static
artifact: which library lives in which compartment, which functions are
legal compartment entry points, what memory sections the linker script
lays out, and which transformations were applied.  Booting the image
(:mod:`repro.core.vm`) gives compartments their runtime identity
(protection key or address space) and installs a :class:`Router` that
sends every cross-library call through the right gate.
"""

from __future__ import annotations

from repro.core.hardening import work_multiplier
from repro.errors import BuildError, EntryPointViolation
from repro.hw.cpu import current_context
from repro.kernel.lib import get_library
from repro.obs import tracer as obs


class Compartment:
    """One compartment: static spec plus runtime protection identity."""

    def __init__(self, index, spec, libraries):
        self.index = index
        self.spec = spec
        self.libraries = tuple(libraries)
        # Runtime identity, assigned by the backend at boot:
        self.pkey = None            # MPK protection key
        self.shared_pkeys = ()      # keys of shared domains it may touch
        self.address_space = None   # EPT address space

    @property
    def name(self):
        return self.spec.name

    @property
    def mechanism(self):
        return self.spec.mechanism

    @property
    def hardening(self):
        return self.spec.hardening

    def private_keys(self):
        """Keys exclusive to this compartment (revoked when leaving).

        Key 0 (the default compartment's key) is treated like any other:
        compartments are *peers*, so entering an isolated compartment
        drops access to the default compartment's data too — otherwise a
        compromised isolated library could read application data living
        in the default compartment.
        """
        if self.pkey is None:
            return ()
        return (self.pkey,)

    def allowed_keys(self):
        """Keys this compartment's PKRU enables: own + shared domains."""
        keys = set()
        if self.pkey is not None:
            keys.add(self.pkey)
        keys.update(self.shared_pkeys)
        return keys

    def __repr__(self):
        return "Compartment(%d %s libs=%s pkey=%s)" % (
            self.index, self.name, list(self.libraries), self.pkey,
        )


class SectionSpec:
    """One linker-script output section."""

    __slots__ = ("name", "kind", "compartment_index", "size", "perm")

    def __init__(self, name, kind, compartment_index, size, perm):
        self.name = name
        self.kind = kind
        self.compartment_index = compartment_index
        self.size = size
        self.perm = perm

    def __repr__(self):
        return "SectionSpec(%s comp=%s %s)" % (
            self.name, self.compartment_index, self.perm,
        )


class Image:
    """The static build artifact."""

    def __init__(self, config, compartments, sections, linker_script,
                 annotations, transform_report, backend_name):
        self.config = config
        self.compartments = list(compartments)
        self.sections = list(sections)
        self.linker_script = linker_script
        self.annotations = annotations
        self.transform_report = transform_report
        self.backend_name = backend_name
        self._lib_to_comp = {}
        for comp in self.compartments:
            for lib in comp.libraries:
                if lib in self._lib_to_comp:
                    raise BuildError("library %s in two compartments" % lib)
                self._lib_to_comp[lib] = comp
        #: Legal entry points per compartment index (gate-level CFI).
        self.legal_entries = {
            comp.index: self._collect_entries(comp)
            for comp in self.compartments
        }

    @staticmethod
    def _collect_entries(comp):
        entries = set()
        for lib in comp.libraries:
            entries.update(get_library(lib).entry_points)
        return entries

    # -- lookups ------------------------------------------------------------
    def compartment_of(self, library):
        comp = self._lib_to_comp.get(library)
        if comp is None:
            # Unassigned libraries land in the default compartment.
            default_name = self.config.default_compartment.name
            comp = next(
                c for c in self.compartments if c.name == default_name
            )
        return comp

    def compartment_by_name(self, name):
        for comp in self.compartments:
            if comp.name == name:
                return comp
        raise BuildError("no compartment named %r" % name)

    @property
    def n_compartments(self):
        return len(self.compartments)

    def work_multiplier(self, library):
        """Hardening multiplier for code of ``library`` in this image."""
        comp = self.compartment_of(library)
        return work_multiplier(library, comp.hardening)

    def is_legal_entry(self, comp_index, func_name):
        return func_name in self.legal_entries.get(comp_index, ())

    def __repr__(self):
        return "Image(%s, %d compartments, backend=%s)" % (
            self.config.name, self.n_compartments, self.backend_name,
        )


class Router:
    """Routes entry-point calls: direct within a compartment, gated across.

    Installed on the execution context at boot.  This is the runtime
    equivalent of the toolchain inlining a concrete gate at every
    transformed call site.
    """

    def __init__(self, image, gates, costs):
        self.image = image
        self.gates = gates  # (src_index, dst_index) -> Gate
        self.costs = costs
        self.direct_calls = 0
        self.gated_calls = 0

    def gate_between(self, src_index, dst_index):
        gate = self.gates.get((src_index, dst_index))
        if gate is None:
            raise BuildError(
                "no gate from compartment %d to %d" % (src_index, dst_index)
            )
        return gate

    def route(self, library, func, args, kwargs):
        ctx = current_context()
        dst = self.image.compartment_of(library)
        # Entry hooks drive request-span claiming (repro.obs.spans) and
        # must fire exactly once per routed call, on *both* paths below:
        # under a single-compartment layout every call is direct and no
        # gate event ever exists, yet a request's service interval still
        # has to be observed.  The hooks never charge the clock (tracer
        # rules).
        tracer = obs.ACTIVE
        token = tracer.entry_begin(library, ctx) if tracer.enabled \
            else None
        try:
            if dst.index == ctx.compartment:
                # Same compartment: a classical function call
                # (Fig. 3 step 3b).
                self.direct_calls += 1
                ctx.clock.charge(self.costs.function_call)
                previous_lib = ctx.current_library
                ctx.current_library = library
                try:
                    return func(*args, **kwargs)
                finally:
                    ctx.current_library = previous_lib
            name = getattr(func, "__name__", str(func))
            declared_entry = (
                getattr(func, "__flexos_entry__", False)
                and getattr(func, "__flexos_library__", None) == library
            )
            if not declared_entry and not self.image.is_legal_entry(
                    dst.index, name):
                raise EntryPointViolation(name, dst.name)
            self.gated_calls += 1
            gate = self.gate_between(ctx.compartment, dst.index)
            return gate.call(ctx, library, func, args, kwargs)
        finally:
            if token is not None:
                tracer.entry_end(token, ctx)
