"""The probabilistic safety partial order (Section 5).

"We construct the poset ... ordering safety with the assumption that
safety probabilistically increases with 1) the number of compartments;
2) data isolation; 3) stackable software hardening; and 4) the strength
of the isolation mechanism."

Two configurations are comparable iff **all four axes** are comparable:

1. *Compartmentalization*: partition refinement — A is at least as safe
   as B when A's partition refines B's (every A-group fits inside a
   B-group).  Splitting a compartment only ever adds boundaries.
2. *Data isolation*: shared stack < DSS < full stack-to-heap isolation.
3. *Hardening*: pointwise set inclusion per component.
4. *Mechanism*: none < MPK (intra-AS keys) < CHERI (capabilities) <
   EPT/VM (disjoint address spaces).  MPK light gates (shared
   stacks/registers) rank below full gates.

Nodes on different paths stay incomparable — exactly the property that
makes the space a poset rather than a total order.
"""

from __future__ import annotations

MECHANISM_RANK = {
    "none": 0,
    "intel-mpk": 1,
    "cheri": 2,
    "vm-ept": 3,
    # SGX additionally protects enclave *confidentiality* against the
    # rest of the system (memory encryption), ranking above plain
    # address-space disjointness for the threat models FlexOS targets.
    "intel-sgx": 4,
}

SHARING_RANK = {"shared-stack": 0, "dss": 1, "heap": 2}

GATE_RANK = {"light": 0, "full": 1}


def partition_refines(fine, coarse):
    """True when every group of ``fine`` is a subset of a ``coarse`` group.

    Components missing from a partition belong to its default (first)
    group, so compare over the union of mentioned components plus a
    virtual "rest" marker.
    """
    coarse_groups = [set(group) for group in coarse.partition]
    coarse_groups[0] = coarse_groups[0] | {"__rest__"}
    fine_groups = [set(group) for group in fine.partition]
    fine_groups[0] = fine_groups[0] | {"__rest__"}
    mentioned = set().union(*fine_groups) | set().union(*coarse_groups)

    def group_of(groups, component):
        for index, group in enumerate(groups):
            if component in group:
                return index
        return 0

    # fine refines coarse iff components sharing a fine group always share
    # a coarse group.
    fine_index = {c: group_of(fine_groups, c) for c in mentioned}
    coarse_index = {c: group_of(coarse_groups, c) for c in mentioned}
    for a in mentioned:
        for b in mentioned:
            if fine_index[a] == fine_index[b] and \
                    coarse_index[a] != coarse_index[b]:
                return False
    return True


def structure_key(layout):
    """Everything :func:`structure_leq` reads from ``layout``.

    Layouts with equal keys compare identically on the structural
    factor, so the poset evaluates it once per pair of distinct keys.
    """
    return (
        layout.partition[0],
        frozenset(layout.partition[1:]),
        MECHANISM_RANK[_mech(layout)],
        SHARING_RANK[layout.sharing],
        _gate_rank(layout),
    )


def structure_leq(weaker, stronger):
    """The structural factor: partition refinement and the three ranks."""
    return (
        partition_refines(stronger, weaker)
        and MECHANISM_RANK[_mech(weaker)] <= MECHANISM_RANK[_mech(stronger)]
        and SHARING_RANK[weaker.sharing] <= SHARING_RANK[stronger.sharing]
        and _gate_rank(weaker) <= _gate_rank(stronger)
    )


def hardening_key(layout):
    """Everything :func:`hardening_leq` reads: the non-empty entries."""
    return frozenset(
        (component, hardening)
        for component, hardening in layout.hardening.items() if hardening
    )


def hardening_leq(weaker, stronger):
    """The hardening factor: pointwise set inclusion per component."""
    return all(
        hardening <= stronger.hardening_of(component)
        for component, hardening in weaker.hardening.items()
    )


def safety_leq(weaker, stronger):
    """True when ``stronger`` is probabilistically at least as safe.

    Reflexive and transitive: the conjunction of :func:`structure_leq`
    and :func:`hardening_leq`.  Antisymmetry holds up to configurations
    that are indistinguishable on all four axes.
    """
    return structure_leq(weaker, stronger) and hardening_leq(weaker, stronger)


def _mech(layout):
    # A single-compartment layout isolates nothing: mechanism rank 0,
    # which keeps "A" below every isolated strategy regardless of the
    # sweep's nominal mechanism.
    if layout.n_compartments == 1:
        return "none"
    return layout.mechanism


def _gate_rank(layout):
    if _mech(layout) != "intel-mpk":
        return GATE_RANK["full"]  # flavour only differentiates MPK images
    return GATE_RANK[layout.mpk_gate]


def comparable(a, b):
    return safety_leq(a, b) or safety_leq(b, a)
