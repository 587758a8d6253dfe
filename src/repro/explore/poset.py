"""The configuration poset (Fig. 5, Fig. 8).

Nodes are configurations; ``a -> b`` means "b is probabilistically safer
than a".  The poset keeps the full relation and its transitive reduction
(the Hasse diagram), which is what Fig. 8 draws.

The relation is stored as integer bitsets, bit *i* standing for the
*i*-th layout.  The safety order is the conjunction of a structural and a
hardening factor (:mod:`repro.explore.safety`), and layouts share few
distinct values of each.  The build evaluates each factor once per pair of
distinct keys and turns each table into per-class up masks (the layouts
above) and down masks (the layouts below, from the transpose); a layout's
safer set is then the AND of its two up masks, its less-safe set the AND
of its two down masks.  Since the order is a preorder, that relation is
already transitively closed.
"""

from __future__ import annotations

from repro.errors import ExplorationError
from repro.explore.safety import (
    hardening_key,
    hardening_leq,
    safety_leq,
    structure_key,
    structure_leq,
)


def _members(mask):
    """Indices of the set bits of ``mask``, ascending."""
    indices = []
    while mask:
        low = mask & -mask
        indices.append(low.bit_length() - 1)
        mask ^= low
    return indices


def _factor_masks(layouts, key, leq):
    """Class ``layouts`` by ``key`` and run ``leq`` once per pair of
    classes, on one layout of each.  Returns, per layout, the mask of
    layouts whose class is at or above its class and the mask of those at
    or below it."""
    keys = [key(layout) for layout in layouts]
    representatives = {}
    members = {}
    for index, (k, layout) in enumerate(zip(keys, layouts)):
        representatives.setdefault(k, layout)
        members[k] = members.get(k, 0) | 1 << index
    up = dict.fromkeys(representatives, 0)
    down = dict.fromkeys(representatives, 0)
    for a, weaker in representatives.items():
        for b, stronger in representatives.items():
            if leq(weaker, stronger):
                up[a] |= members[b]
                down[b] |= members[a]
    return [up[k] for k in keys], [down[k] for k in keys]


class ConfigPoset:
    """A poset over :class:`~repro.apps.base.ComponentLayout` objects."""

    def __init__(self, layouts):
        names = [layout.name for layout in layouts]
        if len(set(names)) != len(names):
            raise ExplorationError("duplicate configuration names")
        self.layouts = {layout.name: layout for layout in layouts}
        self._names = names
        self._index = {name: i for i, name in enumerate(names)}
        structure_up, structure_down = _factor_masks(
            layouts, structure_key, structure_leq)
        hardening_up, hardening_down = _factor_masks(
            layouts, hardening_key, hardening_leq)
        self._succ = succ = []
        self._pred = pred = []
        for i in range(len(names)):
            others = ~(1 << i)
            succ.append(structure_up[i] & hardening_up[i] & others)
            pred.append(structure_down[i] & hardening_down[i] & others)
        if any(s & p for s, p in zip(succ, pred)):
            # Distinct configurations that tie on every safety axis would
            # create 2-cycles; collapse is the caller's job.
            raise ExplorationError(
                "safety order is not antisymmetric over these layouts"
            )
        # The Hasse diagram: a -> b unless some configuration lies
        # strictly between them, i.e. b is safer than another successor.
        self._hasse = []
        self._hasse_pred = [[] for _ in names]
        for a, mask in enumerate(succ):
            covered = 0
            for c in _members(mask):
                covered |= succ[c]
            covers = _members(mask & ~covered)
            self._hasse.append(covers)
            for b in covers:
                self._hasse_pred[b].append(a)
        self._order = self._generations()

    def _generations(self):
        """Kahn's walk, one generation at a time: the sources in layout
        order, then each node whose last Hasse predecessor was just
        visited, in the order those edges are listed."""
        indegree = [len(preds) for preds in self._hasse_pred]
        generation = [i for i, d in enumerate(indegree) if d == 0]
        order = []
        while generation:
            order.extend(generation)
            following = []
            for a in generation:
                for b in self._hasse[a]:
                    indegree[b] -= 1
                    if indegree[b] == 0:
                        following.append(b)
            generation = following
        return [self._names[i] for i in order]

    def _named(self, mask):
        names = self._names
        return {names[i] for i in _members(mask)}

    # -- structure ----------------------------------------------------------
    def __len__(self):
        return len(self._names)

    def edges(self):
        """The Hasse diagram's edges, grouped by source in layout order."""
        names = self._names
        return [(names[a], names[b])
                for a, covers in enumerate(self._hasse) for b in covers]

    def bit(self, name):
        """The single-bit mask standing for ``name``."""
        return 1 << self._index[name]

    def less_safe_mask(self, name):
        """The mask of all configurations strictly less safe than ``name``."""
        return self._pred[self._index[name]]

    def safer_than(self, name):
        """All configurations strictly safer than ``name``."""
        return self._named(self._succ[self._index[name]])

    def less_safe_than(self, name):
        return self._named(self._pred[self._index[name]])

    def hasse_predecessors(self, name):
        """The configurations ``name`` covers, in layout order."""
        names = self._names
        return [names[a] for a in self._hasse_pred[self._index[name]]]

    def minimal_elements(self):
        """Least-safe configurations (sources of the DAG)."""
        return [name for name, pred in zip(self._names, self._pred)
                if not pred]

    def maximal_elements(self, subset=None):
        """Safest configurations (sinks), optionally within ``subset``,
        sorted by name."""
        nodes = set(self._names) if subset is None else set(subset)
        within = 0
        for name in nodes:
            within |= self.bit(name)
        succ, index = self._succ, self._index
        return sorted(n for n in nodes if not succ[index[n]] & within)

    def topological_order(self):
        """Least-safe first (the labelling order the explorer uses)."""
        return list(self._order)

    def check_invariants(self):
        """Poset sanity: acyclic, reduction-consistent, and the full
        relation transitively closed with the down masks its transpose
        (the ancestor and descendant queries read them directly)."""
        if len(self._order) != len(self._names):
            raise ExplorationError("Hasse diagram has a cycle")
        for a, b in self.edges():
            if not safety_leq(self.layouts[a], self.layouts[b]):
                raise ExplorationError(
                    "edge %s -> %s contradicts the safety order" % (a, b)
                )
        succ, names = self._succ, self._names
        transpose = [0] * len(names)
        for a, mask in enumerate(succ):
            for b in _members(mask):
                if succ[b] & ~mask:
                    raise ExplorationError(
                        "safety relation is not transitively closed at "
                        "%s -> %s" % (names[a], names[b])
                    )
                transpose[b] |= 1 << a
        if transpose != self._pred:
            raise ExplorationError(
                "less-safe masks are not the transpose of the safer masks"
            )
        return True
