"""The configuration poset as a DAG (Fig. 5, Fig. 8).

Nodes are configurations; a directed edge a -> b means "b is
probabilistically safer than a".  The stored graph is the transitive
reduction (the Hasse diagram), which is what Fig. 8 draws.

The safety order is the conjunction of a structural and a hardening
factor (:mod:`repro.explore.safety`), and layouts share few distinct
values of each.  The build evaluates each factor once per pair of
distinct keys and reads the full relation off the two tables, in layout
order; since the order is a preorder, that relation is already
transitively closed.
"""

from __future__ import annotations

import networkx as nx

from repro.errors import ExplorationError
from repro.explore.safety import (
    hardening_key,
    hardening_leq,
    safety_leq,
    structure_key,
    structure_leq,
)


def _factor_table(layouts, key, leq):
    """Class ``layouts`` by ``key``; return (class of each layout, leq
    table over the classes), with ``leq`` run on one layout per class."""
    keys = [key(layout) for layout in layouts]
    representatives = {}
    for k, layout in zip(keys, layouts):
        representatives.setdefault(k, layout)
    index = {k: i for i, k in enumerate(representatives)}
    classes = list(representatives.values())
    return ([index[k] for k in keys],
            [[leq(a, b) for b in classes] for a in classes])


class ConfigPoset:
    """A poset over :class:`~repro.apps.base.ComponentLayout` objects."""

    def __init__(self, layouts):
        names = [layout.name for layout in layouts]
        if len(set(names)) != len(names):
            raise ExplorationError("duplicate configuration names")
        self.layouts = {layout.name: layout for layout in layouts}
        structure, structure_table = _factor_table(
            layouts, structure_key, structure_leq)
        hardening, hardening_table = _factor_table(
            layouts, hardening_key, hardening_leq)
        keyed = list(zip(names, structure, hardening))
        successors = {}
        for a, s, h in keyed:
            s_row, h_row = structure_table[s], hardening_table[h]
            successors[a] = [
                b for b, sb, hb in keyed if s_row[sb] and h_row[hb] and b != a
            ]
        safer = {a: set(bs) for a, bs in successors.items()}
        if any(a in safer[b] for a, bs in successors.items() for b in bs):
            # Distinct configurations that tie on every safety axis would
            # create 2-cycles; collapse is the caller's job.
            raise ExplorationError(
                "safety order is not antisymmetric over these layouts"
            )
        full = nx.DiGraph()
        full.add_nodes_from(names)
        full.add_edges_from((a, b) for a in names for b in successors[a])
        #: The Hasse diagram (transitive reduction): a -> b unless some
        #: configuration lies strictly between them.
        self.graph = nx.DiGraph()
        self.graph.add_nodes_from(names)
        for a in names:
            covered = set().union(*(safer[c] for c in successors[a]))
            self.graph.add_edges_from(
                (a, b) for b in successors[a] if b not in covered
            )
        self._full = full

    # -- structure ----------------------------------------------------------
    def __len__(self):
        return len(self.graph)

    def edges(self):
        return list(self.graph.edges)

    def safer_than(self, name):
        """All configurations strictly safer than ``name``."""
        return set(self._full.succ[name])

    def less_safe_than(self, name):
        return set(self._full.pred[name])

    def minimal_elements(self):
        """Least-safe configurations (sources of the DAG)."""
        return [n for n in self.graph if self.graph.in_degree(n) == 0]

    def maximal_elements(self, subset=None):
        """Safest configurations (sinks), optionally within ``subset``,
        sorted by name."""
        nodes = set(self.graph) if subset is None else set(subset)
        return sorted(
            n for n in nodes if nodes.isdisjoint(self._full.succ[n])
        )

    def topological_order(self):
        """Least-safe first (the labelling order the explorer uses)."""
        return list(nx.topological_sort(self.graph))

    def check_invariants(self):
        """Poset sanity: acyclic, reduction-consistent, and the full
        relation transitively closed (the ancestor and descendant queries
        read it directly)."""
        if not nx.is_directed_acyclic_graph(self.graph):
            raise ExplorationError("Hasse diagram has a cycle")
        for a, b in self.graph.edges:
            if not safety_leq(self.layouts[a], self.layouts[b]):
                raise ExplorationError(
                    "edge %s -> %s contradicts the safety order" % (a, b)
                )
        succ = self._full.succ
        for a, b in self._full.edges:
            if not succ[b].keys() <= succ[a].keys():
                raise ExplorationError(
                    "safety relation is not transitively closed at %s -> %s"
                    % (a, b)
                )
        return True
