"""The factored bitset poset build against the brute-force reference.

:class:`ConfigPoset` reads the safety relation off per-factor masks and
computes the Hasse diagram by covering.  The reference here is the
definition, built from ``naive_edges`` alone: ``safety_leq`` over all
ordered pairs, networkx's transitive reduction and topological sort, and
a BFS per ancestor/descendant query.
"""

import json
import os
import subprocess
import sys

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.apps.base import COMPONENTS, ComponentLayout
from repro.core.hardening import FIG6_HARDENING, Hardening
from repro.errors import ExplorationError
from repro.explore.configspace import generate_fig6_space, generate_full_space
from repro.explore.poset import ConfigPoset
from repro.explore.safety import MECHANISM_RANK, SHARING_RANK, safety_leq


def naive_edges(layouts):
    return [(a.name, b.name) for a in layouts for b in layouts
            if a.name != b.name and safety_leq(a, b)]


def reference_hasse(layouts, full):
    """The transitive reduction of ``full``, nodes and edges in layout
    order (the order the explorer's walk must follow)."""
    position = {layout.name: i for i, layout in enumerate(layouts)}
    hasse = nx.DiGraph()
    hasse.add_nodes_from(layout.name for layout in layouts)
    hasse.add_edges_from(sorted(
        nx.transitive_reduction(full).edges,
        key=lambda edge: (position[edge[0]], position[edge[1]])))
    return hasse


def assert_matches_reference(layouts):
    poset = ConfigPoset(layouts)
    names = [layout.name for layout in layouts]
    full = nx.DiGraph()
    full.add_nodes_from(names)
    full.add_edges_from(naive_edges(layouts))
    hasse = reference_hasse(layouts, full)
    assert list(poset.layouts) == names
    assert len(poset) == len(names)
    assert poset.edges() == list(hasse.edges)
    assert poset.topological_order() == list(nx.topological_sort(hasse))
    for name in names:
        below = nx.ancestors(full, name)
        assert poset.less_safe_than(name) == below
        assert poset.safer_than(name) == nx.descendants(full, name)
        assert {other for other in names if
                poset.less_safe_mask(name) & poset.bit(other)} == below
        assert poset.hasse_predecessors(name) == \
            list(hasse.predecessors(name))
    assert poset.minimal_elements() == \
        [n for n in names if full.in_degree(n) == 0]
    sinks = sorted(n for n in full if full.out_degree(n) == 0)
    assert poset.maximal_elements() == sinks
    assert poset.check_invariants()
    return poset


def renamed(layouts, prefix):
    return [ComponentLayout(prefix + layout.name, layout.partition,
                            hardening=layout.hardening,
                            mechanism=layout.mechanism,
                            mpk_gate=layout.mpk_gate, sharing=layout.sharing)
            for layout in layouts]


def isolated(layouts):
    """Drop the single-compartment strategy, whose layouts tie across
    mechanism sweeps (one compartment ranks as "none" everywhere)."""
    return [layout for layout in layouts if layout.n_compartments > 1]


SPACES = {
    "full": generate_full_space,
    "vm-ept-heap": lambda: generate_fig6_space("vm-ept", sharing="heap"),
    "light-shared-stack": lambda: generate_fig6_space(
        mpk_gate="light", sharing="shared-stack"),
    "mixed": lambda: (
        generate_fig6_space()
        + renamed(isolated(generate_fig6_space("vm-ept", sharing="heap")),
                  "ept:")
        + renamed(isolated(generate_fig6_space(
            mpk_gate="light", sharing="shared-stack")), "light:")
        + renamed(isolated(generate_fig6_space("cheri")), "cheri:")
    ),
}


@pytest.mark.parametrize("space", sorted(SPACES))
def test_build_matches_reference(space):
    assert_matches_reference(SPACES[space]())


def test_shuffled_layout_order_keeps_layout_order():
    layouts = generate_fig6_space()[::-1]
    poset = assert_matches_reference(layouts)
    assert list(poset.layouts) == [layout.name for layout in layouts]


EXTRA = ("vfscore",)
BLOCKS = (frozenset(), frozenset({Hardening.CFI}), FIG6_HARDENING)


@st.composite
def layouts(draw):
    """Small layout lists: partial partitions (unmentioned components
    fall into the default group), mixed mechanisms, sharing and gates."""
    universe = COMPONENTS + EXTRA
    result = []
    for index in range(draw(st.integers(1, 7))):
        mentioned = draw(st.lists(st.sampled_from(universe), unique=True,
                                  max_size=len(universe)))
        slots = [draw(st.integers(0, 2)) for _ in mentioned]
        groups = [{c for c, slot in zip(mentioned, slots) if slot == g}
                  for g in range(3)]
        partition = [groups[0]] + [g for g in groups[1:] if g]
        hardening = {c: draw(st.sampled_from(BLOCKS))
                     for c in draw(st.lists(st.sampled_from(universe),
                                            unique=True))}
        result.append(ComponentLayout(
            "L%d" % index, partition, hardening=hardening,
            mechanism=draw(st.sampled_from(sorted(MECHANISM_RANK))),
            mpk_gate=draw(st.sampled_from(("light", "full"))),
            sharing=draw(st.sampled_from(sorted(SHARING_RANK))),
        ))
    return result


@settings(max_examples=150, deadline=None)
@given(layouts())
def test_random_layouts_match_reference(layout_list):
    edges = set(naive_edges(layout_list))
    if any((b, a) in edges for a, b in edges):
        with pytest.raises(ExplorationError):
            ConfigPoset(layout_list)
    else:
        assert_matches_reference(layout_list)


def test_tie_on_every_axis_is_rejected():
    """Listing a default-group component, reordering the other groups
    and an empty hardening entry change nothing the order reads."""
    a = ComponentLayout("a", ({"app"}, {"lwip"}, {"uksched"}))
    b = ComponentLayout("b", ({"app", "newlib"}, {"uksched"}, {"lwip"}),
                        hardening={"app": frozenset()})
    with pytest.raises(ExplorationError, match="antisymmetric"):
        ConfigPoset([a, b])


def test_duplicate_names_are_rejected():
    a = ComponentLayout("same", ({"app"},))
    b = ComponentLayout("same", ({"app"}, {"lwip"}))
    with pytest.raises(ExplorationError, match="duplicate"):
        ConfigPoset([a, b])


ORDER_SCRIPT = """
import json
from repro.explore import ExplorationRequest, ProfileEvaluator
from repro.explore.configspace import generate_full_space
from repro.explore.explorer import explore_serial
from repro.explore.poset import ConfigPoset

layouts = generate_full_space()
poset = ConfigPoset(layouts)
result = explore_serial(ExplorationRequest(
    layouts=layouts, evaluator=ProfileEvaluator(app="redis"),
    budget=500_000))
print(json.dumps([poset.edges(), poset.topological_order(),
                  list(result.measurements)]))
"""


def test_orders_do_not_depend_on_the_hash_seed():
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    outputs = []
    for seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        completed = subprocess.run(
            [sys.executable, "-c", ORDER_SCRIPT], env=env, check=True,
            capture_output=True, text=True, timeout=300,
        )
        outputs.append(json.loads(completed.stdout))
    assert outputs[0] == outputs[1]
