"""Explorer tests: safety order, poset, budget pruning."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.base import ComponentLayout
from repro.core.hardening import FIG6_HARDENING, Hardening
from repro.errors import ExplorationError
from repro.explore import (
    ConfigPoset,
    ExplorationRequest,
    Measurement,
    ProfileEvaluator,
    SyntheticEvaluator,
    as_measurement,
    explore,
    generate_fig6_space,
    hardening_subsets,
    safety_leq,
)
from repro.explore.configspace import FIG6_STRATEGIES, strategy_of
from repro.explore.safety import comparable, partition_refines


def layout(name, partition, hardening=None, **kw):
    return ComponentLayout(name, partition, hardening=hardening or {}, **kw)


ONE = ({"lwip", "uksched", "app"},)
SPLIT = ({"uksched", "app"}, {"lwip"})
THREE = ({"app"}, {"lwip"}, {"uksched"})


class TestPartitionRefinement:
    def test_reflexive(self):
        a = layout("a", SPLIT)
        assert partition_refines(a, a)

    def test_finer_refines_coarser(self):
        assert partition_refines(layout("3", THREE), layout("1", ONE))
        assert partition_refines(layout("2", SPLIT), layout("1", ONE))
        assert not partition_refines(layout("1", ONE), layout("2", SPLIT))

    def test_incomparable_partitions(self):
        b = layout("b", ({"lwip", "app"}, {"uksched"}))
        c = layout("c", ({"uksched", "app"}, {"lwip"}))
        assert not partition_refines(b, c)
        assert not partition_refines(c, b)

    def test_rest_group_matters(self):
        """D = (rest | app) does not refine C = (rest | lwip)."""
        d = layout("d", ({"lwip", "uksched"}, {"app"}))
        c = layout("c", ({"uksched", "app"}, {"lwip"}))
        assert not partition_refines(d, c)


class TestSafetyOrder:
    def test_paper_example_chain(self):
        """C1 (nothing) <= C2 (two compartments) <= C3 (C2 + hardening)."""
        c1 = layout("c1", ONE, mechanism="none")
        c2 = layout("c2", SPLIT)
        c3 = layout("c3", SPLIT, hardening={"lwip": {Hardening.CFI}})
        assert safety_leq(c1, c2)
        assert safety_leq(c2, c3)
        assert safety_leq(c1, c3)  # transitivity
        assert not safety_leq(c3, c1)

    def test_hardening_pointwise(self):
        weak = layout("w", SPLIT, hardening={"lwip": {Hardening.CFI}})
        strong = layout("s", SPLIT, hardening={
            "lwip": {Hardening.CFI, Hardening.KASAN},
        })
        mixed = layout("m", SPLIT, hardening={"app": {Hardening.CFI}})
        assert safety_leq(weak, strong)
        assert not safety_leq(strong, weak)
        assert not comparable(weak, mixed)

    def test_mechanism_strength(self):
        mpk = layout("mpk", SPLIT, mechanism="intel-mpk")
        ept = layout("ept", SPLIT, mechanism="vm-ept")
        assert safety_leq(mpk, ept)
        assert not safety_leq(ept, mpk)

    def test_sharing_strength(self):
        shared = layout("sh", SPLIT, sharing="shared-stack")
        dss = layout("dss", SPLIT, sharing="dss")
        heap = layout("heap", SPLIT, sharing="heap")
        assert safety_leq(shared, dss)
        assert safety_leq(dss, heap)

    def test_gate_flavour(self):
        light = layout("l", SPLIT, mpk_gate="light")
        full = layout("f", SPLIT, mpk_gate="full")
        assert safety_leq(light, full)
        assert not safety_leq(full, light)

    def test_single_compartment_below_everything(self):
        lone = layout("lone", ONE, mechanism="intel-mpk")
        iso = layout("iso", SPLIT, mechanism="intel-mpk")
        assert safety_leq(lone, iso)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_order_is_transitive(self, data):
        partitions = [ONE, SPLIT, THREE,
                      ({"lwip", "app"}, {"uksched"})]
        blocks = [frozenset(), frozenset({Hardening.CFI}), FIG6_HARDENING]

        def any_layout(tag):
            p = data.draw(st.sampled_from(partitions), label=tag + "-part")
            h = {
                c: data.draw(st.sampled_from(blocks), label=tag + "-" + c)
                for c in ("lwip", "uksched", "app")
            }
            return layout(tag, p, hardening=h)

        a, b, c = (any_layout(t) for t in "abc")
        if safety_leq(a, b) and safety_leq(b, c):
            assert safety_leq(a, c)


class TestConfigSpace:
    def test_80_configurations(self):
        assert len(generate_fig6_space()) == 80

    def test_five_strategies_sixteen_hardenings(self):
        layouts = generate_fig6_space()
        strategies = {strategy_of(l) for l in layouts}
        assert strategies == set(FIG6_STRATEGIES)
        per = [l for l in layouts if strategy_of(l) == "A"]
        assert len(per) == 16

    def test_hardening_subsets_cover_power_set(self):
        subsets = hardening_subsets(components=("x", "y"))
        assert len(subsets) == 4

    def test_single_group_strategy_uses_no_mechanism(self):
        layouts = generate_fig6_space()
        a_none = next(l for l in layouts if l.name == "A/none")
        assert a_none.mechanism == "none"
        e_none = next(l for l in layouts if l.name == "E/none")
        assert e_none.mechanism == "intel-mpk"


class TestPoset:
    def test_poset_over_fig6_space(self):
        poset = ConfigPoset(generate_fig6_space())
        assert len(poset) == 80
        assert poset.check_invariants()

    def test_least_safe_is_a_none(self):
        poset = ConfigPoset(generate_fig6_space())
        assert poset.minimal_elements() == ["A/none"]

    def test_five_branches_from_strategies(self):
        """Fig. 8: 5 basic strategies, each spawning a hardening branch."""
        poset = ConfigPoset(generate_fig6_space())
        unhardened = ["%s/none" % s for s in "ABCDE"]
        for name in unhardened:
            assert name in poset.layouts
        # E is safer than B and C (it refines both), but not than D.
        assert "E/none" in poset.safer_than("B/none")
        assert "E/none" in poset.safer_than("C/none")
        assert "E/none" not in poset.safer_than("D/none")

    def test_duplicate_names_rejected(self):
        layouts = [layout("same", ONE), layout("same", SPLIT)]
        with pytest.raises(ExplorationError):
            ConfigPoset(layouts)

    def test_maximal_elements_are_sinks(self):
        poset = ConfigPoset(generate_fig6_space())
        tops = poset.maximal_elements()
        for name in tops:
            assert not poset.safer_than(name)


class TestExplorer:
    evaluator = ProfileEvaluator(app="redis")

    def run(self, budget, **kw):
        return explore(ExplorationRequest(
            layouts=generate_fig6_space(), evaluator=self.evaluator,
            budget=budget, **kw,
        ))

    def test_pruning_matches_exhaustive_answer(self):
        """Monotone pruning must not change the recommendation set."""
        pruned = self.run(budget=500_000)
        full = self.run(budget=500_000, assume_monotonic=False)
        assert pruned.recommended == full.recommended
        assert pruned.evaluations < full.evaluations
        assert full.evaluations == 80

    def test_pruning_limits_combinatorial_explosion(self):
        """"we observe that this significantly limits combinatorial
        explosion" — at least a third of the space goes unmeasured."""
        result = self.run(budget=500_000)
        assert len(result.pruned) >= len(result.poset) / 3

    def test_recommendations_meet_budget(self):
        result = self.run(budget=500_000)
        for name in result.recommended:
            assert self.evaluator(result.poset.layouts[name]).value >= 500_000

    def test_recommendations_are_maximal(self):
        result = self.run(budget=500_000)
        for name in result.recommended:
            safer = result.poset.safer_than(name)
            assert not (safer & result.passing)

    def test_impossible_budget_recommends_nothing(self):
        result = self.run(budget=10**12)
        assert result.recommended == []
        # The single minimal element is measured, everything else pruned.
        assert result.evaluations == 1

    def test_trivial_budget_recommends_safest(self):
        result = self.run(budget=0)
        assert result.passing == set(result.poset.layouts)
        assert set(result.recommended) == \
            set(result.poset.maximal_elements())

    def test_empty_space_rejected(self):
        with pytest.raises(ExplorationError):
            explore(ExplorationRequest(
                layouts=[], evaluator=self.evaluator, budget=1,
            ))

    def test_summary_fields(self):
        result = self.run(budget=500_000)
        summary = result.summary()
        assert summary["configurations"] == 80
        assert summary["evaluated"] + summary["pruned"] == 80

    def test_legacy_positional_signature_rejected(self):
        """explore() takes one ExplorationRequest and nothing else."""
        layouts = generate_fig6_space()
        with pytest.raises(TypeError):
            explore(layouts, lambda layout: 1.0, budget=500_000)
        with pytest.raises(ExplorationError, match="ExplorationRequest"):
            explore(layouts)


class TestMeasurement:
    def test_value_coerced_to_float(self):
        m = Measurement(5)
        assert m.value == 5.0 and isinstance(m.value, float)
        assert float(m) == 5.0
        assert m.objective == "throughput"

    def test_rejects_bad_objective_and_value(self):
        with pytest.raises(ExplorationError):
            Measurement(1.0, objective="latency")
        with pytest.raises(ExplorationError):
            Measurement("fast")
        with pytest.raises(ExplorationError):
            Measurement(True)

    def test_round_trips_through_dict(self):
        m = Measurement(3.5, "tail_at_rate", meta={"windows": 4})
        assert Measurement.from_dict(m.to_dict()) == m

    def test_no_ordering_with_numbers(self):
        """Migrations to .value must be explicit, not silent."""
        with pytest.raises(TypeError):
            Measurement(1.0) >= 0  # noqa: B015

    def test_bare_float_rejected(self):
        with pytest.raises(ExplorationError, match="return a Measurement"):
            as_measurement(1234.0)
        # A Measurement passes through unchanged.
        direct = Measurement(1.0, "slo_headroom")
        assert as_measurement(direct) is direct

    def test_shim_rejects_non_numeric(self):
        with pytest.raises(ExplorationError):
            as_measurement(None)
        with pytest.raises(ExplorationError):
            as_measurement(True)

    def test_rejection_names_the_evaluator(self):
        evaluator = SyntheticEvaluator().for_objective("slo_headroom")
        with pytest.raises(ExplorationError, match="SyntheticEvaluator"):
            as_measurement(2.0, evaluator)


class TestObjectiveApi:
    def test_for_objective_clones(self):
        base = SyntheticEvaluator(seed=7)
        retargeted = base.for_objective("tail_at_rate")
        assert retargeted is not base
        assert retargeted.objective == "tail_at_rate"
        assert base.objective == "throughput"
        assert base.for_objective("throughput") is base

    def test_objective_in_cache_key(self):
        base = SyntheticEvaluator(seed=7)
        other = base.for_objective("slo_headroom")
        assert base.key() != other.key()

    def test_unsupported_objective_rejected(self):
        profile = ProfileEvaluator(app="redis")
        with pytest.raises(ExplorationError):
            profile.for_objective("tail_at_rate")
        with pytest.raises(ExplorationError):
            profile.for_objective("best-effort")

    def test_request_objective_threads_to_result(self):
        result = explore(ExplorationRequest(
            layouts=generate_fig6_space(),
            evaluator=SyntheticEvaluator(),
            budget=0, objective="slo_headroom",
        ))
        assert result.objective == "slo_headroom"
        assert result.summary()["objective"] == "slo_headroom"
        for value in result.measurements.values():
            assert value.objective == "slo_headroom"

    def test_request_inherits_evaluator_objective(self):
        result = explore(ExplorationRequest(
            layouts=generate_fig6_space(),
            evaluator=SyntheticEvaluator().for_objective("tail_at_rate"),
            budget=-10**9,
        ))
        assert result.objective == "tail_at_rate"

    def test_bare_float_evaluator_fails_explore(self):
        with pytest.raises(ExplorationError, match="return a Measurement"):
            explore(ExplorationRequest(
                layouts=generate_fig6_space(),
                evaluator=lambda layout: 1.0,
                budget=0,
            ))
