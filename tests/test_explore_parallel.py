"""Wavefront engine tests: result identity, caching, pickling.

The engine's contract is strong: whatever the worker count and cache
state, the answer must be *identical* to the serial reference walker —
same recommended list, same pruned set, same measurements in the same
iteration order.  These tests pin that down property-style over random
sub-posets, budgets and seeds, and exercise the two capabilities the
redesigned API exists for: spawn-pool fan-out and the content-addressed
evaluation cache.
"""

import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ExplorationError
from repro.explore import (
    EvaluationCache,
    ExplorationRequest,
    Evaluator,
    ProfileEvaluator,
    SyntheticEvaluator,
    antichain_waves,
    explore,
    explore_serial,
    generate_fig6_space,
    get_evaluator,
)
from repro.explore.configspace import generate_full_space
from repro.explore.parallel import run_exploration
from repro.explore.poset import ConfigPoset

FULL_SPACE = generate_full_space()


def assert_identical(engine, serial):
    """The engine result must match the reference walker exactly."""
    assert engine.recommended == serial.recommended
    assert engine.pruned == serial.pruned
    assert engine.passing == serial.passing
    assert engine.measurements == serial.measurements
    # Even the dict iteration order (ties broken downstream) matches.
    assert list(engine.measurements) == list(serial.measurements)


class TestWavefrontMatchesSerial:
    @settings(max_examples=40, deadline=None)
    @given(
        indices=st.sets(st.integers(0, len(FULL_SPACE) - 1),
                        min_size=1, max_size=40),
        budget=st.sampled_from(
            [0, 300_000, 500_000, 700_000, 900_000, 1_200_000]),
        seed=st.integers(0, 9),
        monotonic=st.booleans(),
    )
    def test_engine_identity_over_random_posets(self, indices, budget,
                                                seed, monotonic):
        request = ExplorationRequest(
            layouts=[FULL_SPACE[i] for i in sorted(indices)],
            evaluator=SyntheticEvaluator(seed=seed),
            budget=budget,
            assume_monotonic=monotonic,
        )
        assert_identical(run_exploration(request), explore_serial(request))

    def test_parallel_pool_identity(self):
        """jobs=2 spawns real workers; the answer must not move."""
        request = ExplorationRequest(
            layouts=generate_fig6_space(),
            evaluator=ProfileEvaluator(app="redis"),
            budget=500_000,
        )
        serial = explore_serial(request)
        pooled = run_exploration(ExplorationRequest(
            layouts=request.layouts, evaluator=request.evaluator,
            budget=request.budget, jobs=2,
        ))
        assert_identical(pooled, serial)
        assert pooled.waves > 1

    def test_waves_partition_into_antichains(self):
        poset = ConfigPoset(generate_fig6_space())
        waves = antichain_waves(poset)
        seen = [name for wave in waves for name in wave]
        assert sorted(seen) == sorted(poset.layouts)  # exactly once each
        decided = set()
        for wave in waves:
            for name in wave:
                # Every ancestor was scheduled in a strictly earlier wave.
                assert poset.less_safe_than(name) <= decided
            decided.update(wave)


class TestEvaluationCache:
    def request(self, cache, jobs=1, budget=500_000):
        return ExplorationRequest(
            layouts=generate_fig6_space(),
            evaluator=ProfileEvaluator(app="redis"),
            budget=budget, jobs=jobs, cache=cache,
        )

    def test_warm_rerun_measures_nothing(self, tmp_path):
        cache = EvaluationCache(str(tmp_path / "cache"))
        cold = explore(self.request(cache))
        warm = explore(self.request(cache))
        assert cold.fresh_evaluations == cold.evaluations > 0
        assert cold.cache_hits == 0
        assert warm.fresh_evaluations == 0
        assert warm.cache_hits == cold.evaluations
        assert warm.engine_stats()["hit_rate"] == 1.0
        assert_identical(warm, cold)

    def test_cache_does_not_change_the_answer(self, tmp_path):
        cached = explore(self.request(EvaluationCache(str(tmp_path))))
        assert_identical(cached, explore(self.request(cache=None)))

    def test_cache_shared_across_budgets(self, tmp_path):
        """Budgets change what is pruned, not what a layout measures."""
        cache = EvaluationCache(str(tmp_path))
        explore(self.request(cache, budget=800_000))
        relaxed = explore(self.request(cache, budget=400_000))
        assert relaxed.cache_hits > 0

    def test_warm_parallel_rerun(self, tmp_path):
        cache = EvaluationCache(str(tmp_path))
        explore(self.request(cache))
        warm = explore(self.request(cache, jobs=2))
        assert warm.fresh_evaluations == 0
        assert warm.engine_stats()["hit_rate"] == 1.0

    def test_summary_identical_cold_and_warm(self, tmp_path):
        """Trajectory points must not depend on cache temperature."""
        cache = EvaluationCache(str(tmp_path))
        cold = explore(self.request(cache))
        warm = explore(self.request(cache))
        assert cold.summary() == warm.summary()
        assert cold.engine_stats() != warm.engine_stats()


class TestEvaluatorPickling:
    def test_registry_evaluators_pickle(self):
        for evaluator in (ProfileEvaluator(app="redis"),
                          ProfileEvaluator(app="nginx"),
                          SyntheticEvaluator(seed=3)):
            clone = pickle.loads(pickle.dumps(evaluator))
            layout = FULL_SPACE[0]
            assert clone(layout) == evaluator(layout)
            assert clone.key() == evaluator.key()

    def test_pickles_stay_small(self):
        """Lazy profile resolution keeps the worker payload tiny."""
        assert len(pickle.dumps(ProfileEvaluator(app="redis"))) < 256

    def test_spawn_pool_round_trip(self):
        """An evaluator survives an actual spawn-context pool."""
        import multiprocessing

        from repro.explore.parallel import _pool_evaluate

        evaluator = ProfileEvaluator(app="redis")
        layouts = generate_fig6_space()[:6]
        with multiprocessing.get_context("spawn").Pool(2) as pool:
            results = pool.map(_pool_evaluate,
                               [(evaluator, l) for l in layouts])
        assert [value for ok, value in results if ok] == \
            [evaluator(l) for l in layouts]

    def test_get_evaluator_unknown_name(self):
        with pytest.raises(ExplorationError, match="unknown evaluator"):
            get_evaluator("wrk-on-real-hardware")


class FailsOn(Evaluator):
    """Picklable evaluator that blows up on one named layout."""

    name = "fails-on"  # deliberately not registered

    def __init__(self, victim):
        self.victim = victim
        self.inner = ProfileEvaluator(app="redis")

    def params(self):
        return {"victim": self.victim}

    def __call__(self, layout):
        if layout.name == self.victim:
            raise RuntimeError("measurement rig lost power")
        return self.inner(layout)


class TestExceptionSafety:
    def expect_partial(self, request):
        with pytest.raises(ExplorationError) as info:
            explore(request)
        partial = info.value.partial
        assert partial is not None
        assert partial.measurements  # earlier waves were kept
        assert "A/none" in partial.measurements
        assert "C/none" not in partial.measurements
        return info.value

    def request(self, **kw):
        # C/none sits mid-poset: A/none is strictly below it, the
        # hardened C variants strictly above.
        return ExplorationRequest(
            layouts=generate_fig6_space(),
            evaluator=FailsOn("C/none"), budget=500_000, **kw,
        )

    def test_serial_engine_attaches_partial_result(self):
        error = self.expect_partial(self.request())
        assert "C/none" in str(error)
        assert "lost power" in str(error)

    def test_pool_engine_attaches_partial_result(self):
        error = self.expect_partial(self.request(jobs=2))
        assert "RuntimeError" in str(error)

    def test_reference_walker_attaches_partial_result(self):
        with pytest.raises(ExplorationError) as info:
            explore_serial(self.request())
        assert "A/none" in info.value.partial.measurements


class TestRequestValidation:
    def test_jobs_must_be_positive(self):
        with pytest.raises(ExplorationError, match="jobs"):
            explore(ExplorationRequest(
                layouts=generate_fig6_space(),
                evaluator=SyntheticEvaluator(), budget=1, jobs=0,
            ))

    def test_closures_cannot_ride_the_pool(self):
        with pytest.raises(ExplorationError, match="worker pool"):
            explore(ExplorationRequest(
                layouts=generate_fig6_space(),
                evaluator=lambda layout: 1.0, budget=1, jobs=2,
            ))

    def test_closures_cannot_be_cached(self, tmp_path):
        with pytest.raises(ExplorationError, match="cache"):
            explore(ExplorationRequest(
                layouts=generate_fig6_space(),
                evaluator=lambda layout: 1.0, budget=1,
                cache=str(tmp_path),
            ))

    def test_request_plus_legacy_arguments_rejected(self):
        with pytest.raises(TypeError):
            explore(ExplorationRequest(
                layouts=generate_fig6_space(),
                evaluator=SyntheticEvaluator(), budget=1,
            ), budget=2)
