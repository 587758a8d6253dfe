"""Performance labelling and budget pruning (Section 5, "in practice").

The user supplies an evaluator (the test script: wrk, redis-benchmark,
...) and a performance budget.  The explorer walks the poset from the
least-safe (fastest) configurations outward; assuming performance
decreases monotonically as safety increases, it "can safely stop
evaluating a path as soon as a threshold is reached" — any configuration
with a failing ancestor is pruned unmeasured.  The answer is the set of
*maximal elements* among configurations meeting the budget (the green
sinks of Fig. 5, the stars of Fig. 8).

Entry points:

* :class:`ExplorationRequest` + :func:`explore` — the evaluation API.
  A request names a picklable :class:`~repro.explore.evaluators.Evaluator`
  (or wraps a callable), and may ask for a worker pool
  (``jobs``) and a content-addressed cache (``cache``); the wavefront
  engine in :mod:`repro.explore.parallel` does the walking.
* :func:`explore_serial` — the strictly serial reference walker.  The
  engine is required to be *result-identical* to it (same recommended,
  measurements and pruned sets); tests and the certificate checker use
  it as the oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Sequence

from repro.errors import ExplorationError
from repro.explore.cache import resolve_cache
from repro.explore.evaluators import resolve_evaluator
from repro.explore.measurement import OBJECTIVES, as_measurement
from repro.explore.poset import ConfigPoset


@dataclass
class ExplorationRequest:
    """Everything one exploration run needs, in one picklable bundle.

    Args:
        layouts: the configurations to explore
            (:class:`~repro.apps.base.ComponentLayout` objects).
        evaluator: an :class:`~repro.explore.evaluators.Evaluator`
            instance, a registry name (e.g. ``"profile"``), or a
            callable (wrapped; serial-only, uncacheable).
        budget: minimum acceptable performance (in the objective's
            unit — requests/s for ``throughput``, negated virtual
            microseconds for ``tail_at_rate``, headroom for
            ``slo_headroom``).
        assume_monotonic: enable monotone path pruning (disable to
            verify the assumption — the ablation benchmark does).
        jobs: worker processes; ``1`` evaluates inline, ``> 1`` fans
            each wave out to a ``spawn``-context pool (the evaluator
            must then be ``parallel_safe``).
        cache: an :class:`~repro.explore.cache.EvaluationCache`, a cache
            directory path, or ``None`` to re-measure everything.
        objective: one of :data:`~repro.explore.measurement.OBJECTIVES`
            to rank layouts under, or ``None`` to keep the evaluator's
            own objective.  The evaluator must support it
            (:meth:`~repro.explore.evaluators.Evaluator.for_objective`).
    """

    layouts: Sequence[Any]
    evaluator: Any
    budget: float
    assume_monotonic: bool = True
    jobs: int = 1
    cache: Any = None
    objective: Any = None

    def resolved(self):
        """(layouts, evaluator, cache) with specs coerced and validated."""
        layouts = list(self.layouts)
        if not layouts:
            raise ExplorationError("nothing to explore")
        evaluator = resolve_evaluator(self.evaluator)
        if self.objective is not None:
            if self.objective not in OBJECTIVES:
                raise ExplorationError(
                    "unknown objective %r (one of: %s)"
                    % (self.objective, ", ".join(OBJECTIVES))
                )
            evaluator = evaluator.for_objective(self.objective)
        cache = resolve_cache(self.cache)
        if int(self.jobs) < 1:
            raise ExplorationError("jobs must be >= 1, got %r" % self.jobs)
        if int(self.jobs) > 1 and not evaluator.parallel_safe:
            raise ExplorationError(
                "evaluator %r cannot run in a worker pool; register a "
                "named picklable Evaluator instead of a callable"
                % evaluator
            )
        if cache is not None and not evaluator.cacheable:
            raise ExplorationError(
                "evaluator %r has no stable cache key; run without a "
                "cache or register a named Evaluator" % evaluator
            )
        return layouts, evaluator, cache


class ExplorationResult:
    """Outcome of one exploration run."""

    def __init__(self, poset, budget, objective="throughput"):
        self.poset = poset
        self.budget = budget
        #: The objective measurements were ranked under.
        self.objective = objective
        #: name -> :class:`~repro.explore.measurement.Measurement`
        #: (higher ``.value`` is better).
        self.measurements = {}
        #: Configurations skipped thanks to monotone pruning.
        self.pruned = set()
        #: Configurations meeting the budget.
        self.passing = set()
        #: The answer: safest configurations meeting the budget.
        self.recommended = []
        #: Engine accounting (identical answers, different work done):
        #: labelled = cache hits + fresh evaluator calls.
        self.fresh_evaluations = 0
        self.cache_hits = 0
        #: Antichain waves the engine scheduled (0 for the serial walker).
        self.waves = 0

    @property
    def evaluations(self):
        """Configurations labelled with a measurement (however obtained)."""
        return len(self.measurements)

    def summary(self):
        return {
            "configurations": len(self.poset),
            "evaluated": self.evaluations,
            "pruned": len(self.pruned),
            "passing": len(self.passing),
            "recommended": sorted(self.recommended),
            "budget": self.budget,
            "objective": self.objective,
        }

    def engine_stats(self):
        """How the engine did the labelling (cache reuse, wavefronts).

        Kept out of :meth:`summary` so trajectory points stay identical
        between cold- and warm-cache runs of the same exploration.
        """
        labelled = self.cache_hits + self.fresh_evaluations
        return {
            "waves": self.waves,
            "evaluated": self.evaluations,
            "fresh_evaluations": self.fresh_evaluations,
            "cache_hits": self.cache_hits,
            "hit_rate": (self.cache_hits / labelled) if labelled else 0.0,
        }


def _finalize(result):
    """Order measurements topologically and extract the answer.

    The wavefront engine labels waves out of topological order; rebuilding
    the dict here makes its iteration order — and therefore ties broken by
    "first wins" downstream — bit-identical to the serial walker's.
    """
    order = result.poset.topological_order()
    result.measurements = {
        name: result.measurements[name]
        for name in order if name in result.measurements
    }
    result.recommended = sorted(
        result.poset.maximal_elements(result.passing)
    )
    return result


def _evaluator_error(result, name, evaluator, exc):
    """Wrap an evaluator failure, attaching the partial result."""
    _finalize(result)
    error = ExplorationError(
        "evaluator %r failed on %r: %s" % (evaluator, name, exc),
        partial=result,
    )
    return error


def explore_serial(request):
    """The reference walker: strictly serial, one node at a time.

    The engine (:func:`repro.explore.parallel.run_exploration`) must be
    result-identical to this function; it exists so that property can be
    *checked* rather than trusted.
    """
    layouts, evaluator, _ = request.resolved()  # reference: never cached
    poset = ConfigPoset(layouts)
    result = ExplorationResult(poset, request.budget, evaluator.objective)
    failed = 0  # mask of failed and pruned configurations

    for name in poset.topological_order():
        if request.assume_monotonic and poset.less_safe_mask(name) & failed:
            # Some less-safe configuration already misses the budget; this
            # one can only be slower.
            result.pruned.add(name)
            failed |= poset.bit(name)
            continue
        try:
            performance = as_measurement(
                evaluator(poset.layouts[name]), evaluator,
            )
        except Exception as exc:
            raise _evaluator_error(result, name, evaluator, exc) from exc
        result.fresh_evaluations += 1
        result.measurements[name] = performance
        if performance.value >= request.budget:
            result.passing.add(name)
        else:
            failed |= poset.bit(name)

    return _finalize(result)


def explore(request):
    """Find the safest configurations with performance >= the budget.

    ``request`` is an :class:`ExplorationRequest`; it selects the
    evaluator, worker count and cache, and the wavefront engine returns
    an :class:`ExplorationResult`.
    """
    from repro.explore.parallel import run_exploration

    return run_exploration(request)
