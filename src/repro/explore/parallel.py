"""The wavefront exploration engine: antichain waves, pools, caching.

The serial walker (:func:`repro.explore.explorer.explore_serial`) visits
one node at a time in topological order.  This engine exploits a
structural fact instead: nodes at the same *longest-path level* of the
Hasse diagram form an antichain — none is an ancestor of another — so
once every earlier level is decided, the whole level can be measured at
once.  The walk becomes a sequence of **waves**:

1. prune every node of the wave with a failed ancestor (monotone rule,
   same as serial — all ancestors live in strictly earlier waves, so
   the information is complete);
2. look the survivors up in the content-addressed evaluation cache;
3. fan the misses out to a ``spawn``-context worker pool (or evaluate
   inline with ``jobs=1``);
4. classify against the budget, feeding failures into later waves.

**Result identity.**  Whether a node ends up failed is a fixpoint that
does not depend on traversal order: ``failed(n)`` iff ``n`` measures
below budget or some ancestor is failed.  Serial and wavefront walks
compute the same fixpoint, so pruned/measured/recommended sets are
identical — the engine re-orders its measurement dict topologically at
the end so even iteration order matches the serial walker.  Tests pin
this down property-style; :func:`repro.explore.formal.certify` checks
it per run from first principles.

Only the parent process touches the cache; workers receive (evaluator,
layout) pairs — both picklable by the evaluator-registry contract — and
return :class:`~repro.explore.measurement.Measurement` payloads.
"""

from __future__ import annotations

from repro.errors import ExplorationError
from repro.explore.cache import evaluation_key
from repro.explore.explorer import (
    ExplorationRequest,
    ExplorationResult,
    _evaluator_error,
    _finalize,
)
from repro.explore.measurement import as_measurement
from repro.explore.poset import ConfigPoset
from repro.obs.tracer import get_tracer


def antichain_waves(poset):
    """The poset's nodes grouped by longest-path level, names sorted.

    ``level(n) = 1 + max(level(predecessors))`` over the Hasse diagram.
    Comparable nodes always land in different levels (a Hasse path
    strictly increases the level), so each wave is an antichain and a
    node's ancestors are all decided before its wave is scheduled.
    """
    level = {}
    for name in poset.topological_order():
        level[name] = 1 + max(
            (level[p] for p in poset.hasse_predecessors(name)), default=-1,
        )
    waves = [[] for _ in range(max(level.values()) + 1)] if level else []
    for name, wave_index in level.items():
        waves[wave_index].append(name)
    for wave in waves:
        wave.sort()
    return waves


def _pool_evaluate(task):
    """Worker-side entry point: evaluate one (evaluator, layout) pair.

    Returns ``(True, value)`` or ``(False, description)`` so a failing
    evaluator surfaces as data — the parent keeps the wave's successful
    measurements and attaches them to the raised error.
    """
    evaluator, layout = task
    try:
        return True, evaluator(layout)
    except Exception as exc:  # noqa: BLE001 - reported to the parent
        return False, "%s: %s" % (type(exc).__name__, exc)


def _evaluate_wave(names, poset, evaluator, pool):
    """Measure ``names``; returns ({name: Measurement}, first failure
    or None).  Results are checked parent-side, pool results included,
    so a non-:class:`Measurement` return fails in the caller's process."""
    values = {}
    failure = None
    if pool is None:
        for name in names:
            try:
                values[name] = as_measurement(
                    evaluator(poset.layouts[name]), evaluator,
                )
            except Exception as exc:  # noqa: BLE001 - partial kept
                failure = (name, exc)
                break
    else:
        tasks = [(evaluator, poset.layouts[name]) for name in names]
        for name, (ok, payload) in zip(names,
                                       pool.map(_pool_evaluate, tasks)):
            if not ok:
                if failure is None:
                    failure = (name, ExplorationError(payload))
                continue
            try:
                values[name] = as_measurement(payload, evaluator)
            except Exception as exc:  # noqa: BLE001 - partial kept
                if failure is None:
                    failure = (name, exc)
    return values, failure


def run_exploration(request):
    """Run one :class:`ExplorationRequest` through the wavefront engine."""
    if not isinstance(request, ExplorationRequest):
        raise ExplorationError(
            "run_exploration takes an ExplorationRequest, got %r"
            % (request,)
        )
    layouts, evaluator, cache = request.resolved()
    poset = ConfigPoset(layouts)
    result = ExplorationResult(poset, request.budget, evaluator.objective)
    failed = 0  # mask of failed and pruned configurations
    tracer = get_tracer()
    jobs = int(request.jobs)
    pool = None
    try:
        if jobs > 1:
            import multiprocessing  # only a pool needs it

            pool = multiprocessing.get_context("spawn").Pool(jobs)
        for index, wave in enumerate(antichain_waves(poset)):
            scheduled = []
            for name in wave:
                if request.assume_monotonic and \
                        poset.less_safe_mask(name) & failed:
                    result.pruned.add(name)
                    failed |= poset.bit(name)
                    continue
                scheduled.append(name)

            hits, fresh = {}, []
            keys = {}
            if cache is not None:
                for name in scheduled:
                    key = evaluation_key(poset.layouts[name], evaluator)
                    keys[name] = key
                    value = cache.get(key)
                    if value is not None:
                        hits[name] = value
                    else:
                        fresh.append(name)
            else:
                fresh = scheduled

            values, failure = _evaluate_wave(fresh, poset, evaluator, pool)
            if cache is not None:
                for name, value in values.items():
                    cache.put(keys[name], value,
                              layout=poset.layouts[name],
                              evaluator=evaluator)

            result.waves += 1
            result.cache_hits += len(hits)
            result.fresh_evaluations += len(values)
            labelled = dict(hits)
            labelled.update(values)
            for name in scheduled:
                if name not in labelled:
                    continue  # lost to a mid-wave evaluator failure
                performance = labelled[name]
                result.measurements[name] = performance
                if performance.value >= request.budget:
                    result.passing.add(name)
                else:
                    failed |= poset.bit(name)
            if tracer.enabled:
                tracer.explore_wave(
                    index, scheduled=len(scheduled), evaluated=len(values),
                    cache_hits=len(hits),
                    pruned=len(wave) - len(scheduled),
                )
            if failure is not None:
                name, exc = failure
                raise _evaluator_error(result, name, evaluator,
                                       exc) from exc
    finally:
        if pool is not None:
            pool.terminate()
            pool.join()
    return _finalize(result)
