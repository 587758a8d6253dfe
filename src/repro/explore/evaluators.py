"""Named, picklable performance evaluators for the exploration engine.

A bare ``measure`` closure structurally forbids two things the engine
needs:

* **multiprocessing** — a closure defined inside a benchmark driver
  cannot be pickled into a ``spawn``-context worker;
* **caching** — a closure has no stable identity, so a measurement made
  by one driver cannot be recognised as reusable by another.

An :class:`Evaluator` is the replacement: a small, picklable object with
a registry name and a :meth:`key` that contributes to the
content-addressed cache key (see :mod:`repro.explore.cache`).  Two
drivers constructing ``ProfileEvaluator(app="redis")`` get interchange-
able evaluators, so their measurements share cache entries.

Register project-specific evaluators with :func:`register_evaluator`;
look them up by name with :func:`get_evaluator`.

Every evaluator returns a :class:`~repro.explore.measurement.Measurement`
under a declared **objective** (:data:`~repro.explore.measurement
.OBJECTIVES`); :meth:`Evaluator.for_objective` retargets an instance
onto another objective it supports, and the objective participates in
the cache key so the same layout cached under ``throughput`` is never
confused with its ``slo_headroom`` score.
"""

from __future__ import annotations

import copy
from importlib import import_module

from repro.errors import ExplorationError
from repro.explore.cache import layout_digest
from repro.explore.measurement import OBJECTIVES, Measurement

#: Registered evaluator classes, keyed by :attr:`Evaluator.name`.
EVALUATORS = {}


def register_evaluator(cls):
    """Class decorator: add ``cls`` to the evaluator registry."""
    if not cls.name:
        raise ExplorationError("evaluator class %s has no name" % cls)
    if cls.name in EVALUATORS:
        raise ExplorationError("evaluator %r already registered" % cls.name)
    EVALUATORS[cls.name] = cls
    return cls


def get_evaluator(name, **params):
    """Instantiate the registered evaluator ``name`` with ``params``."""
    try:
        cls = EVALUATORS[name]
    except KeyError:
        raise ExplorationError(
            "unknown evaluator %r (registered: %s)"
            % (name, ", ".join(sorted(EVALUATORS)))
        ) from None
    return cls(**params)


def resolve_evaluator(spec):
    """Coerce a request's ``evaluator`` field into an :class:`Evaluator`.

    Accepts an :class:`Evaluator` instance (returned as is), a registry
    name, or a bare callable (wrapped in :class:`CallableEvaluator` —
    serial-only, uncacheable).
    """
    if isinstance(spec, Evaluator):
        return spec
    if isinstance(spec, str):
        return get_evaluator(spec)
    if callable(spec):
        return CallableEvaluator(spec)
    raise ExplorationError("cannot use %r as an evaluator" % (spec,))


class Evaluator:
    """Measures one :class:`~repro.apps.base.ComponentLayout`.

    Subclasses set :attr:`name` (the registry key), implement
    :meth:`__call__` and :meth:`params`, and must stay picklable:
    keep construction parameters as plain attributes and resolve any
    heavyweight objects (profiles, cost tables) lazily at call time.
    """

    #: Registry key; also the first component of the cache key.
    name = None
    #: Safe to pickle into a spawn-context worker pool.
    parallel_safe = True
    #: Has a stable :meth:`key`, so results may be cached.
    cacheable = True
    #: The ranking objective this instance measures under.
    objective = "throughput"
    #: Objectives :meth:`for_objective` may retarget this class onto.
    supported_objectives = ("throughput",)

    def __call__(self, layout):
        """Return the layout's :class:`Measurement` (higher is better)."""
        raise NotImplementedError

    def for_objective(self, objective):
        """A copy of this evaluator measuring under ``objective``.

        Returns ``self`` when the objective already matches; raises
        when the evaluator cannot measure that objective at all.
        """
        if objective not in OBJECTIVES:
            raise ExplorationError(
                "unknown objective %r (one of: %s)"
                % (objective, ", ".join(OBJECTIVES))
            )
        if objective == self.objective:
            return self
        if objective not in self.supported_objectives:
            raise ExplorationError(
                "evaluator %r measures %s, not %r"
                % (self.name, "/".join(self.supported_objectives),
                   objective)
            )
        clone = copy.copy(self)
        clone.objective = objective
        return clone

    def params(self):
        """JSON-serialisable construction parameters (for :meth:`key`)."""
        return {}

    def key(self):
        """The evaluator's contribution to the evaluation cache key."""
        return {"evaluator": self.name, "objective": self.objective,
                **self.params()}

    def __repr__(self):
        args = ", ".join("%s=%r" % kv for kv in sorted(self.params().items()))
        return "%s(%s)" % (type(self).__name__, args)


#: App name -> (module, profile attribute, priced library).  The modules
#: are imported lazily so an evaluator pickles as three short strings.
APP_PROFILES = {
    "redis": ("repro.apps.redis", "REDIS_GET_PROFILE", "redis"),
    "nginx": ("repro.apps.nginx", "NGINX_HTTP_PROFILE", "nginx"),
}


@register_evaluator
class ProfileEvaluator(Evaluator):
    """Price an application's request profile under the cost model.

    This is the measurement every Fig. 6/8 driver used to spell out as a
    local ``measure`` closure: evaluate the app's
    :class:`~repro.apps.base.RequestProfile` under the layout with
    :data:`~repro.hw.costs.DEFAULT_COSTS` and report one metric.
    """

    name = "profile"

    def __init__(self, app="redis", metric="requests_per_second"):
        if app not in APP_PROFILES:
            raise ExplorationError(
                "unknown app %r (available: %s)"
                % (app, ", ".join(sorted(APP_PROFILES)))
            )
        self.app = app
        self.metric = metric

    def params(self):
        return {"app": self.app, "metric": self.metric}

    def __call__(self, layout):
        from repro.apps.base import evaluate_profile
        from repro.hw.costs import DEFAULT_COSTS

        module_name, profile_name, library = APP_PROFILES[self.app]
        profile = getattr(import_module(module_name), profile_name)
        metrics = evaluate_profile(profile, layout, DEFAULT_COSTS, library)
        return Measurement(
            metrics[self.metric], self.objective,
            meta={"app": self.app,
                  "gate_cycles": metrics["gate_cycles"],
                  "work_cycles": metrics["work_cycles"]},
        )


@register_evaluator
class SyntheticEvaluator(Evaluator):
    """A deterministic pseudo-performance function of the layout content.

    Useful for property tests and smoke runs that exercise the engine
    without the cost model: the value depends only on the layout's
    semantic digest and the seed, so it is stable across processes and
    runs, picklable, and cacheable — but deliberately *not* monotone in
    safety (which the engine must tolerate: pruning decisions follow the
    same rule serially and in parallel either way).
    """

    name = "synthetic"
    #: Synthetic values carry no unit, so any objective is fair game —
    #: which is exactly what the objective-plumbing tests need.
    supported_objectives = OBJECTIVES

    def __init__(self, seed=0, scale=1_000_000.0):
        self.seed = int(seed)
        self.scale = float(scale)

    def params(self):
        return {"seed": self.seed, "scale": self.scale}

    def __call__(self, layout):
        import hashlib

        payload = "%s:%d" % (layout_digest(layout), self.seed)
        digest = hashlib.sha256(payload.encode("utf-8")).hexdigest()[:12]
        fraction = int(digest, 16) / float(16 ** 12)
        return Measurement(self.scale * (0.25 + 0.75 * fraction),
                           self.objective)


class CallableEvaluator(Evaluator):
    """Adapter for ``measure`` callables.

    Exists so callers that genuinely need a closure (e.g. noise-injecting
    tests) can ride the engine — but only serially: a closure has no
    stable identity, so it cannot be cached, and it generally cannot be
    pickled into a worker pool.
    """

    name = "callable"
    parallel_safe = False
    cacheable = False
    #: A black-box callable may measure anything the caller says it does.
    supported_objectives = OBJECTIVES

    def __init__(self, fn, label=None):
        if not callable(fn):
            raise ExplorationError("%r is not callable" % (fn,))
        self.fn = fn
        self.label = label or getattr(fn, "__name__", "measure")

    def params(self):
        return {"label": self.label}

    def key(self):
        raise ExplorationError(
            "callable evaluator %r has no stable cache key; register a "
            "named Evaluator class to enable caching" % self.label
        )

    def __call__(self, layout):
        return self.fn(layout)


@register_evaluator
class LiveEvaluator(Evaluator):
    """Price candidate layouts against a *live* windowed signal.

    Input is the plain-data dict :meth:`repro.obs.hub.TelemetryHub
    .evaluator_input` returns for a running load point: per window, the
    completed request count and the latency decomposition (queueing /
    gate / app cycles) plus the gate-crossing count.  For a candidate
    layout the evaluator replays that signal through the cost model's
    gate-cost deltas:

    * per-request gate cycles shift by ``crossings × (cross_call(cand)
      - cross_call(source))`` — the only term isolation choice controls;
    * queueing scales with an M/M/1-style factor ``(s'/s) × (1-ρ)/(1-ρ')``
      at the window's observed arrival rate, clamped at
      :data:`SATURATION` so an overloaded prediction stays finite (and
      terrible) instead of dividing by zero;
    * the window's max latency scales with the predicted mean.

    The aggregate is reported under the requested objective
    (throughput ceiling, negated tail, or SLO headroom = ``1 - burn``).
    Everything is plain data and pure arithmetic: picklable into the
    spawn pool, cacheable under a digest of the signal, and
    deterministic — a warm rerun of the same decision reproduces the
    ranking from cache alone.
    """

    name = "live"
    objective = "slo_headroom"
    supported_objectives = OBJECTIVES

    #: Utilization where the queue model saturates; predictions beyond
    #: it pin to this loading instead of going negative/infinite.
    SATURATION = 0.98

    def __init__(self, signal, source_mechanism, source_mpk_gate="full",
                 slo_threshold_cycles=None, error_budget=0.01,
                 objective=None, freq_hz=None):
        if not isinstance(signal, dict) or "windows" not in signal \
                or "window_cycles" not in signal:
            raise ExplorationError(
                "live signal must be a TelemetryHub.evaluator_input() "
                "dict, got %r" % (signal,)
            )
        if not any(w.get("requests", 0) > 0 for w in signal["windows"]):
            raise ExplorationError(
                "live signal has no traffic: nothing to price layouts by"
            )
        if error_budget <= 0:
            raise ExplorationError(
                "error budget must be positive: %r" % error_budget)
        self.signal = signal
        self.source_mechanism = source_mechanism
        self.source_mpk_gate = source_mpk_gate
        self.slo_threshold_cycles = (
            float(slo_threshold_cycles)
            if slo_threshold_cycles is not None else None
        )
        self.error_budget = float(error_budget)
        if freq_hz is None:
            from repro.hw.clock import XEON_4114_HZ

            freq_hz = XEON_4114_HZ
        self.freq_hz = float(freq_hz)
        if objective is not None:
            if objective not in OBJECTIVES:
                raise ExplorationError(
                    "unknown objective %r (one of: %s)"
                    % (objective, ", ".join(OBJECTIVES))
                )
            self.objective = objective
        if self.objective == "slo_headroom" and \
                self.slo_threshold_cycles is None:
            raise ExplorationError(
                "slo_headroom needs slo_threshold_cycles"
            )

    def params(self):
        from repro.obs.regress import config_digest

        return {
            "signal": config_digest(self.signal),
            "source": self.source_mechanism,
            "source_gate": self.source_mpk_gate,
            "slo_threshold_cycles": self.slo_threshold_cycles,
            "error_budget": self.error_budget,
            "freq_hz": self.freq_hz,
        }

    def _predict_window(self, window, c0, c1):
        """Predicted (mean, max, gate, queue) cycles for one window."""
        requests = window["requests"]
        window_cycles = self.signal["window_cycles"]
        gate0 = window["gate_cycles"] / requests
        app = window["app_cycles"] / requests
        queue0 = window["queue_cycles"] / requests
        crossings = window.get("gate_crossings", 0.0) / requests
        gate1 = max(0.0, gate0 + crossings * (c1 - c0))
        service0 = app + gate0
        service1 = app + gate1
        arrival = requests / window_cycles    # requests per cycle
        rho0 = min(arrival * service0, self.SATURATION)
        rho1 = min(arrival * service1, self.SATURATION)
        if service0 > 0:
            scale = (service1 / service0) * ((1.0 - rho0) / (1.0 - rho1))
        else:
            scale = 1.0
        queue1 = queue0 * scale
        mean0 = queue0 + service0
        mean1 = queue1 + service1
        max0 = window["latency_max_cycles"]
        max1 = max0 * (mean1 / mean0) if mean0 > 0 else 0.0
        return mean1, max1, gate1, queue1

    def _window_burn(self, mean1, max1):
        """Predicted budget burn, from the window's mean/max latencies.

        Latencies are modelled uniform on ``[2*mean - max, max]`` (the
        interval with that mean and max); the fraction above the SLO
        threshold, over the error budget, is the burn.
        """
        threshold = self.slo_threshold_cycles
        if max1 <= threshold:
            return 0.0
        low = max(0.0, 2.0 * mean1 - max1)
        if low >= threshold or max1 <= low:
            fraction = 1.0
        else:
            fraction = (max1 - threshold) / (max1 - low)
        return min(1.0, fraction) / self.error_budget

    def __call__(self, layout):
        from repro.hw.costs import CostModel

        costs = CostModel.xeon_4114()
        c0 = costs.cross_call(
            self.source_mechanism, light=self.source_mpk_gate == "light",
        )
        gated = len(layout.partition) > 1
        c1 = costs.cross_call(
            layout.mechanism, light=layout.mpk_gate == "light",
        ) if gated else 0.0

        total = {"requests": 0.0, "mean": 0.0, "max": 0.0, "gate": 0.0,
                 "queue": 0.0, "service": 0.0, "burn": 0.0}
        for window in self.signal["windows"]:
            requests = window.get("requests", 0.0)
            if requests <= 0:
                continue
            mean1, max1, gate1, queue1 = self._predict_window(
                window, c0, c1)
            total["requests"] += requests
            total["mean"] += requests * mean1
            total["max"] += requests * max1
            total["gate"] += requests * gate1
            total["queue"] += requests * queue1
            total["service"] += requests * (mean1 - queue1)
            if self.slo_threshold_cycles is not None:
                total["burn"] += requests * self._window_burn(mean1, max1)
        n = total["requests"]
        mean = total["mean"] / n
        tail = total["max"] / n
        service = total["service"] / n
        burn = total["burn"] / n
        meta = {
            "predicted": {
                "mean_cycles": mean,
                "max_cycles": tail,
                "gate_cycles": total["gate"] / n,
                "queue_cycles": total["queue"] / n,
                "burn": burn if self.slo_threshold_cycles is not None
                else None,
            },
            "source": "%s/%s" % (self.source_mechanism,
                                 self.source_mpk_gate),
            "windows": sum(1 for w in self.signal["windows"]
                           if w.get("requests", 0) > 0),
        }
        if self.objective == "throughput":
            value = self.freq_hz / service if service > 0 else 0.0
        elif self.objective == "tail_at_rate":
            value = -(tail / self.freq_hz * 1e6)   # negated virtual us
        else:                                      # slo_headroom
            value = 1.0 - burn
        return Measurement(value, self.objective, meta)
