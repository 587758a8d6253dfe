"""Design-space exploration: partial safety ordering (Section 5).

* :mod:`repro.explore.configspace` — enumerates the Fig. 6 configuration
  space (5 compartmentalization strategies x 2^4 per-component hardening
  = 80 configurations per application).
* :mod:`repro.explore.safety` — the probabilistic safety partial order
  over configurations (compartment refinement, data isolation, stackable
  hardening, mechanism strength).
* :mod:`repro.explore.poset` — the configuration poset: the safety
  relation as integer bitsets and its Hasse diagram.
* :mod:`repro.explore.explorer` — the evaluation API:
  :class:`ExplorationRequest` in, :class:`ExplorationResult` out, plus
  the serial reference walker.
* :mod:`repro.explore.evaluators` — registry of named, picklable
  :class:`Evaluator` classes (the unit of work a request names).
* :mod:`repro.explore.parallel` — the wavefront engine: antichain waves,
  ``spawn``-pool fan-out, monotone pruning between waves.
* :mod:`repro.explore.cache` — content-addressed evaluation cache so
  repeated sweeps reuse measurements instead of re-simulating.
"""

from repro.explore.cache import (
    EvaluationCache,
    evaluation_key,
    layout_digest,
)
from repro.explore.configspace import (
    FIG6_STRATEGIES,
    generate_fig6_space,
    hardening_subsets,
)
from repro.explore.evaluators import (
    CallableEvaluator,
    Evaluator,
    LiveEvaluator,
    ProfileEvaluator,
    SyntheticEvaluator,
    get_evaluator,
    register_evaluator,
)
from repro.explore.explorer import (
    ExplorationRequest,
    ExplorationResult,
    explore,
    explore_serial,
)
from repro.explore.measurement import (
    OBJECTIVES,
    Measurement,
    as_measurement,
)
from repro.explore.parallel import antichain_waves, run_exploration
from repro.explore.poset import ConfigPoset
from repro.explore.safety import safety_leq

__all__ = [
    "CallableEvaluator",
    "ConfigPoset",
    "EvaluationCache",
    "Evaluator",
    "ExplorationRequest",
    "ExplorationResult",
    "FIG6_STRATEGIES",
    "LiveEvaluator",
    "Measurement",
    "OBJECTIVES",
    "ProfileEvaluator",
    "SyntheticEvaluator",
    "antichain_waves",
    "as_measurement",
    "evaluation_key",
    "explore",
    "explore_serial",
    "generate_fig6_space",
    "get_evaluator",
    "hardening_subsets",
    "layout_digest",
    "register_evaluator",
    "run_exploration",
    "safety_leq",
]
