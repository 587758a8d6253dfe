"""Structured evaluator results: the ``Measurement`` contract.

Evaluators used to return a bare float ("requests per second, higher is
better"), which made two things impossible to express:

* **what the number means** — the autotuner ranks layouts by tail
  latency at the observed arrival rate or by SLO headroom, not by
  closed-loop throughput, and a cache entry must remember which;
* **why the number is what it is** — the live evaluator predicts a
  latency decomposition per candidate layout, and the decision journal
  wants that context next to the value.

A :class:`Measurement` carries all three: ``value`` (still "higher is
better" under every objective), the ``objective`` it was measured
under (one of :data:`OBJECTIVES`), and free-form ``meta`` (tail /
decomposition predictions, model inputs).  ``float(measurement)``
recovers the bare number, so arithmetic call sites migrate with one
``.value`` (or ``float()``).

An evaluator that returns anything else — a bare number included —
fails the exploration through :func:`as_measurement`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ExplorationError

#: Ranking objectives an exploration can run under.  Values are always
#: "higher is better":
#:
#: * ``throughput`` — requests per (virtual) second.  The classic
#:   Fig. 6/8 scalar.
#: * ``tail_at_rate`` — negated tail latency (virtual microseconds) at
#:   an observed arrival rate: less tail = higher value.
#: * ``slo_headroom`` — ``1 - predicted SLO burn``: positive means the
#:   layout is predicted to meet the SLO, negative means it burns more
#:   error budget than it accrues.
OBJECTIVES = ("throughput", "tail_at_rate", "slo_headroom")


@dataclass
class Measurement:
    """One evaluator result: value + objective + metadata.

    ``value`` is "higher is better" under the stated ``objective``;
    ``meta`` is free-form JSON-serialisable context (the live evaluator
    puts its predicted latency decomposition there).  Dataclass
    equality covers all three fields, which is what the engine-vs-
    serial result-identity contract compares.
    """

    value: float
    objective: str = "throughput"
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.objective not in OBJECTIVES:
            raise ExplorationError(
                "unknown objective %r (one of: %s)"
                % (self.objective, ", ".join(OBJECTIVES))
            )
        if isinstance(self.value, bool) or \
                not isinstance(self.value, (int, float)):
            raise ExplorationError(
                "measurement value must be a number, got %r" % (self.value,)
            )
        self.value = float(self.value)

    def __float__(self):
        return self.value

    def to_dict(self):
        """JSON-serialisable form (cache entries, journals)."""
        return {"value": self.value, "objective": self.objective,
                "meta": self.meta}

    @classmethod
    def from_dict(cls, payload):
        return cls(payload["value"], payload.get("objective", "throughput"),
                   dict(payload.get("meta", ())))

    def __repr__(self):
        return "Measurement(%.6g, %s%s)" % (
            self.value, self.objective, ", +meta" if self.meta else "",
        )


def as_measurement(value, evaluator=None):
    """Check that an evaluator returned a :class:`Measurement`.

    Measurements pass through untouched; anything else, a bare number
    included, raises :class:`~repro.errors.ExplorationError`, because a
    bare value cannot state the objective it was measured under.
    """
    if isinstance(value, Measurement):
        return value
    raise ExplorationError(
        "evaluator %s returned %r; return a Measurement"
        % (evaluator if evaluator is not None else "<unknown>", value)
    )
