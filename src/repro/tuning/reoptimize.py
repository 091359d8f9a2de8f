"""Feedback-driven re-optimization: the *decide* half of the tuning loop.

:class:`~repro.obs.feedback.CardinalityFeedback` aggregates per-cached-plan
q-errors; :meth:`drifting_plans` lists the plans whose latest worst-operator
q-error crossed a threshold.  The :class:`Reoptimizer` walks that list and,
for each drifting plan still in the cache, runs the optimizer again against
*current* statistics.  The old plan is evicted only when the new plan's
estimated cost beats the old plan's cost — both priced by the current cost
model for the key's row-limit class, so the comparison is apples-to-apples
— by a configurable margin; otherwise the cached plan stands (its estimates
were wrong but its shape is still the cheapest known) and only its
estimates are refreshed by virtue of the re-annotation on the next natural
re-plan.

Feedback keys for default planning are exactly the plan-cache keys
(:class:`~repro.server.plan_cache.PlanKey`); pre-built plans are keyed
``("plan", signature)`` and are skipped — there is nothing cached to evict
for them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

from repro.server.plan_cache import PlanKey


@dataclass
class ReoptimizationReport:
    """What one maintenance pass did."""

    considered: int = 0
    replanned: int = 0
    plan_changes: int = 0
    skipped_uncached: int = 0
    skipped_unkeyed: int = 0
    details: List[dict] = field(default_factory=list)

    def as_dict(self) -> dict:
        return {
            "considered": self.considered,
            "replanned": self.replanned,
            "plan_changes": self.plan_changes,
            "skipped_uncached": self.skipped_uncached,
            "skipped_unkeyed": self.skipped_unkeyed,
        }


class Reoptimizer:
    """Re-plans drifting cached plans against current statistics.

    Parameters
    ----------
    db:
        The :class:`~repro.api.GraphflowDB` to maintain.
    qerror_threshold:
        Feedback drift threshold handed to ``drifting_plans``.
    cost_margin:
        Install the new plan only when ``new_cost < cost_margin * old_cost``
        (both priced by the current cost model).  Below 1.0 adds hysteresis:
        a marginally cheaper plan is not worth churning the cache for.
    event_sink:
        Optional ``(event_type, **fields)`` callable; receives one
        ``plan_replan`` event per re-planned key.  It must not raise: it is
        called bare, and an exception propagates out of :meth:`run_once`.
        The default, :meth:`~repro.obs.Observability.emit_event`, never does.
    """

    def __init__(
        self,
        db,
        qerror_threshold: float = 2.0,
        cost_margin: float = 0.9,
        event_sink=None,
    ) -> None:
        if qerror_threshold < 1.0:
            raise ValueError("qerror_threshold below 1.0 would re-plan everything")
        if not 0.0 < cost_margin <= 1.0:
            raise ValueError("cost_margin must be in (0, 1]")
        self.db = db
        self.qerror_threshold = qerror_threshold
        self.cost_margin = cost_margin
        self.event_sink = event_sink if event_sink is not None else db.obs.emit_event
        # Aggregate counters across passes (stats()); per-pass numbers come
        # back in the report.
        self.replans = 0
        self.plan_changes = 0
        # Keys re-planned whose next full execution should be scored into the
        # tuning_qerror_after histogram (closing the before/after loop).
        self._awaiting_after: dict = {}

    # ------------------------------------------------------------------ #
    def run_once(self) -> ReoptimizationReport:
        """One maintenance pass over the currently drifting plans."""
        db = self.db
        report = ReoptimizationReport()
        self._score_after_observations()
        cache = db.plan_cache
        if cache is None:
            return report
        for key, entry in db.obs.feedback.drifting_plans(self.qerror_threshold):
            report.considered += 1
            if not isinstance(key, PlanKey):
                report.skipped_unkeyed += 1
                continue
            old_plan = cache.peek(key)
            if old_plan is None:
                # Already invalidated (writes or a catalogue refresh flushed
                # it); the next execution re-plans naturally.  Consume the
                # stale signal so it does not resurface every pass.
                db.obs.feedback.discard(key)
                report.skipped_uncached += 1
                continue
            generation = cache.generation
            cost_model = db.cost_model
            new_plan = db._plan_uncached(old_plan.query, key)
            # Both plans are priced for the key's limit class, as the
            # optimizer ranked them (plan_cost when unlimited).
            old_cost = cost_model.limited_cost(old_plan, key.limit_class)
            new_cost = cost_model.limited_cost(new_plan, key.limit_class)
            changed = (
                new_cost == new_cost  # not NaN
                and new_cost < self.cost_margin * old_cost
                and new_plan.signature() != old_plan.signature()
            )
            if changed:
                # Refuse to install if an invalidation raced the re-plan: the
                # new plan was costed against statistics that may be gone.
                changed = cache.put_if_generation(key, new_plan, generation)
            report.replanned += 1
            if changed:
                report.plan_changes += 1
            report.details.append(
                {
                    "query": entry.query_name,
                    "last_q_error": entry.last_q_error,
                    "old_cost": old_cost,
                    "new_cost": new_cost,
                    "changed": changed,
                }
            )
            self.replans += 1
            if changed:
                self.plan_changes += 1
            obs = db.obs
            obs.tuning_replans_total.labels().inc()
            if changed:
                obs.tuning_plan_changes_total.labels().inc()
            if entry.last_q_error > 0:
                obs.tuning_qerror_before.labels().observe(entry.last_q_error)
            self._awaiting_after[key] = entry.executions
            # Consume the drift signal; later executions rebuild it against
            # whatever plan is now cached.
            db.obs.feedback.discard(key)
            if self.event_sink is not None:
                self.event_sink(
                    "plan_replan",
                    query=entry.query_name,
                    last_q_error=round(entry.last_q_error, 4),
                    old_cost=round(old_cost, 2),
                    new_cost=round(new_cost, 2) if new_cost == new_cost else None,
                    changed=changed,
                )
        return report

    # ------------------------------------------------------------------ #
    def _score_after_observations(self) -> None:
        """Fold post-replan executions into the q-error "after" histogram.

        A re-plan's effect is only measurable once the (possibly new) plan
        has executed fully again; the first such execution per re-planned
        key scores one ``tuning_qerror_after`` observation.
        """
        if not self._awaiting_after:
            return
        feedback = self.db.obs.feedback
        scored = []
        for key in list(self._awaiting_after):
            entry = feedback.get(key)
            if entry is not None and entry.executions > 0 and entry.last_q_error > 0:
                self.db.obs.tuning_qerror_after.labels().observe(entry.last_q_error)
                scored.append(key)
        for key in scored:
            self._awaiting_after.pop(key, None)

    # ------------------------------------------------------------------ #
    def stats(self) -> dict:
        return {
            "qerror_threshold": self.qerror_threshold,
            "cost_margin": self.cost_margin,
            "replans": self.replans,
            "plan_changes": self.plan_changes,
            "awaiting_after": len(self._awaiting_after),
        }
