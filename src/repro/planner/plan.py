"""The plan IR: ``plan(query, structure)`` → :class:`Plan`, plus EXPLAIN.

A :class:`Plan` is the unit the evaluation layers execute: one
:class:`PlanStep` per connected component, each carrying the component,
the engine the cost model picked for it, the predicted cost, and the
structural profile that justified the pick.  ``engine="auto"`` anywhere
in :mod:`repro.homomorphism.engine` / ``batch`` is exactly "build the
plan, run its steps"; ``bagcq explain`` pretty-prints the same object.

Observability: every planning call pre-registers the full ``plan.*``
counter family at zero (the convention ``repro.qa`` established for
``qa.*``), so clean ``--stats`` runs report them deterministically:

* ``plan.calls`` — :func:`plan` invocations;
* ``plan.components`` — component selections performed (cached or not);
* ``plan.cache_hits`` / ``plan.cache_misses`` — :class:`PlanCache`
  profile lookups;
* ``plan.selected.backtracking`` / ``.treewidth`` / ``.compiled`` —
  which candidate engine won;
* ``plan.compile.builds`` / ``plan.compile.cache_hits`` /
  ``plan.compile.cache_misses`` — compiled-artifact traffic in the
  :class:`PlanCache` (see :mod:`repro.homomorphism.compiled`).

:func:`plan` additionally opens ``plan.analyze`` / ``plan.select`` spans
(attributed with component counts and the winning engines) — coarse,
one per planning call, so traces stay small.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from repro.obs import metrics as obs_metrics
from repro.obs.trace import span
from repro.planner.analyze import ComponentProfile, PlanCache
from repro.planner.cost import CANDIDATE_ENGINES, select_engine
from repro.queries.cq import ConjunctiveQuery
from repro.queries.product import QueryProduct, component_terms
from repro.relational.structure import Structure

__all__ = [
    "Plan",
    "PlanStep",
    "default_plan_cache",
    "plan",
    "plan_cache_occupancy",
    "select_for",
]

Plannable = Union[ConjunctiveQuery, QueryProduct]

#: Every counter the planner ever increments, for zero pre-registration.
_PLAN_COUNTERS = (
    "plan.calls",
    "plan.components",
    "plan.cache_hits",
    "plan.cache_misses",
    "plan.cache_evictions",
    *(f"plan.selected.{engine}" for engine in CANDIDATE_ENGINES),
    "plan.compile.builds",
    "plan.compile.cache_hits",
    "plan.compile.cache_misses",
    "plan.compile.cache_evictions",
)

#: Process-wide profile cache: planning is pure query analysis, so sharing
#: across calls (and across `auto` entry points) is always sound.
_DEFAULT_PLAN_CACHE = PlanCache()


def default_plan_cache() -> PlanCache:
    """The process-wide :class:`PlanCache` the ``auto`` engine uses."""
    return _DEFAULT_PLAN_CACHE


def plan_cache_occupancy(cache: PlanCache | None = None) -> dict:
    """Both levels of a plan cache in one health-report dict.

    The ``/healthz`` surface: profile occupancy (durable, snapshot-able)
    and compiled-artifact occupancy (process-local closures) side by
    side, defaulting to the process-wide cache the service uses.
    """
    plan_cache = cache if cache is not None else _DEFAULT_PLAN_CACHE
    return {
        "profiles": plan_cache.profiles.stats(),
        "compiled": plan_cache.compiled.stats(),
    }


def _preregister_counters() -> None:
    registry = obs_metrics.active_registry()
    if registry is not None:
        for name in _PLAN_COUNTERS:
            registry.counter(name)


@dataclass(frozen=True)
class PlanStep:
    """One component's slice of a plan: what runs where, and why."""

    component: ConjunctiveQuery
    engine: str
    est_cost: float
    profile: ComponentProfile
    #: Exponent the component's count is raised to (lazy ``↑ k`` factors).
    exponent: int = 1
    #: The fanout-chain node estimate behind the cost (``None`` for
    #: acyclic components, which are priced without it).
    est_nodes: float | None = None

    def describe(self) -> str:
        power = f" ^{self.exponent}" if self.exponent != 1 else ""
        nodes = "-" if self.est_nodes is None else f"{self.est_nodes:.0f}"
        return (
            f"engine={self.engine:<12} est_cost={self.est_cost:>12.0f}  "
            f"est_nodes={nodes:>10}  "
            f"[{self.profile.describe()}]{power}  {self.component}"
        )

    def to_dict(self) -> dict:
        """A JSON-ready rendering of this step (machine-readable EXPLAIN)."""
        from repro.io import query_to_dict

        return {
            "component": query_to_dict(self.component),
            "component_text": str(self.component),
            "engine": self.engine,
            "est_cost": self.est_cost,
            "est_nodes": self.est_nodes,
            "exponent": self.exponent,
            "profile": {
                "atom_count": self.profile.atom_count,
                "variable_count": self.profile.variable_count,
                "inequality_count": self.profile.inequality_count,
                "acyclic": self.profile.acyclic,
                "treewidth_bound": self.profile.treewidth_bound,
            },
        }


@dataclass(frozen=True)
class Plan:
    """An executable evaluation plan: one engine-assigned step per component."""

    steps: tuple[PlanStep, ...]
    cache_hits: int
    cache_misses: int

    @property
    def total_cost(self) -> float:
        return sum(step.est_cost for step in self.steps)

    @property
    def engines(self) -> tuple[str, ...]:
        """Engines used, deduplicated, in first-use order."""
        seen: dict[str, None] = {}
        for step in self.steps:
            seen.setdefault(step.engine, None)
        return tuple(seen)

    def explain(self) -> str:
        """A human-readable rendering (the payload of ``bagcq explain``)."""
        if not self.steps:
            return "plan: empty query — constant 1, no engine dispatched"
        lines = [f"plan: {len(self.steps)} component(s)"]
        for index, step in enumerate(self.steps, start=1):
            lines.append(f"  step {index}: {step.describe()}")
        lines.append(
            f"total est cost: {self.total_cost:.0f}   "
            f"plan cache: {self.cache_hits} hit(s), "
            f"{self.cache_misses} miss(es)"
        )
        return "\n".join(lines)

    def to_dict(self) -> dict:
        """The machine-readable plan: ``bagcq explain --json`` and the
        service's ``/explain`` endpoint both emit exactly this shape
        (serialized with :func:`repro.obs.report.stable_json_dumps`)."""
        return {
            "schema_version": 1,
            "steps": [step.to_dict() for step in self.steps],
            "engines": list(self.engines),
            "total_est_cost": self.total_cost,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
        }


def _select(
    component: ConjunctiveQuery,
    profile: ComponentProfile,
    structure: Structure,
    exponent: int = 1,
) -> PlanStep:
    """Score one profiled component and count the pick."""
    engine, est_cost, est_nodes = select_engine(component, profile, structure)
    obs_metrics.add("plan.components")
    obs_metrics.add(f"plan.selected.{engine}")
    return PlanStep(
        component=component,
        engine=engine,
        est_cost=est_cost,
        profile=profile,
        exponent=exponent,
        est_nodes=est_nodes,
    )


def select_for(
    component: ConjunctiveQuery,
    structure: Structure,
    cache: PlanCache | None = None,
) -> PlanStep:
    """Plan a single connected component (the engine dispatch hot path).

    Returns the winning engine with its predicted cost.  Counters are
    recorded; no spans are opened — this runs once per component per
    ``count()`` call, which is far too hot for tracing.
    """
    _preregister_counters()
    plan_cache = cache if cache is not None else _DEFAULT_PLAN_CACHE
    profile, _ = plan_cache.profile(component)
    return _select(component, profile, structure)


def plan(
    query: Plannable,
    structure: Structure,
    cache: PlanCache | None = None,
) -> Plan:
    """Decompose ``query`` and pick the cheapest safe engine per component.

    Accepts a plain :class:`ConjunctiveQuery` or a factorized
    :class:`QueryProduct` (whose lazy exponents are carried onto the
    steps).  ``cache`` overrides the process-wide profile cache —
    pass a fresh :class:`PlanCache` for isolated measurements.
    """
    _preregister_counters()
    obs_metrics.add("plan.calls")
    plan_cache = cache if cache is not None else _DEFAULT_PLAN_CACHE
    hits_before, misses_before = plan_cache.hits, plan_cache.misses

    with span("plan.analyze") as analyze_span:
        analyzed = [
            (component, exponent, plan_cache.profile(component)[0])
            for component, exponent in component_terms(query, "plan")
        ]
        analyze_span.set(components=len(analyzed))

    with span("plan.select") as select_span:
        steps = tuple(
            _select(component, profile, structure, exponent)
            for component, exponent, profile in analyzed
        )
        select_span.set(
            engines=",".join(sorted({step.engine for step in steps}))
        )

    return Plan(
        steps=steps,
        cache_hits=plan_cache.hits - hits_before,
        cache_misses=plan_cache.misses - misses_before,
    )
