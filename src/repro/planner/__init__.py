"""``repro.planner`` — the cost-based query planner behind ``engine="auto"``.

Layered between the query algebra and the counting engines: a
:func:`plan` call decomposes a query (or factorized
:class:`~repro.queries.product.QueryProduct`) into connected components,
profiles each one structurally (GYO acyclicity, a greedy treewidth
bound, sizes — memoized in a canonicalization-keyed :class:`PlanCache`),
scores the three candidate engines (:data:`CANDIDATE_ENGINES`) with a
fixed-price cost model, and returns an executable :class:`Plan`.
``engine="auto"`` in :mod:`repro.homomorphism.engine` / ``batch`` runs
these plans; ``bagcq explain`` pretty-prints them.

See ``docs/ARCHITECTURE.md`` for where the planner sits in the stack and
``docs/OBSERVABILITY.md`` for the ``plan.*`` metric glossary.
"""

from repro.planner.analyze import (
    ComponentProfile,
    PlanCache,
    analyze_component,
    greedy_treewidth_bound,
)
from repro.planner.cost import (
    CANDIDATE_ENGINES,
    eligible_engines,
    estimate_cost,
    select_engine,
)
from repro.planner.plan import (
    Plan,
    PlanStep,
    default_plan_cache,
    plan,
    select_for,
)

__all__ = [
    "CANDIDATE_ENGINES",
    "ComponentProfile",
    "Plan",
    "PlanCache",
    "PlanStep",
    "analyze_component",
    "default_plan_cache",
    "eligible_engines",
    "estimate_cost",
    "greedy_treewidth_bound",
    "plan",
    "select_engine",
    "select_for",
]
