"""The cost model: score each engine on one component against the data.

Costs are abstract "fact visits" (roughly a microsecond each, measured
on a 2-CPU x86-64 Linux machine), priced from the component's profile
and from statistics of the structure it runs on:

* **treewidth** (tree-decomposition DP) pays ``|bags| · d^(width+1)`` for
  its message tables, with a heavier per-entry constant;
* **backtracking** scans every atom's facts once, then pays per search
  node;
* **compiled** (specialized per-plan evaluators,
  :mod:`repro.homomorphism.compiled`) pays a one-time indexing pass that
  is linear in the matching facts, then either the array-semiring
  Yannakakis loop (acyclic shapes, folded into the per-fact term) or a
  closure chain that pays per search node.

These three are the planner's candidates (:data:`CANDIDATE_ENGINES`).
The interpreted Yannakakis engine, **acyclic**, is not one: ``compiled``
covers its whole envelope and undercuts its linear price whenever
``facts + 2·atoms > 6``, and otherwise backtracking is cheaper than
both.  It keeps a price only so that a batch run with an explicit
``engine="acyclic"`` can pack its process pool by cost
(:func:`estimate_cost`).

**Search nodes** (:func:`chain_nodes`).  On cyclic components the node
count is a data-aware chain estimate in the spirit of worst-case-optimal
join analysis (the AGM bound refined by per-relation degree constraints,
as in Abo Khamis–Ngo–Suciu's PANDA).  It walks the profile's join
pattern in the compiled chain's greedy atom order.  Each atom multiplies
the running number of partial assignments by its average fanout,
``|R| / #distinct(R on the bound positions)``, and a fully bound atom by
its hit probability.  The estimate sums these running products over all
prefixes of the order and is capped by the worst cases ``d^vars`` and
``Π|R|``.  The ``#distinct`` statistics are memoized per structure
(:meth:`~repro.relational.structure.Structure.distinct_count`), so a
structure pays each projection once, and deltas keep the statistics of
untouched relations.  Acyclic components skip the walk: compiled prices
them linearly and backtracking keeps the worst cases.  A backtracking
node costs four compiled chain nodes (an interpreted fail-first step
against a hash lookup).

The model never has to be *right*, only *monotone enough*: every engine
returns the same exact count (the qa oracles enforce it), so a bad
estimate costs time, never correctness.  Engines that could *raise* where
the default engine would not are excluded up front by
:func:`eligible_engines` — ``auto`` must be a drop-in for the default on
every input, including the error-raising ones.

**Prices.**  The per-engine prices are fixed module constants, set by
hand against the E16 regret benchmark (``benchmarks/BENCH_planner.json``).
Per-engine scales fitted from measured wall time pick the same engine
as these prices on every E16 cell, so the model carries no tunable
state: selection is a pure function of the profile and the structure.
"""

from __future__ import annotations

from repro.homomorphism.compiled import greedy_atom_order
from repro.planner.analyze import ComponentProfile
from repro.queries.cq import ConjunctiveQuery
from repro.relational.structure import Structure

__all__ = [
    "CANDIDATE_ENGINES",
    "chain_nodes",
    "eligible_engines",
    "estimate_cost",
    "select_engine",
]

#: Estimates saturate here — beyond this every plan is "hopeless" alike.
COST_CEILING = 1e18

#: The engines ``auto`` chooses among, in tie-break order: the reference
#: engine wins equal scores.
CANDIDATE_ENGINES = ("backtracking", "treewidth", "compiled")

_PREFERENCE = {engine: rank for rank, engine in enumerate(CANDIDATE_ENGINES)}

# Per-engine prices, in fact visits.
_ACYCLIC_BASE = 24.0
_ACYCLIC_PER_FACT = 2.0
_ACYCLIC_PER_ATOM = 4.0
_TREEWIDTH_BASE = 60.0
_TREEWIDTH_PER_ENTRY = 6.0
_BACKTRACKING_BASE = 10.0
_BACKTRACKING_PER_FACT = 1.0
_BACKTRACKING_PER_NODE = 2.0
_COMPILED_BASE = 30.0
_COMPILED_PER_FACT = 1.0
_COMPILED_PER_ATOM = 2.0
_COMPILED_PER_NODE = 0.5


def _saturating_power(base: float, exponent: int) -> float:
    """``base ** exponent`` clamped into ``[1, COST_CEILING]``."""
    if base <= 1.0:
        return 1.0
    total = 1.0
    for _ in range(exponent):
        total *= base
        if total >= COST_CEILING:
            return COST_CEILING
    return total


def _atom_sizes(profile: ComponentProfile, structure: Structure) -> list[int]:
    """Per join-pattern atom, its relation's fact count (missing: 0)."""
    schema = structure.schema
    return [
        structure.fact_count(relation) if relation in schema else 0
        for relation, _ in profile.join_pattern
    ]


def chain_nodes(
    profile: ComponentProfile,
    structure: Structure,
    sizes: list[int] | None = None,
) -> float:
    """Estimated search nodes of a join chain over the component's atoms.

    Walks the join pattern in the compiled chain's greedy order
    (:func:`~repro.homomorphism.compiled.greedy_atom_order`).  Each atom
    multiplies the running number of partial assignments by its average
    fanout, ``|R| / #distinct(R on the bound positions)`` (``|R|`` when
    nothing is bound yet).  A fully bound atom multiplies by its hit
    probability, ``|R|`` over the product of its per-position distinct
    counts.  Constant positions count as bound.  The estimate is the sum
    over prefixes of these running products; an empty relation ends the
    chain.  The ``#distinct`` statistics are memoized on the structure
    (:meth:`~repro.relational.structure.Structure.distinct_count`).
    """
    pattern = profile.join_pattern
    if sizes is None:
        sizes = _atom_sizes(profile, structure)
    atom_variables = profile.pattern_variables
    distinct = structure.distinct_count
    bound: set[int] = set()
    rows = 1.0
    nodes = 0.0
    for index in greedy_atom_order(atom_variables, sizes):
        size = sizes[index]
        if not size:
            break
        relation, terms = pattern[index]
        new = atom_variables[index] - bound
        # Bound positions: constants and already-bound variables.
        keyed = tuple(
            position for position, term in enumerate(terms) if term not in new
        )
        if not keyed:
            rows *= size
        elif new:
            rows *= size / distinct(relation, keyed)
        else:
            combinations = 1
            for position in keyed:
                combinations *= distinct(relation, (position,))
            rows *= min(1.0, size / combinations)
        nodes += rows
        if nodes >= COST_CEILING:
            return COST_CEILING
        bound |= new
    return nodes


def eligible_engines(
    component: ConjunctiveQuery,
    profile: ComponentProfile,
    structure: Structure,
) -> tuple[str, ...]:
    """The candidate engines that are *safe* for this component here.

    Safe means: same exact count, and no error the backtracking engine
    would not also raise.  ``backtracking`` and ``treewidth`` are total
    (and agree on every error class: uninterpreted constants raise
    :class:`~repro.errors.ConstantError`, arity mismatches raise
    :class:`~repro.errors.EvaluationError`).

    ``compiled`` is *total* (it falls back to the interpreter outside
    its envelope), but the planner still gates it on the specializer's
    own envelope — no inequalities, interpreted constants, matching
    arities (GYO-reducibility is **not** required: cyclic shapes take
    the closure chain) — so that selecting it always means actually
    compiling, never a silent round-trip through the fallback.
    """
    specializable = (
        profile.inequality_count == 0
        and all(
            structure.interprets(constant.name)
            for constant in component.constants
        )
        and all(
            relation not in structure.schema
            or structure.schema.arity(relation) == arity
            for relation, arity in profile.relations
        )
    )
    if specializable:
        return CANDIDATE_ENGINES
    return ("backtracking", "treewidth")


def _visits(
    engines,
    profile: ComponentProfile,
    structure: Structure,
) -> tuple[dict[str, float], float | None]:
    """``({engine: visits}, est_nodes)`` with the shared inputs computed once.

    ``est_nodes`` is the search-node estimate backtracking and the
    compiled chain pay per node: for cyclic components the fanout chain
    (:func:`chain_nodes`), still capped by the worst cases ``d^vars``
    and ``Π|R|``; ``None`` for acyclic ones, whose compiled estimate is
    linear and whose backtracking estimate keeps the worst cases alone.
    """
    domain_size = max(len(structure.domain), 1)
    sizes = _atom_sizes(profile, structure)
    facts = sum(sizes)
    est_nodes = None
    nodes = COST_CEILING
    if "backtracking" in engines or (
        "compiled" in engines and not profile.acyclic
    ):
        join = 1.0
        for size in sizes:
            join *= float(max(size, 1))
            if join >= COST_CEILING:
                join = COST_CEILING
                break
        nodes = min(
            _saturating_power(float(domain_size), profile.variable_count), join
        )
        if not profile.acyclic:
            nodes = min(nodes, chain_nodes(profile, structure, sizes))
            est_nodes = nodes
    visits: dict[str, float] = {}
    for engine in engines:
        if engine == "acyclic":
            visits[engine] = (
                _ACYCLIC_BASE
                + _ACYCLIC_PER_FACT * facts
                + _ACYCLIC_PER_ATOM * profile.atom_count
            )
        elif engine == "treewidth":
            table = _saturating_power(
                float(domain_size), profile.treewidth_bound + 1
            )
            bags = max(profile.variable_count, 1)
            visits[engine] = (
                _TREEWIDTH_BASE + _TREEWIDTH_PER_ENTRY * bags * table
            )
        elif engine == "backtracking":
            # Every atom's facts are scanned at least once (the match
            # cache fills per binding), then each search node pays an
            # interpreted fail-first step, priced above a chain step.
            visits[engine] = (
                _BACKTRACKING_BASE
                + _BACKTRACKING_PER_FACT * facts
                + _BACKTRACKING_PER_NODE * nodes
            )
        elif engine == "compiled":
            # Index build: linear in the facts, plus a per-atom closure /
            # grouping setup.  Residual search: free for acyclic shapes
            # (the array passes are folded into the per-fact term); the
            # chain's nodes for cyclic ones, each a hash lookup instead
            # of the interpreter's fact scan.
            build = (
                _COMPILED_BASE
                + _COMPILED_PER_FACT * facts
                + _COMPILED_PER_ATOM * profile.atom_count
            )
            if not profile.acyclic:
                build += _COMPILED_PER_NODE * nodes
            visits[engine] = build
        else:
            raise ValueError(f"no cost model for engine {engine!r}")
        visits[engine] = min(visits[engine], COST_CEILING)
    return visits, est_nodes


def estimate_cost(
    engine: str,
    profile: ComponentProfile,
    structure: Structure,
) -> float:
    """Predicted cost of ``engine`` on the component, in fact visits.

    Exactly what :func:`select_engine` scores ``engine`` with; batch
    evaluation packs its process pool by it, for explicit engines too.
    """
    visits, _ = _visits((engine,), profile, structure)
    return visits[engine]


def select_engine(
    component: ConjunctiveQuery,
    profile: ComponentProfile,
    structure: Structure,
) -> tuple[str, float, float | None]:
    """The cheapest safe engine: ``(engine, est_cost, est_nodes)``.

    ``est_nodes`` is the search-node estimate behind the backtracking and
    compiled-chain costs (``None`` for acyclic components, see
    :func:`_visits`); EXPLAIN shows it next to the cost.
    """
    engines = eligible_engines(component, profile, structure)
    visits, est_nodes = _visits(engines, profile, structure)
    engine = min(engines, key=lambda name: (visits[name], _PREFERENCE[name]))
    return engine, visits[engine], est_nodes
