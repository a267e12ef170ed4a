"""Unified evaluation front-end: ``φ(D)`` for queries and query products.

:func:`count` is the library's single entry point for bag-semantics
evaluation.  It factorizes plain conjunctive queries into connected
components (counts multiply, see
:meth:`repro.queries.cq.ConjunctiveQuery.connected_components`), exploits
the lazy exponents of :class:`repro.queries.product.QueryProduct`
(``(θ↑k)(D) = θ(D)^k``, Definition 2), and dispatches each component to a
counting engine.

``engine`` selects that engine per component: one of the four explicit
engines (``"backtracking"``, ``"treewidth"``, ``"acyclic"``, or
``"compiled"`` — the specialized per-plan evaluators of
:mod:`repro.homomorphism.compiled`), or ``"auto"`` — the
:mod:`repro.planner` cost model picks the cheapest safe engine for each
component individually.  ``auto`` is a drop-in for the default: the
count is bit-identical (all engines agree exactly; the qa oracles
enforce it differentially), and the planner only ever selects an engine
that cannot raise where the backtracking engine would not.
"""

from __future__ import annotations

import itertools
from typing import Literal, Union

from repro.errors import EvaluationError
from repro.homomorphism.acyclic import count_homomorphisms_acyclic
from repro.homomorphism.backtracking import count_homomorphisms
from repro.homomorphism.compiled import count_homomorphisms_compiled
from repro.homomorphism.treewidth_dp import count_homomorphisms_td
from repro.obs import metrics as obs_metrics
from repro.queries.atoms import Inequality
from repro.queries.cq import ConjunctiveQuery
from repro.queries.product import QueryProduct
from repro.queries.terms import Constant, Term, Variable
from repro.queries.ucq import UnionOfConjunctiveQueries

__all__ = ["count", "evaluate", "count_ucq", "Engine", "ENGINE_NAMES"]

Engine = Literal["backtracking", "treewidth", "acyclic", "compiled", "auto"]
Countable = Union[ConjunctiveQuery, QueryProduct]

_ENGINES = {
    "backtracking": count_homomorphisms,
    "treewidth": count_homomorphisms_td,
    "acyclic": count_homomorphisms_acyclic,
    "compiled": count_homomorphisms_compiled,
}

#: Every name ``engine=`` accepts, in the order CLI choices list them.
ENGINE_NAMES = ("auto", *_ENGINES)

#: Guard for the opt-in inclusion-exclusion path (2^q terms).
INCLUSION_EXCLUSION_LIMIT = 12


def _resolve_engine(engine: str):
    """The counting function for ``engine``, validated up front.

    Every public entry point calls this before touching the query, so an
    unknown engine fails fast even for :class:`QueryProduct` inputs whose
    factor evaluation would otherwise defer (or, for empty products and
    trivial bounds, entirely skip) the name check.  ``"auto"`` returns
    ``None``: the planner assigns a concrete engine per component at
    dispatch time.
    """
    if engine == "auto":
        return None
    try:
        return _ENGINES[engine]
    except KeyError:
        raise EvaluationError(
            f"unknown engine {engine!r}; choose from "
            f"{sorted([*_ENGINES, 'auto'])}"
        ) from None


def _tag_engine(error: EvaluationError, engine: str) -> EvaluationError:
    """Append the chosen engine to a mid-evaluation error, once."""
    if getattr(error, "engine", None) is not None:
        return error
    tagged = EvaluationError(f"{error} [engine: {engine}]")
    tagged.engine = engine  # type: ignore[attr-defined]
    return tagged


def count(
    query: Countable,
    structure,
    engine: Engine = "backtracking",
    use_inclusion_exclusion: bool = False,
    cache=None,
) -> int:
    """``φ(D)``: the number of homomorphisms from ``φ`` to ``D``.

    Accepts a :class:`ConjunctiveQuery` or a factorized
    :class:`QueryProduct`; returns an exact Python integer.

    ``engine`` picks the counting engine.  ``"auto"`` routes every
    connected component through the :mod:`repro.planner` cost model,
    which selects the cheapest safe engine per component (Yannakakis for
    acyclic shapes, tree-decomposition DP for wide-but-low-treewidth
    ones, backtracking otherwise); explicit names force one engine for
    all components, exactly as before.

    ``use_inclusion_exclusion`` switches queries with (few) inequalities to
    the alternative evaluation ``|Hom with all ≠| = Σ_{S⊆ineqs}
    (−1)^{|S|}·|Hom of the S-merged query|``, which restores the component
    factorization that inequalities break.  The default backtracking
    engine's subtree memoization handles those shapes at least as fast in
    every benchmarked case (see the E14 ablation), so the transform is
    opt-in; it remains valuable as an independent implementation for
    differential testing.

    ``cache`` opts into component-count reuse: pass a
    :class:`repro.homomorphism.cache.CountCache` and every connected
    component is looked up by its canonical (α-equivalence) form before
    being dispatched to an engine — repeated components across factors,
    calls, and structures then cost one evaluation.  Caching never changes
    the result; by default (``None``) nothing is cached.

    >>> from repro.queries import parse_query
    >>> from repro.relational import Schema, Structure
    >>> d = Structure(Schema.from_arities({"E": 2}), {"E": [(1, 2), (2, 1)]})
    >>> count(parse_query("E(x, y) & E(y, x)"), d)
    2
    """
    counter = _resolve_engine(engine)
    if isinstance(query, QueryProduct):
        registry = obs_metrics.active_registry()
        total = 1
        for factor, exponent in query:
            if registry is not None:
                registry.counter("engine.product_factors").inc()
            value = count(factor, structure, engine=engine, cache=cache)
            if value == 0:
                return 0
            total *= value**exponent
        return total
    if not isinstance(query, ConjunctiveQuery):
        raise EvaluationError(
            f"cannot evaluate object of type {type(query).__name__}"
        )
    try:
        if (
            use_inclusion_exclusion
            and engine == "backtracking"
            and 1 <= query.inequality_count <= INCLUSION_EXCLUSION_LIMIT
        ):
            return _count_inclusion_exclusion(query, structure)
        return _count_components(query, structure, counter, engine, cache)
    except EvaluationError as error:
        raise _tag_engine(error, engine) from error


def _count_components(
    query: ConjunctiveQuery,
    structure,
    counter,
    engine: str = "backtracking",
    cache=None,
) -> int:
    registry = obs_metrics.active_registry()
    components = query.connected_components()
    if len(components) <= 1:
        return _dispatch(query, structure, counter, engine, registry, cache)
    if registry is not None:
        registry.counter("engine.factorizations").inc()
    total = 1
    for component in components:
        total *= _dispatch(component, structure, counter, engine, registry, cache)
        if total == 0:
            return 0
    return total


def _dispatch(component, structure, counter, engine: str, registry, cache=None) -> int:
    """One engine invocation on one connected component.

    This is the plan-execution seam: with ``engine="auto"`` the
    :mod:`repro.planner` cost model assigns the concrete engine here, per
    component, and everything downstream (cache keys, dispatch counters,
    error tags) sees only that concrete engine — so an ``auto`` run that
    selects, say, ``compiled`` is indistinguishable from an explicit
    ``compiled`` run of the same component.
    """
    if engine == "auto":
        from repro.planner import select_for

        step = select_for(component, structure)
        engine = step.engine
        counter = _ENGINES[engine]
    key = None
    if cache is not None:
        from repro.homomorphism.cache import component_cache_key

        key = component_cache_key(component, structure, engine)
        hit = cache.lookup(key)
        if hit is not None:
            return hit
    try:
        if registry is None:
            value = counter(component, structure)
        else:
            registry.counter(f"engine.dispatch.{engine}").inc()
            with registry.histogram(f"engine.time.{engine}").time():
                value = counter(component, structure)
    except EvaluationError as error:
        raise _tag_engine(error, engine) from error
    if key is not None:
        cache.store(key, value)
    return value


def _count_inclusion_exclusion(query: ConjunctiveQuery, structure) -> int:
    """Inclusion-exclusion over the query's inequalities.

    Each subset ``S`` contributes ``(−1)^{|S|}`` times the count of the
    inequality-free query with the endpoints of every inequality in ``S``
    identified.  Identification of two *distinct constants* makes the term
    zero unless the structure interprets them equally.
    """
    registry = obs_metrics.active_registry()
    if registry is not None:
        registry.counter("engine.ie_calls").inc()
    inequalities = query.inequalities
    if any(ineq.is_trivially_false() for ineq in inequalities):
        return 0
    base = query.without_inequalities()
    domain_size = len(structure.domain)
    total = 0
    for size in range(len(inequalities) + 1):
        for subset in itertools.combinations(inequalities, size):
            merged = _merge_inequality_endpoints(
                base, subset, structure, query.variables
            )
            if merged is None:
                if registry is not None:
                    registry.counter("engine.ie_terms_unsatisfiable").inc()
                continue
            if registry is not None:
                registry.counter("engine.ie_terms").inc()
            merged_query, representatives = merged
            # Variables that survive merging but occur in no atom still
            # range freely over the whole active domain.
            dangling = sum(
                1
                for variable in representatives
                if variable not in merged_query.variables
            )
            term = _count_components(
                merged_query, structure, count_homomorphisms
            ) * domain_size**dangling
            total += term if size % 2 == 0 else -term
    return total


def _merge_inequality_endpoints(
    base: ConjunctiveQuery,
    subset: tuple[Inequality, ...],
    structure,
    original_variables: frozenset[Variable],
) -> tuple[ConjunctiveQuery, frozenset[Variable]] | None:
    """The query with each inequality's endpoints identified.

    Returns the merged query together with the set of surviving variable
    representatives of the *original* query's variables, or ``None`` when
    the identifications are unsatisfiable in this structure (two constants
    with different interpretations).
    """
    parent: dict[Term, Term] = {}

    def find(term: Term) -> Term:
        parent.setdefault(term, term)
        while parent[term] != term:
            parent[term] = parent[parent[term]]
            term = parent[term]
        return term

    def union(left: Term, right: Term) -> bool:
        root_left, root_right = find(left), find(right)
        if root_left == root_right:
            return True
        # Prefer constants as representatives so variables get substituted.
        if isinstance(root_left, Constant) and isinstance(root_right, Constant):
            if structure.interpret(root_left.name) != structure.interpret(
                root_right.name
            ):
                return False
            parent[root_right] = root_left
            return True
        if isinstance(root_right, Constant):
            root_left, root_right = root_right, root_left
        parent[root_right] = root_left
        return True

    for inequality in subset:
        if not union(inequality.left, inequality.right):
            return None
    mapping = {
        term: find(term)
        for term in list(parent)
        if isinstance(term, Variable) and find(term) != term
    }
    representatives = frozenset(
        image
        for image in (
            mapping.get(variable, variable) for variable in original_variables
        )
        if isinstance(image, Variable)
    )
    merged_query = base.rename(mapping) if mapping else base
    return merged_query, representatives


def evaluate(query: Countable, structure, engine: Engine = "backtracking") -> int:
    """Alias of :func:`count`, matching the paper's ``φ(D)`` notation."""
    return count(query, structure, engine=engine)


def count_at_least(
    query: Countable,
    structure,
    bound: int,
    engine: Engine = "backtracking",
    cache=None,
) -> bool:
    """Is ``φ(D) ≥ bound``, without materializing astronomical powers?

    The reductions of Section 4 produce factorized queries with outer
    exponents like ``C = c·C₁`` that can exceed ``10^{100}``.  On *correct*
    databases every ``δ_b`` factor counts 1 and exact evaluation is cheap,
    but on a cheating database a factor of 2 raised to ``C`` would not fit
    in memory.  This predicate multiplies factor-by-factor and stops as
    soon as the bound is provably cleared: a factor ``v ≥ 2`` with exponent
    ``e`` exceeds ``bound`` whenever ``e ≥ bound.bit_length()``, so
    exponents are capped before powering.
    """
    _resolve_engine(engine)
    if bound <= 0:
        return True
    if isinstance(query, ConjunctiveQuery):
        return count(query, structure, engine=engine, cache=cache) >= bound
    if not isinstance(query, QueryProduct):
        raise EvaluationError(
            f"cannot evaluate object of type {type(query).__name__}"
        )
    cap = bound.bit_length() + 1
    # Two passes: a factor later in the product may evaluate to 0 and
    # annihilate everything, so no bound can be declared cleared until
    # every factor is known nonzero.  (Returning True the moment the
    # running product reached ``bound`` was exactly the bug the repro.qa
    # fuzzer's count_at_least oracle caught: with ``bound = 1`` a single
    # nonzero factor short-circuited past a zero factor behind it.)
    values: list[tuple[int, int]] = []
    for factor, exponent in query:
        value = count(factor, structure, engine=engine, cache=cache)
        if value == 0:
            return False
        values.append((value, exponent))
    total = 1
    for value, exponent in values:
        if value > 1:
            total *= value ** min(exponent, cap)
            if total >= bound:
                return True
    return total >= bound


def count_ucq(
    ucq: UnionOfConjunctiveQueries,
    structure,
    engine: Engine = "backtracking",
    workers: int = 1,
    cache=None,
) -> int:
    """Bag-semantics value of a boolean UCQ: the sum over its disjuncts.

    ``workers`` / ``cache`` route the disjuncts through
    :func:`repro.homomorphism.batch.count_many`, so disjuncts that share
    α-equivalent components (common for the blown-up unions the Section 5
    encodings emit) are counted once, optionally in parallel.

    The serial path shares one fresh
    :class:`~repro.homomorphism.cache.CountCache` across the disjuncts
    for the same reason: identical (α-equivalent) components routinely
    appear in several disjuncts, and re-counting them per disjunct was
    pure waste.  Pass ``cache=False`` for the honest no-reuse baseline.
    """
    _resolve_engine(engine)
    if workers != 1 or cache is not None:
        from repro.homomorphism.batch import count_many

        disjuncts = list(ucq)
        values = count_many(
            [(query, structure) for query, _ in disjuncts],
            engine=engine,
            workers=workers,
            cache=cache,
        )
        return sum(
            multiplicity * value
            for (_, multiplicity), value in zip(disjuncts, values)
        )
    from repro.homomorphism.cache import CountCache

    shared = CountCache()
    return sum(
        multiplicity * count(query, structure, engine=engine, cache=shared)
        for query, multiplicity in ucq
    )
