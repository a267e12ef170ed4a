"""Structural analysis of connected query components.

The planner's decisions rest on a handful of structural facts about each
connected component: is it α-acyclic (GYO-reducible, so the Yannakakis
engine applies), how wide is it (a greedy elimination bound on the
treewidth of its primal graph, which predicts the tree-decomposition
engine's table sizes), how big is it (variables, atoms, inequalities),
and how do its atoms join (the *join pattern*: each atom's relation and
terms in canonical variable numbering, which the cost model walks against
per-structure fanout statistics).  :func:`analyze_component` computes all
of it once and packages the result as an immutable
:class:`ComponentProfile`.

Analysis depends only on the *query*, never on the database, so profiles
are memoized in a canonicalization-keyed :class:`PlanCache`: α-equivalent
components — the ``φ ↑ k`` copies the Section 4 reductions mass-produce —
share one analysis, exactly as their counts share one evaluation in
:class:`repro.homomorphism.cache.CountCache`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from repro.homomorphism.acyclic import join_tree
from repro.homomorphism.cache import (
    LRUTier,
    canonical_component,
    component_fingerprint,
    is_affected,
    key_dependencies,
)
from repro.queries.cq import ConjunctiveQuery
from repro.queries.terms import Variable

__all__ = [
    "ComponentProfile",
    "PlanCache",
    "analyze_component",
    "greedy_treewidth_bound",
]

#: Join-pattern marker for a constant term (variables are numbered >= 0).
CONSTANT_TERM = -1

#: One atom of a join pattern: ``(relation, term ids)``.
PatternAtom = tuple[str, tuple[int, ...]]

#: Default bound on cached component profiles (entries, not bytes).
DEFAULT_PLAN_CACHE_SIZE = 2048

#: Bound on cached compiled artifacts — far smaller than the profile
#: bound, since each artifact holds per-relation fact indexes.
COMPILED_CACHE_SIZE = 256


@dataclass(frozen=True)
class ComponentProfile:
    """What the cost model needs to know about one connected component."""

    atom_count: int
    variable_count: int
    inequality_count: int
    acyclic: bool
    #: Greedy (min-degree elimination) upper bound on primal treewidth.
    treewidth_bound: int
    #: One ``(relation, arity)`` entry *per atom* (duplicates kept: the
    #: cost model sums fact scans and multiplies join sizes atom-wise).
    relations: tuple[tuple[str, int], ...]
    #: The atoms as ``(relation, term ids)`` in canonical variable
    #: numbering (:data:`CONSTANT_TERM` for constants), sorted — so
    #: α-equivalent components share one pattern (see :func:`join_pattern`).
    join_pattern: tuple[PatternAtom, ...]

    @cached_property
    def pattern_variables(self) -> tuple[frozenset[int], ...]:
        """Per join-pattern atom, its variable ids (constants dropped)."""
        return tuple(
            frozenset(term for term in terms if term != CONSTANT_TERM)
            for _, terms in self.join_pattern
        )

    def describe(self) -> str:
        shape = "acyclic" if self.acyclic else f"tw<={self.treewidth_bound}"
        return (
            f"{self.atom_count} atoms, {self.variable_count} vars, "
            f"{self.inequality_count} ineqs, {shape}"
        )


def _primal_adjacency(query: ConjunctiveQuery) -> dict:
    """Primal graph as an adjacency dict: variables, co-occurrence edges."""
    adjacency: dict = {variable: set() for variable in query.variables}
    for atom in query.atoms:
        atom_variables = sorted(set(atom.variables()))
        for i, first in enumerate(atom_variables):
            for second in atom_variables[i + 1 :]:
                adjacency[first].add(second)
                adjacency[second].add(first)
    for inequality in query.inequalities:
        ineq_variables = sorted(set(inequality.variables()))
        if len(ineq_variables) == 2:
            left, right = ineq_variables
            adjacency[left].add(right)
            adjacency[right].add(left)
    return adjacency


def greedy_treewidth_bound(query: ConjunctiveQuery) -> int:
    """An upper bound on the primal-graph treewidth via min-degree elimination.

    Repeatedly eliminate a minimum-degree vertex, turning its neighborhood
    into a clique; the largest neighborhood eliminated bounds the width.
    Deterministic (ties break on the variable's sort order), dependency-free
    and fast — the planner runs it on every cache-missed component, so it
    must stay cheap even for the thousand-atom reduction queries.
    """
    adjacency = _primal_adjacency(query)
    width = 0
    while adjacency:
        vertex = min(adjacency, key=lambda v: (len(adjacency[v]), v))
        neighbors = adjacency.pop(vertex)
        width = max(width, len(neighbors))
        for first in neighbors:
            adjacency[first].discard(vertex)
            adjacency[first].update(neighbors - {first})
            adjacency[first].discard(first)
    return width


def join_pattern(canonical: ConjunctiveQuery) -> tuple[PatternAtom, ...]:
    """The atoms of a canonical component as sorted ``(relation, term ids)``.

    ``canonical`` must be the output of
    :func:`repro.homomorphism.cache.canonical_component`, whose variables
    are named ``_c0, _c1, …``; the number becomes the term id, and every
    constant becomes :data:`CONSTANT_TERM` (the cost model treats a
    constant position like a bound one).
    """
    return tuple(
        sorted(
            (
                atom.relation,
                tuple(
                    int(term.name[2:])
                    if isinstance(term, Variable)
                    else CONSTANT_TERM
                    for term in atom.terms
                ),
            )
            for atom in canonical.atoms
        )
    )


def analyze_component(
    component: ConjunctiveQuery, canonical: ConjunctiveQuery | None = None
) -> ComponentProfile:
    """The structural profile of one connected component (uncached).

    ``canonical`` is the component's canonical form when the caller
    already has it (the :class:`PlanCache` key); otherwise it is computed
    here.
    """
    if canonical is None:
        canonical = canonical_component(component)
    return ComponentProfile(
        atom_count=component.atom_count,
        variable_count=component.variable_count,
        inequality_count=component.inequality_count,
        acyclic=join_tree(component) is not None,
        treewidth_bound=greedy_treewidth_bound(component),
        relations=tuple(
            sorted((atom.relation, atom.arity) for atom in component.atoms)
        ),
        join_pattern=join_pattern(canonical),
    )


class PlanCache:
    """Four :class:`~repro.homomorphism.cache.LRUTier` levels of planner state.

    * ``profiles`` maps canonical components — computed by
      :func:`repro.homomorphism.cache.canonical_component`, the same
      keying discipline as :class:`~repro.homomorphism.cache.CountCache`,
      so both caches hit on exactly the same repeated-component traffic —
      to their :class:`ComponentProfile`.  Its traffic is mirrored as
      ``plan.cache_hits`` / ``plan.cache_misses`` /
      ``plan.cache_evictions``; it is the level a durable store mirrors.
    * ``compiled`` holds the *compiled artifacts* of
      :mod:`repro.homomorphism.compiled`, keyed by ``(canonical
      component, component_fingerprint)``: unlike profiles they depend on
      the database, but only on the fact sets of the relations the
      component reads (plus its constants and, for components with
      atom-free variables, the domain size).  The fingerprint keying
      makes the level version-aware: a database delta leaves every
      artifact of untouched relations addressable, and delta evaluation
      migrates the rest through the tier directly.  Traffic is mirrored
      as ``plan.compile.cache_*``; the bound is the smaller
      :data:`COMPILED_CACHE_SIZE`, since each artifact holds per-relation
      fact indexes.  Artifacts are closures and are never persisted.

    Each sits behind an *exact-equality* front level: search loops
    re-plan the very same query object thousands of times, and a plain
    dict lookup is far cheaper than 1-WL refinement.  A front hit counts
    as a hit of the level behind it, so hits + misses is one per call.
    """

    def __init__(self, max_entries: int = DEFAULT_PLAN_CACHE_SIZE) -> None:
        self.profiles = LRUTier(max_entries, "plan.cache_", durable_tier="plans")
        self._profile_front = LRUTier(max_entries)
        self.compiled = LRUTier(COMPILED_CACHE_SIZE, "plan.compile.cache_")
        self._compiled_front = LRUTier(COMPILED_CACHE_SIZE)

    @property
    def durable(self):
        """The durable store the profile level mirrors into, or ``None``."""
        return self.profiles.durable

    def attach_durable(self, durable) -> None:
        """Mirror the profile level into a durable tier (see
        :meth:`LRUTier.attach_durable`); compiled artifacts rebuild on
        demand from restored profiles."""
        self.profiles.attach_durable(durable)

    @staticmethod
    def _two_level(front: LRUTier, tier: LRUTier, front_key, canonical_key, build):
        """``(value, was_hit)`` through ``front`` then ``tier``.

        ``canonical_key()`` derives the canonical key only on a front
        miss; ``build(key)`` computes the value only on a full miss.
        """
        value = front.lookup(front_key)
        if value is not None:
            tier.note_hit()
            return value, True
        key = canonical_key()
        value = tier.lookup(key)
        hit = value is not None
        if not hit:
            value = build(key)
            tier.store(key, value)
        front.store(front_key, value)
        return value, hit

    def profile(self, component: ConjunctiveQuery) -> tuple[ComponentProfile, bool]:
        """``(profile, was_hit)`` for the component, analyzing on a miss."""
        return self._two_level(
            self._profile_front,
            self.profiles,
            component,
            lambda: canonical_component(component),
            lambda key: analyze_component(component, key),
        )

    def compiled_artifact(self, component: ConjunctiveQuery, structure, build):
        """``(artifact, was_hit)``; calls ``build(canonical, structure)`` on a miss.

        The artifact is built from (and keyed by) the component's
        *canonical* form, so α-equivalent components on the same
        structure — the ``φ ↑ k`` copies — share one compilation.
        Homomorphism counts are invariant under variable renaming, which
        is exactly what makes the shared artifact sound.
        """
        return self._two_level(
            self._compiled_front,
            self.compiled,
            (component, structure),
            lambda: (
                canonical_component(component),
                component_fingerprint(component, structure),
            ),
            lambda key: build(key[0], structure),
        )

    def compiled_stats(self) -> dict:
        """The artifact level's :meth:`LRUTier.stats` (reports, tests)."""
        return self.compiled.stats()

    def invalidate_relations(
        self, relations, *, domain_changed: bool = False
    ) -> int:
        """Evict compiled artifacts depending on any of ``relations``.

        Profiles are structure-independent and survive untouched.  The
        exact-object front level is cleared wholesale: its keys embed full
        structures, so stale entries can never be *hit* after a mutation,
        but dropping them keeps the store's contents meaningful.  Returns
        the number of artifacts evicted.
        """
        touched = frozenset(relations)
        dropped = self.compiled.discard_where(
            lambda key: is_affected(
                key_dependencies(key), touched, domain_changed
            )
        )
        self._compiled_front.clear()
        return dropped

    def clear(self) -> None:
        for tier in (
            self.profiles,
            self._profile_front,
            self.compiled,
            self._compiled_front,
        ):
            tier.clear()

    def __len__(self) -> int:
        return len(self.profiles)

    @property
    def max_entries(self) -> int:
        return self.profiles.max_entries

    @property
    def hits(self) -> int:
        return self.profiles.hits

    @property
    def misses(self) -> int:
        return self.profiles.misses

    def stats(self) -> dict:
        """Profile-level ``entries``/``max_entries``/``hits``/``misses``."""
        stats = self.profiles.stats()
        return {
            name: stats[name]
            for name in ("entries", "max_entries", "hits", "misses")
        }

    def __repr__(self) -> str:
        return (
            f"PlanCache(entries={len(self)}/{self.max_entries}, "
            f"hits={self.hits}, misses={self.misses})"
        )
