"""A canonicalization-keyed LRU cache for component counts.

The reductions of Section 4 emit factorized queries whose connected
components repeat massively — ``φ ↑ k`` alone produces ``k`` copies of the
same component differing only in variable names — and every
lemma-certification or counterexample-search loop re-counts them on the
same structures.  Since ``φ(D)`` is invariant under bijective renaming of
``φ``'s variables, all those copies can share one evaluation.

:func:`canonical_component` renames a (connected-component) query into a
canonical form: α-equivalent components — equal up to a variable
renaming — map to the *same* canonical query, which then keys the cache.
The renaming is computed with the 1-WL color refinement of
:func:`repro.relational.isomorphism.refine_colors` extended to query
components (variables are colored by their atom/inequality incidence;
constants stay fixed, as homomorphisms fix them).

Soundness does not depend on the canonicalization being *complete*: a key
is the full canonically-renamed query, so two components share a key only
when their renamed forms are literally equal — and a bijective renaming
never changes a count.  An imperfect tie-break merely costs cache hits,
never correctness.

:class:`LRUTier` is the one bounded, thread-safe LRU map behind every
cache of the stack: :class:`CountCache` (the component counts, shared
within a :func:`repro.homomorphism.batch.count_many` batch and reusable
across calls when passed explicitly; hits/misses/evictions mirrored into
the active :mod:`repro.obs` registry as ``cache.*`` counters), the
containment verdict cache, and the planner's four levels.  This module
is also the only place that builds or reads the fingerprint part of a
key (:func:`component_fingerprint`, :func:`key_dependencies`,
:func:`key_is_current`).
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Hashable, Mapping

from repro.obs import metrics as obs_metrics
from repro.queries.cq import ConjunctiveQuery
from repro.queries.terms import Term, Variable
from repro.relational.isomorphism import refine_colors
from repro.relational.structure import Structure

__all__ = [
    "CountCache",
    "LRUTier",
    "canonical_component",
    "component_cache_key",
    "component_fingerprint",
    "is_affected",
    "key_dependencies",
    "key_is_current",
]

#: Default bound on cached component counts (entries, not bytes).
DEFAULT_CACHE_SIZE = 4096

#: Tag marking the structure part of a cache key as a dependency
#: fingerprint (lets invalidation recognize its own key shape).
_FP_TAG = "§fp"

#: Marker for a constant the structure does not interpret (evaluating such
#: a component raises, and errors are never cached, but the key must still
#: be well-defined and distinct from every real interpretation).
_MISSING = ("§missing",)


def _term_code(term: Term, colors: Mapping[Variable, Hashable]):
    """A rename-invariant rendering of one term under the current colors."""
    if isinstance(term, Variable):
        return colors[term]
    return ("const", term.name)


def canonical_component(query: ConjunctiveQuery) -> ConjunctiveQuery:
    """The query with variables renamed to a canonical ``_c0, _c1, …``.

    α-equivalent queries (equal up to bijective variable renaming, with
    atoms in corresponding order) produce identical results; constants are
    never renamed.  The output is a plain :class:`ConjunctiveQuery`, so it
    is hashable and compares by its atom/inequality sets — exactly what a
    cache key needs.
    """
    variables = query.variables
    if not variables:
        return query

    occurrences: dict[Variable, list] = {v: [] for v in variables}
    for atom in query.atoms:
        for position, term in enumerate(atom.terms):
            if isinstance(term, Variable):
                occurrences[term].append((atom, position))
    neighbors: dict[Variable, list[Term]] = {v: [] for v in variables}
    for inequality in query.inequalities:
        left, right = inequality.left, inequality.right
        if isinstance(left, Variable):
            neighbors[left].append(right)
        if isinstance(right, Variable):
            neighbors[right].append(left)

    def signature(variable: Variable, colors: Mapping[Variable, Hashable]):
        atom_part = tuple(
            sorted(
                (
                    (
                        atom.relation,
                        position,
                        tuple(_term_code(t, colors) for t in atom.terms),
                    )
                    for atom, position in occurrences[variable]
                ),
                key=repr,
            )
        )
        ineq_part = tuple(
            sorted(
                (_term_code(other, colors) for other in neighbors[variable]),
                key=repr,
            )
        )
        return (atom_part, ineq_part)

    initial = {
        variable: tuple(
            sorted(
                (atom.relation, position, atom.arity)
                for atom, position in occurrences[variable]
            )
        )
        for variable in variables
    }
    colors = refine_colors(initial, signature)

    # Canonical numbering: scan atoms (then inequalities) in the order of
    # their rename-invariant renderings and number variables on first
    # sight.  Ties between identically-rendered atoms fall back to the
    # query's stored order, which corresponds across renamed copies.
    sorted_atoms = sorted(
        query.atoms,
        key=lambda atom: repr(
            (atom.relation, tuple(_term_code(t, colors) for t in atom.terms))
        ),
    )
    sorted_inequalities = sorted(
        query.inequalities,
        key=lambda ineq: repr(
            (_term_code(ineq.left, colors), _term_code(ineq.right, colors))
        ),
    )
    mapping: dict[Variable, Variable] = {}
    for atom in sorted_atoms:
        for term in atom.terms:
            if isinstance(term, Variable) and term not in mapping:
                mapping[term] = Variable(f"_c{len(mapping)}")
    for inequality in sorted_inequalities:
        for term in (inequality.left, inequality.right):
            if isinstance(term, Variable) and term not in mapping:
                mapping[term] = Variable(f"_c{len(mapping)}")
    return query.rename(mapping)


def component_fingerprint(
    component: ConjunctiveQuery, structure: Structure
) -> tuple:
    """The part of ``structure`` a component's count can depend on.

    ``count(component, structure)`` is fully determined by

    * the fact sets of the relations named by the component's atoms
      (captured as their content fingerprints; a relation missing from the
      schema is recorded as ``None`` — evaluation raises, and errors are
      never cached, so the marker only has to be distinct);
    * the interpretations of the constants the component mentions;
    * ``len(structure.domain)``, but *only* when some variable occurs in
      no atom (such variables range over the whole domain; inequalities
      compare them against values that are themselves domain members, so
      only the domain's size matters, never its identity).

    Keying cache entries by this instead of the whole structure makes
    entries survive every mutation that provably cannot change the count —
    relation-scoped invalidation falls out of the key itself.
    """
    relations = sorted({atom.relation for atom in component.atoms})
    rel_part = tuple(
        (
            name,
            structure.relation_fingerprint(name)
            if name in structure.schema
            else None,
        )
        for name in relations
    )
    const_part = tuple(
        (
            name,
            structure.constants[name]
            if structure.interprets(name)
            else _MISSING,
        )
        for name in sorted(c.name for c in component.constants)
    )
    atom_variables = {
        term
        for atom in component.atoms
        for term in atom.terms
        if isinstance(term, Variable)
    }
    dom_part = (
        len(structure.domain)
        if component.variables - atom_variables
        else None
    )
    return (_FP_TAG, rel_part, const_part, dom_part)


def component_cache_key(
    component: ConjunctiveQuery, structure: Structure, engine: str
) -> tuple:
    """The cache key of one ``(component, structure, engine)`` evaluation.

    The structure enters through :func:`component_fingerprint`: only the
    relations, constants and (when relevant) domain size the component can
    actually see.  The engine is part of the key on purpose: all engines
    agree on the value, but keeping them apart means a differential run
    never reads a number another engine computed.
    """
    return (
        canonical_component(component),
        component_fingerprint(component, structure),
        engine,
    )


def key_dependencies(key) -> tuple[frozenset[str], bool] | None:
    """``(relations, domain_dependent)`` of a fingerprint-keyed entry.

    Count keys ``(canonical, fingerprint, engine)`` and the planner's
    compiled-artifact keys ``(canonical, fingerprint)`` both carry a
    :func:`component_fingerprint` second; this reads the relation names
    it depends on and whether it depends on the domain size.  Returns
    ``None`` for keys of any other shape (relation-scoped invalidation
    must treat those as depending on *everything*).
    """
    fingerprint = key[1] if isinstance(key, tuple) and len(key) >= 2 else None
    if (
        isinstance(fingerprint, tuple)
        and len(fingerprint) == 4
        and fingerprint[0] == _FP_TAG
    ):
        relations = frozenset(name for name, _ in fingerprint[1])
        return relations, fingerprint[3] is not None
    return None


def key_is_current(key, structure: Structure) -> bool:
    """Is a fingerprint-keyed entry keyed by ``structure``'s content?

    Exactly ``key[1] == component_fingerprint(key[0], structure)``, with
    the relation contents compared first: entries of other databases
    sharing the cache (most entries, on a server) fail there without
    paying for the whole fingerprint.
    """
    fingerprint = key[1]
    for name, content in fingerprint[1]:
        if name in structure.schema:
            if content != structure.relation_fingerprint(name):
                return False
        elif content is not None:
            return False
    return fingerprint == component_fingerprint(key[0], structure)


def is_affected(dependencies, touched: frozenset, domain_changed: bool) -> bool:
    """Can a change to ``touched`` (and the domain) stale an entry?

    ``dependencies`` is a :func:`key_dependencies` result; ``None`` (an
    unrecognized key, or an undecodable durable file) is conservatively
    affected.
    """
    if dependencies is None:
        return True
    relations, domain_dependent = dependencies
    return bool(relations & touched) or (domain_changed and domain_dependent)


_ABSENT = object()


class LRUTier:
    """A bounded, thread-safe LRU map: the one cache primitive.

    Every cache of the stack — component counts, containment verdicts,
    and the planner's profile and compiled-artifact levels — is one of
    these.  Values are never ``None`` (:meth:`lookup` returns ``None`` on
    a miss).

    ``counter_prefix`` mirrors traffic into the active :mod:`repro.obs`
    registry as ``<prefix>hits`` / ``<prefix>misses`` /
    ``<prefix>evictions`` (``None``: no counters).  ``durable_tier`` names
    the :class:`repro.shard.persist.DurableCacheStore` tier the map
    mirrors once a store is attached with :meth:`attach_durable`.

    >>> tier = LRUTier(max_entries=2)
    >>> tier.store("a", 1); tier.store("b", 2); tier.store("c", 3)
    >>> tier.lookup("a") is None  # evicted, capacity 2
    True
    >>> tier.lookup("c")
    3
    """

    def __init__(
        self,
        max_entries: int,
        counter_prefix: str | None = None,
        durable_tier: str | None = None,
    ) -> None:
        if max_entries < 1:
            raise ValueError(f"cache needs max_entries >= 1, got {max_entries}")
        self._max_entries = max_entries
        self._entries: OrderedDict = OrderedDict()
        self._lock = threading.Lock()
        self._hits = 0
        self._misses = 0
        self._evictions = 0
        if counter_prefix is None:
            self._counters = None
        else:
            self._counters = tuple(
                counter_prefix + event for event in ("hits", "misses", "evictions")
            )
        self.durable_tier = durable_tier
        #: The attached durable store, or ``None``.
        self.durable = None

    def attach_durable(self, durable) -> None:
        """Mirror this map into a durable tier.

        ``durable`` (a :class:`repro.shard.persist.DurableCacheStore`)
        receives ``record(tier, key, value)`` after every :meth:`store`
        and ``forget(tier, key, value)`` after every :meth:`discard`,
        both *outside* this map's lock — the hot path never blocks on
        disk I/O held under the lock.  Capacity evictions and
        :meth:`clear` leave the disk alone: disk is the bigger cache.
        Attaching replaces any previous tier; ``None`` detaches.
        """
        self.durable = durable

    def lookup(self, key):
        """The cached value (refreshing its recency), or ``None``."""
        with self._lock:
            value = self._entries.get(key)
            if value is not None:
                self._entries.move_to_end(key)
                self._hits += 1
            else:
                self._misses += 1
        if self._counters is not None:
            obs_metrics.add(self._counters[0 if value is not None else 1])
        return value

    def note_hit(self) -> None:
        """Record a hit that bypassed :meth:`lookup`.

        The batch evaluator deduplicates identical keys *within* one batch
        before their shared evaluation has finished, and the planner's
        exact-object front level answers before this map is asked; those
        reuses are hits in every sense that matters for the hit rate.
        """
        with self._lock:
            self._hits += 1
        if self._counters is not None:
            obs_metrics.add(self._counters[0])

    def store(self, key, value) -> None:
        evicted = 0
        with self._lock:
            entries = self._entries
            entries[key] = value
            entries.move_to_end(key)
            while len(entries) > self._max_entries:
                entries.popitem(last=False)
                evicted += 1
            self._evictions += evicted
        if evicted and self._counters is not None:
            obs_metrics.add(self._counters[2], evicted)
        if self.durable is not None:
            self.durable.record(self.durable_tier, key, value)

    def discard(self, key) -> bool:
        """Retire one entry; True when it was present.

        Not counted as an eviction (evictions measure capacity pressure,
        not invalidation), but it does reach the durable tier: a retired
        entry must not come back on the next restore.
        """
        with self._lock:
            value = self._entries.pop(key, _ABSENT)
        if value is _ABSENT:
            return False
        if self.durable is not None:
            self.durable.forget(self.durable_tier, key, value)
        return True

    def discard_where(self, predicate) -> int:
        """Drop every entry whose key satisfies ``predicate``; the count.

        The in-memory half of relation-scoped invalidation; the caller
        owns the disk half (one sweep instead of a file per entry).
        """
        with self._lock:
            victims = [key for key in self._entries if predicate(key)]
            for key in victims:
                del self._entries[key]
        return len(victims)

    def items(self) -> list[tuple]:
        """A point-in-time ``(key, value)`` snapshot (LRU order, coldest
        first) — what delta evaluation migrates and snapshots persist."""
        with self._lock:
            return list(self._entries.items())

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def __len__(self) -> int:
        # Under the lock: a store briefly holds one entry over the bound
        # before it evicts, and no reader may observe that.
        with self._lock:
            return len(self._entries)

    @property
    def max_entries(self) -> int:
        return self._max_entries

    @property
    def hits(self) -> int:
        return self._hits

    @property
    def misses(self) -> int:
        return self._misses

    @property
    def evictions(self) -> int:
        return self._evictions

    @property
    def hit_rate(self) -> float:
        total = self._hits + self._misses
        return self._hits / total if total else 0.0

    def stats(self) -> dict:
        """A consistent plain-data snapshot for reports and tests."""
        with self._lock:
            entries = len(self._entries)
            hits, misses = self._hits, self._misses
            evictions = self._evictions
        return {
            "entries": entries,
            "max_entries": self._max_entries,
            "hits": hits,
            "misses": misses,
            "evictions": evictions,
            "hit_rate": hits / (hits + misses) if hits + misses else 0.0,
        }

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(entries={len(self._entries)}/"
            f"{self._max_entries}, hits={self._hits}, misses={self._misses})"
        )


class CountCache(LRUTier):
    """The bounded LRU of exact component counts (``cache.*`` counters).

    >>> cache = CountCache(max_entries=2)
    >>> cache.store("a", 1); cache.store("b", 2); cache.store("c", 3)
    >>> cache.lookup("a") is None  # evicted, capacity 2
    True
    >>> cache.lookup("c")
    3
    """

    def __init__(self, max_entries: int = DEFAULT_CACHE_SIZE) -> None:
        super().__init__(max_entries, "cache.", durable_tier="counts")

    def invalidate_relations(
        self, relations, *, domain_changed: bool = False
    ) -> int:
        """Evict every entry whose key depends on one of ``relations``.

        Relation-scoped invalidation: an entry is dropped iff
        :func:`is_affected` says so.  Returns the number of entries
        evicted and mirrors it into the ``cache.invalidations`` counter.
        """
        touched = frozenset(relations)
        dropped = self.discard_where(
            lambda key: is_affected(
                key_dependencies(key), touched, domain_changed
            )
        )
        if dropped:
            obs_metrics.add("cache.invalidations", dropped)
        if self.durable is not None:
            # Unconditional (not gated on ``dropped``): the durable tier
            # can hold entries this process never loaded, and they are
            # just as stale after the mutation.
            self.durable.invalidate_relations(
                relations, domain_changed=domain_changed
            )
        return dropped
