"""Incremental (delta) evaluation over a versioned database.

The paper's component machinery makes view maintenance cheap: by Lemma 1
multiplicativity (``count(φ₁×φ₂, D) = count(φ₁, D) · count(φ₂, D)``) a
query's count factorizes over its connected components, and a fact
insert/delete can only perturb components whose relations — and, through
constants, specific elements — intersect it.  Every other cached factor
is still exact and is *reused*, not recomputed.

:class:`DeltaEvaluator` packages that discipline around one logical
database:

* :meth:`~DeltaEvaluator.apply` advances the database by a
  :class:`~repro.relational.structure.Delta`, bumping only the touched
  relations' fingerprints, then walks the bound
  :class:`~repro.homomorphism.cache.CountCache` and the planner's
  compiled-artifact store: entries provably unaffected by the delta are
  *migrated* to the new fingerprint key (the constant-intersection
  refinement of :func:`delta_affects`), affected entries are evicted,
  and compiled artifacts are incrementally refreshed via
  :func:`~repro.homomorphism.compiled.refresh_component` instead of
  being rebuilt.
* :meth:`~DeltaEvaluator.evaluate` counts through any engine with the
  bound cache; cache hits are exactly the Lemma-1 factors reused across
  versions, and misses are the components the mutation history actually
  affected.

Observability (under an active registry): ``delta.applied``,
``delta.invalidations``, ``delta.migrated``, ``delta.reused_factors``,
``delta.affected_components`` counters and ``delta.apply`` /
``delta.evaluate`` spans.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

from repro.homomorphism.cache import (
    CountCache,
    component_fingerprint,
    is_affected,
    key_dependencies,
    key_is_current,
)
from repro.homomorphism.compiled import _effective_changes, refresh_component
from repro.obs import metrics as obs_metrics
from repro.obs.trace import span
from repro.queries.cq import ConjunctiveQuery
from repro.queries.terms import Constant, Variable
from repro.relational.structure import Delta, Structure

__all__ = ["DeltaEvaluator", "DeltaReport", "delta_affects"]


def _atom_can_match(atom, fact: tuple, structure: Structure) -> bool:
    """Can ``atom`` possibly be mapped onto ``fact``?

    Sound over-approximation: returns ``False`` only on a *proof* of
    impossibility — an arity mismatch, a constant position whose
    interpretation differs from the fact's value, or a repeated variable
    forced onto two different values.
    """
    if len(fact) != len(atom.terms):
        return False
    seen: dict[Variable, object] = {}
    for value, term in zip(fact, atom.terms):
        if isinstance(term, Constant):
            if not structure.interprets(term.name):
                return False
            if structure.interpret(term.name) != value:
                return False
        else:
            if term in seen and seen[term] != value:
                return False
            seen[term] = value
    return True


def delta_affects(
    component: ConjunctiveQuery,
    delta: Delta,
    structure: Structure,
    new_structure: Structure,
) -> bool:
    """Can applying ``delta`` to ``structure`` change the component's count?

    ``False`` is a proof of non-effect (the constant-intersection
    refinement): every fact the delta actually changes on the component's
    relations is matchable by *no* atom — each atom pins some position to
    a constant (or repeats a variable) in a way the fact contradicts —
    and the domain size is unchanged or irrelevant to the component.
    ``True`` merely means "cannot rule it out".
    """
    atom_variables = {
        term
        for atom in component.atoms
        for term in atom.terms
        if isinstance(term, Variable)
    }
    if component.variables - atom_variables and len(
        new_structure.domain
    ) != len(structure.domain):
        return True
    dependencies = {atom.relation for atom in component.atoms}
    for relation in delta.touched_relations() & dependencies:
        adds, removes = _effective_changes(structure, relation, delta)
        for fact in adds | removes:
            for atom in component.atoms:
                if atom.relation == relation and _atom_can_match(
                    atom, fact, structure
                ):
                    return True
    return False


@dataclass(frozen=True)
class DeltaReport:
    """What one :meth:`DeltaEvaluator.apply` did."""

    version: int
    touched_relations: tuple[str, ...]
    domain_changed: bool
    invalidated: int
    migrated: int
    refreshed_artifacts: int
    fingerprint: str

    def describe(self) -> str:
        touched = ",".join(self.touched_relations) or "-"
        return (
            f"version={self.version} touched=[{touched}] "
            f"invalidated={self.invalidated} migrated={self.migrated} "
            f"refreshed_artifacts={self.refreshed_artifacts} "
            f"fingerprint={self.fingerprint}"
        )


class DeltaEvaluator:
    """A versioned database plus the caches that track it.

    ``cache`` may be shared (the service shares one per-server
    :class:`CountCache` across all named databases): keys embed relation
    fingerprints, so entries of other databases — or of *this* database
    at older versions — are never corrupted, only entries whose
    fingerprints match the pre-delta content are migrated or evicted.
    ``plan_cache`` defaults to the process-wide planner cache.
    """

    def __init__(
        self,
        structure: Structure,
        engine: str = "auto",
        cache: CountCache | None = None,
        plan_cache=None,
    ) -> None:
        self._structure = structure
        self._engine = engine
        self._cache = cache if cache is not None else CountCache()
        if plan_cache is None:
            from repro.planner.plan import default_plan_cache

            plan_cache = default_plan_cache()
        self._plan_cache = plan_cache
        self._version = 0
        self._lock = threading.Lock()

    @property
    def structure(self) -> Structure:
        return self._structure

    @property
    def version(self) -> int:
        return self._version

    @property
    def engine(self) -> str:
        return self._engine

    @property
    def cache(self) -> CountCache:
        return self._cache

    # -- applying deltas --------------------------------------------------

    def _migrate_counts(
        self, delta: Delta, old: Structure, new: Structure
    ) -> tuple[int, int]:
        """Migrate/evict count-cache entries; ``(invalidated, migrated)``.

        Only entries keyed by ``old`` (:func:`key_is_current`) are
        touched: the cache may be shared with other databases, or hold
        older versions of this one, whose entries stay as they are.
        Both go through :meth:`CountCache.discard` / ``store``, so an
        attached durable tier deletes the retired files and writes the
        re-keyed ones.
        """
        touched = delta.touched_relations()
        domain_changed = old.domain != new.domain
        invalidated = 0
        migrated = 0
        for key, value in self._cache.items():
            dependencies = key_dependencies(key)
            if dependencies is None:
                # Foreign key shape: conservatively drop.
                if self._cache.discard(key):
                    invalidated += 1
                continue
            if not is_affected(dependencies, touched, domain_changed):
                continue  # key unchanged, entry stays exact
            if not key_is_current(key, old):
                continue  # another database's (or version's) entry
            component = key[0]
            if not delta_affects(component, delta, old, new):
                new_key = (
                    component,
                    component_fingerprint(component, new),
                    key[2],
                )
                if new_key != key:  # a no-op delta keeps the key
                    # Discard first: re-keying must never evict a
                    # neighbour from a full cache.
                    self._cache.discard(key)
                    self._cache.store(new_key, value)
                migrated += 1
            elif self._cache.discard(key):
                invalidated += 1
        return invalidated, migrated

    def _migrate_compiled(
        self, delta: Delta, old: Structure, new: Structure
    ) -> int:
        """Incrementally refresh this database's compiled artifacts."""
        touched = delta.touched_relations()
        domain_changed = old.domain != new.domain
        artifacts = self._plan_cache.compiled
        refreshed = 0
        for key, artifact in artifacts.items():
            dependencies = key_dependencies(key)
            if dependencies is None:
                continue
            if not is_affected(dependencies, touched, domain_changed):
                continue  # new version hits the same key
            if not key_is_current(key, old):
                continue
            new_artifact = refresh_component(artifact, new, delta)
            if new_artifact is None:
                continue  # pre-refresh artifact; a miss will recompile
            artifacts.store(
                (key[0], component_fingerprint(key[0], new)), new_artifact
            )
            refreshed += 1
        return refreshed

    def apply(self, delta: Delta) -> DeltaReport:
        """Advance the database by ``delta`` and re-home the caches.

        Work is relation-scoped throughout: untouched relations keep
        their fingerprints (and thus their cache keys), cache entries the
        constant-intersection refinement proves unaffected are re-keyed
        to the new version without recounting, compiled artifacts are
        refreshed index-incrementally, and only entries the delta may
        truly affect are evicted.
        """
        with self._lock:
            old = self._structure
            with span("delta.apply", relations=len(delta.touched_relations())):
                new = old.apply_delta(delta)
                invalidated, migrated = self._migrate_counts(delta, old, new)
                refreshed = self._migrate_compiled(delta, old, new)
                self._structure = new
                self._version += 1
                version = self._version
            obs_metrics.add("delta.applied")
            if invalidated:
                obs_metrics.add("delta.invalidations", invalidated)
            if migrated:
                obs_metrics.add("delta.migrated", migrated)
        return DeltaReport(
            version=version,
            touched_relations=tuple(sorted(delta.touched_relations())),
            domain_changed=old.domain != new.domain,
            invalidated=invalidated,
            migrated=migrated,
            refreshed_artifacts=refreshed,
            fingerprint=new.fingerprint(),
        )

    # -- evaluating -------------------------------------------------------

    def evaluate(self, query) -> int:
        """``count(query)`` on the current version, reusing cached factors.

        The Lemma-1 recombination happens inside
        :func:`repro.homomorphism.engine.count`: each connected
        component is looked up under its fingerprint key, so factors
        untouched since they were last counted are cache hits
        (``delta.reused_factors``) and only affected components are
        dispatched to an engine (``delta.affected_components``).
        """
        structure = self._structure
        hits_before = self._cache.hits
        misses_before = self._cache.misses
        from repro.homomorphism.engine import count

        with span("delta.evaluate", version=self._version):
            result = count(
                query, structure, engine=self._engine, cache=self._cache
            )
        reused = self._cache.hits - hits_before
        recounted = self._cache.misses - misses_before
        if reused:
            obs_metrics.add("delta.reused_factors", reused)
        if recounted:
            obs_metrics.add("delta.affected_components", recounted)
        return result

    def stats(self) -> dict:
        """A plain-data snapshot for reports and ``/healthz``."""
        return {
            "version": self._version,
            "engine": self._engine,
            "fingerprint": self._structure.fingerprint(),
            "fact_count": self._structure.fact_count(),
            "domain_size": len(self._structure.domain),
            "cache": self._cache.stats(),
        }

    def __repr__(self) -> str:
        return (
            f"DeltaEvaluator(version={self._version}, "
            f"engine={self._engine!r}, {self._structure!r})"
        )
