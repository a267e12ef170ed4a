"""A canonicalization-keyed LRU cache for set-containment verdicts.

Containment questions repeat just as component counts do: the search
prescreen asks about the same ``(φ_s, φ_b)`` shape for every candidate
stream, the UCQ all/any reduction re-tests identical CQ pairs across
unions, and the service coalesces α-equivalent requests.  Since the
Chandra–Merlin verdict is invariant under bijective variable renaming of
*either* side, a pair is keyed by the
:func:`~repro.homomorphism.cache.canonical_component` forms of both
queries — the same discipline that keys the
:class:`~repro.homomorphism.cache.CountCache` and the planner's
:class:`~repro.planner.analyze.PlanCache`.

Only the α-invariant part of a verdict is cached: the boolean and the
count ``φ_s(canonical(φ_s))`` that prices the absence certificate.
Witness homomorphisms name the original variables, so they are
recomputed per call (a deterministic first-homomorphism enumeration —
cheap once the verdict is known positive).

The store is a :class:`~repro.homomorphism.cache.LRUTier`;
hits/misses/evictions are mirrored into the active :mod:`repro.obs`
registry as ``contain.cache.*`` counters.
"""

from __future__ import annotations

from repro.homomorphism.cache import LRUTier, canonical_component
from repro.queries.cq import ConjunctiveQuery

__all__ = [
    "ContainmentCache",
    "containment_cache_key",
    "default_containment_cache",
]

#: Default bound on cached verdicts (entries, not bytes).
DEFAULT_CONTAINMENT_CACHE_SIZE = 2048


def containment_cache_key(
    phi_s: ConjunctiveQuery, phi_b: ConjunctiveQuery, engine: str
) -> tuple:
    """The cache key of one ``φ_s ⊆ φ_b`` question under ``engine``.

    Both sides travel canonically renamed, so α-equivalent pairs share
    an entry.  The engine is part of the key on purpose — all engines
    agree on the verdict, but keeping them apart means a differential
    run never reads a verdict another engine computed.
    """
    return (canonical_component(phi_s), canonical_component(phi_b), engine)


class ContainmentCache(LRUTier):
    """The bounded LRU of containment verdicts (``contain.cache.*``).

    Entries are ``(contained, phi_s_count)`` tuples; ``phi_s_count`` is
    ``None`` for positive verdicts (the certificate price is only
    computed on refutation).  Verdicts depend only on the two queries —
    the Chandra–Merlin check evaluates ``φ_b`` on the canonical database
    *of ``φ_s``*, never on user data — so no database delta can make an
    entry stale, and there is no relation-scoped invalidation here.

    >>> cache = ContainmentCache(max_entries=2)
    >>> cache.store("a", (True, None)); cache.store("b", (False, 1))
    >>> cache.store("c", (True, None))
    >>> cache.lookup("a") is None  # evicted, capacity 2
    True
    >>> cache.lookup("b")
    (False, 1)
    """

    def __init__(self, max_entries: int = DEFAULT_CONTAINMENT_CACHE_SIZE):
        super().__init__(
            max_entries, "contain.cache.", durable_tier="containment"
        )


_DEFAULT_CACHE = ContainmentCache()


def default_containment_cache() -> ContainmentCache:
    """The process-wide verdict cache (shared by the search prescreen)."""
    return _DEFAULT_CACHE
