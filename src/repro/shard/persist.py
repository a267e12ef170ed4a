"""Disk-backed, content-addressed persistence for the warm caches.

The whole point of the cache stack — Lemma 1 multiplicativity makes
α-equivalent components recur, so their counts, plans, and containment
verdicts are highly reusable — is defeated every time a process dies
with its caches.  This module gives the three α-keyed caches a durable
tier: each entry is one small JSON file named by the SHA-256 digest of
its canonical content, exactly the addressing scheme
:mod:`repro.qa.corpus` uses for fuzzing findings.  Content addressing
makes writes idempotent (re-storing an entry rewrites the same file),
dedupes across snapshots for free, and turns corruption detection into
a digest check.

Keys survive the process boundary because every ingredient is already
canonical: component queries travel through
:func:`repro.homomorphism.cache.canonical_component` (α-equivalence
classes), structure dependencies through content fingerprints
(:meth:`~repro.relational.structure.Structure.relation_fingerprint`,
``hashlib``-based, never the salted ``hash``), and queries serialize
via :mod:`repro.io`.  Compiled artifacts are closures and are *never*
persisted — they rebuild on demand from the restored profiles.

Restore mirrors ``qa/corpus.py``'s stance on malformed entries but
inverts the failure mode: a corpus replay *raises* on a bad file (a
finding must not silently vanish), while a cache restore *skips* it —
a truncated, garbage, wrong-version, or digest-mismatched snapshot
file costs one ``shard.snapshot.rejected`` tick, never a crash and
never a wrong count (values only enter a cache after full decode +
digest verification).
"""

from __future__ import annotations

import hashlib
import json
import threading
from dataclasses import dataclass
from pathlib import Path

from repro.errors import BagCQError
from repro.io import query_from_dict, query_to_dict
from repro.obs import metrics as obs_metrics
from repro.queries.cq import ConjunctiveQuery
from repro.queries.terms import Constant, Variable

__all__ = [
    "DurableCacheStore",
    "RestoreReport",
    "SNAPSHOT_COUNTERS",
    "SnapshotError",
]

#: Format stamp carried by every entry; bump on incompatible layout
#: changes so old snapshots are rejected (skipped), not misread.
FORMAT_VERSION = 1

#: The three persisted tiers, each its own subdirectory of the root.
TIERS = ("counts", "plans", "containment")

#: The ``shard.snapshot.*`` counter family, pre-registered at zero by
#: every server that owns a durable store (deterministic scrapes).
SNAPSHOT_COUNTERS = (
    "shard.snapshot.saved",
    "shard.snapshot.loaded",
    "shard.snapshot.rejected",
    "shard.snapshot.invalidated",
)

_TUPLE_TAG = "§"
_CONST_TAG = "§const"
_VAR_TAG = "§var"


class SnapshotError(BagCQError):
    """A value that cannot be encoded for (or decoded from) a snapshot."""


def _encode_value(value):
    """JSON-encode one cache-key ingredient, reversibly.

    Tuples are tagged (JSON arrays decode back to tuples only through
    the tag), terms carry their kind; ``None``/bool/int/str pass
    through.  Anything else is a key shape this format does not know —
    the caller skips that entry rather than persisting a lossy form.
    """
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, tuple):
        return {_TUPLE_TAG: [_encode_value(item) for item in value]}
    if isinstance(value, Constant):
        return {_CONST_TAG: value.name}
    if isinstance(value, Variable):
        return {_VAR_TAG: value.name}
    raise SnapshotError(
        f"cannot persist value of type {type(value).__name__}: {value!r}"
    )


def _decode_value(payload):
    if payload is None or isinstance(payload, (bool, int, str)):
        return payload
    if isinstance(payload, dict):
        if set(payload) == {_TUPLE_TAG}:
            items = payload[_TUPLE_TAG]
            if not isinstance(items, list):
                raise SnapshotError("tuple payload must be a JSON array")
            return tuple(_decode_value(item) for item in items)
        if set(payload) == {_CONST_TAG}:
            return Constant(payload[_CONST_TAG])
        if set(payload) == {_VAR_TAG}:
            return Variable(payload[_VAR_TAG])
    raise SnapshotError(f"unrecognized snapshot payload: {payload!r}")


def _entry_digest(entry: dict) -> str:
    """The content address of one entry — ``qa/corpus.py``'s scheme."""
    canonical = json.dumps(entry, sort_keys=True)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise SnapshotError(message)


@dataclass(frozen=True)
class RestoreReport:
    """What one tier's restore pass did."""

    loaded: int = 0
    rejected: int = 0

    def to_dict(self) -> dict:
        return {"loaded": self.loaded, "rejected": self.rejected}


class DurableCacheStore:
    """One directory of content-addressed cache entries, three tiers deep.

    Attach to the caches via their ``attach_durable`` hooks: stores
    write through (one file per entry, idempotent), relation-scoped
    invalidation deletes the affected count files, and
    ``restore_*``/``save_*`` bulk-sync a cache with the disk.  All
    disk I/O happens outside the caches' locks (the hooks are called
    post-store), so the hot path never blocks on the filesystem.

    Counter discipline: increments land in the registry handed to the
    constructor (the owning server's), falling back to the ambient
    :mod:`repro.obs` registry so CLI-driven restores still count.
    """

    def __init__(self, root, registry=None) -> None:
        self.root = Path(root)
        self._registry = registry
        self._suspended = False
        self._index_lock = threading.Lock()
        #: digest → (relation names, depends-on-domain) for count entries
        #: (``None`` for undecodable files, dropped on any invalidation);
        #: lets ``/update`` invalidation delete files without re-decoding.
        self._count_index: dict[str, tuple[frozenset, bool] | None] = {}
        for tier in TIERS:
            (self.root / tier).mkdir(parents=True, exist_ok=True)
        self._scan_count_index()

    # -- counters ----------------------------------------------------------

    def _count(self, name: str, amount: int = 1) -> None:
        if amount <= 0:
            return
        if self._registry is not None:
            self._registry.counter(name).inc(amount)
        else:
            obs_metrics.add(name, amount)

    # -- file layer --------------------------------------------------------

    def _tier_dir(self, tier: str) -> Path:
        return self.root / tier

    def _write_entry(self, tier: str, entry: dict) -> str:
        digest = _entry_digest(entry)
        path = self._tier_dir(tier) / f"{digest}.json"
        if not path.exists():
            try:
                path.write_text(
                    json.dumps(entry, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8",
                )
            except OSError:
                # A full or vanished disk degrades the durable tier to a
                # no-op; it must never take the serving path down with it.
                return digest
            self._count("shard.snapshot.saved")
        return digest

    def _iter_entries(self, tier: str, rejected_paths: list | None = None):
        """Yield ``(path, entry)`` for decodable files; count the rest.

        The gate every entry passes before a cache sees it: valid JSON,
        a JSON-object payload, the current format stamp, the right
        tier, and a filename that matches the content digest (a
        truncated or hand-edited file fails here).  Gate failures tick
        ``shard.snapshot.rejected`` and, when the caller passes
        ``rejected_paths``, land there so restore reports can include
        them.
        """
        for path in sorted(self._tier_dir(tier).glob("*.json")):
            try:
                with path.open("r", encoding="utf-8") as handle:
                    entry = json.load(handle)
            except (OSError, ValueError):
                entry = None
            if (
                not isinstance(entry, dict)
                or entry.get("format") != FORMAT_VERSION
                or entry.get("tier") != tier
                or _entry_digest(entry) != path.stem
            ):
                self._count("shard.snapshot.rejected")
                if rejected_paths is not None:
                    rejected_paths.append(path)
                continue
            yield path, entry

    def _suspend(self):
        """Mute write-through while a restore replays entries into a cache
        (the cache's store hook would otherwise rewrite every file it
        just read)."""
        store = self

        class _Muted:
            def __enter__(self):
                store._suspended = True

            def __exit__(self, *exc_info):
                store._suspended = False

        return _Muted()

    # -- counts tier -------------------------------------------------------

    def _encode_count_entry(self, key, value) -> dict | None:
        """The counts-tier entry for one cache item, or ``None`` when the
        key has a shape this format does not recognize (foreign keys are
        simply not persisted — same conservatism as
        :func:`~repro.homomorphism.cache.key_relations`)."""
        from repro.homomorphism.cache import (
            key_depends_on_domain,
            key_relations,
        )

        if not (
            isinstance(key, tuple)
            and len(key) == 3
            and isinstance(key[0], ConjunctiveQuery)
            and isinstance(key[2], str)
        ):
            return None
        relations = key_relations(key)
        if relations is None:
            return None
        if not isinstance(value, int) or isinstance(value, bool):
            return None
        try:
            fingerprint = _encode_value(key[1])
            component = query_to_dict(key[0])
        except BagCQError:
            return None
        return {
            "format": FORMAT_VERSION,
            "tier": "counts",
            "component": component,
            "fingerprint": fingerprint,
            "engine": key[2],
            "value": value,
            "relations": sorted(relations),
            "domain_dependent": key_depends_on_domain(key),
        }

    def _decode_count_entry(self, entry: dict) -> tuple[tuple, int]:
        component = query_from_dict(entry["component"])
        fingerprint = _decode_value(entry["fingerprint"])
        engine = entry["engine"]
        value = entry["value"]
        _require(isinstance(engine, str), "'engine' must be a string")
        _require(
            isinstance(value, int) and not isinstance(value, bool),
            "'value' must be an integer count",
        )
        _require(
            isinstance(fingerprint, tuple) and len(fingerprint) == 4,
            "'fingerprint' must decode to a 4-tuple",
        )
        return (component, fingerprint, engine), value

    def record_count(self, key, value) -> None:
        """Write-through hook: persist one freshly stored count."""
        if self._suspended:
            return
        entry = self._encode_count_entry(key, value)
        if entry is None:
            return
        digest = self._write_entry("counts", entry)
        with self._index_lock:
            self._count_index[digest] = (
                frozenset(entry["relations"]),
                entry["domain_dependent"],
            )

    def save_counts(self, cache) -> int:
        """Persist every recognizable entry of a ``CountCache``."""
        saved = 0
        for key, value in cache.items():
            entry = self._encode_count_entry(key, value)
            if entry is None:
                continue
            digest = self._write_entry("counts", entry)
            with self._index_lock:
                self._count_index[digest] = (
                    frozenset(entry["relations"]),
                    entry["domain_dependent"],
                )
            saved += 1
        return saved

    def restore_counts(self, cache) -> RestoreReport:
        """Warm a ``CountCache`` from disk, skipping anything suspect."""
        loaded = 0
        rejected = 0
        gate_rejects: list = []
        with self._suspend():
            for path, entry in self._iter_entries("counts", gate_rejects):
                try:
                    key, value = self._decode_count_entry(entry)
                except (BagCQError, KeyError, TypeError, ValueError):
                    rejected += 1
                    continue
                cache.store(key, value)
                with self._index_lock:
                    self._count_index[path.stem] = (
                        frozenset(entry.get("relations", ())),
                        bool(entry.get("domain_dependent", True)),
                    )
                loaded += 1
        self._count("shard.snapshot.loaded", loaded)
        # Gate failures already ticked the counter inside _iter_entries.
        self._count("shard.snapshot.rejected", rejected)
        return RestoreReport(loaded, rejected + len(gate_rejects))

    def _scan_count_index(self) -> None:
        """Build the relations index from whatever is on disk already.

        Runs at construction (without counters: scanning is not a
        restore) so ``/update`` invalidation covers entries written by
        an earlier process even before any restore happened.
        """
        for path in self._tier_dir("counts").glob("*.json"):
            try:
                with path.open("r", encoding="utf-8") as handle:
                    entry = json.load(handle)
                relations = frozenset(entry["relations"])
                domain_dependent = bool(entry["domain_dependent"])
            except (OSError, ValueError, KeyError, TypeError):
                # Undecodable files are conservatively indexed as
                # depending on everything, so invalidation removes them.
                self._count_index[path.stem] = None
                continue
            self._count_index[path.stem] = (relations, domain_dependent)

    def invalidate_relations(
        self, relations, *, domain_changed: bool = False
    ) -> int:
        """Delete persisted counts depending on any of ``relations``.

        The disk mirror of ``CountCache.invalidate_relations`` — called
        by it, so a ``/update`` that evicts in-memory entries evicts
        their files in the same breath.
        """
        touched = frozenset(relations)
        with self._index_lock:
            victims = [
                digest
                for digest, indexed in self._count_index.items()
                if indexed is None  # undecodable: drop conservatively
                or bool(indexed[0] & touched)
                or (domain_changed and indexed[1])
            ]
            for digest in victims:
                self._count_index.pop(digest, None)
        dropped = 0
        for digest in victims:
            path = self._tier_dir("counts") / f"{digest}.json"
            try:
                path.unlink()
                dropped += 1
            except OSError:
                continue
        self._count("shard.snapshot.invalidated", dropped)
        return dropped

    # -- plans tier --------------------------------------------------------

    def record_plan(self, component: ConjunctiveQuery, profile) -> None:
        """Write-through hook: persist one freshly analyzed profile."""
        if self._suspended:
            return
        try:
            entry = {
                "format": FORMAT_VERSION,
                "tier": "plans",
                "component": query_to_dict(component),
                "profile": {
                    "atom_count": profile.atom_count,
                    "variable_count": profile.variable_count,
                    "inequality_count": profile.inequality_count,
                    "acyclic": profile.acyclic,
                    "treewidth_bound": profile.treewidth_bound,
                    "relations": [list(pair) for pair in profile.relations],
                    "join_pattern": [
                        [relation, list(terms)]
                        for relation, terms in profile.join_pattern
                    ],
                },
            }
        except BagCQError:
            return
        self._write_entry("plans", entry)

    def save_plans(self, cache) -> int:
        """Persist every profile of a ``PlanCache`` (artifacts never)."""
        saved = 0
        for component, profile in cache.profile_items():
            self.record_plan(component, profile)
            saved += 1
        return saved

    def restore_plans(self, cache) -> RestoreReport:
        """Warm a ``PlanCache``'s profile level from disk."""
        from repro.planner.analyze import ComponentProfile

        loaded = 0
        rejected = 0
        gate_rejects: list = []
        with self._suspend():
            for _path, entry in self._iter_entries("plans", gate_rejects):
                try:
                    component = query_from_dict(entry["component"])
                    raw = entry["profile"]
                    profile = ComponentProfile(
                        atom_count=int(raw["atom_count"]),
                        variable_count=int(raw["variable_count"]),
                        inequality_count=int(raw["inequality_count"]),
                        acyclic=bool(raw["acyclic"]),
                        treewidth_bound=int(raw["treewidth_bound"]),
                        relations=tuple(
                            (str(name), int(arity))
                            for name, arity in raw["relations"]
                        ),
                        join_pattern=tuple(
                            (str(relation), tuple(int(term) for term in terms))
                            for relation, terms in raw["join_pattern"]
                        ),
                    )
                except (BagCQError, KeyError, TypeError, ValueError):
                    rejected += 1
                    continue
                cache.store_profile(component, profile)
                loaded += 1
        self._count("shard.snapshot.loaded", loaded)
        self._count("shard.snapshot.rejected", rejected)
        return RestoreReport(loaded, rejected + len(gate_rejects))

    # -- containment tier --------------------------------------------------

    def record_containment(self, key, value) -> None:
        """Write-through hook: persist one freshly decided verdict."""
        if self._suspended:
            return
        if not (
            isinstance(key, tuple)
            and len(key) == 3
            and isinstance(key[0], ConjunctiveQuery)
            and isinstance(key[1], ConjunctiveQuery)
            and isinstance(key[2], str)
        ):
            return
        if not (
            isinstance(value, tuple)
            and len(value) == 2
            and isinstance(value[0], bool)
            and (value[1] is None or isinstance(value[1], int))
        ):
            return
        try:
            entry = {
                "format": FORMAT_VERSION,
                "tier": "containment",
                "phi_s": query_to_dict(key[0]),
                "phi_b": query_to_dict(key[1]),
                "engine": key[2],
                "contained": value[0],
                "phi_s_count": value[1],
            }
        except BagCQError:
            return
        self._write_entry("containment", entry)

    def save_containment(self, cache) -> int:
        """Persist every verdict of a ``ContainmentCache``."""
        saved = 0
        for key, value in cache.items():
            self.record_containment(key, value)
            saved += 1
        return saved

    def restore_containment(self, cache) -> RestoreReport:
        """Warm a ``ContainmentCache`` from disk."""
        loaded = 0
        rejected = 0
        gate_rejects: list = []
        with self._suspend():
            for _path, entry in self._iter_entries(
                "containment", gate_rejects
            ):
                try:
                    phi_s = query_from_dict(entry["phi_s"])
                    phi_b = query_from_dict(entry["phi_b"])
                    engine = entry["engine"]
                    contained = entry["contained"]
                    phi_s_count = entry["phi_s_count"]
                    _require(isinstance(engine, str), "bad engine")
                    _require(isinstance(contained, bool), "bad verdict")
                    _require(
                        phi_s_count is None
                        or (
                            isinstance(phi_s_count, int)
                            and not isinstance(phi_s_count, bool)
                        ),
                        "bad phi_s_count",
                    )
                except (BagCQError, KeyError, TypeError, ValueError):
                    rejected += 1
                    continue
                cache.store((phi_s, phi_b, engine), (contained, phi_s_count))
                loaded += 1
        self._count("shard.snapshot.loaded", loaded)
        self._count("shard.snapshot.rejected", rejected)
        return RestoreReport(loaded, rejected + len(gate_rejects))

    def invalidate_containment_relations(self, relations) -> int:
        """Delete persisted verdicts mentioning any of ``relations``.

        The disk mirror of ``ContainmentCache.invalidate_relations``
        (schema-level changes only; database deltas never stale a
        verdict).  Files must be decoded to know their relations —
        acceptable, since schema redefinition is rare and offline.
        """
        touched = frozenset(relations)
        dropped = 0
        for path, entry in list(self._iter_entries("containment")):
            try:
                phi_s = query_from_dict(entry["phi_s"])
                phi_b = query_from_dict(entry["phi_b"])
                mentioned = {atom.relation for atom in phi_s.atoms}
                mentioned.update(atom.relation for atom in phi_b.atoms)
                affected = bool(mentioned & touched)
            except (BagCQError, KeyError, TypeError, ValueError):
                affected = True
            if affected:
                try:
                    path.unlink()
                    dropped += 1
                except OSError:
                    continue
        self._count("shard.snapshot.invalidated", dropped)
        return dropped

    # -- whole-store operations --------------------------------------------

    def save_all(self, count_cache, plan_cache, containment_cache) -> dict:
        """Persist all three caches; the ``/snapshot`` response body."""
        return {
            "counts": self.save_counts(count_cache),
            "plans": self.save_plans(plan_cache),
            "containment": self.save_containment(containment_cache),
        }

    def restore_all(self, count_cache, plan_cache, containment_cache) -> dict:
        """Warm all three caches; the startup warm-restore report."""
        return {
            "counts": self.restore_counts(count_cache).to_dict(),
            "plans": self.restore_plans(plan_cache).to_dict(),
            "containment": self.restore_containment(containment_cache).to_dict(),
        }

    def stats(self) -> dict:
        """Files per tier (the ``/healthz`` surface of the store)."""
        return {
            tier: sum(1 for _ in self._tier_dir(tier).glob("*.json"))
            for tier in TIERS
        }

    def __repr__(self) -> str:
        return f"DurableCacheStore({str(self.root)!r})"
