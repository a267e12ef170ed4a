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
from repro.homomorphism.cache import is_affected, key_dependencies
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


def _is_count(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


# -- per-tier codecs ---------------------------------------------------------
#
# ``encode(key, value)`` returns a tier's entry fields, or ``None`` for a
# key or value of a shape the format does not know (foreign entries are
# simply not persisted); it may also raise ``BagCQError``.  ``decode``
# inverts it, raising on anything suspect.  The ``format``/``tier`` stamp
# is added (and checked) by the shared path.


def _encode_count(key, value) -> dict | None:
    dependencies = key_dependencies(key)
    if not (
        dependencies is not None
        and len(key) == 3
        and isinstance(key[0], ConjunctiveQuery)
        and isinstance(key[2], str)
        and _is_count(value)
    ):
        return None
    relations, domain_dependent = dependencies
    return {
        "component": query_to_dict(key[0]),
        "fingerprint": _encode_value(key[1]),
        "engine": key[2],
        "value": value,
        "relations": sorted(relations),
        "domain_dependent": domain_dependent,
    }


def _decode_count(entry: dict) -> tuple[tuple, int]:
    component = query_from_dict(entry["component"])
    fingerprint = _decode_value(entry["fingerprint"])
    engine = entry["engine"]
    value = entry["value"]
    _require(isinstance(engine, str), "'engine' must be a string")
    _require(_is_count(value), "'value' must be an integer count")
    _require(
        isinstance(fingerprint, tuple) and len(fingerprint) == 4,
        "'fingerprint' must decode to a 4-tuple",
    )
    return (component, fingerprint, engine), value


def _encode_plan(component, profile) -> dict | None:
    if not isinstance(component, ConjunctiveQuery):
        return None
    return {
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


def _decode_plan(entry: dict) -> tuple:
    from repro.planner.analyze import ComponentProfile

    raw = entry["profile"]
    profile = ComponentProfile(
        atom_count=int(raw["atom_count"]),
        variable_count=int(raw["variable_count"]),
        inequality_count=int(raw["inequality_count"]),
        acyclic=bool(raw["acyclic"]),
        treewidth_bound=int(raw["treewidth_bound"]),
        relations=tuple(
            (str(name), int(arity)) for name, arity in raw["relations"]
        ),
        join_pattern=tuple(
            (str(relation), tuple(int(term) for term in terms))
            for relation, terms in raw["join_pattern"]
        ),
    )
    return query_from_dict(entry["component"]), profile


def _encode_containment(key, value) -> dict | None:
    if not (
        isinstance(key, tuple)
        and len(key) == 3
        and isinstance(key[0], ConjunctiveQuery)
        and isinstance(key[1], ConjunctiveQuery)
        and isinstance(key[2], str)
        and isinstance(value, tuple)
        and len(value) == 2
        and isinstance(value[0], bool)
        and (value[1] is None or isinstance(value[1], int))
    ):
        return None
    return {
        "phi_s": query_to_dict(key[0]),
        "phi_b": query_to_dict(key[1]),
        "engine": key[2],
        "contained": value[0],
        "phi_s_count": value[1],
    }


def _decode_containment(entry: dict) -> tuple[tuple, tuple]:
    phi_s = query_from_dict(entry["phi_s"])
    phi_b = query_from_dict(entry["phi_b"])
    engine = entry["engine"]
    contained = entry["contained"]
    phi_s_count = entry["phi_s_count"]
    _require(isinstance(engine, str), "bad engine")
    _require(isinstance(contained, bool), "bad verdict")
    _require(phi_s_count is None or _is_count(phi_s_count), "bad phi_s_count")
    return (phi_s, phi_b, engine), (contained, phi_s_count)


#: tier → ``(encode, decode)``; the tiers are the store's subdirectories.
_CODECS = {
    "counts": (_encode_count, _decode_count),
    "plans": (_encode_plan, _decode_plan),
    "containment": (_encode_containment, _decode_containment),
}

TIERS = tuple(_CODECS)


def _count_dependencies(entry) -> tuple[frozenset, bool] | None:
    """A count entry's ``(relations, domain_dependent)`` index record, or
    ``None`` when it does not say (such files are dropped on any
    invalidation)."""
    try:
        return frozenset(entry["relations"]), bool(entry["domain_dependent"])
    except (KeyError, TypeError):
        return None


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
    write through (:meth:`record`, one file per entry, idempotent),
    retired entries are deleted (:meth:`forget`), relation-scoped
    invalidation deletes the affected count files, and
    :meth:`save`/:meth:`restore` bulk-sync a cache with the disk.  All
    disk I/O happens outside the caches' locks (the hooks are called
    post-store), so the hot path never blocks on the filesystem.

    Counter discipline: increments land in the registry handed to the
    constructor (the owning server's), falling back to the ambient
    :mod:`repro.obs` registry so CLI-driven restores still count.
    """

    def __init__(self, root, registry=None) -> None:
        self.root = Path(root)
        self._registry = registry
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

    def _index(self, tier: str, digest: str, entry) -> None:
        if tier == "counts":
            with self._index_lock:
                self._count_index[digest] = _count_dependencies(entry)

    def _encode(self, tier: str, key, value) -> dict | None:
        """The stamped entry for one cache item, or ``None`` (skipped)."""
        encode, _decode = _CODECS[tier]
        try:
            fields = encode(key, value)
        except BagCQError:
            return None
        if fields is None:
            return None
        return {"format": FORMAT_VERSION, "tier": tier, **fields}

    def _write_entry(self, tier: str, entry: dict) -> str:
        digest = _entry_digest(entry)
        path = self._tier_dir(tier) / f"{digest}.json"
        # Content addressing makes an existing file this exact entry:
        # re-recording (a restore replaying into an attached cache) is a
        # no-op, never a rewrite.
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

    def _iter_entries(self, tier: str, rejected_paths: list):
        """Yield ``(path, entry)`` for decodable files; count the rest.

        The gate every entry passes before a cache sees it: valid JSON,
        a JSON-object payload, the current format stamp, the right
        tier, and a filename that matches the content digest (a
        truncated or hand-edited file fails here).  Gate failures tick
        ``shard.snapshot.rejected`` and land in ``rejected_paths`` so
        restore reports can include them.
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
                rejected_paths.append(path)
                continue
            yield path, entry

    def _unlink(self, tier: str, digests) -> int:
        """Delete entry files; the number actually removed, counted as
        ``shard.snapshot.invalidated``."""
        dropped = 0
        for digest in digests:
            try:
                (self._tier_dir(tier) / f"{digest}.json").unlink()
                dropped += 1
            except OSError:
                continue
        self._count("shard.snapshot.invalidated", dropped)
        return dropped

    # -- the sink the caches call ------------------------------------------

    def record(self, tier: str, key, value) -> bool:
        """Write-through hook: persist one stored entry; False when its
        shape is not persistable."""
        entry = self._encode(tier, key, value)
        if entry is None:
            return False
        self._index(tier, self._write_entry(tier, entry), entry)
        return True

    def forget(self, tier: str, key, value) -> None:
        """Discard hook: delete the file of one retired entry."""
        entry = self._encode(tier, key, value)
        if entry is None:
            return
        digest = _entry_digest(entry)
        with self._index_lock:
            self._count_index.pop(digest, None)
        self._unlink(tier, [digest])

    # -- bulk sync ---------------------------------------------------------

    def save(self, cache) -> int:
        """Persist every persistable entry of an
        :class:`~repro.homomorphism.cache.LRUTier` whose
        ``durable_tier`` names one of this store's tiers."""
        return sum(
            self.record(cache.durable_tier, key, value)
            for key, value in cache.items()
        )

    def restore(self, cache) -> RestoreReport:
        """Warm a tier from disk, skipping anything suspect.

        Values enter the cache only after the gate *and* a full decode;
        decode failures tick ``shard.snapshot.rejected`` like gate
        failures do.
        """
        tier = cache.durable_tier
        _encode, decode = _CODECS[tier]
        loaded = 0
        rejected = 0
        gate_rejects: list = []
        for path, entry in self._iter_entries(tier, gate_rejects):
            try:
                key, value = decode(entry)
            except (BagCQError, KeyError, TypeError, ValueError):
                rejected += 1
                continue
            cache.store(key, value)
            self._index(tier, path.stem, entry)
            loaded += 1
        self._count("shard.snapshot.loaded", loaded)
        # Gate failures already ticked the counter inside _iter_entries.
        self._count("shard.snapshot.rejected", rejected)
        return RestoreReport(loaded, rejected + len(gate_rejects))

    # Per-cache shorthands (a PlanCache persists its profile level).

    def save_counts(self, cache) -> int:
        return self.save(cache)

    def restore_counts(self, cache) -> RestoreReport:
        return self.restore(cache)

    def restore_plans(self, cache) -> RestoreReport:
        return self.restore(cache.profiles)

    def restore_containment(self, cache) -> RestoreReport:
        return self.restore(cache)

    # -- relation-scoped invalidation of the counts tier ------------------

    def _scan_count_index(self) -> None:
        """Build the relations index from whatever is on disk already.

        Runs at construction (without counters: scanning is not a
        restore) so ``/update`` invalidation covers entries written by
        an earlier process even before any restore happened.
        Undecodable files are conservatively indexed as depending on
        everything, so invalidation removes them.
        """
        for path in self._tier_dir("counts").glob("*.json"):
            try:
                with path.open("r", encoding="utf-8") as handle:
                    entry = json.load(handle)
            except (OSError, ValueError):
                entry = None
            self._count_index[path.stem] = _count_dependencies(entry)

    def invalidate_relations(
        self, relations, *, domain_changed: bool = False
    ) -> int:
        """Delete persisted counts depending on any of ``relations``.

        The disk mirror of ``CountCache.invalidate_relations`` — called
        by it, so an in-memory eviction evicts the files in the same
        breath, including files this process never loaded.
        """
        touched = frozenset(relations)
        with self._index_lock:
            victims = [
                digest
                for digest, indexed in self._count_index.items()
                if is_affected(indexed, touched, domain_changed)
            ]
            for digest in victims:
                self._count_index.pop(digest, None)
        return self._unlink("counts", victims)

    # -- whole-store operations --------------------------------------------

    def save_all(self, count_cache, plan_cache, containment_cache) -> dict:
        """Persist all three caches; the ``/snapshot`` response body."""
        return {
            "counts": self.save(count_cache),
            "plans": self.save(plan_cache.profiles),
            "containment": self.save(containment_cache),
        }

    def restore_all(self, count_cache, plan_cache, containment_cache) -> dict:
        """Warm all three caches; the startup warm-restore report."""
        return {
            "counts": self.restore(count_cache).to_dict(),
            "plans": self.restore(plan_cache.profiles).to_dict(),
            "containment": self.restore(containment_cache).to_dict(),
        }

    def stats(self) -> dict:
        """Files per tier (the ``/healthz`` surface of the store)."""
        return {
            tier: sum(1 for _ in self._tier_dir(tier).glob("*.json"))
            for tier in TIERS
        }

    def __repr__(self) -> str:
        return f"DurableCacheStore({str(self.root)!r})"
