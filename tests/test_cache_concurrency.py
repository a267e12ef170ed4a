"""Concurrent hammering of the shared caches the service relies on.

``EvaluationServer`` shares one :class:`CountCache` and the process-wide
:class:`PlanCache` across all worker threads, so both must tolerate
arbitrary interleavings.  These tests hammer them from many threads and
check the invariants the service depends on:

* **no lost updates** — every stored entry is retrievable afterwards;
* **no over-eviction** — the cache never holds more than its capacity,
  and never evicts below it while hot keys are being touched;
* **accounting closes** — hits + misses equals the number of lookups
  issued, even under contention;
* **bit-identical counts** — evaluating a workload through a shared
  cache from N threads produces exactly the counts a serial run with a
  fresh cache produces.
"""

from __future__ import annotations

import random
import sys
import threading

import pytest

from repro.homomorphism import count
from repro.homomorphism.cache import CountCache, component_cache_key
from repro.planner.analyze import PlanCache, analyze_component
from repro.queries import parse_query
from repro.queries.terms import Variable
from repro.relational import Schema, Structure
from repro.workloads import cycle_query, path_query

THREADS = 8


def _run_threads(target, count_: int = THREADS, args_for=None):
    errors: list[BaseException] = []
    barrier = threading.Barrier(count_)

    def wrapped(index):
        try:
            barrier.wait()
            target(*(args_for(index) if args_for else (index,)))
        except BaseException as error:  # noqa: BLE001 — re-raised below
            errors.append(error)

    threads = [
        threading.Thread(target=wrapped, args=(index,))
        for index in range(count_)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
    assert not any(thread.is_alive() for thread in threads)
    if errors:
        raise errors[0]
    return threads


class TestCountCacheConcurrency:
    def test_no_lost_updates(self):
        """With capacity >= total keys, every stored value survives."""
        cache = CountCache(max_entries=THREADS * 200)

        def writer(index):
            for i in range(200):
                cache.store(("k", index, i), index * 1000 + i)

        _run_threads(writer)
        assert len(cache) == THREADS * 200
        for index in range(THREADS):
            for i in range(200):
                assert cache.lookup(("k", index, i)) == index * 1000 + i

    def test_no_over_eviction(self):
        """Under churn the cache never exceeds capacity and stays warm."""
        capacity = 64
        cache = CountCache(max_entries=capacity)
        stop = threading.Event()
        sizes: list[int] = []

        def sampler():
            while not stop.is_set():
                sizes.append(len(cache))

        watcher = threading.Thread(target=sampler)
        watcher.start()
        try:

            def churner(index):
                rng = random.Random(index)
                for _ in range(2000):
                    key = ("churn", rng.randrange(capacity * 4))
                    if cache.lookup(key) is None:
                        cache.store(key, 1)

            _run_threads(churner)
        finally:
            stop.set()
            watcher.join(timeout=30)
        assert sizes, "the sampler must have observed the cache"
        assert max(sizes) <= capacity
        assert len(cache) <= capacity
        # After thousands of stores against 4x capacity of keys, the
        # cache should be full, not over-evicted down to a sliver.
        assert len(cache) == capacity

    def test_accounting_closes_under_contention(self):
        cache = CountCache(max_entries=1024)
        lookups_per_thread = 3000

        def mixed(index):
            rng = random.Random(index)
            for _ in range(lookups_per_thread):
                key = ("acct", rng.randrange(256))
                if cache.lookup(key) is None:
                    cache.store(key, 1)

        _run_threads(mixed)
        stats = cache.stats()
        assert stats["hits"] + stats["misses"] == THREADS * lookups_per_thread
        assert stats["evictions"] == 0

    def test_counts_bit_identical_to_serial(self):
        """N threads × shared cache == serial run × fresh cache, exactly."""
        rng = random.Random(5)
        n = 11
        edges = {(rng.randrange(n), rng.randrange(n)) for _ in range(40)}
        structure = Structure(
            Schema.from_arities({"E": 2}), {"E": edges}, domain=range(n)
        )
        workload = [
            cycle_query(3),
            cycle_query(4),
            path_query(3),
            path_query(4),
            parse_query("E(x, y) & E(y, x)"),
            parse_query("E(x, x)"),
            cycle_query(3, prefix="renamed_"),  # α-equivalent to cycle 3
        ]
        serial = [
            count(query, structure, engine="backtracking", cache=CountCache())
            for query in workload
        ]

        shared = CountCache(max_entries=256)
        results: dict[int, list[int]] = {}

        def evaluator(index):
            local = []
            for query in workload:
                local.append(
                    count(
                        query,
                        structure,
                        engine="backtracking",
                        cache=shared,
                    )
                )
            results[index] = local

        _run_threads(evaluator)
        assert len(results) == THREADS
        for index in range(THREADS):
            assert results[index] == serial
        # The α-equivalent rename must have hit, not re-evaluated.
        assert shared.hits > 0

    def test_cache_key_stability_across_threads(self):
        """component_cache_key is pure: all threads derive the same key."""
        structure = Structure(
            Schema.from_arities({"E": 2}), {"E": {(0, 1)}}, domain=range(2)
        )
        keys: dict[int, object] = {}

        def derive(index):
            query = cycle_query(4, prefix=f"t{index}_")
            keys[index] = component_cache_key(query, structure, "backtracking")

        _run_threads(derive)
        assert len(set(keys.values())) == 1


class TestPlanCacheConcurrency:
    def test_profiles_identical_and_accounting_closes(self):
        cache = PlanCache(max_entries=512)
        components = [
            cycle_query(k, prefix=f"c{k}_") for k in range(3, 9)
        ] + [path_query(k, prefix=f"p{k}_") for k in range(2, 8)]
        expected = {
            id(component): analyze_component(component)
            for component in components
        }
        rounds = 50

        def prober(index):
            for _ in range(rounds):
                for component in components:
                    profile, _hit = cache.profile(component)
                    assert profile == expected[id(component)]

        _run_threads(prober)
        stats = cache.stats()
        total = THREADS * rounds * len(components)
        assert stats["hits"] + stats["misses"] == total
        assert stats["misses"] <= len(components) * THREADS
        assert len(cache) <= 512

    def test_no_over_eviction_with_tiny_capacity(self):
        cache = PlanCache(max_entries=4)
        components = [cycle_query(k) for k in range(3, 11)]

        def prober(index):
            for _ in range(30):
                for component in components:
                    cache.profile(component)

        _run_threads(prober)
        assert len(cache) <= 4

    def test_alpha_equivalent_components_share_entries(self):
        cache = PlanCache(max_entries=64)
        renamed = [cycle_query(5, prefix=f"r{i}_") for i in range(THREADS)]

        def prober(index):
            cache.profile(renamed[index])

        _run_threads(prober)
        # All 8 are the same canonical component: at most a handful of
        # misses (racing first-fills), definitely not one per thread
        # after a warm-up round.
        profile, hit = cache.profile(cycle_query(5, prefix="fresh_"))
        assert hit is True
        assert profile == analyze_component(renamed[0])


@pytest.fixture
def fast_switching():
    """Switch threads far more often than the default 5 ms, so races in
    the code under test get a chance to interleave."""
    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-4)
    try:
        yield
    finally:
        sys.setswitchinterval(previous)


def _renamed(query, prefix: str):
    return query.rename(
        {variable: Variable(prefix + variable.name) for variable in query.variables}
    )


def _sample_sizes(tier, body):
    """Run ``body`` while a watcher thread samples ``len(tier)``."""
    stop = threading.Event()
    sizes: list[int] = []

    def sampler():
        while not stop.is_set():
            sizes.append(len(tier))

    watcher = threading.Thread(target=sampler)
    watcher.start()
    try:
        body()
    finally:
        stop.set()
        watcher.join(timeout=30)
    assert sizes, "the sampler must have observed the cache"
    return sizes


class TestContainmentCacheConcurrency:
    PAIRS = [
        ("E(x, y) & E(y, z) & E(z, x)", "E(u, v) & E(v, u)"),
        ("E(x, y) & E(y, x)", "E(u, v)"),
        ("E(x, y) & E(y, z)", "E(u, v) & E(v, w) & E(w, t)"),
        ("E(x, x)", "E(u, v) & E(v, w) & E(w, u)"),
        ("E(x, y) & E(y, z) & E(z, t)", "E(u, v) & E(v, w)"),
        ("E(x, y) & E(x, z)", "E(u, v) & E(v, u)"),
    ]

    def test_accounting_bound_and_verdicts_under_contention(
        self, fast_switching
    ):
        from repro.containment_set import ContainmentCache, cq_containment

        def verdicts(cache, prefix):
            return [
                (result.contained, result.certificate and result.certificate.lhs)
                for result in (
                    cq_containment(
                        _renamed(parse_query(phi_s), prefix),
                        parse_query(phi_b),
                        engine="backtracking",
                        cache=cache,
                    )
                    for phi_s, phi_b in self.PAIRS
                )
            ]

        serial = verdicts(ContainmentCache(), "serial_")
        capacity = 4  # fewer slots than distinct pairs: eviction churn
        shared = ContainmentCache(max_entries=capacity)
        rounds = 20
        results: dict[int, list] = {}

        def prober(index):
            results[index] = [
                verdicts(shared, f"t{index}_{round_}_")
                for round_ in range(rounds)
            ]

        sizes = _sample_sizes(shared, lambda: _run_threads(prober))
        for index in range(THREADS):
            assert results[index] == [serial] * rounds
        stats = shared.stats()
        assert stats["hits"] + stats["misses"] == (
            THREADS * rounds * len(self.PAIRS)
        )
        assert stats["evictions"] > 0
        assert max(sizes) <= capacity
        assert len(shared) == capacity  # full, not over-evicted


class TestCompiledArtifactConcurrency:
    def test_accounting_bound_and_counts_under_contention(
        self, monkeypatch, fast_switching
    ):
        from repro.homomorphism.compiled import compile_component
        from repro.planner import analyze

        capacity = 4
        monkeypatch.setattr(analyze, "COMPILED_CACHE_SIZE", capacity)
        rng = random.Random(21)
        n = 9
        structure = Structure(
            Schema.from_arities({"E": 2}),
            {"E": {(rng.randrange(n), rng.randrange(n)) for _ in range(30)}},
            domain=range(n),
        )
        # Six α-classes against four slots, each asked under fresh names.
        shapes = [(cycle_query, k) for k in (3, 4, 5)] + [
            (path_query, k) for k in (2, 3, 4)
        ]

        def counts(cache, prefix):
            return [
                cache.compiled_artifact(
                    shape(k, prefix=prefix), structure, compile_component
                )[0].run()
                for shape, k in shapes
            ]

        serial = counts(analyze.PlanCache(), "serial_")
        shared = analyze.PlanCache()
        assert shared.compiled.max_entries == capacity
        rounds = 15
        results: dict[int, list] = {}

        def prober(index):
            results[index] = [
                counts(shared, f"t{index}_{round_ % 3}_")
                for round_ in range(rounds)
            ]

        sizes = _sample_sizes(shared.compiled, lambda: _run_threads(prober))
        for index in range(THREADS):
            assert results[index] == [serial] * rounds
        stats = shared.compiled.stats()
        assert stats["hits"] + stats["misses"] == THREADS * rounds * len(shapes)
        assert stats["evictions"] > 0
        assert max(sizes) <= capacity
        assert len(shared.compiled) == capacity  # full, not over-evicted


class _CountingCache(CountCache):
    """A CountCache that also tallies raw lookup calls (thread-safely)."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.lookups = 0
        self._lookup_lock = threading.Lock()

    def lookup(self, key):
        with self._lookup_lock:
            self.lookups += 1
        return super().lookup(key)


class TestMutateWhileEvaluating:
    """The versioned-database hammer: writers apply deltas through one
    shared :class:`DeltaEvaluator` while readers evaluate against it.

    Because cache keys embed per-relation content fingerprints, a reader
    that races a mutation can only ever see a *consistent* version: the
    immutable structure snapshot it grabbed, with cache entries of other
    versions invisible under its keys.  The test pins that down:

    * **no stale counts** — every observed ``(snapshot, count)`` pair is
      bit-identical to a fresh-cache backtracking recount of that exact
      snapshot;
    * **no lost invalidations** — after the dust settles the evaluator's
      structure equals the serial application of all deltas (they
      commute), and the shared cache answers the final version exactly,
      twice (the second pass entirely from hits);
    * **accounting closes** — hits + misses equals the number of lookups
      issued, even with ``apply`` migrating/evicting entries mid-lookup.
    """

    def test_hammer_mutate_while_evaluating(self):
        from repro.homomorphism.delta import DeltaEvaluator
        from repro.relational.structure import Delta

        rng = random.Random(13)
        n = 8
        edges = {(rng.randrange(n), rng.randrange(n)) for _ in range(18)}
        structure = Structure(
            Schema.from_arities({"E": 2, "F": 1}),
            {"E": edges, "F": {(0,), (1,)}},
            domain=range(n),
        )
        # Commuting deltas (pure inserts of distinct absent facts): the
        # final structure is independent of the interleaving the threads
        # happen to produce.
        missing_edges = sorted(
            {(a, b) for a in range(n) for b in range(n)} - edges
        )
        rng.shuffle(missing_edges)
        deltas = [
            Delta(inserts=[("E", edge)]) for edge in missing_edges[:10]
        ] + [Delta(inserts=[("F", (element,))]) for element in range(2, 6)]
        workload = [
            parse_query("E(x, y) & E(y, z)"),
            parse_query("E(x, y) & E(y, x)"),
            # Two components: the F factor is a reusable Lemma-1 factor
            # across E-only mutations (and vice versa).
            parse_query("E(x, y) & F(z)"),
        ]

        shared = _CountingCache(max_entries=4096)
        evaluator = DeltaEvaluator(structure, engine="auto", cache=shared)
        pending = list(deltas)
        pending_lock = threading.Lock()
        observed: dict[int, list[tuple[Structure, int, int]]] = {}
        writers = 2

        def mutator(index):
            while True:
                with pending_lock:
                    if not pending:
                        return
                    delta = pending.pop()
                evaluator.apply(delta)

        def reader(index):
            local = []
            for round_ in range(30):
                snapshot = evaluator.structure
                query = workload[(index + round_) % len(workload)]
                value = count(
                    query, snapshot, engine="auto", cache=shared
                )
                local.append((snapshot, (index + round_) % len(workload), value))
            observed[index] = local

        def role(index):
            if index < writers:
                mutator(index)
            else:
                reader(index)

        _run_threads(role)

        # No lost invalidations / lost updates: all deltas landed.
        expected = structure
        for delta in deltas:
            expected = expected.apply_delta(delta)
        assert evaluator.version == len(deltas)
        assert evaluator.structure == expected

        # No stale counts: every observation matches a cold recount of
        # the exact snapshot it was computed against.
        truths: dict[tuple[str, int], int] = {}
        for local in observed.values():
            for snapshot, query_index, value in local:
                key = (snapshot.fingerprint(), query_index)
                if key not in truths:
                    truths[key] = count(
                        workload[query_index],
                        snapshot,
                        engine="backtracking",
                        cache=CountCache(),
                    )
                assert value == truths[key], (
                    f"stale count for version {snapshot.fingerprint()}"
                )
        assert len(observed) == THREADS - writers

        # The final version answers exactly, and a re-ask is all hits.
        final_counts = [
            count(query, evaluator.structure, engine="auto", cache=shared)
            for query in workload
        ]
        assert final_counts == [
            count(query, expected, engine="backtracking", cache=CountCache())
            for query in workload
        ]
        hits_before, misses_before = shared.hits, shared.misses
        again = [
            count(query, evaluator.structure, engine="auto", cache=shared)
            for query in workload
        ]
        assert again == final_counts
        assert shared.misses == misses_before
        assert shared.hits > hits_before

        # Accounting closes under contention with apply() racing lookups.
        assert shared.hits + shared.misses == shared.lookups


@pytest.mark.parametrize("workers", [2, 8])
def test_server_hammering_end_to_end(workers):
    """The integrated check: concurrent mixed traffic, exact answers."""
    from repro.service import EvaluationServer, ServerConfig, ServiceClient

    rng = random.Random(9)
    n = 10
    edges = {(rng.randrange(n), rng.randrange(n)) for _ in range(35)}
    structure = Structure(
        Schema.from_arities({"E": 2}), {"E": edges}, domain=range(n)
    )
    workload = [cycle_query(3), cycle_query(4), path_query(4), path_query(5)]
    expected = [count(q, structure, engine="backtracking") for q in workload]

    with EvaluationServer(
        ServerConfig(workers=workers, queue_depth=64)
    ) as server:
        results: dict[int, list[int]] = {}

        def caller(index):
            client = ServiceClient(server.url, retries=4, seed=index)
            results[index] = [
                client.evaluate(query, structure, engine="backtracking")
                for query in workload
            ]

        _run_threads(caller)
        assert len(results) == THREADS
        for index in range(THREADS):
            assert results[index] == expected
