"""Differential suite: batched/cached counting ≡ serial counting.

The batch evaluator and the canonicalization-keyed count cache must never
change any number — every configuration (workers ∈ {1, 2, 4}, cache on /
off / shared, every engine, the inclusion-exclusion path) is checked for
bit-identical agreement with plain serial :func:`repro.homomorphism.count`
on a seeded corpus of ~200 random / path / star / cycle queries.

The corpus is deterministic (fixed seeds), so a disagreement here is a
reproducible counterexample, not a flake.
"""

from __future__ import annotations

import pickle

import pytest

from repro.homomorphism import (
    CountCache,
    canonical_component,
    count,
    count_many,
    count_ucq,
    is_acyclic,
)
from repro.queries.product import QueryProduct
from repro.queries.ucq import UnionOfConjunctiveQueries
from repro.relational import Schema, Structure
from repro.workloads import (
    cycle_query,
    path_query,
    random_queries,
    star_query,
)

SCHEMA = Schema.from_arities({"E": 2, "U": 1})

STRUCTURES = [
    Structure(
        SCHEMA,
        {"E": [(0, 1), (1, 2), (2, 0), (1, 1)], "U": [(0,), (2,)]},
        domain=range(3),
    ),
    Structure(
        SCHEMA,
        {"E": [(0, 0), (0, 1), (1, 0), (2, 1), (2, 2)], "U": [(1,)]},
        domain=range(3),
    ),
]


def _corpus() -> list[tuple]:
    """~200 deterministic (query, structure) pairs of the promised shapes."""
    pairs = []
    shaped = (
        [path_query(length) for length in range(1, 9)]
        + [star_query(rays) for rays in range(1, 9)]
        + [cycle_query(length) for length in range(1, 9)]
    )
    randoms = list(
        random_queries(SCHEMA, count=50, variable_count=4, atom_count=5, seed=11)
    )
    randoms += list(
        random_queries(
            SCHEMA,
            count=25,
            variable_count=3,
            atom_count=4,
            inequality_count=2,
            seed=97,
        )
    )
    # Disconnected / factorized shapes exercise the component cache.
    randoms.append(path_query(3) * star_query(3))
    randoms.append(QueryProduct.of(cycle_query(3), 4) * QueryProduct.of(path_query(2), 3))
    for structure in STRUCTURES:
        for query in shaped + randoms:
            pairs.append((query, structure))
    return pairs


CORPUS = _corpus()


def _supports(query, engine: str) -> bool:
    if engine != "acyclic":
        return True
    if isinstance(query, QueryProduct):
        return not query.has_inequalities() and all(
            is_acyclic(factor) for factor, _ in query
        )
    return not query.has_inequalities() and is_acyclic(query)


def test_corpus_size():
    assert len(CORPUS) >= 200


@pytest.mark.parametrize("engine", ["backtracking", "treewidth", "acyclic"])
def test_count_many_matches_serial_per_engine(engine):
    pairs = [(q, d) for q, d in CORPUS if _supports(q, engine)]
    assert pairs, engine
    serial = [count(q, d, engine=engine) for q, d in pairs]
    for cache in (None, False):
        assert count_many(pairs, engine=engine, cache=cache) == serial


@pytest.mark.parametrize("workers", [2, 4])
def test_explicit_acyclic_pool_is_priced_and_exact(workers):
    # The planner never picks acyclic, but a pool run with it explicitly
    # still packs by its cost estimate, which must exist.
    pairs = [(q, d) for q, d in CORPUS if _supports(q, "acyclic")][:40]
    serial = [count(q, d, engine="acyclic") for q, d in pairs]
    assert count_many(pairs, engine="acyclic", workers=workers, cache=False) == serial


@pytest.mark.parametrize("workers", [1, 2, 4])
def test_count_many_workers_bit_identical(workers):
    serial = [count(q, d) for q, d in CORPUS]
    for cache in (None, False, CountCache(max_entries=64)):
        got = count_many(CORPUS, workers=workers, cache=cache)
        assert got == serial, f"workers={workers}, cache={cache!r}"


def test_shared_cache_across_batches_stays_exact():
    shared = CountCache()
    serial = [count(q, d) for q, d in CORPUS]
    first = count_many(CORPUS, cache=shared)
    second = count_many(CORPUS, cache=shared)  # all hits the second time
    assert first == serial
    assert second == serial
    assert shared.hits > 0
    assert shared.hit_rate > 0.5


def test_inclusion_exclusion_path_matches_serial():
    pairs = [
        (q, d)
        for q, d in CORPUS
        if not isinstance(q, QueryProduct) and q.has_inequalities()
    ]
    assert pairs
    serial = [count(q, d) for q, d in pairs]
    via_ie = [
        count(q, d, use_inclusion_exclusion=True) for q, d in pairs
    ]
    assert via_ie == serial
    for cache in (None, False):
        for workers in (1, 2):
            got = count_many(
                pairs, workers=workers, cache=cache, use_inclusion_exclusion=True
            )
            assert got == serial, f"workers={workers}, cache={cache!r}"


def test_engine_cache_parameter_is_invisible():
    cache = CountCache()
    for query, structure in CORPUS:
        assert count(query, structure, cache=cache) == count(query, structure)
    assert cache.hits > 0  # the corpus repeats components


def test_count_ucq_batched_matches_serial():
    disjuncts = [
        (path_query(3), 2),
        (star_query(2), 1),
        (cycle_query(3), 3),
        (path_query(3, prefix="q"), 1),  # α-equivalent to the first disjunct
    ]
    ucq = UnionOfConjunctiveQueries(disjuncts)
    for structure in STRUCTURES:
        serial = count_ucq(ucq, structure)
        assert count_ucq(ucq, structure, cache=CountCache()) == serial
        assert count_ucq(ucq, structure, workers=2) == serial


def test_canonical_component_identifies_alpha_equivalent_queries():
    renamed = path_query(4, prefix="left")
    other = path_query(4, prefix="right")
    assert renamed != other
    assert canonical_component(renamed) == canonical_component(other)
    # Non-isomorphic components must never collide.
    assert canonical_component(path_query(4)) != canonical_component(cycle_query(4))
    assert canonical_component(star_query(3)) != canonical_component(path_query(3))


def test_canonical_component_preserves_counts():
    for query, structure in CORPUS:
        if isinstance(query, QueryProduct):
            continue
        for component in query.connected_components():
            assert count(canonical_component(component), structure) == count(
                component, structure
            )


def test_query_objects_pickle_for_the_process_pool():
    for query, structure in CORPUS[:20]:
        assert pickle.loads(pickle.dumps(query)) == query
        assert pickle.loads(pickle.dumps(structure)) == structure


def test_lru_eviction_keeps_counts_exact():
    tiny = CountCache(max_entries=2)
    serial = [count(q, d) for q, d in CORPUS]
    assert count_many(CORPUS, cache=tiny) == serial
    assert tiny.evictions > 0
    assert len(tiny) <= 2


def test_lru_evicted_entry_recomputed_under_workers_matches():
    """An evicted component re-counted by a pool worker gives the same value.

    A 2-entry cache thrashes on this corpus, so most components are
    evicted and recomputed — possibly in a different worker process than
    the one that first counted them.  Both passes must still be
    bit-identical to the serial baseline.
    """
    serial = [count(q, d) for q, d in CORPUS]
    tiny = CountCache(max_entries=2)
    assert count_many(CORPUS, workers=2, cache=tiny) == serial
    assert tiny.evictions > 0
    # Second sweep: everything evicted the first time is recomputed.
    assert count_many(CORPUS, workers=2, cache=tiny) == serial
    assert len(tiny) <= 2


class TestNamedPickling:
    """``_Named.__reduce__`` must round-trip terms through the process pool."""

    def test_reduce_reconstructs_by_name(self):
        from repro.queries.terms import Constant, Variable

        assert Variable("x").__reduce__() == (Variable, ("x",))
        assert Constant("s").__reduce__() == (Constant, ("s",))

    def test_round_trip_preserves_equality_and_hash(self):
        from repro.queries.terms import Constant, Variable

        for term in (Variable("x"), Constant("s")):
            clone = pickle.loads(pickle.dumps(term))
            assert clone == term
            assert hash(clone) == hash(term)
        # The subclass distinction survives: same name, different kind.
        assert pickle.loads(pickle.dumps(Constant("x"))) != Variable("x")

    def test_every_workloads_query_shape_round_trips(self):
        from repro.queries.terms import Constant, Variable
        from repro.workloads import random_query

        with_constants = path_query(3).rename(
            {Variable("p0"): Constant("s"), Variable("p3"): Constant("h")}
        )
        shapes = [
            path_query(4),
            cycle_query(5),
            star_query(3),
            random_query(SCHEMA, variable_count=4, atom_count=5, seed=3),
            random_query(
                SCHEMA,
                variable_count=3,
                atom_count=4,
                inequality_count=2,
                seed=7,
            ),
            with_constants,
            path_query(2) * star_query(2),
            QueryProduct.of(cycle_query(3), 5),
        ]
        for query in shapes:
            clone = pickle.loads(pickle.dumps(query))
            assert clone == query
            assert hash(clone) == hash(query)
            if not isinstance(query, QueryProduct):
                assert clone.variables == query.variables
                assert clone.constants == query.constants


def test_count_many_rejects_bad_arguments():
    from repro.errors import EvaluationError

    with pytest.raises(EvaluationError):
        count_many([(path_query(2), STRUCTURES[0])], engine="nope")
    with pytest.raises(ValueError):
        count_many([(path_query(2), STRUCTURES[0])], workers=0)
    with pytest.raises(TypeError):
        count_many([(path_query(2), STRUCTURES[0])], cache=42)
    with pytest.raises(EvaluationError):
        count_many([("not a query", STRUCTURES[0])])


def test_count_many_empty_batch():
    assert count_many([]) == []


class TestBatchedSearchParity:
    """Batched candidate checking must reproduce the serial verdicts."""

    def _stream(self, count_=40, seed=3):
        from repro.decision.search import random_structures

        return list(
            random_structures(SCHEMA, domain_size=3, count=count_, seed=seed)
        )

    @pytest.mark.parametrize("batch_size", [1, 3, 16])
    @pytest.mark.parametrize("workers", [1, 2])
    def test_counterexample_identical(self, workers, batch_size):
        from repro.decision.search import find_counterexample

        phi_s = cycle_query(3)
        phi_b = path_query(5)
        stream = self._stream()
        serial = find_counterexample(phi_s, phi_b, stream, multiplier=2)
        batched = find_counterexample(
            phi_s,
            phi_b,
            stream,
            multiplier=2,
            workers=workers,
            batch_size=batch_size,
        )
        assert batched.found == serial.found
        assert batched.counterexample == serial.counterexample
        assert batched.checked == serial.checked
        assert (batched.lhs, batched.rhs) == (serial.lhs, serial.rhs)

    def test_exhausted_identical(self):
        from repro.decision.search import find_counterexample

        phi_s = path_query(2)
        phi_b = path_query(1)
        stream = self._stream(count_=12, seed=8)
        # paths of length 2 never outnumber paths of length 1 by 1000x here
        serial = find_counterexample(
            phi_s, phi_b, stream, multiplier=1, additive=10**6
        )
        batched = find_counterexample(
            phi_s,
            phi_b,
            stream,
            multiplier=1,
            additive=10**6,
            workers=2,
            batch_size=5,
        )
        assert not serial.found and not batched.found
        assert batched.checked == serial.checked

    @pytest.mark.parametrize("batch_size", [1, 4, 64])
    def test_budget_semantics_identical(self, batch_size):
        from repro.decision.search import find_counterexample
        from repro.errors import SearchBudgetExceeded

        phi_s = path_query(2)
        phi_b = path_query(1)
        stream = self._stream(count_=20, seed=8)
        with pytest.raises(SearchBudgetExceeded):
            find_counterexample(
                phi_s, phi_b, stream, additive=10**6, max_candidates=7
            )
        with pytest.raises(SearchBudgetExceeded):
            find_counterexample(
                phi_s,
                phi_b,
                stream,
                additive=10**6,
                max_candidates=7,
                batch_size=batch_size,
            )

    def test_predicate_filter_identical(self):
        from repro.decision.search import find_counterexample

        stream = self._stream(count_=30, seed=5)
        predicate = lambda s: s.fact_count() % 2 == 0  # noqa: E731
        serial = find_counterexample(
            cycle_query(3), path_query(5), stream, multiplier=2, predicate=predicate
        )
        batched = find_counterexample(
            cycle_query(3),
            path_query(5),
            stream,
            multiplier=2,
            predicate=predicate,
            workers=2,
            batch_size=4,
        )
        assert batched.counterexample == serial.counterexample
        assert batched.checked == serial.checked

    def test_verify_bounded_batched_verdict(self):
        from repro.decision.bounded import verify_bounded

        # E(x,y) ≤ E(x,y)·|walks| fails, E(x,y) ≤ E(x,y) holds — use a
        # true containment so both paths sweep the whole space.
        phi = path_query(1)
        serial = verify_bounded(
            phi, phi, Schema.from_arities({"E": 2}), domain_size=2,
            require_nontrivial=False, max_facts_per_relation=2,
        )
        batched = verify_bounded(
            phi, phi, Schema.from_arities({"E": 2}), domain_size=2,
            require_nontrivial=False, max_facts_per_relation=2,
            workers=2, cache=CountCache(),
        )
        assert serial.holds_on_sample and batched.holds_on_sample
        assert batched.checked == serial.checked

    def test_search_cache_reuse_across_generations(self):
        from repro.decision.search import find_counterexample
        from repro.obs import observe

        stream = self._stream(count_=20, seed=13)
        shared = CountCache()
        with observe() as obs:
            find_counterexample(
                path_query(3),
                star_query(3),
                stream,
                additive=10**6,
                batch_size=4,
                cache=shared,
            )
        metrics = obs.report()["metrics"]
        # phi_s and phi_b components are re-keyed per structure, but the
        # batch layer still reuses within each flush and the counters flow.
        assert metrics["batch.tasks"]["value"] > 0
        assert metrics["search.batches"]["value"] == 5
        assert shared.misses > 0
