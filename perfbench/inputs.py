"""Seeded inputs for the three workloads.

Every generator here is a pure function of ``(workload, seed)`` (plus, for
streams, the position in the stream): the program under test only ever
sees the queries and structures built here.  The shapes and graph classes
are the ones the planner's known regret cells live in, so a later change
to the planner or the engines has cells on both sides of its choice.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro import ConjunctiveQuery, Schema, Structure, Variable, parse_query

GRAPH = Schema.from_arities({"E": 2})


def _edges_query(edges, extra: str = "") -> ConjunctiveQuery:
    return parse_query(" & ".join(f"E({a}, {b})" for a, b in edges) + extra)


def _path(k: int) -> ConjunctiveQuery:
    return _edges_query([(f"x{i}", f"x{i + 1}") for i in range(k)])


def _cycle(k: int) -> ConjunctiveQuery:
    return _edges_query([(f"x{i}", f"x{(i + 1) % k}") for i in range(k)])


#: lib-distinct shapes.  cycle-5 and bowtie on sparse graphs are the cells
#: where ``auto`` picks ``treewidth`` at 50-100x the compiled time; the
#: acyclic shapes are where a planner change should move nothing.
DISTINCT_SHAPES: dict[str, ConjunctiveQuery] = {
    "path-4": _path(4),
    "path-5": _path(5),
    "path-6": _path(6),
    "star-5": _edges_query([("c", f"x{i}") for i in range(5)]),
    "tree-5": _edges_query(
        [("x0", "x1"), ("x1", "x2"), ("x1", "x3"), ("x3", "x4"), ("x3", "x5")]
    ),
    "cycle-4": _cycle(4),
    "cycle-5": _cycle(5),
    "bowtie": _edges_query(
        [("a", "b"), ("b", "c"), ("c", "a"), ("a", "d"), ("d", "e"), ("e", "a")]
    ),
    "tri-neq": _edges_query([("x", "y"), ("y", "z"), ("z", "x")], " & x != y"),
}

#: Every round of the lib-distinct stream runs each (shape, graph class,
#: size) cell, acyclic shapes ACYCLIC_WEIGHT times, in a seeded order; so
#: every seed runs the same cell mix and only the edges differ.  Sparse
#: graphs have one size: a treewidth-picked cycle takes ~0.2 s on 32
#: vertices and ~0.6 s on 48, and a p99 that falls between two sizes
#: jumps from run to run.  The weights keep a 15 s run above 1,000 ops
#: (ten samples beyond p99) while every round still runs the slow cells.
SPARSE_SIZES = (40,)
DENSE_SIZES = (8, 10, 12)
ACYCLIC_SHAPES = ("path-4", "path-5", "path-6", "star-5", "tree-5")
ACYCLIC_WEIGHT = 4
ROUND = tuple(
    (shape, graph_class, size)
    for graph_class, sizes in (("sparse", SPARSE_SIZES), ("dense", DENSE_SIZES))
    for size in sizes
    for shape in DISTINCT_SHAPES
    for _ in range(ACYCLIC_WEIGHT if shape in ACYCLIC_SHAPES else 1)
)


def sparse_graph(rng: random.Random, n: int) -> Structure:
    """``n`` vertices, ``3n`` distinct directed non-loop edges."""
    edges: set[tuple[int, int]] = set()
    while len(edges) < 3 * n:
        a, b = rng.randrange(n), rng.randrange(n)
        if a != b:
            edges.add((a, b))
    return Structure(GRAPH, {"E": sorted(edges)}, domain=range(n))


def dense_graph(rng: random.Random, n: int, p: float = 0.5) -> Structure:
    """Erdős–Rényi directed graph on ``n`` vertices, no loops."""
    edges = [
        (a, b) for a in range(n) for b in range(n) if a != b and rng.random() < p
    ]
    return Structure(GRAPH, {"E": edges}, domain=range(n))


@dataclass(frozen=True)
class DistinctOp:
    op_id: int
    cell: tuple[str, str]
    size: int
    query: ConjunctiveQuery
    structure: Structure


def distinct_ops(seed: int, start: int, count: int) -> list[DistinctOp]:
    """Ops ``start .. start+count-1`` of the lib-distinct stream.

    Each op gets a fresh graph whose edges come from a generator seeded
    by ``(seed, op index)``.
    """
    ops = []
    orders: dict[int, list] = {}
    for op_id in range(start, start + count):
        rnd, position = divmod(op_id, len(ROUND))
        if rnd not in orders:
            orders[rnd] = list(ROUND)
            random.Random(f"lib-distinct/{seed}/round/{rnd}").shuffle(orders[rnd])
        shape, graph_class, size = orders[rnd][position]
        rng = random.Random(f"lib-distinct/{seed}/{op_id}")
        if graph_class == "sparse":
            structure = sparse_graph(rng, size)
        else:
            structure = dense_graph(rng, size)
        ops.append(DistinctOp(op_id, (shape, graph_class), size,
                              DISTINCT_SHAPES[shape], structure))
    return ops


def alpha_rename(query: ConjunctiveQuery, rng: random.Random, tag: str):
    """A fresh α-renaming: new variable names, atoms in shuffled order."""
    variables = sorted(query.variables, key=lambda v: v.name)
    rng.shuffle(variables)
    mapping = {v: Variable(f"{tag}_{i}") for i, v in enumerate(variables)}
    renamed = query.rename(mapping)
    atoms = list(renamed.atoms)
    rng.shuffle(atoms)
    return ConjunctiveQuery(atoms, renamed.inequalities)


#: lib-repeat query pool, most popular first (weights are Zipf by rank, in
#: this fixed order, so every seed runs the same query mix).
REPEAT_QUERIES = tuple(
    parse_query(text)
    for text in (
        "E(x, y) & E(y, z)",
        "E(x, y) & E(y, z) & E(z, x)",
        "E(x, y) & E(y, z) & E(z, w)",
        "E(c, x) & E(c, y) & E(c, z)",
        "E(x, y) & E(y, x)",
        "E(x, y) & E(y, z) & E(z, w) & E(w, x)",
        "E(x, y) & E(y, z) & E(u, v)",
        "E(x, y) & E(y, z) & E(z, x) & x != y",
        "E(x, y) & E(x, z) & E(z, w) & E(y, w)",
        "E(x, x) & E(x, y) & E(y, z)",
    )
)
REPEAT_STRUCTURES = 4
REPEAT_SIZE = 12
ZIPF_S = 1.1


@dataclass(frozen=True)
class RepeatPool:
    structures: tuple[Structure, ...]
    #: ``(query index, structure index)`` pairs with their Zipf weights.
    pairs: tuple[tuple[int, int], ...]
    weights: tuple[float, ...]


def repeat_pool(seed: int) -> RepeatPool:
    rng = random.Random(f"lib-repeat/{seed}/pool")
    structures = tuple(
        sparse_graph(rng, REPEAT_SIZE) for _ in range(REPEAT_STRUCTURES)
    )
    pairs = []
    weights = []
    for qi in range(len(REPEAT_QUERIES)):
        # Each query is spread over the structures with a seeded split of
        # its (fixed) Zipf weight.
        share = [rng.random() + 0.5 for _ in range(REPEAT_STRUCTURES)]
        total = sum(share)
        for si in range(REPEAT_STRUCTURES):
            pairs.append((qi, si))
            weights.append(share[si] / total / (qi + 1) ** ZIPF_S)
    return RepeatPool(structures, tuple(pairs), tuple(weights))


def repeat_ops(seed: int, pool: RepeatPool, start: int, count: int) -> list:
    """``(op_id, pair index, renamed query)`` for ops ``start..``."""
    rng = random.Random(f"lib-repeat/{seed}/ops/{start}")
    picks = rng.choices(range(len(pool.pairs)), weights=pool.weights, k=count)
    ops = []
    for offset, pair in enumerate(picks):
        op_id = start + offset
        query = REPEAT_QUERIES[pool.pairs[pair][0]]
        ops.append((op_id, pair, alpha_rename(query, rng, f"v{op_id}")))
    return ops


# -- serve-mixed -------------------------------------------------------------

#: Inline /evaluate query pool, most popular first (Zipf by rank).
INLINE_QUERIES = tuple(
    parse_query(text)
    for text in (
        "E(x, y) & E(y, z)",
        "E(x, y) & E(y, z) & E(z, x)",
        "E(x, y) & E(y, z) & E(z, w)",
        "E(x, y) & E(y, x)",
        "E(c, x) & E(c, y) & E(c, z)",
        "E(x, y) & E(y, z) & E(u, v) & E(v, u)",
        "E(x, y) & E(y, z) & E(z, w) & E(w, x)",
        "E(x, y) & E(x, z) & E(z, w) & E(y, w)",
        "E(x, y) & E(y, z) & E(z, x) & E(u, u)",
        "E(x, y) & E(y, z) & E(z, w) & E(w, v)",
        "E(x, x) & E(x, y) & E(y, z)",
        "E(x, y) & E(y, z) & E(z, x) & x != y",
    )
)
#: 12 queries (16 component classes) × 400 structures is ~6,400 keys,
#: more than the server's 4,096-entry count cache.
INLINE_STRUCTURES = 400
INLINE_SIZES = (6, 7, 8, 9)

DB_NAME = "bench"
DB_SCHEMA = Schema.from_arities({"E": 2, "F": 2})
DB_SIZE = 40
#: Constants the db queries pin.  No update ever touches a fact whose
#: first column is one of their values, so components that read F only
#: through a pinned atom are migrated (not recounted) by /update.
DB_CONSTANTS = {"a": 0, "b": 1}
DB_QUERIES = tuple(
    parse_query(text)
    for text in (
        "E(x, y) & E(y, z)",
        "E(x, y) & E(y, z) & E(z, x)",
        "F(#a, x) & E(x, y)",
        "F(#b, x) & E(x, y) & E(y, z)",
        "F(x, y) & E(y, z)",
        "F(#a, x) & F(#b, x)",
    )
)
#: Each client thread toggles facts F(u, v) with u in its own range, so
#: every /update is a real change whatever the interleaving.
UPDATE_ROWS_PER_THREAD = 10
UPDATE_FACTS_PER_THREAD = 24

MIX = (("inline", 0.80), ("db", 0.15), ("update", 0.05))


@dataclass(frozen=True)
class ServePools:
    inline_structures: tuple[Structure, ...]
    inline_weights: tuple[float, ...]
    db: Structure
    #: Per client thread, the F facts that thread toggles.
    update_facts: tuple[tuple[tuple[int, int], ...], ...]


def serve_pools(seed: int, threads: int) -> ServePools:
    rng = random.Random(f"serve-mixed/{seed}/pools")
    inline = tuple(
        dense_graph(rng, INLINE_SIZES[i % len(INLINE_SIZES)], 0.35)
        for i in range(INLINE_STRUCTURES)
    )
    weights = tuple(1.0 / (i + 1) ** ZIPF_S for i in range(len(INLINE_QUERIES)))
    e_edges: set[tuple[int, int]] = set()
    while len(e_edges) < 3 * DB_SIZE:
        a, b = rng.randrange(DB_SIZE), rng.randrange(DB_SIZE)
        if a != b:
            e_edges.add((a, b))
    f_edges = {
        (a, rng.randrange(DB_SIZE)) for a in range(DB_SIZE) for _ in range(2)
    }
    update_facts = []
    for thread in range(threads):
        low = 10 + thread * UPDATE_ROWS_PER_THREAD
        facts: set[tuple[int, int]] = set()
        while len(facts) < UPDATE_FACTS_PER_THREAD:
            fact = (low + rng.randrange(UPDATE_ROWS_PER_THREAD),
                    rng.randrange(DB_SIZE))
            if fact not in f_edges:
                facts.add(fact)
        update_facts.append(tuple(sorted(facts)))
    db = Structure(
        DB_SCHEMA,
        {"E": sorted(e_edges), "F": sorted(f_edges)},
        constants=DB_CONSTANTS,
        domain=range(DB_SIZE),
    )
    return ServePools(inline, weights, db, tuple(update_facts))


def serve_ops(seed: int, thread: int, pools: ServePools, start: int, count: int):
    """Ops ``start..`` of one client thread's stream.

    Each op is ``("inline", query index, structure index)``,
    ``("db", db query index)`` or ``("update", fact index)``; the
    update's direction (insert or delete) is decided by the thread, which
    tracks which of its facts are present.
    """
    rng = random.Random(f"serve-mixed/{seed}/{thread}/{start}")
    kinds = rng.choices(
        [kind for kind, _ in MIX], weights=[w for _, w in MIX], k=count
    )
    ops = []
    for kind in kinds:
        if kind == "inline":
            qi = rng.choices(range(len(INLINE_QUERIES)),
                             weights=pools.inline_weights)[0]
            ops.append(("inline", qi, rng.randrange(len(pools.inline_structures))))
        elif kind == "db":
            ops.append(("db", rng.randrange(len(DB_QUERIES))))
        else:
            ops.append(("update", rng.randrange(UPDATE_FACTS_PER_THREAD)))
    return ops
