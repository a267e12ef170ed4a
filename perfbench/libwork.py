"""The library workloads: ``lib-distinct`` and ``lib-repeat``.

Both drive ``repro.count(query, structure, engine="auto")`` from one
thread in a closed loop.  The traced variant replays, span by span, the
per-component sequence ``count()`` takes (components → ``select_for`` →
cache key → lookup → compile/engine → store) and checks that it returns
what ``count()`` returns.
"""

from __future__ import annotations

import random
import resource
import statistics
from collections import Counter, defaultdict
from time import perf_counter

from repro import count
from repro.homomorphism.acyclic import count_homomorphisms_acyclic
from repro.homomorphism.backtracking import count_homomorphisms, ensure_stack_for
from repro.homomorphism.cache import CountCache, component_cache_key
from repro.homomorphism.compiled import (
    compile_component,
    compiled_supported,
    count_homomorphisms_compiled,
)
from repro.homomorphism.treewidth_dp import count_homomorphisms_td
from repro.planner import default_plan_cache, eligible_engines, select_for

import inputs
from tracing import LayerStats, Tracer

ENGINES = ("backtracking", "treewidth", "compiled", "acyclic")
ENGINE_FUNCTIONS = {
    "backtracking": count_homomorphisms,
    "treewidth": count_homomorphisms_td,
    "acyclic": count_homomorphisms_acyclic,
    "compiled": count_homomorphisms_compiled,
}
#: lib-distinct ops per cell whose components are re-run on every
#: eligible engine to price the planner's pick.
REGRET_PROBES_PER_CELL = 3
#: Ops per generated batch; checks run between batches.
DISTINCT_BATCH = 96
REPEAT_BATCH = 512


class Phase:
    """What one closed-loop phase measured."""

    def __init__(self) -> None:
        self.latencies: list[float] = []
        #: The input class of every op, for the overhead comparison.
        self.cells: list = []
        self.busy_s = 0.0
        self.ops = 0
        self.wrong = 0


def timed_loop(next_batch, call, check, cell, seconds: float) -> Phase:
    """Closed loop until ``seconds`` of timed wall time have passed.

    Inputs come in batches from ``next_batch(done)``.  Generating them and
    ``check(item, value)`` run between batches, outside the timed region,
    and no op is kept after its check, so memory stays flat.
    """
    phase = Phase()
    while phase.busy_s < seconds:
        batch = next_batch(phase.ops)
        values = []
        start = perf_counter()
        for item in batch:
            t0 = perf_counter()
            values.append(call(item))
            t1 = perf_counter()
            phase.latencies.append(t1 - t0)
            if phase.busy_s + (t1 - start) >= seconds:
                break
        phase.busy_s += perf_counter() - start
        phase.ops += len(values)
        for item, value in zip(batch, values):
            phase.cells.append(cell(item))
            phase.wrong += not check(item, value)
    return phase


class TracedCount:
    """``count(engine="auto")`` taken apart into layer spans.

    Mirrors :func:`repro.homomorphism.engine.count` for a plain
    conjunctive query: a single-component query is dispatched whole, each
    component is planned, keyed and looked up, and only misses reach an
    engine.  Compiled components split into compile and run.
    """

    def __init__(self, tracer: Tracer, cache: CountCache | None) -> None:
        self.tracer = tracer
        self.cache = cache
        self.lookups = 0
        self.hits = 0
        self.picks: Counter = Counter()
        #: Per op id, ``(component, structure, engine, profile, engine s)``
        #: for every component an engine ran on; the checks pop them.
        self.engine_runs: dict[int, list[tuple]] = defaultdict(list)

    def __call__(self, op_id: int, query, structure) -> int:
        tracer = self.tracer
        tracer.op = op_id
        with tracer.span("op"):
            with tracer.span("queries.components"):
                components = query.connected_components()
            if len(components) <= 1:
                components = [query]
            total = 1
            for component in components:
                total *= self._dispatch(op_id, component, structure)
                if total == 0:
                    break
        return total

    def _dispatch(self, op_id, component, structure) -> int:
        tracer = self.tracer
        with tracer.span("planner.select"):
            step = select_for(component, structure)
        engine = step.engine
        self.picks[engine] += 1
        key = None
        if self.cache is not None:
            with tracer.span("cache.key"):
                key = component_cache_key(component, structure, engine)
            with tracer.span("cache.lookup"):
                hit = self.cache.lookup(key)
            self.lookups += 1
            if hit is not None:
                self.hits += 1
                return hit
        with tracer.span(f"engine.{engine}") as row:
            if engine == "compiled":
                value = self._compiled(component, structure)
            else:
                value = ENGINE_FUNCTIONS[engine](component, structure)
        self.engine_runs[op_id].append(
            (component, structure, engine, step.profile, row[2] - row[1])
        )
        if key is not None:
            with tracer.span("cache.store"):
                self.cache.store(key, value)
        return value

    def _compiled(self, component, structure) -> int:
        # count_homomorphisms_compiled, with compile and run as spans.
        if not compiled_supported(component, structure):
            return count_homomorphisms(component, structure)
        ensure_stack_for(component)
        tracer = self.tracer

        def build(canonical, target):
            with tracer.span("compiled.compile"):
                return compile_component(canonical, target)

        artifact, _ = default_plan_cache().compiled_artifact(
            component, structure, build
        )
        with tracer.span("compiled.run"):
            return artifact.run()


def untraced_result(phase: Phase) -> dict:
    """What the end-to-end metrics need from the untraced loop."""
    return {
        "latencies": phase.latencies,
        "wall_s": phase.busy_s,
        # ru_maxrss is this process's peak resident set (VmHWM), in KiB.
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "untraced_ok": phase.ops - phase.wrong,
        "attempted": phase.ops,
        "failed": phase.wrong,
    }


def overhead_ratio(untraced: Phase, traced: Phase) -> float:
    """Traced over untraced time per op, on the same mix of cells.

    Each phase's mean per cell is weighted by the cell's share of all
    ops, so a phase that happened to draw more slow cells does not look
    slower.
    """
    means = []
    for phase in (untraced, traced):
        per_cell = defaultdict(list)
        for cell, latency in zip(phase.cells, phase.latencies):
            per_cell[cell].append(latency)
        means.append({c: statistics.fmean(v) for c, v in per_cell.items()})
    shared = set(means[0]) & set(means[1])
    weight = Counter(untraced.cells + traced.cells)
    return (sum(weight[c] * means[1][c] for c in shared)
            / sum(weight[c] * means[0][c] for c in shared))


def engine_seconds(component, structure, engine: str, reps: int) -> float:
    samples = []
    for _ in range(reps):
        t0 = perf_counter()
        ENGINE_FUNCTIONS[engine](component, structure)
        samples.append(perf_counter() - t0)
    return statistics.median(samples)


def layer_metrics(
    tracer: Tracer, traced: TracedCount, regret: float, overhead: float,
    evictions: int,
) -> dict:
    """The per-layer metrics a library workload can give."""
    stats = LayerStats(tracer.spans)
    components = sum(traced.picks.values())
    metrics = {
        "queries.components_ms": stats.mean_ms("queries.components"),
        "cache.key_ms": stats.mean_ms("cache.key"),
        "cache.lookup_ms": stats.mean_ms("cache.lookup", "cache.store"),
        "cache.hit_ratio": traced.hits / traced.lookups if traced.lookups else 0.0,
        "cache.evictions": evictions,
        "planner.select_ms": stats.mean_ms("planner.select"),
        "planner.regret": regret,
        "compiled.compile_ms": stats.mean_ms("compiled.compile"),
        "compiled.run_ms": stats.mean_ms("compiled.run"),
        "trace.overhead_ratio": overhead,
        "trace.unattributed_share": stats.unattributed_share("op"),
    }
    for engine in ENGINES:
        metrics[f"planner.picks.{engine}"] = (
            traced.picks[engine] / components if components else 0.0
        )
        calls = stats.calls[f"engine.{engine}"]
        busy = stats.total[f"engine.{engine}"]
        if engine == "compiled":
            # Compiling is its own layer; the engine's time is the run.
            busy -= stats.total["compiled.compile"]
        metrics[f"engine.{engine}.ms"] = 1000.0 * busy / calls if calls else 0.0
        metrics[f"engine.{engine}.calls"] = calls
    return metrics


# -- lib-distinct --------------------------------------------------------------


def distinct_reference(op) -> int:
    """The count from an engine other than the one ``auto`` picks.

    ``auto`` never picks backtracking on the inequality-free shapes here,
    and picks it on the inequality shape, which is checked through the
    inclusion-exclusion route instead.
    """
    return count(
        op.query, op.structure, engine="backtracking",
        use_inclusion_exclusion=bool(op.query.inequalities),
    )


def distinct_warmup(seed: int) -> None:
    """Lazy imports and query profiles: each shape once on a small graph."""
    graph = inputs.dense_graph(random.Random(f"lib-distinct/{seed}/warm"), 8)
    for query in inputs.DISTINCT_SHAPES.values():
        count(query, graph, engine="auto")


def run_distinct(seed: int, seconds: float, traced: bool) -> dict:
    def ops(start):
        return lambda done: inputs.distinct_ops(seed, start + done, DISTINCT_BATCH)

    def cell(op):
        return (op.cell, op.size)

    untraced_s = seconds / 3 if traced else seconds
    phase = timed_loop(
        ops(0), lambda op: count(op.query, op.structure, engine="auto"),
        lambda op, value: value == distinct_reference(op), cell, untraced_s,
    )
    result = untraced_result(phase)
    if not traced:
        return result

    tracer = Tracer()
    traced_count = TracedCount(tracer, cache=None)
    probes = defaultdict(list)

    def check(op, value) -> bool:
        # Price the first few picks of each cell on every eligible engine.
        for component, structure, engine, profile, picked_s in (
            traced_count.engine_runs.pop(op.op_id, ())
        ):
            if len(probes[op.cell]) < REGRET_PROBES_PER_CELL:
                times = {engine: picked_s}
                for other in eligible_engines(component, profile, structure):
                    if other != engine:
                        times[other] = engine_seconds(component, structure, other, 1)
                probes[op.cell].append((engine, times))
        return (value == count(op.query, op.structure, engine="auto")
                and value == distinct_reference(op))

    t_phase = timed_loop(
        ops(phase.ops),
        lambda op: traced_count(op.op_id, op.query, op.structure),
        check, cell, seconds - untraced_s,
    )
    result["attempted"] += t_phase.ops
    result["failed"] += t_phase.wrong
    table, regret = cell_table(probes)
    result["layers"] = layer_metrics(
        tracer, traced_count, regret, overhead_ratio(phase, t_phase), 0
    )
    result["cell_table"] = table
    result["spans"] = tracer.spans
    return result


def cell_table(probes: dict) -> tuple[list[dict], float]:
    """Per cell: the engine ``auto`` picked against the fastest eligible.

    Returns the rows and the overall regret, Σ picked time / Σ fastest
    eligible time over every probed component.
    """
    rows = []
    picked_total = best_total = 0.0
    for cell, samples in sorted(probes.items()):
        picked = [times[engine] for engine, times in samples]
        fastest = [min(times.items(), key=lambda kv: kv[1]) for _, times in samples]
        picked_total += sum(picked)
        best_total += sum(t for _, t in fastest)
        rows.append({
            "cell": "/".join(cell),
            "probes": len(samples),
            "picked": Counter(e for e, _ in samples).most_common(1)[0][0],
            "picked_ms": 1000.0 * statistics.median(picked),
            "fastest": Counter(e for e, _ in fastest).most_common(1)[0][0],
            "fastest_ms": 1000.0 * statistics.median(t for _, t in fastest),
            "regret": sum(picked) / sum(t for _, t in fastest),
        })
    return rows, (picked_total / best_total if best_total else 0.0)


# -- lib-repeat ------------------------------------------------------------------


def repeat_warmup(pool) -> CountCache:
    """Fill a count cache with every (query, structure) pair of the pool."""
    cache = CountCache()
    for qi, si in pool.pairs:
        count(inputs.REPEAT_QUERIES[qi], pool.structures[si],
              engine="auto", cache=cache)
    return cache


def repeat_references(pool) -> list[int]:
    return [
        count(inputs.REPEAT_QUERIES[qi], pool.structures[si], engine="backtracking")
        for qi, si in pool.pairs
    ]


def run_repeat(seed: int, seconds: float, traced: bool, pool, cache,
               expected: list[int]) -> dict:
    def ops(start):
        return lambda done: inputs.repeat_ops(seed, pool, start + done, REPEAT_BATCH)

    def call(op):
        return count(op[2], pool.structures[pool.pairs[op[1]][1]],
                     engine="auto", cache=cache)

    def cell(op):
        return op[1]

    untraced_s = seconds / 3 if traced else seconds
    phase = timed_loop(ops(0), call, lambda op, value: value == expected[op[1]],
                       cell, untraced_s)
    result = untraced_result(phase)
    if not traced:
        return result

    tracer = Tracer()
    traced_count = TracedCount(tracer, cache=cache)
    evictions_before = cache.evictions

    def check(op, value) -> bool:
        traced_count.engine_runs.pop(op[0], None)
        return value == expected[op[1]] and value == call(op)

    t_phase = timed_loop(
        ops(phase.ops),
        lambda op: traced_count(op[0], op[2], pool.structures[pool.pairs[op[1]][1]]),
        check, cell, seconds - untraced_s,
    )
    result["attempted"] += t_phase.ops
    result["failed"] += t_phase.wrong

    # The pool's structures are fixed, so every engine is priced on the
    # warm state a miss would meet (compiled artifacts already built).
    probes = defaultdict(list)
    for qi, si in pool.pairs:
        query, structure = inputs.REPEAT_QUERIES[qi], pool.structures[si]
        components = query.connected_components()
        for component in components if len(components) > 1 else [query]:
            step = select_for(component, structure)
            times = {
                engine: engine_seconds(component, structure, engine, 3)
                for engine in eligible_engines(component, step.profile, structure)
            }
            probes[(f"q{qi}", f"s{si}")].append((step.engine, times))
    table, regret = cell_table(probes)
    result["layers"] = layer_metrics(
        tracer, traced_count, regret, overhead_ratio(phase, t_phase),
        cache.evictions - evictions_before,
    )
    result["cell_table"] = table
    result["spans"] = tracer.spans
    return result
