"""Command-line interface: ``bagcq``.

Subcommands::

    bagcq reduce --instance pell_nontrivial:2 [--grid 3]
        Run the full Hilbert-10 → Lemma 11 → Theorem 1 pipeline on a named
        Diophantine instance and search a valuation grid for a verified
        counterexample database.

    bagcq gadget --c 3 [--check-structures 200]
        Build the α multiplication gadget for c, verify its (=) witness and
        probe the (≤) condition on random structures.

    bagcq evaluate --query "E(x,y) & E(y,x)" --facts "E(a,b) E(b,a)" \\
            [--engine auto] [--workers 4] [--no-cache]
        Count homomorphisms of a query over an inline database, optionally
        fanning component evaluation across a process pool; repeated
        components are shared through the canonicalization-keyed count
        cache unless ``--no-cache``.  The default ``--engine auto`` routes
        every connected component through the repro.planner cost model.

    bagcq explain --query "E(x,y) & E(y,z)" [--facts "E(a,b) E(b,c)"] [--json]
            [--analyze]
        Print the evaluation plan the ``auto`` engine would execute:
        connected components, the engine, cost and search-node estimates
        chosen for each, and plan-cache hit/miss totals.  Without
        ``--facts`` the query is planned against its own canonical
        database; ``--json`` emits the machine-readable plan (identical to
        the service's ``/explain`` payload).  ``--analyze`` also runs every
        step on its planned engine and reports actual ms and count next to
        the estimates.

    bagcq update --facts "E(a,b) E(b,c)" --query "E(x,y) & E(y,z)" \\
            --insert "E(c,a)" [--delete "E(a,b)"] [--delta-file deltas.json]
        Apply a mutation batch to an inline database through the
        incremental :class:`repro.homomorphism.delta.DeltaEvaluator`:
        print the delta report (version, touched relations, cache
        migrations/evictions) after every step and, with ``--query``,
        the recount — only affected components are recomputed, the rest
        are reused Lemma-1 factors (``--stats`` shows the split).

    bagcq serve [--port 8642] [--workers 4] [--queue-depth 64] \\
            [--deadline-ms 30000] [--no-coalesce] [--shards N] \\
            [--snapshot-dir DIR]
        Run the long-lived evaluation daemon (``repro.service``): warm
        shared caches, admission control, single-flight coalescing of
        identical requests, per-request deadlines, /healthz + /metrics.
        ``--shards N`` (N > 1) runs N such servers as supervised
        subprocesses behind a consistent-hash router (``repro.shard``);
        ``--snapshot-dir`` adds the durable write-through/warm-restore
        cache tier.

    bagcq snapshot [--url URL]
        Ask a running daemon (or router — it fans out to every shard)
        to bulk-sync its caches to the durable tier (``POST /snapshot``).

    bagcq call evaluate --query "E(x,y)" --facts "E(a,b)" [--url URL]
    bagcq call db --db g --facts "E(a,b) E(b,c)"
    bagcq call update --db g --insert "E(c,a)" [--delete "E(a,b)"]
    bagcq call evaluate --query "E(x,y)" --db g
    bagcq call healthz | metrics | traces | explain | decide …
        Drive a running daemon from the shell through the retrying
        ``ServiceClient``; ``call db`` loads a named server-resident
        database, ``call update`` mutates it in place (bumping its
        version), and ``call evaluate --db`` counts against it.

    bagcq loadgen --url URL [--scenario NAME]… [--requests 120] \\
            [--clients 4] [--seed 0] [--output BENCH_load.json] [--check-slo]
        Replay the named seeded traffic scenarios (default: all five)
        against a running daemon and print throughput / server-side
        p50/p95/p99 / shed-rate per scenario (repro.loadgen).

    bagcq slo --run BENCH_load.json [--baseline benchmarks/BENCH_load.json]
        Judge a recorded load run against the declared objectives and,
        when a baseline is given, against it (the CI regression gate).
        Exits non-zero on any violation.

    bagcq compare --instance linear:2:3:7
        Print the inequality-budget comparison against Jayram-Kolaitis-Vee.

    bagcq search --phi-s "E(x,y) & E(y,z) & E(z,x)" --phi-b "E(x,y)" \\
            --multiplier 2 --domain-size 3 --count 200 [--workers 2]
        Search a seeded stream of random databases for a counterexample to
        ``multiplier*phi_s(D) <= phi_b(D) + additive``.  The verdict is
        bit-identical across --workers/--no-cache/--batch-size settings.

    bagcq fuzz --max-cases 2000 --seed 0 [--oracle cross_engine] \\
            [--corpus tests/corpus] [--budget-seconds 60]
        Run the repro.qa differential fuzzer: seeded cases, paper-lemma
        oracles, delta-debugging shrinker.  Existing corpus entries are
        replayed first; minimized findings are written back to --corpus.

Every subcommand accepts ``--stats`` (print an observability report —
per-step spans plus engine/search counters — to stderr) and
``--stats-json PATH`` (write the same report as stable JSON).  See
``docs/OBSERVABILITY.md`` for the metric glossary.
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from repro.errors import BagCQError
from repro.homomorphism.engine import ENGINE_NAMES
from repro.queries.parser import parse_query
from repro.relational.structure import Structure

__all__ = ["main"]


def _load_instance(spec: str):
    """Resolve ``name`` or ``name:arg1:arg2…`` to a Diophantine instance."""
    from repro.polynomials import diophantine

    name, _, argument_text = spec.partition(":")
    factories = {
        "linear": diophantine.linear,
        "pell": diophantine.pell,
        "pell_nontrivial": diophantine.pell_nontrivial,
        "sum_of_squares": diophantine.sum_of_squares,
        "markov": diophantine.markov,
        "fermat_cubes": diophantine.fermat_cubes,
        "always_positive": diophantine.always_positive,
        "parity_obstruction": diophantine.parity_obstruction,
    }
    if name not in factories:
        raise SystemExit(
            f"unknown instance {name!r}; choose from {sorted(factories)}"
        )
    arguments = [int(piece) for piece in argument_text.split(":") if piece]
    return factories[name](*arguments)


def _parse_facts(text: str) -> Structure:
    """Parse an inline database (delegates to :func:`repro.io.structure_from_facts`)."""
    from repro.io import structure_from_facts

    return structure_from_facts(text)


def _command_reduce(args: argparse.Namespace) -> int:
    from repro.core.theorem1 import reduce_polynomial

    instance = _load_instance(args.instance)
    print(instance)
    hilbert, reduction = reduce_polynomial(instance.polynomial)
    print()
    print(hilbert.describe())
    print()
    report = reduction.size_report()
    print(f"Theorem 1 output: C = {report['C']}")
    print(
        f"  phi_s: {report['phi_s_atoms']} atoms, "
        f"{report['phi_s_variables']} variables"
    )
    print(
        f"  phi_b: {report['phi_b_atoms']} atoms, "
        f"{report['phi_b_variables']} variables"
    )
    # Sanity-check the reduction by exact counting on one correct
    # database (the all-ones valuation): ℂ·φ_s(D) ≤ φ_b(D) must hold.
    # This also exercises the counting engines, so a --stats run shows
    # real backtracking/memo numbers even when the grid search is empty.
    from repro.obs.trace import span as obs_span

    with obs_span("reduce.baseline_check") as step:
        baseline = {index: 1 for index in range(1, reduction.instance.n + 1)}
        database = reduction.correct_database(baseline)
        holds = reduction.holds_on(database)
        step.set(holds=holds, domain=len(database.domain))
    print(
        f"baseline check (all-ones valuation, |domain| = "
        f"{len(database.domain)}): C*phi_s <= phi_b {'holds' if holds else 'VIOLATED'}"
    )
    if args.grid >= 0:
        witness = reduction.find_counterexample(args.grid)
        if witness is None:
            print(f"no counterexample on the {args.grid}-grid")
        else:
            print(
                f"verified counterexample database found "
                f"(|domain| = {len(witness.domain)}, "
                f"{witness.fact_count()} facts)"
            )
    return 0


def _command_gadget(args: argparse.Namespace) -> int:
    from repro.core.alpha import alpha_gadget
    from repro.decision.search import random_structures

    gadget = alpha_gadget(args.c)
    print(gadget)
    counts = gadget.witness_counts()
    print(f"witness counts: alpha_s = {counts[0]}, alpha_b = {counts[1]}")
    print(f"equality (=) verified: {gadget.verify_equality()}")
    if args.check_structures > 0:
        schema = gadget.query_s.schema.union(gadget.query_b.schema)
        stream = random_structures(
            schema,
            domain_size=3,
            count=args.check_structures,
            nontrivial_constants=True,
        )
        violator = gadget.upper_bound_violation(stream)
        print(
            f"upper bound (<=) violated on sample: "
            f"{'yes' if violator is not None else 'no'}"
        )
    return 0


def _command_evaluate(args: argparse.Namespace) -> int:
    from repro.homomorphism.batch import count_many

    query = parse_query(args.query)
    structure = _parse_facts(args.facts)
    missing = [
        constant.name
        for constant in query.constants
        if not structure.interprets(constant.name)
    ]
    for name in missing:
        structure = structure.with_constant(name, name)
    [value] = count_many(
        [(query, structure)],
        engine=args.engine,
        workers=args.workers,
        cache=False if args.no_cache else None,
    )
    print(value)
    return 0


def _command_explain(args: argparse.Namespace) -> int:
    from repro.planner import PlanCache, plan

    query = parse_query(args.query)
    if args.facts is not None:
        structure = _parse_facts(args.facts)
        for constant in query.constants:
            if not structure.interprets(constant.name):
                structure = structure.with_constant(
                    constant.name, constant.name
                )
        source = f"inline database ({structure.fact_count()} facts)"
    else:
        structure = query.canonical_structure()
        source = f"canonical database ({structure.fact_count()} facts)"
    # A fresh cache keeps the hit/miss line meaningful for this query
    # alone: repeated components hit, everything else misses.
    chosen = plan(query, structure, cache=PlanCache())
    actuals = _run_plan_steps(chosen, structure) if args.analyze else None
    if args.json:
        from repro.obs.report import stable_json_dumps

        payload = chosen.to_dict()
        for step, (value, millis) in zip(payload["steps"], actuals or ()):
            step["count"] = value
            step["actual_ms"] = millis
        print(stable_json_dumps(payload))
        return 0
    print(f"query: {query}")
    print(f"planned against: {source}, |domain| = {len(structure.domain)}")
    print(chosen.explain())
    if actuals is not None:
        print("analyze (each step run once on its planned engine):")
        for index, (step, (value, millis)) in enumerate(
            zip(chosen.steps, actuals), start=1
        ):
            nodes = "-" if step.est_nodes is None else f"{step.est_nodes:.0f}"
            print(
                f"  step {index}: engine={step.engine:<12} "
                f"est_cost={step.est_cost:>12.0f}  est_nodes={nodes:>10}  "
                f"actual_ms={millis:>10.3f}  count={value}"
            )
    return 0


def _run_plan_steps(chosen, structure) -> list[tuple[int, float]]:
    """``(count, wall ms)`` per plan step, each run on its planned engine."""
    import time

    from repro.homomorphism.engine import count

    actuals = []
    for step in chosen.steps:
        started = time.perf_counter()
        value = count(step.component, structure, engine=step.engine)
        actuals.append((value, (time.perf_counter() - started) * 1000.0))
    return actuals


def _parse_deltas(args: argparse.Namespace):
    """The mutation batch shared by ``update`` and ``call update``.

    ``--delta-file`` holds one io delta payload or a list of them (applied
    in order); ``--insert``/``--delete`` build one extra delta from
    ground-atom text.
    """
    import json
    from pathlib import Path

    from repro.io import delta_from_dict, ground_facts_from_text
    from repro.relational.structure import Delta

    deltas = []
    if args.delta_file is not None:
        payload = json.loads(Path(args.delta_file).read_text())
        entries = payload if isinstance(payload, list) else [payload]
        deltas.extend(delta_from_dict(entry) for entry in entries)
    if args.insert is not None or args.delete is not None:
        deltas.append(
            Delta(
                inserts=tuple(
                    ground_facts_from_text(args.insert)
                    if args.insert is not None
                    else ()
                ),
                deletes=tuple(
                    ground_facts_from_text(args.delete)
                    if args.delete is not None
                    else ()
                ),
            )
        )
    if not deltas:
        raise SystemExit("update needs --insert, --delete, or --delta-file")
    return deltas


def _command_update(args: argparse.Namespace) -> int:
    from repro.homomorphism.delta import DeltaEvaluator

    structure = _parse_facts(args.facts)
    query = parse_query(args.query) if args.query is not None else None
    if query is not None:
        for constant in query.constants:
            if not structure.interprets(constant.name):
                structure = structure.with_constant(
                    constant.name, constant.name
                )
    deltas = _parse_deltas(args)
    evaluator = DeltaEvaluator(structure, engine=args.engine)
    if query is not None:
        print(f"count@v0 = {evaluator.evaluate(query)}")
    for delta in deltas:
        report = evaluator.apply(delta)
        print(report.describe())
        if query is not None:
            print(
                f"count@v{report.version} = {evaluator.evaluate(query)}"
            )
    return 0


def _command_serve(args: argparse.Namespace) -> int:
    if args.shards > 1:
        from repro.shard import RouterConfig, serve_sharded

        serve_sharded(
            RouterConfig(
                host=args.host,
                port=args.port,
                shards=args.shards,
                workers_per_shard=args.workers,
                queue_depth=args.queue_depth,
                default_deadline_ms=args.deadline_ms,
                coalesce=not args.no_coalesce,
                snapshot_dir=args.snapshot_dir,
            )
        )
        return 0
    from repro.service import ServerConfig, serve

    serve(
        ServerConfig(
            host=args.host,
            port=args.port,
            workers=args.workers,
            queue_depth=args.queue_depth,
            default_deadline_ms=args.deadline_ms,
            coalesce=not args.no_coalesce,
            snapshot_dir=args.snapshot_dir,
        )
    )
    return 0


def _command_snapshot(args: argparse.Namespace) -> int:
    from repro.obs.report import stable_json_dumps
    from repro.shard.worker import http_post_json

    result = http_post_json(
        f"{args.url.rstrip('/')}/snapshot", {}, timeout_s=args.timeout_s
    )
    print(stable_json_dumps(result))
    return 0


def _command_call(args: argparse.Namespace) -> int:
    from repro.obs.report import stable_json_dumps
    from repro.service import ServiceClient

    client = ServiceClient(args.url, retries=args.retries)
    endpoint = args.endpoint
    if endpoint == "healthz":
        print(stable_json_dumps(client.healthz()))
        return 0
    if endpoint == "metrics":
        print(stable_json_dumps(client.metrics()))
        return 0
    if endpoint == "traces":
        print(stable_json_dumps(client.traces()))
        return 0
    if endpoint == "snapshot":
        from repro.shard.worker import http_post_json

        print(
            stable_json_dumps(
                http_post_json(f"{args.url.rstrip('/')}/snapshot", {})
            )
        )
        return 0
    if endpoint == "evaluate":
        if args.query is None or (args.facts is None) == (args.db is None):
            raise SystemExit(
                "call evaluate needs --query plus exactly one of "
                "--facts or --db"
            )
        value = client.evaluate(
            args.query,
            args.facts,
            engine=args.engine,
            deadline_ms=args.deadline_ms,
            db=args.db,
        )
        print(value)
        return 0
    if endpoint == "db":
        if args.db is None or args.facts is None:
            raise SystemExit("call db needs --db and --facts")
        snapshot = client.load_db(
            args.db,
            args.facts,
            engine=args.engine,
            deadline_ms=args.deadline_ms,
        )
        print(stable_json_dumps(snapshot))
        return 0
    if endpoint == "update":
        if args.db is None:
            raise SystemExit("call update needs --db")
        for delta in _parse_deltas(args):
            report = client.update(
                args.db, delta=delta, deadline_ms=args.deadline_ms
            )
            print(stable_json_dumps(report))
        return 0
    if endpoint == "explain":
        if args.query is None:
            raise SystemExit("call explain needs --query")
        print(
            stable_json_dumps(
                client.explain(args.query, structure=args.facts)["plan"]
            )
        )
        return 0
    if endpoint == "contain":
        if not args.phi_s or not args.phi_b:
            raise SystemExit("call contain needs --phi-s and --phi-b")
        phi_s = args.phi_s[0] if len(args.phi_s) == 1 else list(args.phi_s)
        phi_b = args.phi_b[0] if len(args.phi_b) == 1 else list(args.phi_b)
        verdict = client.contain(
            phi_s,
            phi_b,
            engine=args.engine,
            witness=not args.no_witness,
            deadline_ms=args.deadline_ms,
        )
        print(stable_json_dumps(verdict))
        return 0
    if endpoint == "decide":
        if not args.phi_s or not args.phi_b:
            raise SystemExit("call decide needs --phi-s and --phi-b")
        verdict = client.decide(
            args.phi_s[0],
            args.phi_b[0],
            multiplier=args.multiplier,
            additive=args.additive,
            domain_size=args.domain_size,
            count=args.count,
            seed=args.seed,
            engine=args.engine,
            deadline_ms=args.deadline_ms,
        )
        print(stable_json_dumps(verdict))
        return 0
    raise SystemExit(f"unknown endpoint {endpoint!r}")


def _command_loadgen(args: argparse.Namespace) -> int:
    from repro.loadgen import (
        DEFAULT_SLOS,
        SCENARIO_NAMES,
        build_scenario,
        evaluate_slo,
        run_scenario,
    )
    from repro.obs.report import stable_json_dumps

    names = args.scenario or list(SCENARIO_NAMES)
    unknown = sorted(set(names) - set(SCENARIO_NAMES))
    if unknown:
        raise SystemExit(
            f"unknown scenario(s) {unknown}; choose from {list(SCENARIO_NAMES)}"
        )
    rows = []
    violations: list[str] = []
    for name in names:
        scenario = build_scenario(
            name, seed=args.seed, requests=args.requests, clients=args.clients
        )
        result = run_scenario(scenario, args.url)
        row = result.to_dict()
        rows.append(row)
        print(
            f"{row['scenario']:<18} {row['throughput_rps']:>9.2f} rps  "
            f"p50 {row['p50_ms'] or 0:>8.2f} ms  "
            f"p95 {row['p95_ms'] or 0:>8.2f} ms  "
            f"shed {row['shed_rate']:.2%}  "
            f"({row['completed']}/{row['requests']} ok, "
            f"{row['deadline_exceeded']} timed out)"
        )
        if args.check_slo and name in DEFAULT_SLOS:
            violations.extend(evaluate_slo(row, DEFAULT_SLOS[name]))
    document = {
        "experiment": "E18-load",
        "seed": args.seed,
        "requests": args.requests,
        "clients": args.clients,
        "scenarios": rows,
    }
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(stable_json_dumps(document))
            handle.write("\n")
        print(f"wrote {args.output}")
    if violations:
        for violation in violations:
            print(f"SLO VIOLATION: {violation}", file=sys.stderr)
        return 1
    return 0


def _command_slo(args: argparse.Namespace) -> int:
    import json as json_module

    from repro.loadgen import DEFAULT_SLOS, check_regression, evaluate_slo

    with open(args.run, encoding="utf-8") as handle:
        current = json_module.load(handle)
    violations: list[str] = []
    for row in current.get("scenarios", []):
        slo = DEFAULT_SLOS.get(row.get("scenario"))
        if slo is not None:
            violations.extend(evaluate_slo(row, slo))
    if args.baseline:
        with open(args.baseline, encoding="utf-8") as handle:
            baseline = json_module.load(handle)
        violations.extend(
            check_regression(
                current,
                baseline,
                p95_ratio=args.p95_ratio,
                throughput_ratio=args.throughput_ratio,
                p95_floor_ms=args.p95_floor_ms,
            )
        )
    if violations:
        for violation in violations:
            print(f"SLO VIOLATION: {violation}", file=sys.stderr)
        return 1
    print(f"{len(current.get('scenarios', []))} scenario(s) within objectives")
    return 0


def _command_search(args: argparse.Namespace) -> int:
    from repro.decision.search import find_counterexample, random_structures
    from repro.errors import SearchBudgetExceeded

    phi_s = parse_query(args.phi_s)
    phi_b = parse_query(args.phi_b)
    schema = phi_s.schema.union(phi_b.schema)
    stream = random_structures(
        schema,
        domain_size=args.domain_size,
        density=args.density,
        count=args.count,
        seed=args.seed,
    )
    try:
        outcome = find_counterexample(
            phi_s,
            phi_b,
            stream,
            multiplier=args.multiplier,
            additive=args.additive,
            max_candidates=args.max_candidates,
            engine=args.engine,
            workers=args.workers,
            batch_size=args.batch_size,
            cache=False if args.no_cache else None,
        )
    except SearchBudgetExceeded as error:
        print(f"budget exceeded: {error}")
        return 2
    if outcome.found:
        print(
            f"counterexample after {outcome.checked} candidates: "
            f"{args.multiplier}*phi_s(D) = {outcome.lhs} > "
            f"phi_b(D) + {args.additive} = {outcome.rhs} "
            f"(|domain| = {len(outcome.counterexample.domain)}, "
            f"{outcome.counterexample.fact_count()} facts)"
        )
        return 0
    print(f"no counterexample in {outcome.checked} candidates")
    return 0


def _command_contain(args: argparse.Namespace) -> int:
    from repro.containment_set import cq_containment, ucq_containment
    from repro.obs.report import stable_json_dumps

    left = [parse_query(text) for text in args.phi_s]
    right = [parse_query(text) for text in args.phi_b]
    want_witness = not args.no_witness
    if len(left) == 1 and len(right) == 1:
        kind = "cq"
        verdict = cq_containment(
            left[0], right[0], engine=args.engine, want_witness=want_witness
        )
    else:
        kind = "ucq"
        verdict = ucq_containment(
            left, right, engine=args.engine, want_witness=want_witness
        )
    if args.json:
        print(stable_json_dumps({"kind": kind, **verdict.to_dict()}))
        return 0
    relation = "⊆" if verdict.contained else "⊄"
    print(f"phi_s {relation} phi_b under set semantics [engine: {args.engine}]")
    if kind == "cq":
        if verdict.contained and verdict.witness is not None:
            for variable, target in verdict.witness:
                print(f"  witness: {variable.name} -> {target}")
    else:
        for entry in verdict.coverage:
            if entry.covered:
                print(
                    f"  disjunct {entry.disjunct} ⊆ container {entry.container}"
                )
            else:
                print(f"  disjunct {entry.disjunct} uncovered")
    if not verdict.contained and verdict.certificate is not None:
        certificate = verdict.certificate
        print(
            f"  certificate: canonical(phi_s) with phi_s = {certificate.lhs} "
            f"> phi_b = {certificate.rhs} "
            f"(|domain| = {len(certificate.structure.domain)}, "
            f"{certificate.structure.fact_count()} facts)"
        )
    return 0


def _command_fuzz(args: argparse.Namespace) -> int:
    from repro.qa import oracle_names, run_fuzz

    if args.max_cases is not None and args.max_cases < 0:
        raise SystemExit(f"--max-cases must be >= 0, got {args.max_cases}")
    if args.budget_seconds is not None and args.budget_seconds < 0:
        raise SystemExit(
            f"--budget-seconds must be >= 0, got {args.budget_seconds}"
        )
    if args.oracle:
        unknown = sorted(set(args.oracle) - set(oracle_names()))
        if unknown:
            raise SystemExit(
                f"unknown oracle(s) {unknown}; choose from {sorted(oracle_names())}"
            )
    report = run_fuzz(
        max_cases=args.max_cases,
        budget_seconds=args.budget_seconds,
        seed=args.seed,
        oracles=args.oracle or None,
        corpus_dir=args.corpus,
        shrink=not args.no_shrink,
    )
    print(report.describe())
    if not report.ok:
        for finding in report.findings:
            if finding.corpus_path is not None:
                print(f"minimized finding written to {finding.corpus_path}")
        return 1
    return 0


def _command_core(args: argparse.Namespace) -> int:
    from repro.decision import core

    query = parse_query(args.query)
    minimized = core(query)
    print(minimized)
    if minimized.atom_count < query.atom_count:
        print(
            f"# dropped {query.atom_count - minimized.atom_count} redundant "
            "atom(s) — set-equivalent, NOT bag-equivalent (Chaudhuri-Vardi)",
        )
    else:
        print("# already a core")
    return 0


def _command_equivalent(args: argparse.Namespace) -> int:
    from repro.decision import bag_equivalent, set_equivalent

    left = parse_query(args.left)
    right = parse_query(args.right)
    bag = bag_equivalent(left, right)
    print(f"bag-equivalent (iff isomorphic): {bag}")
    if not left.has_inequalities() and not right.has_inequalities():
        print(f"set-equivalent (Chandra-Merlin): {set_equivalent(left, right)}")
    return 0


def _command_answers(args: argparse.Namespace) -> int:
    from repro.queries import OpenQuery

    body = parse_query(args.query)
    head = tuple(name.strip() for name in args.head.split(",") if name.strip())
    open_query = OpenQuery(body, head)
    structure = _parse_facts(args.facts)
    for name in (c.name for c in body.constants):
        if not structure.interprets(name):
            structure = structure.with_constant(name, name)
    for answer, multiplicity in sorted(
        open_query.answers(structure).items(), key=lambda kv: repr(kv[0])
    ):
        rendered = ", ".join(str(value) for value in answer)
        print(f"({rendered}) x{multiplicity}")
    return 0


def _command_verify_paper(args: argparse.Namespace) -> int:
    from repro.paper import verify_all

    failures = 0
    for claim, passed in verify_all():
        status = "ok " if passed else "FAIL"
        print(f"[{status}] {claim.claim_id:<22} {claim.statement}")
        if not passed:
            failures += 1
    print()
    if failures:
        print(f"{failures} claim(s) FAILED")
        return 1
    print("every registered claim of the paper verifies")
    return 0


def _command_compare(args: argparse.Namespace) -> int:
    from repro.baselines.jkv import comparison_row, format_comparison_table
    from repro.core.theorem3 import theorem3_reduction
    from repro.polynomials import Lemma11Instance, Monomial

    minimal = Lemma11Instance(
        c=2,
        monomials=(Monomial.of(1),),
        s_coefficients=(1,),
        b_coefficients=(1,),
    )
    rows = [comparison_row("minimal (materialized)", theorem3_reduction(minimal))]
    print(format_comparison_table(rows))
    return 0


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bagcq",
        description="Bag-semantics CQ containment: gadgets and reductions "
        "from Marcinkowski & Orda, PODS 2024.",
    )
    # Observability flags are shared by every subcommand (argparse parents),
    # so both ``bagcq reduce … --stats`` and ``bagcq evaluate … --stats``
    # parse naturally.
    obs_flags = argparse.ArgumentParser(add_help=False)
    obs_flags.add_argument(
        "--stats",
        action="store_true",
        help="print an observability report (spans + counters) to stderr",
    )
    obs_flags.add_argument(
        "--stats-json",
        metavar="PATH",
        default=None,
        help="write the observability report as stable JSON to PATH",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    reduce_parser = sub.add_parser(
        "reduce", help="run the full reduction pipeline", parents=[obs_flags]
    )
    reduce_parser.add_argument("--instance", required=True, help="e.g. pell_nontrivial:2")
    reduce_parser.add_argument("--grid", type=int, default=2, help="valuation grid bound")
    reduce_parser.set_defaults(handler=_command_reduce)

    gadget_parser = sub.add_parser(
        "gadget", help="build and verify an alpha gadget", parents=[obs_flags]
    )
    gadget_parser.add_argument("--c", type=int, required=True)
    gadget_parser.add_argument("--check-structures", type=int, default=0)
    gadget_parser.set_defaults(handler=_command_gadget)

    evaluate_parser = sub.add_parser(
        "evaluate", help="count homomorphisms", parents=[obs_flags]
    )
    evaluate_parser.add_argument("--query", required=True)
    evaluate_parser.add_argument("--facts", required=True)
    evaluate_parser.add_argument(
        "--engine",
        choices=ENGINE_NAMES,
        default="auto",
        help="counting engine; 'auto' (default) plans per component",
    )
    evaluate_parser.add_argument(
        "--workers",
        type=_positive_int,
        default=1,
        help="fan component evaluation across a process pool (default: 1, serial)",
    )
    evaluate_parser.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the canonicalization-keyed component count cache",
    )
    evaluate_parser.set_defaults(handler=_command_evaluate)

    explain_parser = sub.add_parser(
        "explain",
        help="print the auto engine's evaluation plan for a query",
        parents=[obs_flags],
    )
    explain_parser.add_argument("--query", required=True)
    explain_parser.add_argument(
        "--facts",
        default=None,
        help="inline database to plan against (default: the query's "
        "canonical database)",
    )
    explain_parser.add_argument(
        "--json",
        action="store_true",
        help="emit the machine-readable plan (the same stable JSON the "
        "service /explain endpoint returns)",
    )
    explain_parser.add_argument(
        "--analyze",
        action="store_true",
        help="also run every step on its planned engine and report the "
        "actual wall time and count next to the estimates",
    )
    explain_parser.set_defaults(handler=_command_explain)

    update_parser = sub.add_parser(
        "update",
        help="apply deltas to an inline database and recount incrementally",
        parents=[obs_flags],
    )
    update_parser.add_argument(
        "--query",
        default=None,
        help="optional query recounted after every delta",
    )
    update_parser.add_argument("--facts", required=True)
    update_parser.add_argument(
        "--insert",
        default=None,
        help="ground atoms to insert, e.g. 'E(a,b); E(b,c)'",
    )
    update_parser.add_argument(
        "--delete", default=None, help="ground atoms to delete"
    )
    update_parser.add_argument(
        "--delta-file",
        default=None,
        help="JSON file with one io delta payload or a list, applied in order",
    )
    update_parser.add_argument(
        "--engine",
        choices=ENGINE_NAMES,
        default="auto",
    )
    update_parser.set_defaults(handler=_command_update)

    serve_parser = sub.add_parser(
        "serve",
        help="run the long-lived evaluation daemon (repro.service)",
        parents=[obs_flags],
    )
    serve_parser.add_argument("--host", default="127.0.0.1")
    serve_parser.add_argument(
        "--port", type=int, default=8642, help="0 picks an ephemeral port"
    )
    serve_parser.add_argument(
        "--workers", type=_positive_int, default=4, help="evaluation threads"
    )
    serve_parser.add_argument(
        "--queue-depth",
        type=_positive_int,
        default=64,
        help="admission bound; beyond it requests are shed with 429",
    )
    serve_parser.add_argument(
        "--deadline-ms",
        type=_positive_int,
        default=30_000,
        help="default per-request deadline",
    )
    serve_parser.add_argument(
        "--no-coalesce",
        action="store_true",
        help="disable single-flight coalescing of identical requests",
    )
    serve_parser.add_argument(
        "--shards",
        type=_positive_int,
        default=1,
        help="worker subprocesses behind a consistent-hash router "
        "(1 = classic single-process server)",
    )
    serve_parser.add_argument(
        "--snapshot-dir",
        default=None,
        metavar="DIR",
        help="durable cache tier: warm-start from DIR and write through "
        "to it (with --shards each worker gets DIR/shard-NN)",
    )
    serve_parser.set_defaults(handler=_command_serve)

    snapshot_parser = sub.add_parser(
        "snapshot",
        help="persist a running daemon's caches to its snapshot directory",
        parents=[obs_flags],
    )
    snapshot_parser.add_argument(
        "--url", default="http://127.0.0.1:8642", help="service base URL"
    )
    snapshot_parser.add_argument(
        "--timeout-s", type=float, default=60.0, help="request timeout"
    )
    snapshot_parser.set_defaults(handler=_command_snapshot)

    call_parser = sub.add_parser(
        "call",
        help="call a running bagcq service from the shell",
        parents=[obs_flags],
    )
    call_parser.add_argument(
        "endpoint",
        choices=(
            "evaluate",
            "explain",
            "decide",
            "contain",
            "db",
            "update",
            "healthz",
            "metrics",
            "traces",
            "snapshot",
        ),
    )
    call_parser.add_argument(
        "--url", default="http://127.0.0.1:8642", help="service base URL"
    )
    call_parser.add_argument("--query", default=None)
    call_parser.add_argument("--facts", default=None)
    call_parser.add_argument(
        "--db",
        default=None,
        help="named server-resident database (evaluate/db/update)",
    )
    call_parser.add_argument(
        "--insert",
        default=None,
        help="update only: ground atoms to insert, e.g. 'E(a,b); E(b,c)'",
    )
    call_parser.add_argument(
        "--delete",
        default=None,
        help="update only: ground atoms to delete",
    )
    call_parser.add_argument(
        "--delta-file",
        default=None,
        help="update only: JSON file with one io delta payload or a list",
    )
    call_parser.add_argument(
        "--phi-s",
        action="append",
        default=None,
        help="smaller-side query; repeat for a union (contain only)",
    )
    call_parser.add_argument(
        "--phi-b",
        action="append",
        default=None,
        help="bigger-side query; repeat for a union (contain only)",
    )
    call_parser.add_argument(
        "--no-witness",
        action="store_true",
        help="contain only: skip the witness homomorphism",
    )
    call_parser.add_argument(
        "--engine",
        choices=ENGINE_NAMES,
        default="auto",
    )
    call_parser.add_argument("--multiplier", type=int, default=1)
    call_parser.add_argument("--additive", type=int, default=0)
    call_parser.add_argument("--domain-size", type=int, default=3)
    call_parser.add_argument("--count", type=int, default=100)
    call_parser.add_argument("--seed", type=int, default=0)
    call_parser.add_argument("--deadline-ms", type=int, default=None)
    call_parser.add_argument(
        "--retries", type=int, default=4, help="client retry budget"
    )
    call_parser.set_defaults(handler=_command_call)

    loadgen_parser = sub.add_parser(
        "loadgen",
        help="replay seeded traffic scenarios against a running daemon",
        parents=[obs_flags],
    )
    loadgen_parser.add_argument(
        "--url", default="http://127.0.0.1:8642", help="service base URL"
    )
    loadgen_parser.add_argument(
        "--scenario",
        action="append",
        default=None,
        metavar="NAME",
        help="scenario to replay (repeatable; default: all of them)",
    )
    loadgen_parser.add_argument(
        "--requests", type=_positive_int, default=120, help="requests per scenario"
    )
    loadgen_parser.add_argument(
        "--clients", type=_positive_int, default=4, help="concurrent workers"
    )
    loadgen_parser.add_argument("--seed", type=int, default=0)
    loadgen_parser.add_argument(
        "--output",
        default=None,
        metavar="PATH",
        help="write the BENCH_load-shaped JSON document to PATH",
    )
    loadgen_parser.add_argument(
        "--check-slo",
        action="store_true",
        help="exit non-zero when a scenario misses its declared objectives",
    )
    loadgen_parser.set_defaults(handler=_command_loadgen)

    slo_parser = sub.add_parser(
        "slo",
        help="judge a recorded load run against objectives and a baseline",
        parents=[obs_flags],
    )
    slo_parser.add_argument(
        "--run", required=True, metavar="PATH", help="BENCH_load-shaped JSON"
    )
    slo_parser.add_argument(
        "--baseline",
        default=None,
        metavar="PATH",
        help="checked-in baseline to gate regressions against",
    )
    slo_parser.add_argument(
        "--p95-ratio",
        type=float,
        default=1.5,
        help="allowed p95 growth vs baseline (default 1.5x)",
    )
    slo_parser.add_argument(
        "--throughput-ratio",
        type=float,
        default=0.6,
        help="required throughput vs baseline (default 60%%)",
    )
    slo_parser.add_argument(
        "--p95-floor-ms",
        type=float,
        default=5.0,
        help="ignore p95 regressions below this absolute latency "
        "(default 5 ms; raise on noisy shared runners)",
    )
    slo_parser.set_defaults(handler=_command_slo)

    search_parser = sub.add_parser(
        "search",
        help="search random databases for a containment counterexample",
        parents=[obs_flags],
    )
    search_parser.add_argument("--phi-s", required=True, help="smaller-side query")
    search_parser.add_argument("--phi-b", required=True, help="bigger-side query")
    search_parser.add_argument("--multiplier", type=int, default=1)
    search_parser.add_argument("--additive", type=int, default=0)
    search_parser.add_argument("--domain-size", type=int, default=3)
    search_parser.add_argument("--density", type=float, default=0.3)
    search_parser.add_argument(
        "--count", type=int, default=100, help="candidate databases to draw"
    )
    search_parser.add_argument("--seed", type=int, default=0)
    search_parser.add_argument("--max-candidates", type=int, default=None)
    search_parser.add_argument(
        "--engine",
        choices=ENGINE_NAMES,
        default="auto",
        help="counting engine; 'auto' (default) plans per component",
    )
    search_parser.add_argument(
        "--workers",
        type=_positive_int,
        default=1,
        help="fan batched candidate checking across a process pool",
    )
    search_parser.add_argument(
        "--batch-size",
        type=_positive_int,
        default=None,
        help="candidates per count_many generation (implies batched checking)",
    )
    search_parser.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the canonicalization-keyed component count cache",
    )
    search_parser.set_defaults(handler=_command_search)

    contain_parser = sub.add_parser(
        "contain",
        help="decide set-semantics containment (Chandra-Merlin / all-any)",
        parents=[obs_flags],
    )
    contain_parser.add_argument(
        "--phi-s",
        action="append",
        required=True,
        help="contained-side query; repeat for a union's disjuncts",
    )
    contain_parser.add_argument(
        "--phi-b",
        action="append",
        required=True,
        help="containing-side query; repeat for a union's disjuncts",
    )
    contain_parser.add_argument(
        "--engine",
        choices=ENGINE_NAMES,
        default="auto",
        help="counting engine for the homomorphism test",
    )
    contain_parser.add_argument(
        "--no-witness",
        action="store_true",
        help="skip the witness homomorphism on positive verdicts",
    )
    contain_parser.add_argument(
        "--json",
        action="store_true",
        help="print the full verdict (witness/certificate) as JSON",
    )
    contain_parser.set_defaults(handler=_command_contain)

    fuzz_parser = sub.add_parser(
        "fuzz",
        help="differential fuzzing with paper-lemma oracles (repro.qa)",
        parents=[obs_flags],
    )
    fuzz_parser.add_argument(
        "--max-cases",
        type=int,
        default=None,
        help="cases to generate (default 500 when no time budget is given)",
    )
    fuzz_parser.add_argument(
        "--budget-seconds",
        type=float,
        default=None,
        help="wall-clock budget; fuzzing stops at whichever limit hits first",
    )
    fuzz_parser.add_argument("--seed", type=int, default=0)
    fuzz_parser.add_argument(
        "--oracle",
        action="append",
        default=None,
        metavar="NAME",
        help="restrict to this oracle (repeatable; default: all registered)",
    )
    fuzz_parser.add_argument(
        "--corpus",
        default=None,
        metavar="DIR",
        help="replay this corpus first and write minimized findings into it",
    )
    fuzz_parser.add_argument(
        "--no-shrink",
        action="store_true",
        help="report raw failing cases without delta-debugging them",
    )
    fuzz_parser.set_defaults(handler=_command_fuzz)

    compare_parser = sub.add_parser(
        "compare",
        help="inequality budget vs Jayram-Kolaitis-Vee",
        parents=[obs_flags],
    )
    compare_parser.set_defaults(handler=_command_compare)

    verify_parser = sub.add_parser(
        "verify-paper",
        help="run the executable registry of the paper's claims",
        parents=[obs_flags],
    )
    verify_parser.set_defaults(handler=_command_verify_paper)

    core_parser = sub.add_parser(
        "core",
        help="set-semantics core of a conjunctive query",
        parents=[obs_flags],
    )
    core_parser.add_argument("--query", required=True)
    core_parser.set_defaults(handler=_command_core)

    equivalent_parser = sub.add_parser(
        "equivalent",
        help="bag/set equivalence of two queries",
        parents=[obs_flags],
    )
    equivalent_parser.add_argument("--left", required=True)
    equivalent_parser.add_argument("--right", required=True)
    equivalent_parser.set_defaults(handler=_command_equivalent)

    answers_parser = sub.add_parser(
        "answers",
        help="answer multiset of an open query on an inline database",
        parents=[obs_flags],
    )
    answers_parser.add_argument("--query", required=True)
    answers_parser.add_argument("--head", required=True, help="e.g. 'x,y'")
    answers_parser.add_argument("--facts", required=True)
    answers_parser.set_defaults(handler=_command_answers)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    stats_json = getattr(args, "stats_json", None)
    if not (getattr(args, "stats", False) or stats_json):
        try:
            return args.handler(args)
        except BagCQError as error:
            print(f"error: {error}", file=sys.stderr)
            return 1

    from repro.obs import observe, span

    # The report is emitted even when the command fails — budget
    # exhaustion and mid-evaluation errors are exactly when the counters
    # explain what happened.
    with observe() as observation:
        with span(f"cli.{args.command}"):
            try:
                exit_code = args.handler(args)
            except BagCQError as error:
                print(f"error: {error}", file=sys.stderr)
                exit_code = 1
    if getattr(args, "stats", False):
        print(observation.render_text(), file=sys.stderr)
    if stats_json:
        with open(stats_json, "w", encoding="utf-8") as handle:
            handle.write(observation.render_json())
            handle.write("\n")
    return exit_code


if __name__ == "__main__":
    sys.exit(main())
