"""Transport-free request handlers: parsed JSON body → response dict.

Each endpoint has a ``parse_*`` step that turns a JSON body into a
:class:`ParsedRequest` — a single-flight key plus a ``run`` thunk — and
raises :class:`~repro.service.protocol.BadRequestError` on structurally
malformed input.  The server coalesces by key and executes ``run`` on a
worker thread; errors raised by ``run`` are library errors and travel
with their class names (see ``protocol.py``).

Keeping the handlers free of HTTP makes the remote-vs-local parity tests
trivial to reason about: ``run()`` calls exactly the same library entry
points (:func:`~repro.homomorphism.engine.count`,
:func:`~repro.homomorphism.engine.count_ucq`, :func:`repro.planner.plan`,
:func:`~repro.decision.search.find_counterexample`) a direct caller
would, with the shared warm :class:`~repro.homomorphism.cache.CountCache`
as the only addition — and caching never changes a count.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.errors import SearchBudgetExceeded
from repro.homomorphism.cache import CountCache, canonical_component
from repro.homomorphism.engine import count, count_ucq
from repro.io import (
    delta_from_dict,
    ground_facts_from_text,
    query_from_dict,
    query_to_dict,
    structure_from_dict,
    structure_from_facts,
    structure_to_dict,
)
from repro.obs import metrics as obs_metrics
from repro.queries.cq import ConjunctiveQuery
from repro.queries.parser import parse_query
from repro.queries.ucq import UnionOfConjunctiveQueries
from repro.relational.structure import Delta, Structure
from repro.service.protocol import PROTOCOL_VERSION, BadRequestError, request_key

__all__ = ["ParsedRequest", "parse_request", "ENDPOINTS"]


@dataclass(frozen=True)
class ParsedRequest:
    """One admitted unit of work: identity for coalescing, thunk to run."""

    endpoint: str
    key: tuple
    run: Callable[[], dict]


def _require_dict(body) -> dict:
    if not isinstance(body, dict):
        raise BadRequestError(
            f"request body must be a JSON object, got {type(body).__name__}"
        )
    return body


def _get_engine(body: dict) -> str:
    engine = body.get("engine", "auto")
    if not isinstance(engine, str):
        raise BadRequestError(f"'engine' must be a string, got {engine!r}")
    # Unknown engine *names* are a library concern (EvaluationError, so
    # remote and local callers see the same class); only the type is
    # checked here.
    return engine


def _parse_query_field(body: dict, field: str = "query") -> ConjunctiveQuery:
    """A query from ``field`` (io dict) or ``field + '_text'`` (syntax)."""
    if field in body:
        payload = body[field]
        if not isinstance(payload, dict):
            raise BadRequestError(
                f"'{field}' must be a JSON object (repro.io query payload)"
            )
        return query_from_dict(payload)
    text_field = f"{field}_text"
    if text_field in body:
        text = body[text_field]
        if not isinstance(text, str):
            raise BadRequestError(f"'{text_field}' must be a string")
        return parse_query(text)
    raise BadRequestError(f"request needs '{field}' or '{text_field}'")


def _parse_structure_field(body: dict, required: bool = True) -> Structure | None:
    """A structure from ``"structure"`` (io dict) or ``"facts"`` (shorthand).

    The ``facts`` shorthand mirrors ``bagcq evaluate --facts``, including
    its convenience of self-interpreting any query constants — callers
    who need exact parity with a :class:`Structure` they hold locally
    should send the io dict, which round-trips bit for bit.
    """
    if "structure" in body:
        payload = body["structure"]
        if not isinstance(payload, dict):
            raise BadRequestError(
                "'structure' must be a JSON object (repro.io structure payload)"
            )
        return structure_from_dict(payload)
    if "facts" in body:
        text = body["facts"]
        if not isinstance(text, str):
            raise BadRequestError("'facts' must be a string")
        return structure_from_facts(text)
    if required:
        raise BadRequestError("request needs 'structure' or 'facts'")
    return None


def _interpret_missing_constants(
    query: ConjunctiveQuery, structure: Structure, from_facts: bool
) -> Structure:
    if not from_facts:
        return structure
    for constant in query.constants:
        if not structure.interprets(constant.name):
            structure = structure.with_constant(constant.name, constant.name)
    return structure


def _resolve_database(body: dict, databases):
    """The named database a request points at via ``"db"``, or ``None``.

    Resolution happens at *parse* time: the returned handle's structure
    is the version snapshot this request is keyed — and evaluated —
    against, so a racing ``/update`` never changes what an admitted
    request computes.
    """
    name = body.get("db")
    if name is None:
        return None
    if databases is None:
        raise BadRequestError(
            "this server hosts no named databases; send an inline structure"
        )
    return databases.get(name)


def _parse_delta_field(body: dict) -> Delta:
    """A delta from ``"delta"`` (io dict) or ``"insert"``/``"delete"`` text.

    The text shorthand mirrors ``bagcq update --insert/--delete``: ground
    atoms like ``"E(a, b); E(b, c)"``, semicolon- or space-separated.
    """
    if "delta" in body:
        payload = body["delta"]
        if not isinstance(payload, dict):
            raise BadRequestError(
                "'delta' must be a JSON object (repro.io delta payload)"
            )
        return delta_from_dict(payload)
    if "insert" not in body and "delete" not in body:
        raise BadRequestError("request needs 'delta', 'insert', or 'delete'")
    inserts: list = []
    deletes: list = []
    if "insert" in body:
        text = body["insert"]
        if not isinstance(text, str):
            raise BadRequestError("'insert' must be a string of ground atoms")
        inserts = ground_facts_from_text(text)
    if "delete" in body:
        text = body["delete"]
        if not isinstance(text, str):
            raise BadRequestError("'delete' must be a string of ground atoms")
        deletes = ground_facts_from_text(text)
    return Delta(inserts=tuple(inserts), deletes=tuple(deletes))


def _parse_int(body: dict, field: str, default, minimum=None):
    value = body.get(field, default)
    if value is None:
        return None
    if isinstance(value, bool) or not isinstance(value, int):
        raise BadRequestError(f"'{field}' must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise BadRequestError(f"'{field}' must be >= {minimum}, got {value}")
    return value


def parse_evaluate(
    body: dict, cache: CountCache | None, databases=None
) -> ParsedRequest:
    """``POST /evaluate`` — ``count`` (kind "cq") or ``count_ucq`` ("ucq").

    With ``"db": name`` the request evaluates a server-resident database
    (see ``parse_db``) instead of shipping one inline; the version
    snapshot taken at parse time rides in the key, so requests racing an
    ``/update`` coalesce only within one version.
    """
    body = _require_dict(body)
    engine = _get_engine(body)
    kind = body.get("kind", "cq")
    use_cache = body.get("cache", True)
    if not isinstance(use_cache, bool):
        raise BadRequestError(f"'cache' must be a boolean, got {use_cache!r}")
    effective_cache = cache if use_cache else None
    from_facts = "structure" not in body and "facts" in body

    database = _resolve_database(body, databases)
    if database is not None and ("structure" in body or "facts" in body):
        raise BadRequestError(
            "give either 'db' or an inline 'structure'/'facts', not both"
        )

    def _resolve_structure(query: ConjunctiveQuery | None):
        """(structure, db-identity extras, db response fields)."""
        if database is None:
            structure = _parse_structure_field(body)
            if query is not None:
                structure = _interpret_missing_constants(
                    query, structure, from_facts
                )
            return structure, (), {}
        structure = database.structure  # parse-time version snapshot
        extra = (database.name, database.version)
        fields = {
            "db": database.name,
            "version": database.version,
            "fingerprint": structure.fingerprint(),
        }
        return structure, extra, fields

    def _counted(thunk) -> int:
        """Run ``thunk``, attributing cache traffic to delta reuse.

        Only db-backed requests tally here: their cache hits are exactly
        the Lemma-1 factors carried across versions by ``/update``.
        """
        if database is None or effective_cache is None:
            return thunk()
        hits_before = effective_cache.hits
        misses_before = effective_cache.misses
        value = thunk()
        reused = effective_cache.hits - hits_before
        recounted = effective_cache.misses - misses_before
        if reused:
            obs_metrics.add("delta.reused_factors", reused)
        if recounted:
            obs_metrics.add("delta.affected_components", recounted)
        return value

    if kind == "cq":
        query = _parse_query_field(body)
        structure, db_extra, db_fields = _resolve_structure(query)

        def run() -> dict:
            value = _counted(
                lambda: count(
                    query, structure, engine=engine, cache=effective_cache
                )
            )
            return {
                "protocol_version": PROTOCOL_VERSION,
                "kind": "cq",
                "engine": engine,
                "count": value,
                **db_fields,
            }

        return ParsedRequest(
            endpoint="evaluate",
            key=request_key(
                "evaluate",
                engine=engine,
                query=query,
                structure=structure,
                extra=(use_cache, *db_extra),
            ),
            run=run,
        )

    if kind == "ucq":
        raw = body.get("disjuncts")
        if not isinstance(raw, list) or not raw:
            raise BadRequestError(
                "'disjuncts' must be a non-empty list for kind 'ucq'"
            )
        disjuncts = []
        for entry in raw:
            if not isinstance(entry, dict):
                raise BadRequestError("each disjunct must be a JSON object")
            disjunct = _parse_query_field(entry)
            multiplicity = _parse_int(entry, "multiplicity", 1, minimum=0)
            disjuncts.append((disjunct, multiplicity))
        structure, db_extra, db_fields = _resolve_structure(None)
        ucq = UnionOfConjunctiveQueries(disjuncts)

        def run_ucq() -> dict:
            value = _counted(
                lambda: count_ucq(
                    ucq, structure, engine=engine, cache=effective_cache
                )
            )
            return {
                "protocol_version": PROTOCOL_VERSION,
                "kind": "ucq",
                "engine": engine,
                "count": value,
                **db_fields,
            }

        return ParsedRequest(
            endpoint="evaluate",
            key=request_key(
                "evaluate",
                engine=engine,
                disjuncts=ucq.disjuncts,
                structure=structure,
                extra=(use_cache, *db_extra),
            ),
            run=run_ucq,
        )

    raise BadRequestError(f"unknown evaluate kind {kind!r}; use 'cq' or 'ucq'")


def parse_db(
    body: dict, cache: CountCache | None, databases=None
) -> ParsedRequest:
    """``POST /db`` — load (or replace) a named server-resident database.

    Loading is idempotent at a given content: identical concurrent loads
    coalesce (same name, same fingerprint vector, same engine), and
    rebinding a name to new content starts it back at version 0.
    """
    body = _require_dict(body)
    if databases is None:
        raise BadRequestError("this server hosts no named databases")
    name = body.get("name")
    if not isinstance(name, str) or not name:
        raise BadRequestError(
            f"'name' must be a non-empty string, got {name!r}"
        )
    engine = _get_engine(body)
    structure = _parse_structure_field(body)

    def run() -> dict:
        database = databases.load(name, structure, engine=engine)
        return {
            "protocol_version": PROTOCOL_VERSION,
            "db": database.name,
            **database.snapshot(),
        }

    return ParsedRequest(
        endpoint="db",
        key=request_key("db", engine=engine, structure=structure, extra=(name,)),
        run=run,
    )


def parse_update(
    body: dict, cache: CountCache | None, databases=None
) -> ParsedRequest:
    """``POST /update`` — apply a delta to a named database.

    Updates are *never* coalesced: two identical deltas must each bump
    the version, so every request key carries a fresh unique token.
    Responses surface the :class:`~repro.homomorphism.delta.DeltaReport`
    (migrated vs invalidated cache entries, refreshed compiled
    artifacts, new version and fingerprint).
    """
    body = _require_dict(body)
    if databases is None:
        raise BadRequestError("this server hosts no named databases")
    name = body.get("db")
    if not isinstance(name, str) or not name:
        raise BadRequestError(f"'db' must be a non-empty string, got {name!r}")
    databases.get(name)  # unknown names fail fast, before queueing
    delta = _parse_delta_field(body)

    def run() -> dict:
        report = databases.update(name, delta)
        return {
            "protocol_version": PROTOCOL_VERSION,
            "db": name,
            "version": report.version,
            "fingerprint": report.fingerprint,
            "touched_relations": list(report.touched_relations),
            "domain_changed": report.domain_changed,
            "invalidated": report.invalidated,
            "migrated": report.migrated,
            "refreshed_artifacts": report.refreshed_artifacts,
        }

    return ParsedRequest(
        endpoint="update",
        key=request_key("update", extra=(name, object())),
        run=run,
    )


def parse_explain(
    body: dict, cache: CountCache | None = None, databases=None
) -> ParsedRequest:
    """``POST /explain`` — the machine-readable plan ``auto`` would run."""
    body = _require_dict(body)
    query = _parse_query_field(body)
    structure = _parse_structure_field(body, required=False)
    if structure is None:
        structure = query.canonical_structure()
        source = "canonical"
    else:
        structure = _interpret_missing_constants(
            query, structure, "structure" not in body
        )
        source = "inline"

    def run() -> dict:
        from repro.planner import PlanCache, plan

        # A fresh PlanCache keeps the hit/miss totals meaningful for this
        # query alone — the same choice `bagcq explain` makes.
        chosen = plan(query, structure, cache=PlanCache())
        return {
            "protocol_version": PROTOCOL_VERSION,
            "query": query_to_dict(query),
            "planned_against": source,
            "domain_size": len(structure.domain),
            "plan": chosen.to_dict(),
        }

    return ParsedRequest(
        endpoint="explain",
        key=request_key("explain", query=query, structure=structure),
        run=run,
    )


def parse_decide(
    body: dict, cache: CountCache | None, databases=None
) -> ParsedRequest:
    """``POST /decide`` — a bounded random-stream counterexample search."""
    body = _require_dict(body)
    engine = _get_engine(body)
    phi_s = _parse_query_field(body, "phi_s")
    phi_b = _parse_query_field(body, "phi_b")
    multiplier = _parse_int(body, "multiplier", 1, minimum=1)
    additive = _parse_int(body, "additive", 0)
    domain_size = _parse_int(body, "domain_size", 3, minimum=1)
    candidates = _parse_int(body, "count", 100, minimum=0)
    seed = _parse_int(body, "seed", 0)
    max_candidates = _parse_int(body, "max_candidates", None, minimum=0)
    density = body.get("density", 0.3)
    if isinstance(density, bool) or not isinstance(density, (int, float)):
        raise BadRequestError(f"'density' must be a number, got {density!r}")

    def run() -> dict:
        from repro.decision.search import find_counterexample, random_structures

        schema = phi_s.schema.union(phi_b.schema)
        stream = random_structures(
            schema,
            domain_size=domain_size,
            density=float(density),
            count=candidates,
            seed=seed,
        )
        try:
            outcome = find_counterexample(
                phi_s,
                phi_b,
                stream,
                multiplier=multiplier,
                additive=additive,
                max_candidates=max_candidates,
                engine=engine,
                cache=cache,
            )
        except SearchBudgetExceeded as error:
            return {
                "protocol_version": PROTOCOL_VERSION,
                "verdict": "budget_exceeded",
                "detail": str(error),
            }
        return {
            "protocol_version": PROTOCOL_VERSION,
            "verdict": "counterexample" if outcome.found else "exhausted",
            "found": outcome.found,
            "checked": outcome.checked,
            "lhs": outcome.lhs,
            "rhs": outcome.rhs,
            "counterexample": (
                structure_to_dict(outcome.counterexample)
                if outcome.counterexample is not None
                else None
            ),
        }

    return ParsedRequest(
        endpoint="decide",
        key=request_key(
            "decide",
            engine=engine,
            query=phi_s,
            extra=(
                # The full parameterization: any difference may change the
                # verdict, so only exact repeats coalesce.  phi_b rides in
                # `extra` canonicalized, mirroring phi_s in `query`.
                canonical_component(phi_b),
                multiplier,
                additive,
                domain_size,
                float(density),
                candidates,
                seed,
                max_candidates,
            ),
        ),
        run=run,
    )


def _parse_disjuncts_field(body: dict, field: str) -> list[ConjunctiveQuery]:
    raw = body.get(field)
    if not isinstance(raw, list) or not raw:
        raise BadRequestError(f"'{field}' must be a non-empty list")
    disjuncts = []
    for entry in raw:
        if not isinstance(entry, dict):
            raise BadRequestError(f"each '{field}' entry must be a JSON object")
        disjuncts.append(_parse_query_field(entry))
    return disjuncts


def parse_contain(
    body: dict, cache: CountCache | None, databases=None
) -> ParsedRequest:
    """``POST /contain`` — set-semantics containment (CQ or UCQ pairs).

    Kind ``"cq"`` (default) takes ``phi_s`` / ``phi_b`` query fields;
    kind ``"ucq"`` takes ``disjuncts_s`` / ``disjuncts_b`` lists of
    query entries.  ``witness`` (default true) controls whether positive
    verdicts carry the witness homomorphism; the absence certificate on
    negative verdicts is always included.  Library objections —
    inequalities (``QueryError``), unknown engines (``EvaluationError``),
    uninterpreted constants (``ConstantError``) — travel with their
    class names, exactly as a direct caller would see them.
    """
    body = _require_dict(body)
    engine = _get_engine(body)
    kind = body.get("kind", "cq")
    want_witness = body.get("witness", True)
    if not isinstance(want_witness, bool):
        raise BadRequestError(f"'witness' must be a boolean, got {want_witness!r}")
    use_cache = body.get("cache", True)
    if not isinstance(use_cache, bool):
        raise BadRequestError(f"'cache' must be a boolean, got {use_cache!r}")

    from repro.containment_set import (
        cq_containment,
        default_containment_cache,
        ucq_containment,
    )

    verdict_cache = default_containment_cache() if use_cache else None
    count_cache = cache if use_cache else None

    if kind == "cq":
        phi_s = _parse_query_field(body, "phi_s")
        phi_b = _parse_query_field(body, "phi_b")

        def run() -> dict:
            verdict = cq_containment(
                phi_s,
                phi_b,
                engine=engine,
                cache=verdict_cache,
                count_cache=count_cache,
                want_witness=want_witness,
            )
            return {
                "protocol_version": PROTOCOL_VERSION,
                "kind": "cq",
                **verdict.to_dict(),
            }

        return ParsedRequest(
            endpoint="contain",
            key=request_key(
                "contain",
                engine=engine,
                query=phi_s,
                extra=(canonical_component(phi_b), want_witness, use_cache),
            ),
            run=run,
        )

    if kind == "ucq":
        left = _parse_disjuncts_field(body, "disjuncts_s")
        right = _parse_disjuncts_field(body, "disjuncts_b")

        def run_ucq() -> dict:
            verdict = ucq_containment(
                left,
                right,
                engine=engine,
                cache=verdict_cache,
                count_cache=count_cache,
                want_witness=want_witness,
            )
            return {
                "protocol_version": PROTOCOL_VERSION,
                "kind": "ucq",
                **verdict.to_dict(),
            }

        return ParsedRequest(
            endpoint="contain",
            key=request_key(
                "contain",
                engine=engine,
                disjuncts=tuple((query, 1) for query in left),
                extra=(
                    tuple(canonical_component(query) for query in right),
                    want_witness,
                    use_cache,
                ),
            ),
            run=run_ucq,
        )

    raise BadRequestError(f"unknown contain kind {kind!r}; use 'cq' or 'ucq'")


#: endpoint name → parser; the server's routing table for POST bodies.
#: Parsers take ``(body, count_cache, databases=None)`` — the registry of
#: server-resident databases is ``None`` for transport-free direct use.
ENDPOINTS: dict[str, Callable[..., ParsedRequest]] = {
    "evaluate": parse_evaluate,
    "explain": parse_explain,
    "decide": parse_decide,
    "contain": parse_contain,
    "db": parse_db,
    "update": parse_update,
}
