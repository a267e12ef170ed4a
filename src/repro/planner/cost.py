"""The cost model: score each engine on one component against the data.

Costs are abstract "fact visits" (roughly a microsecond each, measured
on a 2-CPU x86-64 Linux machine), priced from the component's profile
and from statistics of the structure it runs on:

* **acyclic** (Yannakakis counting) is linear in the matching facts, with
  a small per-atom sorting overhead;
* **treewidth** (tree-decomposition DP) pays ``|bags| · d^(width+1)`` for
  its message tables, with a heavier per-entry constant;
* **backtracking** scans every atom's facts once, then pays per search
  node;
* **compiled** (specialized per-plan evaluators,
  :mod:`repro.homomorphism.compiled`) pays a one-time indexing pass that
  is linear in the matching facts, then either the array-semiring
  Yannakakis loop (acyclic shapes, folded into the per-fact term) or a
  closure chain that pays per search node.

**Search nodes** (:func:`chain_nodes`).  On cyclic components the node
count is a data-aware chain estimate in the spirit of worst-case-optimal
join analysis (the AGM bound refined by per-relation degree constraints,
as in Abo Khamis–Ngo–Suciu's PANDA).  It walks the profile's join
pattern in the compiled chain's greedy atom order.  Each atom multiplies
the running number of partial assignments by its average fanout,
``|R| / #distinct(R on the bound positions)``, and a fully bound atom by
its hit probability.  The estimate sums these running products over all
prefixes of the order and is capped by the worst cases ``d^vars`` and
``Π|R|``.  The ``#distinct`` statistics are memoized per structure
(:meth:`~repro.relational.structure.Structure.distinct_count`), so a
structure pays each projection once, and deltas keep the statistics of
untouched relations.  Acyclic components skip the walk: compiled prices
them linearly and backtracking keeps the worst cases.  A backtracking
node costs four compiled chain nodes (an interpreted fail-first step
against a hash lookup).

The model never has to be *right*, only *monotone enough*: every engine
returns the same exact count (the qa oracles enforce it), so a bad
estimate costs time, never correctness.  Engines that could *raise* where
the default engine would not are excluded up front by
:func:`eligible_engines` — ``auto`` must be a drop-in for the default on
every input, including the error-raising ones.

**Calibration.**  The constants live in a :class:`CostConstants` value
(the defaults are the hand-calibrated ones).  ``bagcq calibrate`` fits
the per-engine *scale* factors from measured wall time per structural
visit on a seeded workload (:func:`fit_constants`), and
:func:`set_constants` / :func:`use_constants` install a fitted set —
selection picks the engine minimizing ``scale × visits``, so scales put
the structural estimates in one common currency (seconds, up to a
shared normalization).  Profiles cached by the planner stay valid across
a swap: constants enter only at selection time, never at analysis time.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, fields, replace
from typing import Iterator

from repro.homomorphism.compiled import greedy_atom_order
from repro.planner.analyze import ComponentProfile
from repro.queries.cq import ConjunctiveQuery
from repro.relational.structure import Structure

__all__ = [
    "CostConstants",
    "chain_nodes",
    "eligible_engines",
    "estimate_cost",
    "estimate_visits",
    "fit_constants",
    "get_constants",
    "select_engine",
    "set_constants",
    "use_constants",
]

#: Estimates saturate here — beyond this every plan is "hopeless" alike.
COST_CEILING = 1e18

#: Deterministic tie-break: the reference engine wins equal scores.
_PREFERENCE = {"backtracking": 0, "acyclic": 1, "treewidth": 2, "compiled": 3}

ENGINES = ("backtracking", "acyclic", "treewidth", "compiled")


@dataclass(frozen=True)
class CostConstants:
    """Every tunable of the cost model, as one immutable value.

    The ``*_base`` / ``*_per_*`` fields shape each engine's *structural*
    visit estimate; the ``*_scale`` fields convert visits to a common
    currency (fitted by ``bagcq calibrate``, 1.0 when uncalibrated).
    """

    acyclic_base: float = 24.0
    acyclic_per_fact: float = 2.0
    acyclic_per_atom: float = 4.0
    treewidth_base: float = 60.0
    treewidth_per_entry: float = 6.0
    backtracking_base: float = 10.0
    backtracking_per_fact: float = 1.0
    backtracking_per_node: float = 2.0
    compiled_base: float = 30.0
    compiled_per_fact: float = 1.0
    compiled_per_atom: float = 2.0
    compiled_per_node: float = 0.5
    acyclic_scale: float = 1.0
    treewidth_scale: float = 1.0
    backtracking_scale: float = 1.0
    compiled_scale: float = 1.0

    def scale(self, engine: str) -> float:
        if engine not in ENGINES:
            raise ValueError(f"no cost model for engine {engine!r}")
        return getattr(self, f"{engine}_scale")

    def to_dict(self) -> dict:
        """A plain JSON-serializable mapping (field name → value)."""
        return {field.name: getattr(self, field.name) for field in fields(self)}

    @classmethod
    def from_dict(cls, data: dict) -> "CostConstants":
        """Rebuild from :meth:`to_dict` output; unknown keys rejected,
        missing keys default — so artifacts from older calibrations load
        as long as they only *lack* fields."""
        known = {field.name for field in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(
                f"unknown cost constant(s): {', '.join(sorted(unknown))}"
            )
        values = {key: float(value) for key, value in data.items()}
        constants = cls(**values)
        for field in fields(cls):
            if getattr(constants, field.name) <= 0:
                raise ValueError(
                    f"cost constant {field.name} must be positive"
                )
        return constants


_DEFAULT_CONSTANTS = CostConstants()
_current_constants = _DEFAULT_CONSTANTS


def get_constants() -> CostConstants:
    """The constants the planner is currently selecting with."""
    return _current_constants


def set_constants(constants: CostConstants | None) -> None:
    """Install ``constants`` process-wide (``None`` restores defaults)."""
    global _current_constants
    _current_constants = constants or _DEFAULT_CONSTANTS


@contextmanager
def use_constants(constants: CostConstants) -> Iterator[CostConstants]:
    """Temporarily install ``constants`` (tests, what-if EXPLAINs)."""
    previous = _current_constants
    set_constants(constants)
    try:
        yield constants
    finally:
        set_constants(previous)


def fit_constants(
    samples: list[tuple[str, float, float]],
    base: CostConstants | None = None,
) -> CostConstants:
    """Fit per-engine scales from ``(engine, visits, seconds)`` samples.

    Each engine's seconds-per-visit rate is the ratio of totals (robust
    to a few noisy samples), normalized so ``backtracking_scale`` stays
    1.0 — only *relative* rates matter to selection.  Engines with no
    samples (or degenerate ones) keep their ``base`` scale.
    """
    base = base or _DEFAULT_CONSTANTS
    visit_totals: dict[str, float] = {}
    second_totals: dict[str, float] = {}
    for engine, visits, seconds in samples:
        if engine not in ENGINES:
            raise ValueError(f"no cost model for engine {engine!r}")
        if visits <= 0 or seconds <= 0:
            continue
        visit_totals[engine] = visit_totals.get(engine, 0.0) + visits
        second_totals[engine] = second_totals.get(engine, 0.0) + seconds
    rates = {
        engine: second_totals[engine] / visit_totals[engine]
        for engine in visit_totals
    }
    reference = rates.get("backtracking")
    if reference is None or reference <= 0:
        # Without the reference engine there is nothing to normalize
        # against; keep whatever the base carried.
        return base
    updates = {
        f"{engine}_scale": rate / reference for engine, rate in rates.items()
    }
    return replace(base, **updates)


def _saturating_power(base: float, exponent: int) -> float:
    """``base ** exponent`` clamped into ``[1, COST_CEILING]``."""
    if base <= 1.0:
        return 1.0
    total = 1.0
    for _ in range(exponent):
        total *= base
        if total >= COST_CEILING:
            return COST_CEILING
    return total


def _atom_sizes(profile: ComponentProfile, structure: Structure) -> list[int]:
    """Per join-pattern atom, its relation's fact count (missing: 0)."""
    schema = structure.schema
    return [
        structure.fact_count(relation) if relation in schema else 0
        for relation, _ in profile.join_pattern
    ]


def chain_nodes(
    profile: ComponentProfile,
    structure: Structure,
    sizes: list[int] | None = None,
) -> float:
    """Estimated search nodes of a join chain over the component's atoms.

    Walks the join pattern in the compiled chain's greedy order
    (:func:`~repro.homomorphism.compiled.greedy_atom_order`).  Each atom
    multiplies the running number of partial assignments by its average
    fanout, ``|R| / #distinct(R on the bound positions)`` (``|R|`` when
    nothing is bound yet).  A fully bound atom multiplies by its hit
    probability, ``|R|`` over the product of its per-position distinct
    counts.  Constant positions count as bound.  The estimate is the sum
    over prefixes of these running products; an empty relation ends the
    chain.  The ``#distinct`` statistics are memoized on the structure
    (:meth:`~repro.relational.structure.Structure.distinct_count`).
    """
    pattern = profile.join_pattern
    if sizes is None:
        sizes = _atom_sizes(profile, structure)
    atom_variables = profile.pattern_variables
    distinct = structure.distinct_count
    bound: set[int] = set()
    rows = 1.0
    nodes = 0.0
    for index in greedy_atom_order(atom_variables, sizes):
        size = sizes[index]
        if not size:
            break
        relation, terms = pattern[index]
        new = atom_variables[index] - bound
        # Bound positions: constants and already-bound variables.
        keyed = tuple(
            position for position, term in enumerate(terms) if term not in new
        )
        if not keyed:
            rows *= size
        elif new:
            rows *= size / distinct(relation, keyed)
        else:
            combinations = 1
            for position in keyed:
                combinations *= distinct(relation, (position,))
            rows *= min(1.0, size / combinations)
        nodes += rows
        if nodes >= COST_CEILING:
            return COST_CEILING
        bound |= new
    return nodes


def eligible_engines(
    component: ConjunctiveQuery,
    profile: ComponentProfile,
    structure: Structure,
) -> tuple[str, ...]:
    """Engines that are *safe* for this component on this structure.

    Safe means: same exact count, and no error the backtracking engine
    would not also raise.  ``backtracking`` and ``treewidth`` are total
    (and agree on every error class: uninterpreted constants raise
    :class:`~repro.errors.ConstantError`, arity mismatches raise
    :class:`~repro.errors.EvaluationError`).  ``acyclic`` additionally
    requires an inequality-free, GYO-reducible component whose constants
    the structure interprets and whose atom arities match the structure's
    schema — outside that envelope it raises where the others would not.

    ``compiled`` is *total* (it falls back to the interpreter outside
    its envelope), but the planner still gates it on the specializer's
    own envelope — no inequalities, interpreted constants, matching
    arities (GYO-reducibility is **not** required: cyclic shapes take
    the closure chain) — so that selecting it always means actually
    compiling, never a silent round-trip through the fallback.
    """
    engines = ["backtracking", "treewidth"]
    specializable = (
        profile.inequality_count == 0
        and all(
            structure.interprets(constant.name)
            for constant in component.constants
        )
        and all(
            relation not in structure.schema
            or structure.schema.arity(relation) == arity
            for relation, arity in profile.relations
        )
    )
    if specializable and profile.acyclic:
        engines.append("acyclic")
    if specializable:
        engines.append("compiled")
    return tuple(engines)


def _visits(
    engines,
    profile: ComponentProfile,
    structure: Structure,
    constants: CostConstants,
) -> tuple[dict[str, float], float | None]:
    """``({engine: visits}, est_nodes)`` with the shared inputs computed once.

    ``est_nodes`` is the search-node estimate backtracking and the
    compiled chain pay per node: for cyclic components the fanout chain
    (:func:`chain_nodes`), still capped by the worst cases ``d^vars``
    and ``Π|R|``; ``None`` for acyclic ones, whose compiled estimate is
    linear and whose backtracking estimate keeps the worst cases alone.
    """
    domain_size = max(len(structure.domain), 1)
    sizes = _atom_sizes(profile, structure)
    facts = sum(sizes)
    est_nodes = None
    nodes = COST_CEILING
    if "backtracking" in engines or (
        "compiled" in engines and not profile.acyclic
    ):
        join = 1.0
        for size in sizes:
            join *= float(max(size, 1))
            if join >= COST_CEILING:
                join = COST_CEILING
                break
        nodes = min(
            _saturating_power(float(domain_size), profile.variable_count), join
        )
        if not profile.acyclic:
            nodes = min(nodes, chain_nodes(profile, structure, sizes))
            est_nodes = nodes
    visits: dict[str, float] = {}
    for engine in engines:
        if engine == "acyclic":
            visits[engine] = (
                constants.acyclic_base
                + constants.acyclic_per_fact * facts
                + constants.acyclic_per_atom * profile.atom_count
            )
        elif engine == "treewidth":
            table = _saturating_power(
                float(domain_size), profile.treewidth_bound + 1
            )
            bags = max(profile.variable_count, 1)
            visits[engine] = (
                constants.treewidth_base
                + constants.treewidth_per_entry * bags * table
            )
        elif engine == "backtracking":
            # Every atom's facts are scanned at least once (the match
            # cache fills per binding), then each search node pays an
            # interpreted fail-first step, priced above a chain step.
            visits[engine] = (
                constants.backtracking_base
                + constants.backtracking_per_fact * facts
                + constants.backtracking_per_node * nodes
            )
        elif engine == "compiled":
            # Index build: linear in the facts, plus a per-atom closure /
            # grouping setup.  Residual search: free for acyclic shapes
            # (the array passes are folded into the per-fact term); the
            # chain's nodes for cyclic ones, each a hash lookup instead
            # of the interpreter's fact scan.
            build = (
                constants.compiled_base
                + constants.compiled_per_fact * facts
                + constants.compiled_per_atom * profile.atom_count
            )
            if not profile.acyclic:
                build += constants.compiled_per_node * nodes
            visits[engine] = build
        else:
            raise ValueError(f"no cost model for engine {engine!r}")
        visits[engine] = min(visits[engine], COST_CEILING)
    return visits, est_nodes


def estimate_visits(
    engine: str,
    profile: ComponentProfile,
    structure: Structure,
    constants: CostConstants | None = None,
) -> float:
    """The *structural* visit estimate of ``engine``, before scaling.

    This is the quantity ``bagcq calibrate`` pairs with measured wall
    time: seconds ≈ scale × visits.  It is exactly what
    :func:`select_engine` scores ``engine`` with.
    """
    constants = constants or _current_constants
    visits, _ = _visits((engine,), profile, structure, constants)
    return visits[engine]


def estimate_cost(
    engine: str,
    profile: ComponentProfile,
    structure: Structure,
    constants: CostConstants | None = None,
) -> float:
    """Predicted cost of ``engine`` on the component: scale × visits."""
    constants = constants or _current_constants
    return min(
        constants.scale(engine)
        * estimate_visits(engine, profile, structure, constants),
        COST_CEILING,
    )


def select_engine(
    component: ConjunctiveQuery,
    profile: ComponentProfile,
    structure: Structure,
    constants: CostConstants | None = None,
) -> tuple[str, float, float | None]:
    """The cheapest safe engine: ``(engine, est_cost, est_nodes)``.

    ``est_nodes`` is the search-node estimate behind the backtracking and
    compiled-chain costs (``None`` for acyclic components, see
    :func:`_visits`); EXPLAIN shows it next to the cost.
    """
    constants = constants or _current_constants
    engines = eligible_engines(component, profile, structure)
    visits, est_nodes = _visits(engines, profile, structure, constants)
    best: tuple[float, int, str] | None = None
    for engine in engines:
        cost = min(constants.scale(engine) * visits[engine], COST_CEILING)
        candidate = (cost, _PREFERENCE[engine], engine)
        if best is None or candidate < best:
            best = candidate
    assert best is not None  # backtracking is always eligible
    return best[2], best[0], est_nodes
