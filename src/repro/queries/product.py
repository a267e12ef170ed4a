"""Factorized conjunctive queries: lazy ``∧̄``-products and powers.

The reductions of Section 4 build queries like ``δ_b = (∧̄_{l∈L} δ_{b,l}) ↑ C``
where the exponent ``C = c·C₁`` is astronomically large even for tiny
inputs.  Materializing ``C`` disjoint copies is impossible, but *evaluating*
them is trivial: by Lemma 1 and Definition 2 the bag-semantics value of a
disjoint conjunction is the product of the values of its factors, and
``(θ↑k)(D) = θ(D)^k``.

A :class:`QueryProduct` is a finite multiset of (query, exponent) pairs
representing their disjoint conjunction.  It supports exact evaluation
through :func:`repro.homomorphism.count` and can be *materialized* into a
plain :class:`~repro.queries.cq.ConjunctiveQuery` when the expansion stays
below a configurable size budget.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from repro.errors import EvaluationError, MaterializationError, QueryError
from repro.queries.cq import ConjunctiveQuery
from repro.relational.schema import Schema

__all__ = ["QueryProduct", "component_terms"]

#: Default budget (in atoms) for :meth:`QueryProduct.materialize`.
DEFAULT_MATERIALIZE_BUDGET = 100_000


class QueryProduct:
    """A disjoint conjunction ``∧̄ᵢ φᵢ ↑ kᵢ`` kept in factorized form.

    >>> from repro.queries.parser import parse_query
    >>> theta = parse_query("E(x, y)")
    >>> squared = QueryProduct([(theta, 2)])
    >>> squared.total_atom_count
    2
    >>> (squared ** 10).exponents
    (20,)
    """

    __slots__ = ("_factors",)

    def __init__(self, factors: Iterable[tuple[ConjunctiveQuery, int]] = ()) -> None:
        merged: dict[ConjunctiveQuery, int] = {}
        order: list[ConjunctiveQuery] = []
        for query, exponent in factors:
            if not isinstance(query, ConjunctiveQuery):
                raise QueryError(f"not a ConjunctiveQuery: {query!r}")
            if exponent < 0:
                raise QueryError(f"negative exponent {exponent}")
            if exponent == 0 or query.is_empty():
                continue
            if query not in merged:
                order.append(query)
                merged[query] = 0
            merged[query] += exponent
        self._factors: tuple[tuple[ConjunctiveQuery, int], ...] = tuple(
            (query, merged[query]) for query in order
        )

    @classmethod
    def of(cls, query: ConjunctiveQuery, exponent: int = 1) -> "QueryProduct":
        """Wrap a single query, splitting it into connected components."""
        return cls(
            (component, exponent)
            for component in query.connected_components()
        )

    # -- accessors -----------------------------------------------------------

    @property
    def factors(self) -> tuple[tuple[ConjunctiveQuery, int], ...]:
        return self._factors

    @property
    def queries(self) -> tuple[ConjunctiveQuery, ...]:
        return tuple(query for query, _ in self._factors)

    @property
    def exponents(self) -> tuple[int, ...]:
        return tuple(exponent for _, exponent in self._factors)

    def __iter__(self) -> Iterator[tuple[ConjunctiveQuery, int]]:
        return iter(self._factors)

    def is_empty(self) -> bool:
        return not self._factors

    @property
    def schema(self) -> Schema:
        schema = Schema()
        for query, _ in self._factors:
            schema = schema.union(query.schema)
        return schema

    @property
    def total_atom_count(self) -> int:
        """Number of atoms the materialized query would have (a bignum)."""
        return sum(query.atom_count * exponent for query, exponent in self._factors)

    @property
    def total_variable_count(self) -> int:
        return sum(
            query.variable_count * exponent for query, exponent in self._factors
        )

    @property
    def total_inequality_count(self) -> int:
        return sum(
            query.inequality_count * exponent for query, exponent in self._factors
        )

    def has_inequalities(self) -> bool:
        return any(query.has_inequalities() for query, _ in self._factors)

    # -- algebra ---------------------------------------------------------------

    def disjoint_conj(self, other: "QueryProduct | ConjunctiveQuery") -> "QueryProduct":
        """``∧̄`` of two factorized queries (exponents of equal factors add)."""
        if isinstance(other, ConjunctiveQuery):
            other = QueryProduct.of(other)
        return QueryProduct(self._factors + other._factors)

    def __mul__(self, other: "QueryProduct | ConjunctiveQuery") -> "QueryProduct":
        return self.disjoint_conj(other)

    def power(self, k: int) -> "QueryProduct":
        """``↑ k`` in factorized form: multiply every exponent by ``k``."""
        if k < 0:
            raise QueryError(f"power requires k >= 0, got {k}")
        return QueryProduct(
            (query, exponent * k) for query, exponent in self._factors
        )

    def __pow__(self, k: int) -> "QueryProduct":
        return self.power(k)

    # -- materialization ----------------------------------------------------------

    def materialize(
        self, max_atoms: int = DEFAULT_MATERIALIZE_BUDGET
    ) -> ConjunctiveQuery:
        """Expand into a plain :class:`ConjunctiveQuery`.

        Raises :class:`~repro.errors.MaterializationError` when the result
        would exceed ``max_atoms`` atoms — the factorized form remains fully
        evaluable in that case.
        """
        total = self.total_atom_count
        if total > max_atoms:
            raise MaterializationError(
                f"materialization would create {total} atoms "
                f"(budget: {max_atoms}); evaluate the QueryProduct directly"
            )
        result = ConjunctiveQuery()
        for query, exponent in self._factors:
            for _ in range(exponent):
                result = result.disjoint_conj(query)
        return result

    # -- value semantics ------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, QueryProduct):
            return NotImplemented
        return dict(self._factors) == dict(other._factors)

    def __hash__(self) -> int:
        return hash(frozenset(self._factors))

    def __str__(self) -> str:
        if not self._factors:
            return "TRUE"
        parts = []
        for query, exponent in self._factors:
            body = f"[{query}]"
            parts.append(body if exponent == 1 else f"{body}^{exponent}")
        return " *̄ ".join(parts)

    def __repr__(self) -> str:
        return f"QueryProduct(factors={len(self._factors)}, atoms={self.total_atom_count})"


def component_terms(
    query: "ConjunctiveQuery | QueryProduct", action: str = "evaluate"
) -> Iterator[tuple[ConjunctiveQuery, int]]:
    """``(component, exponent)`` pairs whose counts multiply to ``query(D)``.

    The connected components of a plain query with exponent 1, or of
    each factor of a :class:`QueryProduct` with the factor's exponent
    (Lemma 1, Definition 2).  Any other object raises
    :class:`~repro.errors.EvaluationError` naming the caller's
    ``action``.
    """
    if isinstance(query, QueryProduct):
        for factor, exponent in query:
            for component in factor.connected_components():
                yield component, exponent
    elif isinstance(query, ConjunctiveQuery):
        for component in query.connected_components():
            yield component, 1
    else:
        raise EvaluationError(
            f"cannot {action} object of type {type(query).__name__}"
        )
