"""Cost-constant fitting and the round trip through plan selection.

What calibration promises: the *visit* sides of the samples are a pure
function of the seed (only the measured seconds vary by machine), the
fitted constants are normalized so backtracking's scale is exactly 1.0,
a fit survives ``to_dict -> JSON -> from_dict`` bit-for-bit, and —  the
property ``bagcq calibrate`` exists for — plan selection under the
reloaded constants is *identical* to selection under the fitted ones.
"""

from __future__ import annotations

import json

import pytest

from repro.loadgen.calibrate import calibrate, case_visits, collect_samples
from repro.planner import (
    CostConstants,
    analyze_component,
    fit_constants,
    get_constants,
    select_engine,
    use_constants,
)
from repro.qa.generators import case_at
from repro.queries import parse_query
from repro.relational import Schema, Structure


def _sparse_graph(n: int) -> Structure:
    """A deterministic ``n``-vertex graph with ``3n`` non-loop edges."""
    edges = {(i, (i * 7 + k) % n) for i in range(n) for k in (1, 2, 5)}
    return Structure(Schema.from_arities({"E": 2}), {"E": edges}, domain=range(n))


class TestCollectSamples:
    def test_visit_sides_are_seed_deterministic(self):
        first = collect_samples(case_count=6, seed=3, repeat=1)
        second = collect_samples(case_count=6, seed=3, repeat=1)
        assert [(engine, visits) for engine, visits, _ in first] == [
            (engine, visits) for engine, visits, _ in second
        ]
        assert all(seconds > 0 for _, _, seconds in first)

    def test_every_sample_names_a_known_engine(self):
        samples = collect_samples(case_count=6, seed=0, repeat=1)
        assert samples
        engines = {engine for engine, _, _ in samples}
        assert engines <= {"backtracking", "acyclic", "treewidth", "compiled"}
        # Backtracking is always safe, so it appears for every case.
        assert "backtracking" in engines

    def test_validation(self):
        with pytest.raises(ValueError):
            collect_samples(case_count=0)
        with pytest.raises(ValueError):
            collect_samples(repeat=0)


class TestDataAwareVisits:
    """Calibration pairs seconds with the visits selection actually scores."""

    CYCLE_5 = parse_query(
        "E(x0, x1) & E(x1, x2) & E(x2, x3) & E(x3, x4) & E(x4, x0)"
    )

    def test_cyclic_visits_use_the_fanout_chain(self):
        graph = _sparse_graph(40)
        visits = case_visits(self.CYCLE_5, graph)
        worst_case = 40.0**5  # min(d^vars, Π|R|) on this graph
        assert set(visits) == {"backtracking", "treewidth", "compiled"}
        assert visits["backtracking"] < worst_case / 1000
        assert visits["compiled"] < visits["treewidth"]

    def test_visits_are_what_selection_scores(self):
        graph = _sparse_graph(40)
        query = parse_query(
            "E(a, b) & E(b, c) & E(c, a) & E(a, d) & E(d, e) & E(e, a)"
        )
        engine, est_cost, est_nodes = select_engine(
            query, analyze_component(query), graph
        )
        assert est_nodes is not None
        assert est_cost == pytest.approx(
            get_constants().scale(engine) * case_visits(query, graph)[engine]
        )

    def test_samples_carry_case_visits(self):
        samples = collect_samples(case_count=6, seed=3, repeat=1)
        expected = []
        index = 0
        while len(expected) < 6:
            case = case_at(index, 3)
            index += 1
            if case.kind == "cq" and case.query is not None and case.structure is not None:
                expected.append(case_visits(case.query, case.structure))
        assert [(engine, visits) for engine, visits, _ in samples] == [
            item for visits in expected for item in visits.items()
        ]


class TestFitConstants:
    def test_backtracking_scale_is_the_normalizer(self):
        samples = [
            ("backtracking", 100.0, 0.010),
            ("acyclic", 100.0, 0.002),
            ("treewidth", 100.0, 0.004),
        ]
        fitted = fit_constants(samples)
        assert fitted.backtracking_scale == 1.0
        # Engines measured faster per visit get proportionally smaller
        # scales: 0.002s/0.010s = 0.2 of backtracking's per-visit cost.
        assert fitted.acyclic_scale == pytest.approx(0.2)
        assert fitted.treewidth_scale == pytest.approx(0.4)

    def test_shape_constants_are_preserved(self):
        base = CostConstants(acyclic_base=99.0)
        fitted = fit_constants(
            [("backtracking", 10.0, 0.01), ("acyclic", 10.0, 0.01)], base
        )
        assert fitted.acyclic_base == 99.0
        assert fitted.acyclic_scale == pytest.approx(1.0)

    def test_no_backtracking_reference_returns_base(self):
        base = CostConstants()
        assert fit_constants([("acyclic", 10.0, 0.01)], base) is base
        assert fit_constants([], base) is base


class TestRoundTrip:
    def test_to_dict_json_from_dict_is_identity(self):
        fitted = calibrate(case_count=5, seed=0, repeat=1)
        reloaded = CostConstants.from_dict(
            json.loads(json.dumps(fitted.to_dict()))
        )
        assert reloaded == fitted  # bit-for-bit: floats survive JSON

    def test_plan_selection_identical_under_reloaded_constants(self):
        fitted = calibrate(case_count=8, seed=1, repeat=1)
        reloaded = CostConstants.from_dict(
            json.loads(json.dumps(fitted.to_dict()))
        )
        cases = [case_at(index, seed=2) for index in range(30)]
        compared = 0
        for case in cases:
            if case.kind != "cq" or case.query is None:
                continue
            for component in case.query.connected_components():
                profile = analyze_component(component)
                with use_constants(fitted):
                    chosen = select_engine(component, profile, case.structure)
                with use_constants(reloaded):
                    rechosen = select_engine(
                        component, profile, case.structure
                    )
                assert chosen == rechosen
                compared += 1
        assert compared >= 10

    def test_use_constants_is_scoped(self):
        fitted = CostConstants(acyclic_scale=0.125)
        before = get_constants()
        with use_constants(fitted):
            assert get_constants() is fitted
        assert get_constants() is before

    def test_from_dict_rejects_unknown_keys(self):
        payload = CostConstants().to_dict()
        payload["warp_factor"] = 9.0
        with pytest.raises(ValueError):
            CostConstants.from_dict(payload)

    def test_from_dict_rejects_nonpositive_values(self):
        payload = CostConstants().to_dict()
        payload["acyclic_scale"] = 0.0
        with pytest.raises(ValueError):
            CostConstants.from_dict(payload)

    def test_missing_keys_fall_back_to_defaults(self):
        partial = CostConstants.from_dict({"treewidth_scale": 0.5})
        assert partial.treewidth_scale == 0.5
        assert partial.backtracking_scale == 1.0
        assert partial.acyclic_base == CostConstants().acyclic_base
