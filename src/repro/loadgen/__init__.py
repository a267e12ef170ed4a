"""``repro.loadgen`` — seeded traffic replay against a live ``bagcq serve``.

The serving layer's behaviors worth measuring — coalescing under
duplicate-heavy traffic, shedding under overload, deadline enforcement
under adversarial tails — only show up under *traffic shapes*, not under
single requests.  This package generates those shapes deterministically
and measures the server's response:

* ``scenarios.py`` — five named, seeded scenarios built on the fuzzing
  corpus (:func:`repro.qa.generators.case_at`): ``zipf-duplicates``
  (rank-weighted duplicate queries → coalescing + cache), ``multi-tenant``
  (interleaved per-tenant pools), ``adversarial-tail`` (cheap traffic
  with a CYCLIQ/gadget-heavy tail), ``deadline-spread`` (deadlines from
  1 ms to 30 s → a deterministic mix of 200s and 504s), ``contain``
  (duplicate-heavy set-semantics containment pairs → ContainmentCache).
* ``runner.py`` — closed-loop threaded replay through
  :class:`~repro.service.ServiceClient`; per-scenario p50/p95/p99 come
  from *server-side* histogram deltas (``/metrics`` before/after), so
  results are attributable even on a shared server.
* ``slo.py`` — declared objectives per scenario plus the regression
  check the CI gate runs against the checked-in ``BENCH_load.json``.

CLI: ``bagcq loadgen`` replays scenarios, ``bagcq slo`` checks a run
against the objectives/baseline.  Experiment E18 (``benchmarks/test_bench_e18_load.py``)
records the checked-in baseline.
"""

from repro.loadgen.runner import RequestOutcome, ScenarioResult, run_scenario
from repro.loadgen.scenarios import (
    SCENARIO_NAMES,
    ScheduledRequest,
    Scenario,
    build_scenario,
)
from repro.loadgen.slo import (
    DEFAULT_SLOS,
    ScenarioSLO,
    check_regression,
    evaluate_slo,
)

__all__ = [
    "DEFAULT_SLOS",
    "RequestOutcome",
    "SCENARIO_NAMES",
    "Scenario",
    "ScenarioResult",
    "ScenarioSLO",
    "ScheduledRequest",
    "build_scenario",
    "check_regression",
    "evaluate_slo",
    "run_scenario",
]
