"""EXPERIMENTS.md quotes the checked-in benchmark artifacts verbatim.

A benchmark rewrites its ``benchmarks/BENCH_*.json`` artifact on every
run; the prose that quotes it is edited by hand.  These tests fail when
the two drift apart, so a regenerated artifact cannot ship with stale
figures next to it.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _section(heading_prefix: str) -> str:
    """The EXPERIMENTS.md section whose ``## `` heading starts with the
    prefix, up to the next ``## `` heading."""
    text = (ROOT / "EXPERIMENTS.md").read_text(encoding="utf-8")
    match = re.search(
        rf"^## {re.escape(heading_prefix)}.*?(?=^## )",
        text,
        flags=re.MULTILINE | re.DOTALL,
    )
    assert match, f"EXPERIMENTS.md has no section {heading_prefix!r}"
    return " ".join(match.group(0).split())


def _artifact(name: str) -> dict:
    return json.loads((ROOT / "benchmarks" / name).read_text(encoding="utf-8"))


def test_e22_quotes_bench_shard():
    section = _section("E22")
    artifact = _artifact("BENCH_shard.json")
    baseline = re.search(
        r"Checked-in baseline \((\d+) CPUs?\): speedups ([\d.]+)×/([\d.]+)×"
        r".*?cold ([\d.]+) ms → warm ([\d.]+) ms → post-restore ([\d.]+) ms"
        r" vs ([\d.]+) ms",
        section,
    )
    assert baseline, "E22 must quote its checked-in baseline"
    cpus, two, four, cold, warm, restored, amnesiac = baseline.groups()
    warm_start = artifact["warm_start"]
    assert int(cpus) == artifact["cpus"]
    assert [float(two), float(four)] == [
        artifact["speedups"]["2"],
        artifact["speedups"]["4"],
    ]
    assert [float(cold), float(warm), float(restored), float(amnesiac)] == [
        warm_start["cold_p95_ms"],
        warm_start["warm_p95_ms"],
        warm_start["post_restore_p95_ms"],
        warm_start["no_snapshot_restart_p95_ms"],
    ]
