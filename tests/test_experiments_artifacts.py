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


def _raw_section(heading_prefix: str) -> str:
    """The EXPERIMENTS.md section whose ``## `` heading starts with the
    prefix, up to the next ``## `` heading, line breaks kept."""
    text = (ROOT / "EXPERIMENTS.md").read_text(encoding="utf-8")
    match = re.search(
        rf"^## {re.escape(heading_prefix)}.*?(?=^## )",
        text,
        flags=re.MULTILINE | re.DOTALL,
    )
    assert match, f"EXPERIMENTS.md has no section {heading_prefix!r}"
    return match.group(0)


def _section(heading_prefix: str) -> str:
    """The section as one line, whitespace runs collapsed."""
    return " ".join(_raw_section(heading_prefix).split())


def _table(section: str, header_start: str) -> list[list[str]]:
    """The whitespace-split rows of the fenced table whose header line
    starts with ``header_start`` (the header itself excluded)."""
    lines = section.splitlines()
    start = next(
        index for index, line in enumerate(lines)
        if line.startswith(header_start)
    )
    rows = []
    for line in lines[start + 1:]:
        if line.startswith("```"):
            return rows
        rows.append(line.split())
    raise AssertionError(f"table {header_start!r} is not closed")


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


def test_e16_quotes_bench_planner():
    section = _raw_section("E16")
    artifact = _artifact("BENCH_planner.json")

    expected_rows = [
        [
            row["shape"],
            str(row["domain_size"]),
            ",".join(row["planned_engines"]),
            f"{row['auto_ms']:.2f}",
            f"{row['backtracking_ms']:.1f}",
            f"{row['speedup']:.1f}x",
            str(row["agree"]),
        ]
        for row in artifact["rows"]
    ]
    assert _table(section, "shape ") == expected_rows

    regret = artifact["regret"]
    columns = ("backtracking", "treewidth", "compiled", "acyclic")
    expected_cells = [
        [
            cell["cell"],
            cell["picked"],
            f"{cell['auto_ms']:.1f}",
            cell["fastest"],
            f"{cell['best_ms']:.1f}",
            f"{cell['regret']:.2f}",
            *(
                f"{cell['engine_ms'][engine]:.1f}"
                if engine in cell["engine_ms"] else "-"
                for engine in columns
            ),
        ]
        for cell in regret["cells"]
    ]
    assert _table(section, "cell ") == expected_cells

    totals = re.search(
        r"Σauto = ([\d.]+) ms against Σbest = ([\d.]+) ms, a ratio of"
        r" ([\d.]+); the worst cell is (\S+) at ([\d.]+)×",
        " ".join(section.split()),
    )
    assert totals, "E16 must quote its Σauto / Σbest ratio"
    worst = max(regret["cells"], key=lambda cell: cell["regret"])
    assert totals.groups() == (
        f"{regret['sum_auto_ms']:.1f}",
        f"{regret['sum_best_ms']:.1f}",
        f"{regret['ratio']:.2f}",
        worst["cell"],
        f"{worst['regret']:.2f}",
    )
