"""One benchmark for bag-semantics counting, as a library call and as a service.

Run from the repository root::

    python3 perfbench/run.py --workload lib-distinct --seed 1 --seconds 12 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run.  The last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``; the lines above
it are a readable report, and the full record (environment, sample
counts, planner cell table) is written under ``.perfbench/``.  See
``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

WORKLOADS = ("lib-distinct", "lib-repeat", "serve-mixed")
#: Seed kept out of every run made while the benchmark or a change was
#: tuned; a claimed gain must also hold on it.
HELD_OUT_SEED = 90210
#: Set-up is repeated this many times per run (fresh processes) and the
#: median reported.
LIB_SETUP_SAMPLES = 5
SERVE_SETUP_SAMPLES = 3

#: Every per-layer metric, in the order BENCHMARK.json lists them.
PER_LAYER = (
    "queries.components_ms",
    "cache.key_ms",
    "cache.lookup_ms",
    "cache.hit_ratio",
    "cache.evictions",
    "planner.select_ms",
    "planner.regret",
    "planner.picks.compiled",
    "planner.picks.treewidth",
    "planner.picks.backtracking",
    "planner.picks.acyclic",
    "compiled.compile_ms",
    "compiled.run_ms",
    "engine.backtracking.ms",
    "engine.backtracking.calls",
    "engine.treewidth.ms",
    "engine.treewidth.calls",
    "engine.compiled.ms",
    "engine.compiled.calls",
    "engine.acyclic.ms",
    "engine.acyclic.calls",
    "delta.apply_ms",
    "delta.reuse_ratio",
    "delta.write_p50_ms",
    "service.encode_ms",
    "service.rtt_ms",
    "service.server_ms",
    "service.worker_ms",
    "service.queue_wait_ms",
    "service.transport_ms",
    "service.parse_ms",
    "service.serialize_ms",
    "service.coalesced_ratio",
    "service.shed",
    "service.traces_missed",
    "trace.overhead_ratio",
    "trace.unattributed_share",
)

E2E_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p99_ms": "ms",
    "peak_rss_mb": "MB",
}


def quantile(values, q: float) -> float:
    """Linear-interpolated quantile of a non-empty sample."""
    ordered = sorted(values)
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def layer_unit(name: str) -> str:
    if name.endswith("_ms") or name.endswith(".ms"):
        return "ms"
    if name.endswith(".calls") or name in (
        "cache.evictions", "service.shed", "service.traces_missed"
    ):
        return "count"
    return "ratio"


def source_digest(root: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def git_commit(root: Path) -> str | None:
    if not (root / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                             capture_output=True, text=True, timeout=10)
    except OSError:
        return None
    return out.stdout.strip() or None


def environment(root: Path, args) -> dict:
    return {
        "cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "git_commit": git_commit(root),
        "src_sha256": source_digest(root),
        "seed": args.seed,
        "held_out_seed": HELD_OUT_SEED,
        "traced": bool(args.trace),
        "seconds": args.seconds,
    }


def probe_setup(root: Path, args, samples: int) -> list[float]:
    """Library set-up measured again in ``samples`` fresh processes."""
    times = []
    for _ in range(samples):
        out = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload",
             args.workload, "--seed", str(args.seed), "--setup-probe"],
            cwd=root, capture_output=True, text=True, timeout=120,
        )
        if out.returncode != 0:
            raise RuntimeError(f"setup probe failed: {out.stderr.strip()}")
        times.append(json.loads(out.stdout.strip().splitlines()[-1])["setup_s"])
    return times


def lib_setup(args):
    """Import the library and warm it for the workload.

    Returns ``(setup seconds, state)``.  Input generation is excluded
    from the set-up time.
    """
    t0 = perf_counter()
    import repro  # noqa: F401
    import libwork
    import_s = perf_counter() - t0

    if args.workload == "lib-distinct":
        t1 = perf_counter()
        libwork.distinct_warmup(args.seed)
        return import_s + perf_counter() - t1, None
    pool = libwork.inputs.repeat_pool(args.seed)
    t1 = perf_counter()
    cache = libwork.repeat_warmup(pool)
    return import_s + perf_counter() - t1, (pool, cache)


def run_lib(root: Path, args) -> dict:
    setup_s, state = lib_setup(args)
    setup_samples = [setup_s] + probe_setup(root, args, LIB_SETUP_SAMPLES - 1)
    import libwork

    if args.workload == "lib-distinct":
        result = libwork.run_distinct(args.seed, args.seconds, bool(args.trace))
    else:
        pool, cache = state
        expected = libwork.repeat_references(pool)
        result = libwork.run_repeat(args.seed, args.seconds, bool(args.trace),
                                    pool, cache, expected)
    result["setup_samples"] = setup_samples
    return result


def end_to_end(result: dict) -> tuple[dict, dict]:
    """End-to-end metrics of the untraced loop, and the samples behind each."""
    latencies = result["latencies"]
    values = {
        "setup_s": statistics.median(result["setup_samples"]),
        "ops_per_s": result["untraced_ok"] / result["wall_s"],
        "latency_p50_ms": 1000.0 * quantile(latencies, 0.50),
        "latency_p99_ms": 1000.0 * quantile(latencies, 0.99),
        "peak_rss_mb": result["peak_rss_mb"],
    }
    samples = {
        "setup_s": len(result["setup_samples"]),
        "ops_per_s": result["untraced_ok"],
        "latency_p50_ms": len(latencies),
        "latency_p99_ms": len(latencies),
        "peak_rss_mb": 1,
    }
    return values, samples


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=12.0,
                        help="timed wall time of one run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print("perfbench: src/repro not found; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    # SIGTERM unwinds like Ctrl-C, so the server subprocess is stopped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if args.setup_probe:
        if args.workload == "serve-mixed":
            return 2
        setup_s, _ = lib_setup(args)
        print(json.dumps({"setup_s": setup_s}))
        return 0

    if args.workload == "serve-mixed":
        import servework

        result = servework.run_serve(
            root, args.seed, args.seconds, bool(args.trace),
            SERVE_SETUP_SAMPLES, root / ".perfbench",
        )
    else:
        result = run_lib(root, args)
    return report(root, args, result)


def report(root: Path, args, result: dict) -> int:
    """Print the readable report and the JSON line; write the record."""
    import tracing

    work = root / ".perfbench"
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {
        "workload": args.workload,
        "env": environment(root, args),
        "attempted": result["attempted"],
        "failed": result["failed"],
        "error_rate": result["failed"] / result["attempted"],
    }
    latencies = result["latencies"]
    e2e, samples = end_to_end(result)
    record["untraced"] = {
        "metrics": {k: {"value": v, "unit": E2E_UNITS[k], "samples": samples[k]}
                    for k, v in e2e.items()},
        "setup_samples_s": result["setup_samples"],
        "samples_beyond_p99": sum(
            1 for x in latencies if 1000.0 * x > e2e["latency_p99_ms"]
        ),
    }
    writes = result.get("write_latencies")
    if writes:
        record["untraced"]["metrics"]["write_p50_ms"] = {
            "value": 1000.0 * quantile(writes, 0.5), "unit": "ms",
            "samples": len(writes),
        }
    if args.trace:
        layers = result["layers"]
        unknown = set(layers) - set(PER_LAYER)
        if unknown:
            raise RuntimeError(f"unlisted per-layer metrics: {sorted(unknown)}")
        # A layer the workload does not run (or cannot see) reports 0.
        printed = {k: layers.get(k, 0.0) for k in PER_LAYER}
        record["layers"] = {k: {"value": v, "unit": layer_unit(k)}
                            for k, v in printed.items()}
        if "cell_table" in result:
            record["cell_table"] = result["cell_table"]
        # Sample count behind each span-based metric.
        record["span_calls"] = dict(tracing.LayerStats(result["spans"]).calls)
        spans_path = work / "traces" / f"{name}.json.gz"
        tracing.write_spans(spans_path, result["spans"])
        record["spans_file"] = str(spans_path.relative_to(root))
    else:
        printed = e2e
    results_path = work / "results" / f"{name}.json"
    results_path.parent.mkdir(parents=True, exist_ok=True)
    results_path.write_text(json.dumps(record, indent=1, sort_keys=True))

    correct = result["failed"] == 0
    env = record["env"]
    print(f"# {args.workload} seed={args.seed} traced={bool(args.trace)} "
          f"cpus={env['cpus']} python={env['python']} "
          f"commit={env['git_commit'] or '-'} src={env['src_sha256']}")
    print(f"# attempted={record['attempted']} failed={record['failed']} "
          f"error_rate={record['error_rate']:.6g} (ratio)")
    for key, entry in record["untraced"]["metrics"].items():
        print(f"{key:28s} {entry['value']:14.6g} {entry['unit']:6s} "
              f"samples={entry['samples']}")
    print(f"# samples beyond p99: {record['untraced']['samples_beyond_p99']}")
    if args.trace:
        for row in record.get("cell_table", []):
            print(f"cell {row['cell']:22s} picked={row['picked']:12s} "
                  f"{row['picked_ms']:9.3f} ms  fastest={row['fastest']:12s} "
                  f"{row['fastest_ms']:9.3f} ms  regret={row['regret']:.2f}")
        for key, entry in record["layers"].items():
            print(f"{key:28s} {entry['value']:14.6g} {entry['unit']}")
        print("# span calls: " + " ".join(
            f"{k}={v}" for k, v in sorted(record["span_calls"].items())))
    print(f"# record: {results_path.relative_to(root)}")
    units = {**E2E_UNITS, **{k: layer_unit(k) for k in PER_LAYER}}
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in printed.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
