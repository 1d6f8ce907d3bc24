"""The repository benchmark: DiGamma search workloads, measured end to end.

Run from the root of a checkout::

    python3 perfbench/run.py --workload edge-resnet18-2l --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all --seconds 35

One run sets up (``setup_s``: separate processes, median), makes its
inputs from ``--seed``, warms up, then runs correctness-gated searches
back to back for ``--seconds`` seconds (at least one per input seed).
With ``--trace 0`` it reports the end-to-end metrics; with ``--trace 1``
it alternates traced and untraced searches and reports the per-layer
metrics.  Human-readable lines come first; the last stdout line is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
Any failed search makes the exit code 1.  ``perfbench/NOTES.md`` explains
the workloads and every metric.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: Input seeds per run, derived from ``--seed``; quality and speed vary by
#: seed, so every run covers the same number of them.
SEEDS_PER_RUN = 10
#: Set-up samples per run (``setup_s`` is their median).
SETUP_PROBES = 5

#: (metric, unit) reported with ``--trace 0``.
END_TO_END = (
    ("evals_per_s", "1/s"),
    ("gen_ms_p50", "ms"),
    ("gen_ms_p90", "ms"),
    ("best_latency_cycles", "cycles"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

#: (metric, unit) reported with ``--trace 1``.
PER_LAYER = (
    ("optim.breed_ms_per_gen", "ms"),
    ("framework.search.self_us_per_eval", "us"),
    ("encoding.repair_us_per_eval", "us"),
    ("framework.evaluator.self_us_per_eval", "us"),
    ("framework.evaluator.design_hit_rate", "ratio"),
    ("cost.maestro.self_us_per_row", "us"),
    ("cost.maestro.row_requests", "count"),
    ("cost.maestro.l1_hit_rate", "ratio"),
    ("cost.vector_engine.us_per_row", "us"),
    ("cost.vector_engine.rows_priced", "count"),
    ("cost.persist.get_us", "us"),
    ("cost.persist.l2_hit_rate", "ratio"),
    ("cost.persist.put_us", "us"),
    ("cost.persist.flush_ms_per_gen", "ms"),
    ("framework.checkpoint.save_ms", "ms"),
    ("trace.overhead_ratio", "ratio"),
)


def machine() -> dict:
    return {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
    }


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def probe_setup(workload, cache_dir) -> float:
    """Seconds from starting ``setup_probe.py`` to its ready time."""
    command = [sys.executable, str(HERE / "setup_probe.py"), workload.name]
    if cache_dir is not None:
        command.append(str(cache_dir))
    start = time.time()
    completed = subprocess.run(
        command, capture_output=True, text=True, timeout=120, check=True
    )
    return float(completed.stdout.split()[-1]) - start


def layer_sample(record, tracer) -> dict:
    """Per-layer values of one traced search (times per unit of work)."""
    evals = record.evaluations
    generations = len(record.generation_ns)
    counters = record.counters
    rows = counters["layer_hits"] + counters["layer_misses"]
    total = tracer.total_ns.get
    calls = tracer.calls.get
    save_ns = total("framework.checkpoint.save", 0)
    return {
        "optim.breed_ms_per_gen": ratio(
            record.between_ns - save_ns, generations
        ) / 1e6,
        "framework.search.self_us_per_eval": ratio(
            tracer.self_ns("framework.search"), evals
        ) / 1e3,
        "encoding.repair_us_per_eval": ratio(total("encoding.repair", 0), evals)
        / 1e3,
        "framework.evaluator.self_us_per_eval": ratio(
            tracer.self_ns("framework.evaluator"), evals
        ) / 1e3,
        "cost.maestro.self_us_per_row": ratio(
            tracer.self_ns("cost.maestro"), rows
        ) / 1e3,
        "cost.vector_engine.us_per_row": ratio(
            total("cost.vector_engine", 0), counters["rows_priced"]
        ) / 1e3,
        "cost.persist.get_us": ratio(
            total("cost.persist.get", 0), calls("cost.persist.get", 0)
        ) / 1e3,
        "cost.persist.put_us": ratio(
            total("cost.persist.put", 0), calls("cost.persist.put", 0)
        ) / 1e3,
        "cost.persist.flush_ms_per_gen": ratio(
            total("cost.persist.flush", 0), generations
        ) / 1e6,
        "framework.checkpoint.save_ms": ratio(
            save_ns, calls("framework.checkpoint.save", 0)
        ) / 1e6,
    }


def counted_metrics(records) -> dict:
    """Counts and hit rates over one pass of the run's seeds (exact)."""
    sums: dict = {}
    for record in records:
        for key, value in record.counters.items():
            sums[key] = sums.get(key, 0) + value
    return {
        "framework.evaluator.design_hit_rate": ratio(
            sums["design_hits"], sums["design_hits"] + sums["design_misses"]
        ),
        "cost.maestro.row_requests": sums["layer_hits"] + sums["layer_misses"],
        "cost.maestro.l1_hit_rate": ratio(
            sums["layer_hits"], sums["layer_hits"] + sums["layer_misses"]
        ),
        "cost.vector_engine.rows_priced": sums["rows_priced"],
        "cost.persist.l2_hit_rate": ratio(
            sums["l2_hits"], sums["l2_hits"] + sums["l2_misses"]
        ),
    }


def measure(
    workload,
    seed: int,
    seconds: float,
    trace: bool,
    work_dir: Path,
    budget: int | None = None,
    seeds_per_run: int = SEEDS_PER_RUN,
    setup_probes: int = SETUP_PROBES,
) -> dict:
    """One benchmark run; returns the result object of the last line."""
    # Imported here: these modules import the program, whose sources main()
    # puts on sys.path first.
    from tracing import Tracer
    from workloads import BUDGET, POPULATION, Bench, SearchFailed

    bench = Bench(workload, work_dir, budget or BUDGET)
    seeds = [seed * seeds_per_run + index for index in range(seeds_per_run)]
    tracer = Tracer()
    plain, traced, samples = [], [], []
    attempted = failed = 0
    bench.prepare(seeds)
    setup = []
    if not trace:
        for _ in range(setup_probes):
            cache_dir = None
            if workload.store == "warm":
                cache_dir = bench.store_dir(seeds[0])
            elif workload.store == "cold":
                cache_dir = bench.fresh_dir("probe-store")
            setup.append(probe_setup(workload, cache_dir))
    bench.search(seeds[0], budget=3 * POPULATION)  # warm-up, not gated
    modes = (True, False) if trace else (False,)
    jobs = [(each, traced_search) for each in seeds for traced_search in modes]
    deadline = time.perf_counter() + seconds
    index = 0
    while index < len(jobs) or time.perf_counter() < deadline:
        search_seed, traced_search = jobs[index % len(jobs)]
        index += 1
        attempted += 1
        try:
            if traced_search:
                record = bench.search(search_seed, tracer)
                samples.append(layer_sample(record, tracer))
                traced.append(record)
            else:
                plain.append(bench.search(search_seed))
        except SearchFailed as error:
            failed += 1
            print(f"FAILED search: {error}", file=sys.stderr)

    metrics: dict = {}
    units = dict(PER_LAYER if trace else END_TO_END)
    if failed == 0 and not trace:
        # p90 per complete pass over the seeds (250 generations), then the
        # median over passes; p50 per search, then the median over searches.
        # A slow spell of the machine that covers a minority of the passes
        # or searches then moves no reported value.
        passes = [
            [ns / 1e6 for record in plain[start:start + len(seeds)]
             for ns in record.generation_ns]
            for start in range(0, len(plain) - len(seeds) + 1, len(seeds))
        ]
        by_seed: dict = {}
        for record in plain:
            by_seed.setdefault(record.seed, []).append(record)
        metrics = {
            # Per-seed medians first, so seeds searched twice weigh once.
            "evals_per_s": statistics.median(
                statistics.median(r.evals_per_s for r in records)
                for records in by_seed.values()
            ),
            "gen_ms_p50": statistics.median(
                statistics.median(record.generation_ns) / 1e6
                for record in plain
            ),
            "gen_ms_p90": statistics.median(
                statistics.quantiles(times, n=10)[8] for times in passes
            ),
            "best_latency_cycles": statistics.median(
                records[0].best_latency for records in by_seed.values()
            ),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            / 1024,
        }
    elif failed == 0:
        metrics = {
            name: statistics.median(sample[name] for sample in samples)
            for name in samples[0]
        }
        metrics.update(counted_metrics(traced[: len(seeds)]))
        # Each traced search runs right before an untraced one at its seed.
        metrics["trace.overhead_ratio"] = statistics.median(
            t.evals_per_s / p.evals_per_s for t, p in zip(traced, plain)
        )
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()
        },
    }


def run_all(args) -> int:
    """Every workload in its own process, one table at the end."""
    from workloads import WORKLOADS

    status = 0
    for name in WORKLOADS:
        command = [
            sys.executable, str(Path(__file__).resolve()),
            "--workload", name,
            "--seed", str(args.seed),
            "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ]
        completed = subprocess.run(command, capture_output=True, text=True)
        status |= completed.returncode
        sys.stderr.write(completed.stderr)
        lines = completed.stdout.strip().splitlines()
        if completed.returncode != 0 or not lines:
            print(f"{name}: FAILED (exit {completed.returncode})")
            continue
        result = json.loads(lines[-1])
        print(
            f"{name}: fail_ratio {result['failed'] / result['attempted']:.3f} "
            f"({result['failed']}/{result['attempted']} searches)"
        )
        for metric, entry in result["metrics"].items():
            print(f"  {metric:<40s} {entry['value']:>14.6g} {entry['unit']}")
    return 1 if status else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", required=True, help="a workload name or 'all'")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: program sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args)
    from workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        parser.error(f"unknown workload {args.workload!r}; one of {list(WORKLOADS)}")
    work_dir = ROOT / ".perfbench_work" / f"{workload.name}-{os.getpid()}"
    try:
        result = measure(
            workload, args.seed, args.seconds, bool(args.trace), work_dir
        )
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            work_dir.parent.rmdir()
        except OSError:
            pass  # another run still uses it
    print(json.dumps({"workload": workload.name, "machine": machine()}))
    print(
        f"fail_ratio {result['failed'] / result['attempted']:.3f} "
        f"({result['failed']} of {result['attempted']} searches failed)"
    )
    for metric, entry in result["metrics"].items():
        print(f"{metric} {entry['value']!r} {entry['unit']}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
