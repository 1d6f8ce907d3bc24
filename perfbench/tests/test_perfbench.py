"""Tests of the benchmark itself, with every workload at a tiny budget.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent
ROOT = BENCH_DIR.parent
for path in (str(ROOT / "src"), str(BENCH_DIR)):
    if path not in sys.path:
        sys.path.insert(0, path)

import run  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import POPULATION, WORKLOADS, Bench, SearchFailed  # noqa: E402

#: The initial population plus three bred generations.
BUDGET = 4 * POPULATION

#: Layer -> layers whose spans may directly contain it (None: top level).
PARENTS = {
    "framework.search": {None},
    "encoding.repair": {"framework.search"},
    "framework.evaluator": {"framework.search"},
    "cost.maestro": {"framework.evaluator"},
    "cost.vector_engine": {"cost.maestro"},
    "cost.persist.get": {"cost.maestro"},
    "cost.persist.put": {"cost.maestro"},
    "cost.persist.flush": {"cost.maestro"},
    "framework.checkpoint.save": {None},
}


def measure(name: str, trace: bool, work_dir: Path) -> dict:
    return run.measure(
        WORKLOADS[name],
        seed=0,
        seconds=0,
        trace=trace,
        work_dir=work_dir,
        budget=BUDGET,
        seeds_per_run=1,
        setup_probes=1,
    )


@pytest.fixture(scope="module", params=list(WORKLOADS))
def results(request, tmp_path_factory):
    """(end-to-end result, traced result) of one tiny run per workload."""
    work_dir = tmp_path_factory.mktemp(request.param)
    return (
        request.param,
        measure(request.param, False, work_dir / "plain"),
        measure(request.param, True, work_dir / "traced"),
    )


def test_benchmark_json_names_every_metric_and_workload():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} <= set(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(
        run.END_TO_END
    )
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(
        run.PER_LAYER
    )


def test_every_metric_is_emitted_with_its_unit(results):
    _, plain, traced = results
    for result, expected in ((plain, run.END_TO_END), (traced, run.PER_LAYER)):
        assert result["correct"] and result["failed"] == 0
        assert result["attempted"] >= 1
        emitted = {
            name: entry["unit"] for name, entry in result["metrics"].items()
        }
        assert emitted == dict(expected)
    for entry in plain["metrics"].values():
        assert entry["value"] > 0
    for entry in traced["metrics"].values():
        assert entry["value"] >= 0


def test_warm_store_serves_every_row(results):
    name, _, traced = results
    if name != "edge-resnet18-l2warm":
        pytest.skip("warm-store workload only")
    metrics = traced["metrics"]
    assert metrics["cost.vector_engine.rows_priced"]["value"] == 0
    assert metrics["cost.persist.l2_hit_rate"]["value"] >= 0.9


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_spans_nest_and_checkpoints_follow_generations(name, tmp_path):
    bench = Bench(WORKLOADS[name], tmp_path, BUDGET)
    bench.prepare([0])
    tracer = Tracer()
    record = bench.search(0, tracer)
    generations = BUDGET // POPULATION - 1
    assert len(record.generation_ns) == generations
    assert tracer.calls["framework.search"] == generations + 1
    saves = tracer.calls.get("framework.checkpoint.save", 0)
    assert saves == (generations if WORKLOADS[name].checkpoint else 0)
    for layer in tracer.calls:
        assert tracer.self_ns(layer) >= 0, layer
    children: dict = {}
    for (parent, child), ns in tracer.edges.items():
        assert parent in PARENTS[child], (parent, child)
        children[parent] = children.get(parent, 0) + ns
    for parent, ns in children.items():
        assert ns == tracer.child_ns[parent] <= tracer.total_ns[parent]
    for child in tracer.calls:
        if None not in PARENTS[child]:
            assert sum(
                ns for (_, c), ns in tracer.edges.items() if c == child
            ) == tracer.total_ns[child], child


def test_gate_rejects_a_diverging_search(tmp_path):
    bench = Bench(WORKLOADS["edge-resnet18-2l"], tmp_path, BUDGET)
    record = bench.search(3)
    record.history = record.history[:-1]
    with pytest.raises(SearchFailed, match="history"):
        bench.check(record)


def test_exits_non_zero_without_the_program(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / BENCH_DIR.name)
    completed = subprocess.run(
        [sys.executable, f"{BENCH_DIR.name}/run.py", "--workload",
         "edge-resnet18-2l", "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert completed.returncode != 0
    assert completed.stdout == ""
