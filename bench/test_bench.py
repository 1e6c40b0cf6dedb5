"""Self-test of the benchmark at a tiny size.

    python3 -m pytest bench/test_bench.py

Every workload runs untraced and traced; each must print every metric of
``BENCHMARK.json`` with its unit, pass its output checks, and give the same
outputs traced and untraced.
"""
import json
import os
import shutil
import subprocess
import sys
from types import SimpleNamespace

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)

# Metrics that apply to some workloads only; printed, not in BENCHMARK.json.
EXTRAS = {
    "train": ("failed_frac",),
    "eval": ("failed_frac", "episodes_per_s"),
    "gen-data": ("failed_frac", "episodes_per_s", "records_per_s"),
}


def run_bench(workload, trace, cwd=ROOT, bench=BENCH):
    return subprocess.run(
        [sys.executable, os.path.join(bench, "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=600)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_prints_every_metric_and_passes_checks(workload, trace):
    proc = run_bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert result["correct"], proc.stdout
    assert result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    printed = {line.split(" ")[0]: line.split(" ") for line in lines[:-1]}
    for m in wanted:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert printed[m["name"]][-1] == m["unit"]
    for name in EXTRAS[workload]:
        assert name in printed
    if not trace:
        for m in SPEC["end_to_end"]:
            if m["unit"] in ("s", "ms", "1/s"):
                assert printed[m["name"] + ".wall"][-1] == m["unit"]
        assert float(printed["host.reference_ms"][1]) > 0
    assert float(printed["failed_frac"][1]) == 0.0
    machine = next(json.loads(line[len("machine "):]) for line in lines
                   if line.startswith("machine "))
    assert set(machine) == {"nproc", "python", "numpy", "blas", "blas_threads", "seed"}
    if trace:
        assert not any(line.startswith("check:") for line in lines)


def test_fails_without_program_sources():
    bare = os.path.join(ROOT, ".bench_build", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, os.path.join(bare, "bench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    try:
        proc = run_bench("gen-data", 0, cwd=bare, bench=os.path.join(bare, "bench"))
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_self_time_subtracts_child_spans():
    from tracing import Tracer
    tracer = Tracer()
    tracer.spans = [["outer", 0.0, 10.0, -1, None], ["inner", 2.0, 5.0, 0, None],
                    ["inner", 6.0, 7.0, 0, None], ["op.bwd", 7.0, 8.0, 0, "g_o"]]
    agg = tracer.aggregate()
    assert agg["outer"]["self"] == pytest.approx(5.0)
    assert agg["inner"]["calls"] == 2 and agg["inner"]["self"] == pytest.approx(4.0)
    assert agg["model.g_o.bwd"]["incl"] == pytest.approx(1.0)


def test_concurrent_gen_data_runs_keep_their_own_files():
    procs = [subprocess.Popen(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload", "gen-data",
         "--seed", str(seed), "--seconds", "1", "--trace", "0", "--tiny"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        for seed in (3, 4)]
    for proc in procs:
        out, err = proc.communicate(timeout=600)
        assert proc.returncode == 0, err
        assert json.loads(out.splitlines()[-1])["correct"], out
    assert not [n for n in os.listdir(os.path.join(ROOT, ".bench_build"))
                if n.startswith("gen-data")]


def test_repeated_work_is_timed_by_its_median_over_passes():
    import run
    units = [SimpleNamespace(key=0, op_ms=[1.0, 10.0], samples=2),
             SimpleNamespace(key=1, op_ms=[4.0], samples=1),
             SimpleNamespace(key=0, op_ms=[3.0, 30.0], samples=2),
             SimpleNamespace(key=0, op_ms=[2.0, 20.0], samples=2),
             SimpleNamespace(key=None, op_ms=[5.0], samples=1),
             SimpleNamespace(key=None, op_ms=[7.0], samples=1)]
    work = run.typical(units)
    assert sorted(ms for _, ms in work) == [[2.0, 20.0], [4.0], [5.0], [7.0]]
    assert run.rate(units, "samples") == pytest.approx(5 / 0.038)


def test_host_reference_leaves_the_collector_alone():
    import gc
    import hostspeed
    hostspeed.reference_ms()
    gc.collect()
    before = gc.get_count()[0]
    for _ in range(20):
        hostspeed.reference_ms()
    assert gc.get_count()[0] - before < 20
