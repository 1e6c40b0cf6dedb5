"""mapnav benchmark: one workload, one process, one JSON result line.

    python3 bench/run.py --workload train --seed 1 --seconds 16 --trace 0

Runs against the ``mapnav`` sources in ``src/`` of the checkout this file
sits in. With ``--trace 0`` it sets the workload up (timing the set-up
several times), runs it for ``--seconds`` and prints the end-to-end metrics
of ``BENCHMARK.json``, with times scaled to the reference host speed of
``hostspeed.py`` (the times as measured are printed too, as ``<name>.wall``).
With ``--trace 1`` it runs units for half the time
untraced, replays the same units under the span tracer, checks that both
gave byte-identical outputs, and prints the per-layer metrics. Each metric
is printed as ``<name> <value> <unit>``; the last line is
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
"""
from __future__ import annotations

import argparse
import contextlib
import dataclasses
import gc
import json
import math
import os
import platform
import resource
import statistics
import sys
import traceback
from time import perf_counter

T_START = perf_counter()
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BLAS_THREADS = 1
SETUP_REPEATS = 3
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=("train", "eval", "gen-data"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="tiny model and inputs, for the benchmark's self-test")
    return p.parse_args(argv)


def machine_record(seed: int) -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": BLAS_THREADS, "seed": seed}


def run_units(wl, seconds: float, n_units: int | None = None, tracer=None) -> list:
    """Run units until ``seconds`` have passed and one group is complete, or
    exactly ``n_units`` units, checking each (untraced) after it ran, and
    timing the host speed reference between units. A unit that raises
    counts as one failed op."""
    import hostspeed
    from workloads import Unit
    units, host = [], [hostspeed.reference_ms()]
    t0 = perf_counter()
    while (len(units) < n_units if n_units is not None
           else len(units) < wl.group or perf_counter() - t0 < seconds):
        try:
            unit = wl.unit(len(units))
            with tracer.paused() if tracer else contextlib.nullcontext():
                unit.run_checks()
        except Exception:
            traceback.print_exc(file=sys.stderr)
            unit = Unit([], 0, failed=1, digest=b"raised",
                        notes=[f"unit {len(units)} raised"])
        units.append(unit)
        unit.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        host.append(hostspeed.reference_ms())
    for unit, before, after in zip(units, host, host[1:]):
        unit.host_ms = math.sqrt(before * after)
    return units


def at_reference_speed(units) -> list:
    """The units with their op times scaled to the reference host speed."""
    import hostspeed
    return [dataclasses.replace(u, op_ms=[x * hostspeed.NOMINAL_MS / u.host_ms
                                          for x in u.op_ms]) for u in units]


def late_checks(units):
    for u in units:
        u.run_checks(late=True)


def repeat_checks(units):
    """Units with the same key repeat the same work, so they must give the
    same outputs in the same number of ops."""
    first = {}
    for n, u in enumerate(units):
        if u.key is None or not u.op_ms:
            continue
        f = first.setdefault(u.key, u)
        if u.digest != f.digest or len(u.op_ms) != len(f.op_ms):
            u.failed += 1
            u.notes.append(f"unit {n} repeated pool entry {u.key} with other outputs")


def typical(units) -> list:
    """The run's distinct pieces of work, as (unit, op latencies in ms).
    Units with the same key repeat one piece of work in later passes over a
    pool; each of its ops is timed by its median over those passes, so that
    a burst of load from elsewhere on the host that slows one pass does not
    count. A unit without a key is its own piece of work."""
    same = {}
    for n, u in enumerate(units):
        if u.op_ms:
            same.setdefault(("unit", n) if u.key is None else u.key, []).append(u)
    return [(group[0], [statistics.median(ms) for ms in zip(*(u.op_ms for u in group))])
            for group in same.values()]


def op_ms(units, percentile: float) -> float:
    import numpy as np
    return float(np.percentile([x for _, ms in typical(units) for x in ms], percentile))


def rate(units, count: str) -> float:
    """Samples, episodes or records per second of typical op time."""
    work = typical(units)
    return sum(getattr(u, count) for u, _ in work) / (sum(sum(ms) for _, ms in work) / 1000.0)


def end_to_end(units, setup_s: float, group: int) -> dict:
    return {
        "setup_s": setup_s,
        "op_ms.p50": op_ms(units, 50),
        "op_ms.p90": op_ms(units, 90),
        "samples_per_s": rate(units, "samples"),
        "peak_rss_mb": units[group - 1].peak_rss_mb,
    }


def extras(units, wall: dict) -> dict:
    """Metrics that apply to some workloads only, and the time metrics as
    measured, before scaling to the reference host speed: name -> (value,
    unit)."""
    out = {f"{name}.wall": (wall[name], unit) for name, unit in
           (("setup_s", "s"), ("op_ms.p50", "ms"), ("op_ms.p90", "ms"),
            ("samples_per_s", "1/s"))}
    out["host.reference_ms"] = (statistics.median(u.host_ms for u in units), "ms")
    out["ops"] = (sum(len(u.op_ms) for u in units), "count")
    out["failed_frac"] = (sum(u.failed for u in units) / sum(u.attempted for u in units),
                          "fraction")
    units = at_reference_speed(units)
    if any(u.episodes for u in units):
        out["episodes_per_s"] = (rate(units, "episodes"), "1/s")
    if any(u.records for u in units):
        out["records_per_s"] = (rate(units, "records"), "1/s")
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        print("error: --seed must be non-negative and --seconds positive", file=sys.stderr)
        return 2
    for var in BLAS_ENV:
        os.environ[var] = str(BLAS_THREADS)
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "mapnav", "__init__.py")):
        print(f"error: no mapnav sources under {src}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    sys.path.insert(0, src)
    import mapnav
    if not os.path.abspath(mapnav.__file__).startswith(src + os.sep):
        print(f"error: imported mapnav from {mapnav.__file__}, not {src}", file=sys.stderr)
        return 2
    import hostspeed
    import workloads
    import tracing

    workdir = os.path.join(ROOT, ".bench_build")
    os.makedirs(workdir, exist_ok=True)
    import_s = perf_counter() - T_START
    wl = workloads.WORKLOADS[args.workload](args.seed, args.tiny, workdir)
    notes = []
    try:
        host = [hostspeed.reference_ms()]
        setup_wall, setup_scaled = [], []
        for _ in range(1 if args.trace else SETUP_REPEATS):
            # The autodiff tape is cyclic garbage. Collect what the previous
            # set-up and warm-up left, which one run of the program would not
            # have; measured ops run under the interpreter's default GC.
            gc.collect()
            t0 = perf_counter()
            wl.setup()
            wl.warm_up()
            setup_wall.append(perf_counter() - t0)
            host.append(hostspeed.reference_ms())
            setup_scaled.append(setup_wall[-1] * hostspeed.NOMINAL_MS
                                / math.sqrt(host[-2] * host[-1]))
        gc.collect()
        wl.reset()
        correct = True
        if not args.trace:
            units = measured = run_units(wl, args.seconds)
            repeat_checks(units)
            metrics = end_to_end(at_reference_speed(units),
                                 import_s * hostspeed.NOMINAL_MS / host[0]
                                 + statistics.median(setup_scaled), wl.group)
            late_checks(units)
            wanted = spec["end_to_end"]
        else:
            plain = measured = run_units(wl, args.seconds / 2)
            repeat_checks(plain)
            plain_digest = [u.digest for u in plain] + [wl.final_digest()]
            late_checks(plain)
            tracer = tracing.Tracer()
            tracer.install()
            wl.reset()
            tracer.active = True
            try:
                traced = run_units(wl, 0, n_units=len(plain), tracer=tracer)
            finally:
                tracer.uninstall()
            repeat_checks(traced)
            traced_digest = [u.digest for u in traced] + [wl.final_digest()]
            late_checks(traced)
            agg = tracer.aggregate()
            metrics = tracer.metrics(agg, max(1, sum(len(u.op_ms) for u in traced)))
            metrics["trace.overhead_pct"] = 100.0 * (op_ms(at_reference_speed(traced), 50)
                                                     / op_ms(at_reference_speed(plain), 50) - 1.0)
            if traced_digest != plain_digest:
                correct = False
                notes.append("traced outputs differ from the untraced run")
            missing = tracer.uncalled(agg, args.workload)
            if missing:
                correct = False
                notes.append("mapped functions never called: " + ", ".join(missing))
            tracer.write(os.path.join(workdir, f"trace-{args.workload}-{args.seed}.jsonl"))
            units = plain + traced
            wanted = spec["per_layer"]
        summary = extras(measured, end_to_end(
            measured, import_s + statistics.median(setup_wall), wl.group))
    finally:
        wl.close()

    attempted = sum(u.attempted for u in units)
    failed = sum(u.failed for u in units)
    notes += [n for u in units for n in u.notes]
    for note in notes:
        print(f"check: {note}")
    print("machine " + json.dumps(machine_record(args.seed)))
    result = {}
    for m in wanted:
        value = metrics[m["name"]]
        print(f"{m['name']} {value:.6g} {m['unit']}")
        result[m["name"]] = {"value": value, "unit": m["unit"]}
    for name, (value, unit) in summary.items():
        print(f"{name} {value:.6g} {unit}")
    print(json.dumps({"correct": correct and failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": result}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
