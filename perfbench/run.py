"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload compile_zoo --seed 1 --seconds 30 \\
        --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end metrics of ``BENCHMARK.json``; with
``--trace 1`` the run is traced and the metrics are the per-layer ones.  The
line before it is a JSON record of the run: host, seed, clocks, tail
percentile, outcome counts and fingerprints.  A table of the metrics goes
to standard error.  Spans of a traced run are written as JSON lines to
``.perfbench/`` under the root.

End-to-end metrics, every one measured on every workload (see
``workloads.py`` for what an operation is on each):

===================  ========  =============================================
``setup_s``          wall      everything before the timed phase
``work_s``           wall      the timed phase: the ten cold compiles and
                               executions / the tuning session / from the
                               trace start to the last resolved request
``latency_p50_ms``   wall      median operation latency from its due time;
                               unserved operations count as infinite
``latency_tail_ms``  wall      highest percentile with at least ten
                               operations beyond it (the maximum with ten
                               or fewer operations); for requests, the
                               median of it over three consecutive slices
                               of the trace
``goodput_rps``      wall      operations served correctly per second of
                               the timed phase; for requests, those served
                               within their trace deadline per second of
                               the trace
``ok_share``         count     operations that succeeded / attempted
``peak_rss_mb``      —         peak RSS of this process, plus the largest
                               worker process's peak when there are workers
===================  ========  =============================================

On ``compile_zoo`` and ``tune_resnet18``, ``setup_s`` (model construction,
repeated three times), ``work_s``, the latencies and ``goodput_rps`` are
normalised to the nominal host speed: the benchmark
probes the host between operations (``host.HostSpeed``) and scales the
measured wall times by ``NOMINAL_PROBE_S`` over the probes, because other
tenants of a shared machine move pure computation by tens of percent.  The
measured values and the factor are in the run record.  Serving latency is
mostly waiting, so ``serve_dqn_procpool`` reports it unscaled; its
``setup_s`` (compile, export, worker boot and warm-up, repeated twice) is
computation and is scaled step by step.

``trace.overhead_share`` compares the traced run's host CPU with the median
of earlier untraced runs of the same workload and ``--seconds`` in this
checkout (``.perfbench/untraced-cpu-*.json``); it reads 0 until one exists.

``--seconds`` sets the length of the serving trace; the compile and tune
workloads do a fixed amount of work.  The exit code is 0 only when the run
completed and every output and fingerprint check passed.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

import atexit  # noqa: E402
import signal  # noqa: E402

from perfbench.host import pin_blas, stop_helper_processes  # noqa: E402

# Before numpy loads, here and in every spawned worker process.
pin_blas()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import time  # noqa: E402
from typing import Dict, List, Optional  # noqa: E402

from perfbench.catalog import (END_TO_END, KERNEL_CATEGORIES,  # noqa: E402
                               PER_LAYER)


def install_layer_spans(tracer) -> None:
    """Wrap the layer entry points that are reached only from inside
    another layer.  The program's files are not changed; the wrappers live
    for this process only."""
    import repro.compiler.driver as driver
    import repro.graph.op_timing as op_timing
    import repro.tir as tir
    from repro.autotvm.cost_model import GradientBoostedTrees
    from repro.autotvm.measure import LocalMeasurer
    from repro.autotvm.parallel import ParallelMeasurer
    from repro.autotvm.task import Task
    from repro.autotvm.tuner import ModelBasedTuner
    from repro.compiler.module import CompiledKernel
    from repro.runtime.procpool import ModuleWorkerPool

    def kernel_category(kernel, *_args, **_kwargs):
        op = kernel.group.master.op
        return {"op": op if op in KERNEL_CATEGORIES else "other"}

    tracer.wrap(driver, "kernel_time", "op_timing.kernel_time")
    tracer.wrap(op_timing, "kernel_time", "op_timing.kernel_time")
    tracer.wrap(Task, "lower", "tir.lower")
    tracer.wrap(tir, "extract_features", "tir.features")
    tracer.wrap(GradientBoostedTrees, "fit", "autotvm.fit")
    tracer.wrap(GradientBoostedTrees, "predict", "autotvm.predict",
                describe=lambda _self, features: {"rows": len(features)})
    tracer.wrap(ModelBasedTuner, "next_batch", "autotvm.next_batch")
    tracer.wrap(LocalMeasurer, "measure", "autotvm.measure",
                adopt_threads=True)
    tracer.wrap(ParallelMeasurer, "measure", "autotvm.measure",
                adopt_threads=True)
    tracer.wrap(CompiledKernel, "run", "executor.kernel",
                describe=kernel_category)
    tracer.wrap(ModuleWorkerPool, "run_batch", "procpool.run_batch")


def end_to_end_metrics(run) -> Dict[str, float]:
    from perfbench.host import peak_rss_mb
    from perfbench.measures import finite_ms, median, segmented_tail

    tail_ms, tails = segmented_tail(run.latencies_ms, run.tail_segments)
    run.details["latency_tail"] = [
        {"percentile": t.percentile, "samples": t.samples, "beyond": t.beyond,
         "value_ms": finite_ms(t.value)} for t in tails]
    return {
        "setup_s": run.setup_s,
        "work_s": run.work_s,
        "latency_p50_ms": finite_ms(median(run.latencies_ms)),
        "latency_tail_ms": finite_ms(tail_ms),
        "goodput_rps": run.goodput_rps,
        "ok_share": run.outcomes.ok_share,
        "peak_rss_mb": peak_rss_mb() + run.worker_peak_rss_mb,
    }


def per_layer_metrics(run, tracer, run_start: float, run_end: float,
                      untraced_cpu: List[float]) -> Dict[str, float]:
    from perfbench.host import NOMINAL_PROBE_S
    from perfbench.measures import median
    from perfbench.tracing import self_time_by_name, unattributed

    spans = tracer.spans
    own = self_time_by_name(spans)
    calls: Dict[str, int] = {}
    rows: Dict[str, int] = {}
    kernel_s: Dict[str, float] = {}
    for span in spans:
        calls[span["name"]] = calls.get(span["name"], 0) + 1
        attrs = span.get("attrs", {})
        if "rows" in attrs:
            rows[span["name"]] = rows.get(span["name"], 0) + attrs["rows"]
        if span["name"] == "executor.kernel":
            kernel_s[attrs["op"]] = kernel_s.get(attrs["op"], 0.0) \
                + span["end"] - span["start"]

    values = {name: 0.0 for name in PER_LAYER}
    values.update({
        "frontend.build_s": own.get("frontend.build", 0.0),
        "compiler.kernels": run.kernels,
        "compiler.cold_compile_s": run.compile_cold_s,
        "compiler.warm_compile_s": run.compile_warm_s,
        "op_timing.kernel_time_calls": calls.get("op_timing.kernel_time", 0),
        "op_timing.kernel_time_self_s": own.get("op_timing.kernel_time", 0.0),
        "tir.lower_calls": calls.get("tir.lower", 0),
        "tir.lower_s": own.get("tir.lower", 0.0),
        "tir.features_calls": calls.get("tir.features", 0),
        "tir.features_s": own.get("tir.features", 0.0),
        "autotvm.next_batch_s": own.get("autotvm.next_batch", 0.0),
        "autotvm.fit_calls": calls.get("autotvm.fit", 0),
        "autotvm.fit_s": own.get("autotvm.fit", 0.0),
        "autotvm.predict_rows": rows.get("autotvm.predict", 0),
        "autotvm.predict_s": own.get("autotvm.predict", 0.0),
        "autotvm.measure_s": own.get("autotvm.measure", 0.0),
        "host.cpu_s": run.cpu_s,
        "host.probe_ms": 0.0 if run.host_factor is None
        else NOMINAL_PROBE_S / run.host_factor * 1e3,
        "trace.spans": len(spans),
        "trace.unattributed_share":
            unattributed(spans, run_start, run_end) / (run_end - run_start),
    })
    for name, seconds in run.pass_s.items():
        if f"compiler.pass_s.{name}" in values:
            values[f"compiler.pass_s.{name}"] = seconds
    for op, seconds in kernel_s.items():
        values[f"executor.kernel_s.{op}"] = seconds
    for cache, counters in run.eval_cache.items():
        values[f"eval_cache.{cache}_hits"] = counters["hits"]
        values[f"eval_cache.{cache}_misses"] = counters["misses"]
        looked_up = counters["hits"] + counters["misses"]
        values[f"eval_cache.{cache}_hit_share"] = \
            counters["hits"] / looked_up if looked_up else 0.0
    run.details["eval_cache"] = run.eval_cache
    if "executor.execute_ms" not in run.layers:
        runs = [span["end"] - span["start"] for span in spans
                if span["name"] == "executor.run"]
        if runs:
            values["executor.execute_ms"] = median(runs) * 1e3
    values.update(run.layers)
    if untraced_cpu:
        values["trace.overhead_share"] = run.cpu_s / median(untraced_cpu) - 1
        run.details["trace_overhead_base_runs"] = len(untraced_cpu)
    else:
        run.details["trace_overhead_base_runs"] = 0
    return values


def load_json(path: Path, default):
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError):
        return default


def save_json(path: Path, value) -> None:
    temporary = path.with_suffix(".tmp")
    temporary.write_text(json.dumps(value, indent=1, sort_keys=True))
    os.replace(temporary, path)


def check_fingerprint(run, out_dir: Path, workload: str) -> None:
    """The same seed and the same program must give the same fingerprint in
    every run; the first run in a checkout records it."""
    from perfbench.host import source_digest

    store_path = out_dir / "fingerprints.json"
    store = load_json(store_path, {})
    key = f"{workload}:{run.seed}:{source_digest(ROOT / 'src')[:16]}"
    recorded = store.get(key)
    if recorded is None:
        store[key] = run.fingerprint
        save_json(store_path, store)
    elif recorded != json.loads(json.dumps(run.fingerprint)):
        run.problem(f"fingerprint differs from an earlier run with seed "
                    f"{run.seed}: {recorded} != {run.fingerprint}")
    run.details["fingerprint"] = run.fingerprint


def parse_args(argv: Optional[List[str]] = None) -> argparse.Namespace:
    from perfbench.workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: the program's sources (src/repro) are missing "
              f"under {ROOT}", file=sys.stderr)
        return 2
    from perfbench.host import host_record, nproc

    sys.path.insert(0, str(ROOT / "src"))
    from perfbench.tracing import Tracer
    from perfbench.workloads import WORKLOADS, Run

    out_dir = ROOT / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    tracer = Tracer() if args.trace else None
    run = Run(args.seed, args.seconds, nproc(), out_dir, tracer)
    run_start = time.perf_counter()
    if tracer is not None:
        install_layer_spans(tracer)
    try:
        WORKLOADS[args.workload](run)
    finally:
        if tracer is not None:
            tracer.unwrap_all()
    run_end = time.perf_counter()
    check_fingerprint(run, out_dir, args.workload)

    cpu_path = out_dir / (f"untraced-cpu-{args.workload}-"
                          f"{args.seconds:g}.json")
    if tracer is None:
        metrics = end_to_end_metrics(run)
        history = load_json(cpu_path, [])
        save_json(cpu_path, (history + [run.cpu_s])[-20:])
        units = {name: unit for name, (unit, _clock) in END_TO_END.items()}
        clocks = {name: clock for name, (_unit, clock) in END_TO_END.items()}
    else:
        metrics = per_layer_metrics(run, tracer, run_start, run_end,
                                    load_json(cpu_path, []))
        spans_path = out_dir / f"spans-{args.workload}-{args.seed}.jsonl"
        tracer.dump(spans_path)
        run.details["spans_file"] = str(spans_path.relative_to(ROOT))
        units, clocks = PER_LAYER, {}

    # Shed and expired requests are load outcomes; an operation that
    # raised, hung or answered wrongly is the program at fault.
    broken = {name: run.outcomes.counts[name]
              for name in ("mismatch", "failed", "hung")
              if run.outcomes.counts[name]}
    if broken:
        run.problem(f"operations that raised, hung or mismatched: {broken}")
    bad = [name for name, value in metrics.items()
           if value is None or not math.isfinite(value)]
    if bad:
        run.problem(f"metrics without a finite value: {bad}")
    for name in sorted(metrics):
        print(f"{name:<36} {metrics[name]!r:>24} {units[name]:<6} "
              f"{clocks.get(name, '')}", file=sys.stderr)

    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "host": host_record(ROOT), "clocks": clocks,
              "outcomes": run.outcomes.as_dict(), "problems": run.problems,
              **run.details}
    print(json.dumps(record, sort_keys=True, default=str))
    for problem in run.problems:
        print(f"perfbench: CHECK FAILED: {problem}", file=sys.stderr)
    correct = not run.problems
    print(json.dumps({
        "correct": correct,
        "attempted": run.outcomes.attempted,
        "failed": run.outcomes.failed,
        "metrics": {name: {"value": None if value is None else float(value),
                           "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    # Registered before the program is imported, so it runs after the
    # program's own exit hooks have shut its pools down.  A SIGTERM exits
    # the same way, through the workloads' clean-up and these hooks.
    atexit.register(stop_helper_processes)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    sys.exit(main())
