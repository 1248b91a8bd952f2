"""The three workloads, driven through the program's public API.

Every workload has the same shape: set up (timed as ``setup_s``), run a
timed phase of operations, then check every output against an independent
reference.  Each operation ends in one of :data:`measures.OUTCOMES`.

* ``compile_zoo`` — operations are the ten cold builds (five zoo models for
  ``cuda`` and ``arm_cpu``), each compiled and executed once in a closed
  loop.  The fallback configuration search dominates; the runtime idles.
* ``tune_resnet18`` — one ``repro.autotune`` session over resnet-18/cuda;
  latency operations are its measured trial batches, outcome operations
  are its tasks plus the tuned build's output check.
* ``serve_dqn_procpool`` — dqn served on worker processes under open-loop
  Poisson load; admission, batching, IPC and shm copies dominate.

Each workload also compiles its builds cold and then warm, for the
per-layer ``compiler.cold_compile_s`` and ``compiler.warm_compile_s``.
"""

from __future__ import annotations

import hashlib
import math
import os
import time
from contextlib import nullcontext
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from .host import (CpuClock, HostSpeed, ScaledStopwatch,
                   process_peak_rss_mb)
from .measures import Outcomes, median
from .reference import evaluate_graph, outputs_match
from .tracing import Tracer

ZOO_MODELS = ("resnet-18", "mobilenet", "dqn", "dcgan", "lstm-lm")
ZOO_TARGETS = ("cuda", "arm_cpu")

#: set-up is repeated this often where it is cheap, and the median kept
SETUP_REPEATS = 3
#: warm recompile rounds per run, a fixed number so that the per-layer
#: call counts repeat; ``compiler.warm_compile_s`` is their median
WARM_ROUNDS = 20

#: tuning session size: two random batches train the cost model, the third
#: batch comes from simulated annealing over its predictions
TUNE_TRIALS = 12
TUNE_BATCH = 4
TUNE_SA_STEPS = 4


class Run:
    """Measurements and checks of one benchmark run."""

    def __init__(self, seed: int, seconds: float, nproc: int,
                 out_dir: Path, tracer: Optional[Tracer] = None):
        self.seed = seed
        self.seconds = seconds
        self.nproc = nproc
        self.out_dir = out_dir
        self.tracer = tracer
        self.outcomes = Outcomes()
        self.setup_s: Optional[float] = None
        self.compile_cold_s: Optional[float] = None
        self.compile_warm_s: Optional[float] = None
        self.work_s: Optional[float] = None
        #: latency of every attempted operation in due order, ms (inf when
        #: unserved); the tail is the median over this many slices of it
        self.latencies_ms: List[float] = []
        self.tail_segments = 1
        self.goodput_rps: Optional[float] = None
        #: scale from measured to nominal-host wall times, already applied
        #: to ``work_s``, the latencies and ``goodput_rps``; None where the
        #: phase is mostly waiting (serving) and is reported as measured
        self.host_factor: Optional[float] = None
        self.worker_peak_rss_mb = 0.0
        self.cpu_s: Optional[float] = None
        #: per-layer values read from the program (not from spans)
        self.layers: Dict[str, float] = {}
        self.pass_s: Dict[str, float] = {}
        self.kernels = 0
        self.eval_cache: Dict[str, Dict[str, int]] = {}
        #: exact-repeat behaviour: simulated times, tuning curves, configs
        self.fingerprint: Dict[str, object] = {}
        self.problems: List[str] = []
        self.details: Dict[str, object] = {}

    def span(self, name: str, request: Optional[int] = None):
        if self.tracer is None:
            return nullcontext()
        return self.tracer.span(name, request)

    def problem(self, message: str) -> None:
        """A wrong output or a broken fingerprint: the run fails."""
        self.problems.append(message)

    # -- calls into the program, each inside a span on traced runs --------
    def build(self, name: str):
        from repro.frontend.models import get_model

        with self.span("frontend.build"):
            return get_model(name)

    def compile(self, model, target: str):
        import repro

        with self.span("compiler.compile"):
            module = repro.compile(model, target=target)
        for name, seconds in module.pass_timings().items():
            self.pass_s[name] = self.pass_s.get(name, 0.0) + seconds
        return module

    def execute(self, module, inputs) -> List[np.ndarray]:
        import repro

        with self.span("executor.run"):
            return [out.asnumpy() for out in repro.Executor(module)(inputs)]

    def warm_compiles(self, builds: List[Tuple[object, str, float]]) -> None:
        """Median over rounds of recompiling ``builds``
        (model, target, expected simulated seconds) with warm caches.  A
        recompile must simulate exactly as the first compile did."""
        rounds: List[float] = []
        for _ in range(WARM_ROUNDS):
            start = time.perf_counter()
            modules = [self.compile(model, target)
                       for model, target, _ in builds]
            rounds.append(time.perf_counter() - start)
            for module, (_, target, expected) in zip(modules, builds):
                if module.total_time != expected:
                    self.problem(f"warm recompile for {target} simulates "
                                 f"{module.total_time!r} s, the first "
                                 f"compile {expected!r} s")
        self.compile_warm_s = median(rounds)


def normalise(run: Run, speed: HostSpeed, phase_s: float,
              op_ms: List[Tuple[int, float]]) -> None:
    """Store the phase's wall times scaled to the nominal host speed: each
    operation by the probes around it, the rest of the phase (between the
    operations) by the median probe."""
    run.host_factor = speed.factor()
    run.latencies_ms = [ms * speed.local_factor(i) for i, ms in op_ms]
    timed_ms = [(raw, scaled) for (_, raw), scaled
                in zip(op_ms, run.latencies_ms) if math.isfinite(raw)]
    rest_s = phase_s - sum(raw for raw, _ in timed_ms) / 1e3
    run.work_s = sum(scaled for _, scaled in timed_ms) / 1e3 \
        + rest_s * run.host_factor
    run.details["unnormalised"] = {"work_s": phase_s,
                                   "latencies_ms": [ms for _, ms in op_ms]}
    run.details["host_factor"] = run.host_factor
    run.details["probe_ms"] = [s * 1e3 for s in speed.samples]


def repeated_setup(run: Run, build: Callable[[Callable[[], None]], object],
                   discard: Optional[Callable[[object], None]] = None,
                   repeats: int = SETUP_REPEATS):
    """Run ``build(step)`` ``repeats`` times and return its last result;
    ``setup_s`` is the median time, scaled to the nominal host speed step
    by step (``host.ScaledStopwatch``): a long ``build`` calls ``step``
    between its parts.  ``discard`` releases each earlier result, untimed,
    before the next repeat starts."""
    raw, scaled = [], []
    result = None
    for repeat in range(repeats):
        if repeat and discard is not None:
            discard(result)
        watch = ScaledStopwatch()
        result = build(watch.step)
        watch.step()
        raw.append(watch.raw_s)
        scaled.append(watch.scaled_s)
    run.setup_s = median(scaled)
    run.details["unnormalised_setup_s"] = median(raw)
    return result


def random_inputs(model, rng: np.random.Generator) -> Dict[str, np.ndarray]:
    """Seeded data for every graph input that is not a parameter."""
    _graph, params, shapes = model
    return {name: rng.standard_normal(shape).astype("float32")
            for name, shape in sorted(shapes.items()) if name not in params}


def input_name(model) -> str:
    """The one graph input that is not a parameter."""
    _graph, params, shapes = model
    name, = [name for name in shapes if name not in params]
    return name


def eval_cache_counters() -> Dict[str, Dict[str, int]]:
    from repro.autotvm import eval_cache_stats

    return eval_cache_stats()


def geomean(values: List[float]) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))


# ---------------------------------------------------------------------------
# compile_zoo
# ---------------------------------------------------------------------------

def compile_zoo(run: Run) -> None:
    from repro.graph import clear_timing_cache

    models = repeated_setup(
        run, lambda _step: {name: run.build(name) for name in ZOO_MODELS})

    rng = np.random.default_rng(run.seed)
    inputs = {name: random_inputs(models[name], rng) for name in ZOO_MODELS}
    # Before any compile: the passes rewrite the frontend graph in place.
    expected = {name: evaluate_graph(models[name][0], models[name][1],
                                     inputs[name])
                for name in ZOO_MODELS}

    clear_timing_cache()
    builds = []                 # (name, target, module, outputs)
    compile_s = []
    speed = HostSpeed()
    probing = 0.0
    op_ms: List[Tuple[int, float]] = []     # (probe before it, latency)
    cpu = CpuClock()
    phase_start = time.perf_counter()
    for name in ZOO_MODELS:
        for target in ZOO_TARGETS:
            probing += speed.sample()
            start = time.perf_counter()
            try:
                module = run.compile(models[name], target)
                compiled = time.perf_counter()
                outputs = run.execute(module, inputs[name])
            except Exception as exc:    # a failed operation, not a crash
                run.outcomes.add("failed")
                op_ms.append((len(speed.samples) - 1, math.inf))
                run.details.setdefault("errors", []).append(
                    f"{name}/{target}: {exc!r}")
                continue
            compile_s.append(compiled - start)
            op_ms.append((len(speed.samples) - 1,
                          (time.perf_counter() - start) * 1e3))
            builds.append((name, target, module, outputs))
    probing += speed.sample()
    run.cpu_s = cpu.elapsed() - probing
    run.eval_cache = eval_cache_counters()
    run.compile_cold_s = sum(compile_s)
    normalise(run, speed, time.perf_counter() - phase_start - probing, op_ms)

    sims = {}
    for name, target, module, outputs in builds:
        if outputs_match(outputs, expected[name]):
            run.outcomes.add("served")
        else:
            run.outcomes.add("mismatch")
            run.problem(f"{name}/{target} output differs from the graph "
                        f"reference")
        sims[f"{name}/{target}"] = module.total_time
        run.kernels += len(module.kernels)
    run.goodput_rps = run.outcomes.counts["served"] / run.work_s
    run.details["unnormalised"]["goodput_rps"] = \
        run.outcomes.counts["served"] / run.details["unnormalised"]["work_s"]
    run.fingerprint["sim_s"] = sims
    if sims:
        run.details["zoo_sim_ms"] = geomean(list(sims.values())) * 1e3
    run.warm_compiles([(models[name], target, module.total_time)
                       for name, target, module, _ in builds])


# ---------------------------------------------------------------------------
# tune_resnet18
# ---------------------------------------------------------------------------

def curve_digest(report) -> str:
    digest = hashlib.sha256()
    for result in report.results:
        digest.update(result.task_name.encode())
        digest.update(repr([f"{v:.12e}" for v in result.curve]).encode())
    return digest.hexdigest()


def tune_resnet18(run: Run) -> None:
    import repro
    from repro.autotvm import TuningOptions
    from repro.graph import clear_timing_cache

    model = repeated_setup(run, lambda _step: run.build("resnet-18"))
    inputs = random_inputs(model, np.random.default_rng(run.seed))
    expected = evaluate_graph(model[0], model[1], inputs)

    speed = HostSpeed()
    batches: List[Tuple[float, float]] = []    # (measured, resumed) times
    probing = 0.0
    invalid_trials = 0

    def on_batch(event) -> None:
        nonlocal invalid_trials, probing
        measured = time.perf_counter()
        invalid_trials += sum(not math.isfinite(t) for t in event.batch_times)
        probing += speed.sample()
        batches.append((measured, time.perf_counter()))

    options = TuningOptions(trials=TUNE_TRIALS, batch_size=TUNE_BATCH,
                            tuner="model", n_parallel=run.nproc,
                            seed=run.seed,
                            tuner_args={"sa_steps": TUNE_SA_STEPS},
                            callbacks=(on_batch,))
    clear_timing_cache()
    speed.sample()
    cpu = CpuClock()
    start = time.perf_counter()
    with run.span("autotvm.session"):
        report = repro.autotune(model, target="cuda", options=options)
    session_s = time.perf_counter() - start - probing
    run.cpu_s = cpu.elapsed() - probing
    run.eval_cache = eval_cache_counters()
    op_ms = []
    previous = start
    for index, (measured, resumed) in enumerate(batches):
        op_ms.append((index, (measured - previous) * 1e3))
        previous = resumed
    normalise(run, speed, session_s, op_ms)
    run.goodput_rps = report.total_trials / run.work_s
    run.details["unnormalised"]["goodput_rps"] = \
        report.total_trials / session_s
    run.layers["autotvm.trials"] = report.total_trials
    run.layers["autotvm.invalid_trials"] = invalid_trials
    for result in report.results:
        run.outcomes.add("served" if math.isfinite(result.estimate)
                         else "failed")

    # The tuned build, compiled from empty in-process caches.
    clear_timing_cache()
    with report.apply_history_best():
        start = time.perf_counter()
        module = run.compile(model, "cuda")
        run.compile_cold_s = time.perf_counter() - start
        run.warm_compiles([(model, "cuda", module.total_time)])
    run.kernels = len(module.kernels)
    if outputs_match(run.execute(module, inputs), expected):
        run.outcomes.add("served")
    else:
        run.outcomes.add("mismatch")
        run.problem("tuned resnet-18/cuda output differs from the graph "
                    "reference")
    run.details["tuned_sim_ms"] = module.total_time * 1e3
    run.details["tuned_kernels"] = module.tuned_kernels
    run.fingerprint.update({
        "curve_sha256": curve_digest(report),
        "best_config_indices": {r.task_name: r.best_config.index
                                for r in report.results},
        "tuned_sim_s": module.total_time,
        "trials": report.total_trials,
    })


# ---------------------------------------------------------------------------
# Serving: an open-loop generator driving engine.submit directly
# ---------------------------------------------------------------------------

#: requests still unresolved this long after the last due time are hung
HANG_GRACE_S = 30.0
#: solo requests served before timing starts, after the batch-size warm-up
WARMUP_REQUESTS = 4
#: the first request is due this long after the generator starts
START_LEAD_S = 0.05
#: the request tail is the median of this many consecutive slices' tails
TAIL_SEGMENTS = 3
#: open-loop Poisson load well below the host's capacity: one dqn request
#: executes in a few ms, so per-request serving costs dominate
SERVE_RATE_RPS = 25.0
SERVE_DEADLINE_MS = 250.0
SERVE_MAX_BATCH = 8
#: one serving set-up takes ~9 s, most of it the per-batch-size estimates,
#: so it is repeated only twice to keep the runs within their time budget
SERVE_SETUP_REPEATS = 2
#: served outputs are compared bit for bit with solo runs on these inputs
SERVE_DISTINCT_INPUTS = 16


def _classify(error: BaseException) -> str:
    from repro.runtime.serving import (DeadlineExceeded, QueueFull,
                                       RequestCancelled)

    if isinstance(error, QueueFull):
        return "shed"
    if isinstance(error, DeadlineExceeded):
        return "expired"
    if isinstance(error, RequestCancelled):
        return "cancelled"
    return "failed"


def open_loop(run: Run, engine, trace, input_name: str,
              inputs: List[np.ndarray], expected: List[List[np.ndarray]]
              ) -> Dict[str, object]:
    """Submit every trace request at its due time from this one thread,
    then collect and classify every outcome.

    Latency runs from the request's due time, so a late generator or a
    stalled ``submit`` shows up as latency.  The engine's deadline is the
    trace deadline less the generator's lateness, so both measure from the
    due time.
    """
    records = []
    base = time.monotonic() + START_LEAD_S
    for request in trace:
        due = base + request.arrival_s
        delay = due - time.monotonic()
        if delay > 0:
            with run.span("generator.idle", request.index):
                time.sleep(delay)
        sent = time.monotonic()
        record = {"index": request.index, "due": due, "sent": sent,
                  "deadline_ms": request.deadline_ms, "future": None,
                  "outcome": None, "submit_s": 0.0}
        records.append(record)
        budget_ms = request.deadline_ms - (sent - due) * 1e3
        if budget_ms <= 0:
            record["outcome"] = "expired"
            continue
        slot = request.index % len(inputs)
        try:
            with run.span("serving.submit", request.index):
                start = time.perf_counter()
                record["future"] = engine.submit({input_name: inputs[slot]},
                                                 deadline_ms=budget_ms)
                record["submit_s"] = time.perf_counter() - start
        except Exception as exc:        # classified, never raised
            record["outcome"] = _classify(exc)

    give_up = (base + trace.duration_s) + HANG_GRACE_S
    with run.span("generator.collect"):
        _collect(run, records, give_up, inputs, expected)
    return {"records": records, "base": base}


def _collect(run: Run, records, give_up: float, inputs, expected) -> None:
    """Wait for every submitted request and classify how it ended."""
    for record in records:
        future = record["future"]
        if future is None:
            continue
        try:
            outputs = future.result(timeout=max(give_up - time.monotonic(),
                                                0.0))
        except TimeoutError:
            future.cancel()
            record["outcome"] = "hung"
            continue
        except Exception as exc:        # classified, never raised
            record["outcome"] = _classify(exc)
            continue
        slot = record["index"] % len(inputs)
        same = len(outputs) == len(expected[slot]) and all(
            np.array_equal(a, b) for a, b in zip(outputs, expected[slot]))
        record["outcome"] = "served" if same else "mismatch"
        if not same:
            run.problem(f"request {record['index']} is not bit-identical "
                        f"to a solo Executor run")
        record["done"] = (record["sent"] + record["submit_s"]
                          + future.wall_latency)
        record["latency_ms"] = (record["done"] - record["due"]) * 1e3


def serve_dqn_procpool(run: Run) -> None:
    import repro
    from repro.graph import clear_timing_cache
    from repro.runtime.traffic import TraceSpec

    bundle = run.out_dir / f"dqn-{os.getpid()}.module"
    compile_s: List[float] = []

    def seeded_inputs(model, count: int) -> List[np.ndarray]:
        rng = np.random.default_rng(run.seed)
        return [random_inputs(model, rng)[input_name(model)]
                for _ in range(count)]

    def set_up(step: Callable[[], None]):
        # Each repeat does the same work: a cold compile, a fresh bundle and
        # freshly booted workers.
        clear_timing_cache()
        model = run.build("dqn")
        start = time.perf_counter()
        module = run.compile(model, "cuda")
        compile_s.append(time.perf_counter() - start)
        module.export(str(bundle))
        step()
        engine = repro.serve(str(bundle), devices=run.nproc,
                             max_batch=SERVE_MAX_BATCH, pool="process")
        try:
            step()
            # Each new batch size costs a lazy per-size estimate the first
            # time it forms; pay for all of them before timing starts.
            for size in range(1, SERVE_MAX_BATCH + 1):
                engine.estimated_batch_time(size)
                step()
            for x in seeded_inputs(model, WARMUP_REQUESTS):
                engine.infer({input_name(model): x})
        except BaseException:
            engine.shutdown()
            raise
        return model, module, engine

    try:
        model, module, engine = repeated_setup(
            run, set_up, discard=lambda built: built[2].shutdown(),
            repeats=SERVE_SETUP_REPEATS)
    except BaseException:
        bundle.unlink(missing_ok=True)
        raise
    run.compile_cold_s = median(compile_s)
    run.kernels = len(module.kernels)
    try:
        name = input_name(model)
        inputs = seeded_inputs(model, SERVE_DISTINCT_INPUTS)
        expected = [run.execute(module, {name: x}) for x in inputs]

        trace = TraceSpec(family="poisson", rate_rps=SERVE_RATE_RPS,
                          duration_s=run.seconds, seed=run.seed,
                          deadline_ms=SERVE_DEADLINE_MS).generate()
        before = engine.stats()
        pids = [w["pid"] for w in before.get("process_workers", [])]
        cpu = CpuClock(pids)
        loop = open_loop(run, engine, trace, name, inputs, expected)
        run.cpu_s = cpu.elapsed()
        after = engine.stats()
        for pid in pids:
            run.worker_peak_rss_mb = max(run.worker_peak_rss_mb,
                                         process_peak_rss_mb(pid))
    finally:
        engine.shutdown()
        bundle.unlink(missing_ok=True)

    records = loop["records"]
    served = [r for r in records if r["outcome"] == "served"]
    for record in records:
        run.outcomes.add(record["outcome"])
    run.latencies_ms = [r["latency_ms"] if r["outcome"] == "served"
                        else math.inf for r in records]
    run.tail_segments = TAIL_SEGMENTS
    good = sum(1 for r in served if r["latency_ms"] <= r["deadline_ms"])
    run.goodput_rps = good / trace.duration_s
    ends = [r["done"] for r in served] or [time.monotonic()]
    run.work_s = max(ends) - loop["base"]
    run.eval_cache = eval_cache_counters()
    _serving_layers(run, records, served, before, after)
    run.details["offered_rps"] = len(records) / trace.duration_s
    run.details["good_requests"] = good
    run.details["sim_ms"] = module.total_time * 1e3
    run.fingerprint["sim_s"] = module.total_time
    run.warm_compiles([(model, "cuda", module.total_time)])


def _serving_layers(run: Run, records, served, before, after) -> None:
    from .measures import tail

    layers = run.layers
    if served:
        waits = [r["future"].queue_wait * 1e3 for r in served]
        layers["serving.queue_wait_ms"] = median(waits)
        layers["serving.queue_wait_tail_ms"] = tail(waits).value
        layers["executor.execute_ms"] = median(
            r["future"].execute_latency * 1e3 for r in served)
    submitted = [r["submit_s"] for r in records if r["future"] is not None]
    if submitted:
        layers["serving.submit_us"] = median(submitted) * 1e6
    batches = after["batches"] - before["batches"]
    if batches:
        layers["serving.batch_size_mean"] = \
            (after["requests"] - before["requests"]) / batches
    layers["serving.shed"] = sum(r["outcome"] == "shed" for r in records)
    layers["serving.expired"] = sum(r["outcome"] == "expired"
                                    for r in records)
    layers["serving.generator_late_ms"] = max(
        (r["sent"] - r["due"]) * 1e3 for r in records) if records else 0.0
    workers = after.get("process_workers", [])
    if workers:
        start = {w["index"]: w for w in before["process_workers"]}
        layers["procpool.boot_s"] = sum(w["boot_s"] for w in workers)
        layers["procpool.respawns"] = sum(w["respawns"] for w in workers)
        for key in ("dispatch_wait_s", "shm_copy_s", "execute_s"):
            layers[f"procpool.{key}"] = sum(
                w[key] - start[w["index"]][key] for w in workers)


WORKLOADS: Dict[str, Callable[[Run], None]] = {
    "compile_zoo": compile_zoo,
    "tune_resnet18": tune_resnet18,
    "serve_dqn_procpool": serve_dqn_procpool,
}
