"""Names, units and clocks of every metric the benchmark reports.

``BENCHMARK.json`` lists the same names; a test keeps the two in step.
"""

END_TO_END = {                    # name -> (unit, clock)
    "setup_s": ("s", "wall"),
    "work_s": ("s", "wall"),
    "latency_p50_ms": ("ms", "wall"),
    "latency_tail_ms": ("ms", "wall"),
    "goodput_rps": ("1/s", "wall"),
    "ok_share": ("share", "count"),
    "peak_rss_mb": ("MB", "none"),
}

KERNEL_CATEGORIES = ("conv2d", "depthwise_conv2d", "dense")
PASSES = ("fold_constants", "simplify_inference", "alter_layout", "fuse_ops",
          "plan_memory")

#: per-layer metric -> unit; every traced run reports all of them, with 0
#: for a layer the workload bypasses
PER_LAYER = {
    "frontend.build_s": "s",
    **{f"compiler.pass_s.{name}": "s" for name in PASSES},
    "compiler.kernels": "count",
    "compiler.cold_compile_s": "s",
    "compiler.warm_compile_s": "s",
    "op_timing.kernel_time_calls": "count",
    "op_timing.kernel_time_self_s": "s",
    "tir.lower_calls": "count",
    "tir.lower_s": "s",
    "tir.features_calls": "count",
    "tir.features_s": "s",
    "eval_cache.lowered_hits": "count",
    "eval_cache.lowered_misses": "count",
    "eval_cache.lowered_hit_share": "share",
    "eval_cache.features_hits": "count",
    "eval_cache.features_misses": "count",
    "eval_cache.features_hit_share": "share",
    "autotvm.next_batch_s": "s",
    "autotvm.fit_calls": "count",
    "autotvm.fit_s": "s",
    "autotvm.predict_rows": "count",
    "autotvm.predict_s": "s",
    "autotvm.measure_s": "s",
    "autotvm.trials": "count",
    "autotvm.invalid_trials": "count",
    "executor.execute_ms": "ms",
    **{f"executor.kernel_s.{name}": "s"
       for name in KERNEL_CATEGORIES + ("other",)},
    "serving.queue_wait_ms": "ms",
    "serving.queue_wait_tail_ms": "ms",
    "serving.batch_size_mean": "count",
    "serving.submit_us": "us",
    "serving.shed": "count",
    "serving.expired": "count",
    "serving.generator_late_ms": "ms",
    "procpool.boot_s": "s",
    "procpool.dispatch_wait_s": "s",
    "procpool.shm_copy_s": "s",
    "procpool.execute_s": "s",
    "procpool.respawns": "count",
    "host.cpu_s": "s",
    "host.probe_ms": "ms",
    "trace.spans": "count",
    "trace.unattributed_share": "share",
    "trace.overhead_share": "share",
}

#: metrics where a larger value is better; for every other one, smaller is
HIGHER_IS_BETTER = frozenset({
    "goodput_rps", "ok_share",
    "eval_cache.lowered_hits", "eval_cache.features_hits",
    "eval_cache.lowered_hit_share", "eval_cache.features_hit_share",
    "autotvm.trials", "serving.batch_size_mean",
})
