"""Tests of the benchmark's own arithmetic and reference evaluator."""

import math
import time

import numpy as np
import pytest

from perfbench.measures import Outcomes, segmented_tail, tail
from perfbench.reference import evaluate_graph, outputs_match
from perfbench.tracing import (Tracer, self_time_by_name, self_times,
                               union_length, unattributed)


# -- the tail-percentile rule ------------------------------------------------

def test_tail_leaves_exactly_ten_samples_beyond():
    samples = list(range(1, 101))              # 1..100
    result = tail(samples)
    assert result.value == 90
    assert result.percentile == 90.0
    assert result.samples == 100
    assert result.beyond == 10
    assert sum(1 for s in samples if s > result.value) == 10


def test_tail_with_eleven_samples_is_the_smallest():
    result = tail([5.0, 1.0, 4.0, 2.0, 3.0, 9.0, 8.0, 7.0, 6.0, 11.0, 10.0])
    assert result.value == 1.0
    assert result.beyond == 10
    assert result.percentile == pytest.approx(100.0 / 11)


def test_tail_with_ten_or_fewer_samples_is_the_maximum():
    result = tail([3.0, 1.0, 2.0])
    assert (result.value, result.percentile, result.beyond) == (3.0, 100.0, 0)
    with pytest.raises(ValueError):
        tail([])


def test_tail_ranks_unserved_as_infinite():
    result = tail([1.0] * 20 + [math.inf] * 10)
    assert result.value == 1.0
    assert math.isinf(tail([1.0] * 20 + [math.inf] * 11).value)


def test_segmented_tail_is_the_median_of_slice_tails():
    # Three slices of 20; the middle one holds a stall of ten slow samples.
    samples = [1.0] * 20 + [1.0] * 9 + [50.0] * 11 + [2.0] * 20
    value, tails = segmented_tail(samples, 3)
    assert [t.value for t in tails] == [1.0, 50.0, 2.0]
    assert value == 2.0
    assert [t.samples for t in tails] == [20, 20, 20]
    with pytest.raises(ValueError):
        segmented_tail([1.0], 2)


def test_host_speed_scales_by_the_probes_around_an_operation():
    from perfbench.host import NOMINAL_PROBE_S, HostSpeed

    speed = HostSpeed()
    speed.samples = [NOMINAL_PROBE_S, 2 * NOMINAL_PROBE_S,
                     3 * NOMINAL_PROBE_S]
    assert speed.factor() == pytest.approx(0.5)
    assert speed.local_factor(0) == pytest.approx(1 / 1.5)
    assert speed.local_factor(1) == pytest.approx(1 / 2.5)
    assert speed.local_factor(2) == pytest.approx(1 / 3)
    assert speed.sample() > 0 and len(speed.samples) == 4


def test_stop_helper_processes_reaps_the_resource_tracker():
    import os
    from multiprocessing import resource_tracker, shared_memory

    from perfbench.host import stop_helper_processes

    segment = shared_memory.SharedMemory(create=True, size=64)
    segment.close()
    segment.unlink()
    pid = resource_tracker._resource_tracker._pid
    assert pid is not None
    stop_helper_processes()
    with pytest.raises(ChildProcessError):     # ended and already reaped
        os.waitpid(pid, os.WNOHANG)


def test_scaled_stopwatch_scales_each_step_by_its_own_probes(monkeypatch):
    import perfbench.host as host

    probes = iter([host.NOMINAL_PROBE_S, host.NOMINAL_PROBE_S,
                   3 * host.NOMINAL_PROBE_S])
    monkeypatch.setattr(host, "probe", lambda: next(probes))
    watch = host.ScaledStopwatch(clock=iter([0.0, 2.0, 2.0, 5.0, 5.0]).__next__)
    watch.step()                # 2 s at the nominal speed
    watch.step()                # 3 s at half of it on average
    assert watch.raw_s == 5.0
    assert watch.scaled_s == pytest.approx(2.0 + 3.0 / 2)


# -- self time and unattributed time -----------------------------------------

def span(span_id, parent, start, end, name="x"):
    return {"id": span_id, "parent": parent, "name": name, "start": start,
            "end": end}


def test_union_length_merges_overlaps():
    assert union_length([(0, 2), (1, 3), (5, 6)]) == 4
    assert union_length([(0, 1), (1, 2)]) == 2
    assert union_length([]) == 0


def test_self_time_subtracts_the_union_of_children():
    spans = [span(1, None, 0.0, 10.0, "root"),
             span(2, 1, 1.0, 4.0, "child"),
             span(3, 1, 3.0, 6.0, "child"),      # overlaps its sibling
             span(4, 2, 2.0, 3.0, "grandchild"),
             span(5, 1, 9.0, 12.0, "child")]     # runs past its parent
    own = self_times(spans)
    assert own[1] == pytest.approx(10 - (5 + 1))
    assert own[2] == pytest.approx(3 - 1)
    assert own[3] == pytest.approx(3)
    assert own[4] == pytest.approx(1)
    by_name = self_time_by_name(spans)
    assert by_name["child"] == pytest.approx(2 + 3 + 3)


def test_unattributed_is_the_window_no_span_covers():
    spans = [span(1, None, 1.0, 3.0), span(2, 1, 2.0, 2.5),
             span(3, None, 2.5, 4.0), span(4, None, 8.0, 12.0)]
    assert unattributed(spans, 0.0, 10.0) == pytest.approx(10 - 3 - 2)


def test_tracer_records_parents_and_adopts_worker_threads():
    from concurrent.futures import ThreadPoolExecutor

    class Layer:
        def work(self, n):
            with ThreadPoolExecutor(max_workers=2) as pool:
                return sum(pool.map(inner, range(n)))

    def inner(i):
        with tracer.span("inner", request=i):
            time.sleep(0.001)
        return i

    tracer = Tracer()
    original = Layer.work
    tracer.wrap(Layer, "work", "outer", adopt_threads=True)
    try:
        with tracer.span("root"):
            assert Layer().work(4) == 6
    finally:
        tracer.unwrap_all()
    assert Layer.work is original
    by_name = {}
    for record in tracer.spans:
        by_name.setdefault(record["name"], []).append(record)
    (root,), (outer,) = by_name["root"], by_name["outer"]
    assert outer["parent"] == root["id"]
    assert {r["parent"] for r in by_name["inner"]} == {outer["id"]}
    assert sorted(r["request"] for r in by_name["inner"]) == [0, 1, 2, 3]


# -- outcome counting -------------------------------------------------------

def test_outcomes_count_failures_against_attempts():
    outcomes = Outcomes()
    outcomes.add("served", 7)
    outcomes.add("shed")
    outcomes.add("mismatch")
    outcomes.add("hung")
    assert outcomes.attempted == 10
    assert outcomes.failed == 3
    assert outcomes.ok_share == pytest.approx(0.7)
    with pytest.raises(ValueError):
        outcomes.add("lost")
    with pytest.raises(ValueError):
        Outcomes().ok_share


# -- the graph reference evaluator ------------------------------------------

def tiny_model():
    from repro.frontend.builder import ModelBuilder

    builder = ModelBuilder("tiny", seed=7)
    data = builder.input("data", (1, 3, 8, 8))
    net = builder.conv2d(data, 4, 3, padding=1, name="conv")
    net = builder.relu(net)
    net = builder.flatten(net)
    net = builder.dense(net, 5, name="fc")
    graph, params = builder.finalize(net)
    return graph, params, {"data": (1, 3, 8, 8)}


def test_reference_evaluator_matches_numpy_by_hand():
    from repro.frontend.builder import ModelBuilder

    builder = ModelBuilder("dense_relu", seed=3)
    data = builder.input("x", (2, 6))
    graph, params = builder.finalize(builder.relu(builder.dense(data, 4)))
    (weight,) = params.values()
    x = np.random.default_rng(0).standard_normal((2, 6)).astype("float32")
    (out,) = evaluate_graph(graph, params, {"x": x})
    np.testing.assert_allclose(out, np.maximum(x @ weight.T, 0), rtol=1e-6)
    with pytest.raises(KeyError):
        evaluate_graph(graph, params, {})


def test_compiled_build_agrees_with_the_reference():
    import repro

    model = tiny_model()
    rng = np.random.default_rng(1)
    x = rng.standard_normal((1, 3, 8, 8)).astype("float32")
    expected = evaluate_graph(model[0], model[1], {"data": x})
    module = repro.compile(model, target="arm_cpu")
    actual = [o.asnumpy() for o in repro.Executor(module)({"data": x})]
    assert outputs_match(actual, expected)
    assert not outputs_match([a + 1.0 for a in actual], expected)


# -- the catalog and BENCHMARK.json -----------------------------------------

def test_benchmark_json_lists_every_reported_metric():
    import json
    from pathlib import Path

    from perfbench.catalog import END_TO_END, HIGHER_IS_BETTER, PER_LAYER

    spec = json.loads((Path(__file__).resolve().parent.parent
                       / "BENCHMARK.json").read_text())
    listed = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    units = {name: unit for name, (unit, _clock) in END_TO_END.items()}
    units.update(PER_LAYER)
    assert set(listed) == set(units)
    for name, metric in listed.items():
        assert metric["unit"] == units[name]
        expected = "higher" if name in HIGHER_IS_BETTER else "lower"
        assert metric["better"] == expected, name
    from perfbench.workloads import WORKLOADS
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
