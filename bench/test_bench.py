"""Tests of the benchmark's own code: input generation, span arithmetic,
shape-derived work counts, and installing and removing the trace wrappers."""

import gzip
import json
from pathlib import Path

import numpy as np
import pytest

import tracing
import workloads
from lorex import lora, numerics, restorer, router
from lorex.numerics import Tensor

BENCHMARK_JSON = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def test_request_stream_is_a_pure_function_of_the_seed():
    assert workloads.request_block(11, 3) == workloads.request_block(11, 3)
    assert workloads.request_block(11, 3) != workloads.request_block(12, 3)
    assert workloads.request_block(11, 3) != workloads.request_block(11, 4)
    assert workloads.pool_inputs(11, 64) == workloads.pool_inputs(11, 64)
    assert workloads.pool_inputs(11, 64) != workloads.pool_inputs(12, 64)


def test_every_request_block_has_the_same_size_and_mode_mix():
    for seed, block in ((0, 0), (5, 9)):
        counts = {}
        for req in workloads.request_block(seed, block):
            counts[(req.size, req.mode)] = counts.get((req.size, req.mode), 0) + 1
            assert 0 <= req.image < workloads.POOL_PER_SIZE
        assert counts == {(s, m): workloads.BLOCK_ROUNDS
                          for s in workloads.SIZES for m in workloads.MODES}


def test_self_times_on_hand_built_spans():
    # root [0,10] holds A [1,4] and B [3,6], which overlap, and C [8,12],
    # which runs past the root; A holds D [2,3]
    start = [0.0, 1.0, 3.0, 8.0, 2.0]
    end = [10.0, 4.0, 6.0, 12.0, 3.0]
    parent = [-1, 0, 0, 0, 1]
    got = tracing.self_times(start, end, parent)
    # root: 10 - |[1,6] u [8,10]| = 3; A: 3 - 1; B, C and D have no children
    assert got == pytest.approx([3.0, 2.0, 3.0, 4.0, 1.0])


def test_self_times_and_uncovered_time_add_up_to_the_root(tmp_path):
    tracer = tracing.Tracer()
    root = tracer.begin(tracer.name_id("root"))
    with tracer.span("a"):
        with tracer.span("b"):
            pass
        with tracer.span("c"):
            pass
    with tracer.span("d"):
        pass
    tracer.finish(root)
    got = tracing.layer_metrics(tracer, root)
    assert got["trace.spans"]["value"] == 5
    assert abs(got["trace.self_sum_error_ms"]["value"]) < 1e-9

    tracer.write(tmp_path / "spans.jsonl.gz")
    with gzip.open(tmp_path / "spans.jsonl.gz", "rt", encoding="utf-8") as f:
        header, *spans = [json.loads(line) for line in f]
    assert header["fields"][:4] == ["name", "start_s", "end_s", "parent"]
    assert [(s[0], s[3]) for s in spans] == [("root", -1), ("a", 0), ("b", 1), ("c", 1),
                                             ("d", 0)]


def test_conv_flops_match_a_hand_count_for_enc1():
    # enc1: 3 -> 16 channels, 3x3 kernel, stride 2, on one 32x32 image
    x = Tensor.zeros((1, 3, 32, 32))
    kernel = Tensor.zeros((16, 3, 3, 3))
    out = numerics.conv2d(x, kernel, "same", 2)
    assert out.dims == (1, 16, 16, 16)
    hand = 2 * 16 * 3 * 9 * 16 * 16          # 2 * Cout * Cin * k*k * OH * OW
    assert tracing.conv_flops(x.dims, kernel.dims, out.dims) == hand == 221184


def test_clock_scales_by_the_reference_readings_around_the_unit():
    clock = workloads.Clock()
    out, wall, factor = clock.time(sum, [1, 2, 3])
    assert out == 6 and wall >= 0
    before, after = clock.samples
    assert factor == pytest.approx(2 * workloads.REF_S / (before + after))
    assert clock.ref_ms() == pytest.approx(1e3 * (before + after) / 2)


def _tiny(monkeypatch):
    monkeypatch.setattr(workloads, "BLOCK_ROUNDS", 1)
    monkeypatch.setattr(workloads, "POOL_PER_SIZE", 2)
    monkeypatch.setattr(workloads, "SETUP_REPEATS", 1)


def test_untraced_run_installs_no_wrapper(monkeypatch, tmp_path):
    _tiny(monkeypatch)
    before = tracing.bindings()
    seen = []

    class Watched(workloads.Restore):
        def rep(self):
            seen.append(tracing.bindings() == before)
            return super().rep()

    workload = Watched(3, tmp_path / "work")
    result = workloads.measure(workload, seconds=0, reps=2)
    assert seen == [True, True]
    assert workload.tally.failed == 0 and len(result.reps) == 2
    assert tracing.bindings() == before


def test_traced_run_wraps_every_binding_and_removes_them(monkeypatch, tmp_path):
    _tiny(monkeypatch)
    before = tracing.bindings()
    original_conv = numerics.conv2d
    tracer = tracing.Tracer()
    root = tracer.begin(tracer.name_id("bench.restore"))
    handle = tracing.install(tracer)
    try:
        wrapped = numerics.conv2d
        assert wrapped is not original_conv
        assert lora.conv2d is wrapped and router.conv2d is wrapped
        assert restorer.adapted_forward is lora.adapted_forward
        workload = workloads.Restore(3, tmp_path / "work")
        workload.on_request = tracer.next_request
        workloads.measure(workload, seconds=0, reps=1, span=tracer.span)
    finally:
        handle.uninstall()
        tracer.finish(root)
    assert tracing.bindings() == before
    assert numerics.conv2d is original_conv

    got = tracing.layer_metrics(tracer, root)
    assert got["lora.adapted_forward.calls"]["value"] > 0
    assert got["numerics.backward.self_ms"]["value"] == 0
    assert got["metrics.ssim.calls"]["value"] == 0
    assert abs(got["trace.self_sum_error_ms"]["value"]) < 1e-6
    # each request's spans carry their own request id
    assert len(set(tracer.request)) > len(workloads.SIZES) * len(workloads.MODES)


def test_benchmark_json_lists_exactly_the_emitted_metrics():
    spec = json.loads(BENCHMARK_JSON.read_text(encoding="utf-8"))
    assert [m["name"] for m in spec["end_to_end"]] == list(workloads.E2E_METRICS)
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
    tracer = tracing.Tracer()
    root = tracer.begin(tracer.name_id("root"))
    tracer.finish(root)
    emitted = list(tracing.layer_metrics(tracer, root)) + [
        f"trace.overhead.{m}" for m in workloads.E2E_METRICS if m != "psnr_db"]
    assert [m["name"] for m in spec["per_layer"]] == emitted
    units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    for name, metric in tracing.layer_metrics(tracer, root).items():
        assert units[name] == metric["unit"]


def test_restore_output_check_catches_a_wrong_output(monkeypatch, tmp_path):
    _tiny(monkeypatch)
    workload = workloads.Restore(4, tmp_path / "work")
    real = workload._serve

    def corrupt(req, out_path):
        latency, image, restored, *rest = real(req, out_path)
        restored = Tensor(np.full(restored.dims, 2.0, np.float32))
        return (latency, image, restored, *rest)

    workload.dir.mkdir(parents=True)
    workload.setup()
    monkeypatch.setattr(workload, "_serve", corrupt)
    workload.rep()
    assert workload.tally.failed == workload.tally.attempted > 0
