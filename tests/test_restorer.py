"""Restorer model contracts: transparency, isolation, determinism."""

import os
import signal
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from conftest import usable_cpus

import lorex
from lorex import degradations, harness, lora, numerics, persist, restorer, seeding, workers
from lorex import router as router_module
from lorex.degradations import DatasetConfig, DatasetManifest, TaskRecord, gen_clean_image, \
    load_manifest, make_dataset, read_ppm, write_manifest, write_ppm
from lorex.errors import ConfigError, DataError, LorexError, ShapeError
from lorex.harness import Chunk, build_strategy, evaluate_restoration
from lorex.lora import aggregated_forward, merge_weights
from lorex.metrics import psnr, ssim
from lorex.numerics import GradTape, Tensor
from lorex.restorer import (
    AdapterTrainer,
    TaskData,
    TrainConfig,
    build_model,
    effective_rank,
    forward,
    pretrain_base,
    restore,
    restore_auto,
)
from lorex.router import build_router

LABELS = ("t0", "t1", "t2")


def rel_err(got, want):
    return float(np.abs(got - want).max() / max(np.abs(want).max(), 1.0))


def random_task(rng, label, n=12, size=32):
    deg = rng.random((n, 3, size, size), dtype=np.float32)
    cln = np.clip(deg + rng.standard_normal((n, 3, size, size)).astype(np.float32) * 0.05,
                  0, 1).astype(np.float32)
    return TaskData(label, deg, cln)


def randomize_adapters(model, rng, scale=0.2):
    for name in model.adapted_layer_names():
        for ad in model.layers[name].adapters:
            ad.b = Tensor(rng.standard_normal(ad.b.dims).astype(np.float32) * scale)


class TestBuildModel:
    def test_effective_rank_clamps(self):
        assert effective_rank(4, 16, 27) == 4
        assert effective_rank(4, 3, 171) == 2
        assert effective_rank(16, 16, 144) == 15
        assert effective_rank(1, 2, 9) == 1

    def test_default_ranks(self):
        model = build_model(LABELS, seed=1)
        assert model.layers["bot1"].adapters[0].rank == 8
        assert model.layers["enc1"].adapters[0].rank == 4
        assert model.layers["dec3"].adapters[0].rank == 4
        assert model.layers["head"].adapters[0].rank == 2

    def test_adapted_subset(self, tmp_path):
        # a layer without adapters is left out of the checkpoint's layer list
        model = build_model(LABELS, seed=1)
        for name in restorer.LAYER_NAMES:
            if name not in ("bot1", "bot2"):
                model.layers[name].adapters = []
        assert model.adapted_layer_names() == ("bot1", "bot2")
        persist.save_model(tmp_path / "m.uirl", model)
        back = persist.load_model(tmp_path / "m.uirl")
        assert back.adapted_layer_names() == ("bot1", "bot2")
        assert back.layers["enc1"].adapters == []

    def test_seeded_build_deterministic(self):
        a = build_model(LABELS, seed=4)
        b = build_model(LABELS, seed=4)
        assert persist.base_digest(a) == persist.base_digest(b)

    def test_duplicate_labels_rejected(self):
        with pytest.raises(ConfigError):
            build_model(("x", "x"), seed=1)


class TestZeroInitTransparency:
    def test_fresh_adapters_never_change_output(self, rng):
        model = build_model(LABELS, seed=2)
        zeros = np.zeros(3, np.float32)
        for trial in range(10):
            x = Tensor(rng.random((3, 32, 32), dtype=np.float32))
            s = rng.random(3).astype(np.float32)
            bare = restore(model, x, zeros)
            routed = restore(model, x, s)
            assert bare.data.tobytes() == routed.data.tobytes()


class TestForward:
    def test_output_shape_and_clipping(self, rng):
        model = build_model(LABELS, seed=2)
        x = Tensor(rng.random((3, 32, 32), dtype=np.float32))
        out = restore(model, x, np.zeros(3, np.float32))
        assert out.dims == (3, 32, 32)
        assert out.data.min() >= 0.0 and out.data.max() <= 1.0

    def test_batched_forward(self, rng):
        model = build_model(LABELS, seed=2)
        x = Tensor(rng.random((2, 3, 32, 32), dtype=np.float32))
        out = forward(model, x, np.zeros(3, np.float32))
        assert out.dims == (2, 3, 32, 32)

    def test_shape_constraints(self, rng):
        model = build_model(LABELS, seed=2)
        with pytest.raises(ShapeError):
            restore(model, Tensor(rng.random((3, 30, 30), dtype=np.float32)),
                    np.zeros(3, np.float32))
        with pytest.raises(ShapeError):
            restore(model, Tensor(rng.random((3, 8, 8), dtype=np.float32)),
                    np.zeros(3, np.float32))

    def test_weight_validation(self, rng):
        model = build_model(LABELS, seed=2)
        x = Tensor(rng.random((3, 32, 32), dtype=np.float32))
        with pytest.raises(ConfigError):
            restore(model, x, [0.5, 0.5])
        with pytest.raises(ConfigError):
            restore(model, x, [-0.1, 0.6, 0.5])

    def test_64px_input_works(self, rng):
        model = build_model(LABELS, seed=2)
        x = Tensor(rng.random((3, 64, 64), dtype=np.float32))
        assert restore(model, x, np.zeros(3, np.float32)).dims == (3, 64, 64)


class TestDecoderPath:
    """Decoder layers take the pair (low, skip) and run upsample_conv2d."""

    @staticmethod
    def _count_calls(monkeypatch):
        calls = []
        wrapped = lora.upsample_conv2d
        monkeypatch.setattr(lora, "upsample_conv2d",
                            lambda *args, **kw: calls.append(args[1].dims) or wrapped(*args, **kw))
        return calls

    def test_every_forward_runs_the_decoder_through_upsample_conv2d(self, rng, monkeypatch):
        model = build_model(LABELS, seed=3)
        randomize_adapters(model, rng)
        x = rng.random((2, 3, 32, 32), dtype=np.float32)
        s = np.asarray([0.5, 0.0, 0.5], np.float32)
        skips = [(2, 32, 8, 8), (2, 16, 16, 16), (2, 3, 32, 32)]
        calls = self._count_calls(monkeypatch)
        runs = {
            "untaped": lambda: forward(model, Tensor(x), s),
            "taped": lambda: forward(model, Tensor(x), s, GradTape()),
            "merged": lambda: forward(model, Tensor(x), s, merged=True),
            "per-image": lambda: forward(model, Tensor(x), np.stack([s, s[::-1] * 0.5])),
        }
        for name, run in runs.items():
            calls.clear()
            run()
            assert calls == skips, name
        # the aggregation reference: one base conv plus one per active adapter
        with monkeypatch.context() as m:
            m.setattr(restorer, "adapted_forward", aggregated_forward)
            calls.clear()
            forward(model, Tensor(x), s)
        assert calls == [dims for dims in skips for _ in range(3)]

    def test_training_step_skips_the_raw_image_data_gradient(self, rng, monkeypatch):
        # dec3's skip connection is the input image, which reaches no
        # parameter: no conv data gradient may be computed for it. At full
        # resolution only the head's 16-channel input needs one.
        model = build_model(LABELS, seed=3)
        trainer = AdapterTrainer(model, 1, random_task(rng, "t1", n=4), TrainConfig(batch_size=2))
        shapes = []
        data_grad = numerics._conv_data_grad
        monkeypatch.setattr(numerics, "_conv_data_grad", lambda g, kernel, h, w, *rest: (
            shapes.append((kernel.shape[1], h, w)) or data_grad(g, kernel, h, w, *rest)))
        trainer.step()
        assert [c for c, h, w in shapes if (h, w) == (32, 32)] == [16]
        assert all(c != 3 for c, _, _ in shapes)


class TestPerImageWeights:
    """forward with an (N, T) matrix equals each image's own forward, bit
    for bit, and the matrix form is checked like a vector."""

    @pytest.mark.parametrize("rows,size,zero_up", [
        ([[0.3, 0.7, 0.0]] * 4, (32, 32), False),
        ([[1, 0, 0], [0, 0.4, 0.6], [0, 1, 0], [0.5, 0, 0.5], [0, 0.4, 0.6]], (32, 32), False),
        ([[0, 0, 0], [0, 1, 0], [0.2, 0.3, 0.5]], (32, 32), False),
        ([[0, 0, 1], [0.5, 0, 0.5], [0, 1, 0]], (32, 32), True),
        ([[0.1, 0.9, 0], [0, 0, 1], [0.3, 0.3, 0.4]], (16, 24), False),
    ], ids=["all-equal", "distinct-sparse", "all-zero-row", "zero-up-projection", "16x24"])
    def test_matches_per_image_forward(self, rng, rows, size, zero_up):
        model = build_model(LABELS, seed=3)
        randomize_adapters(model, rng)
        if zero_up:
            for name in model.adapted_layer_names():
                model.layers[name].adapters[2].b.data[:] = 0
        s = np.asarray(rows, np.float32)
        x = rng.random((len(s), 3, *size), dtype=np.float32)
        out = forward(model, Tensor(x), s)
        for i in range(len(s)):
            alone = forward(model, Tensor(x[i]), s[i])
            assert out.data[i].tobytes() == alone.data.tobytes()

    def test_restore_checks_the_matrix(self, rng):
        model = build_model(LABELS, seed=2)
        x = Tensor(rng.random((2, 3, 32, 32), dtype=np.float32))
        good = np.full((2, 3), 1 / 3, np.float32)
        assert restore(model, x, good).dims == (2, 3, 32, 32)
        bad_value = good.copy()
        bad_value[1, 2] = np.nan
        negative = good.copy()
        negative[0, 1] = -0.1
        for s in (bad_value, negative, good[:, :2], np.full((2, 4), 0.25, np.float32),
                  good[:1], np.full((3, 3), 1 / 3, np.float32)):
            with pytest.raises(ConfigError):
                restore(model, x, s)

    def test_taped_matrix_rejected(self, rng):
        model = build_model(LABELS, seed=2)
        x = Tensor(rng.random((2, 3, 32, 32), dtype=np.float32))
        with pytest.raises(ConfigError):
            forward(model, x, np.eye(3, dtype=np.float32)[:2], GradTape())


def write_manifest_pairs(tmp_path, rng, labels, sizes):
    """The verified manifest ``tmp_path / "pairs.manifest"``, whose tasks
    each hold one noisy pair per size, in order."""
    tasks = []
    for t, label in enumerate(labels):
        pairs = []
        for i, size in enumerate(sizes):
            clean = gen_clean_image(t * 100 + i, size)
            degraded = Tensor(np.clip(clean.data + rng.normal(0, 0.1, clean.dims), 0, 1))
            paths = (tmp_path / f"{label}{i}c.ppm", tmp_path / f"{label}{i}d.ppm")
            write_ppm(paths[0], clean)
            write_ppm(paths[1], degraded)
            pairs.append(paths)
        tasks.append(TaskRecord(label, pairs))
    write_manifest(tmp_path / "pairs.manifest", DatasetManifest(tasks))
    return load_manifest(tmp_path / "pairs.manifest")


def per_image_reference(model, manifest, strategy):
    """task -> metric -> values, restoring and scoring one image at a time."""
    out = {}
    for task in manifest.tasks:
        want = {"psnr": [], "ssim": [], "psnr_degraded": []}
        for idx, (clean_path, degraded_path) in enumerate(task.pairs):
            clean, degraded = read_ppm(clean_path), read_ppm(degraded_path)
            s = strategy.weights(Chunk(task.label, idx, degraded.data[None]))[0]
            restored = restore(model, degraded, s)
            want["psnr"].append(psnr(restored, clean))
            want["ssim"].append(ssim(restored, clean))
            want["psnr_degraded"].append(psnr(degraded, clean))
        out[task.label] = want
    return out


def report_values(results):
    return {label: {m: r.values for m, r in reports.items()}
            for label, reports in results.items()}


class TestEvaluateRestoration:
    STRATEGIES = ("random", "average", "oracle", "manual", "top1", "top2", "topk", "all")

    def test_equals_per_image_loop(self, rng, tmp_path):
        # chunks of 4 + 1, 2 + 1 and 2 images: a chunk ends when it is full
        # and when the image size changes
        model = build_model(LABELS, seed=3)
        randomize_adapters(model, rng, scale=0.05)
        sizes = [(32, 32)] * 5 + [(40, 48)] * 3 + [(32, 32)] * 2
        manifest = write_manifest_pairs(tmp_path, rng, ("t0", "t1"), sizes)
        router = build_router(LABELS, seed=4)
        for name in ("random", "average", "top2"):
            strategy = build_strategy(name, model, router, seed=5)
            got = evaluate_restoration(model, manifest, {name: strategy})
            assert report_values(got[name]) == per_image_reference(model, manifest, strategy)

    def test_one_pass_equals_a_pass_per_strategy(self, rng, tmp_path, monkeypatch):
        # patch-sized, larger (cropped by the router) and smaller images;
        # seven chunks per task: 4 + 1 images of 32x32, then one chunk each
        # of 1 64x64, 2 40x48, 4 16x16, 1 16x48 and 1 32x32
        model = build_model(LABELS, seed=3)
        randomize_adapters(model, rng, scale=0.05)
        sizes = [(32, 32)] * 5 + [(64, 64), (40, 48), (40, 48)] + [(16, 16)] * 4 \
            + [(16, 48), (32, 32)]
        manifest = write_manifest_pairs(tmp_path, rng, LABELS, sizes)
        router = build_router(LABELS, seed=4)
        args = {"router": router, "k": 2, "seed": 5, "manual_s": [0.2, 0.0, 0.8]}
        strategies = {name: build_strategy(name, model, **args) for name in self.STRATEGIES}
        # one byte per encode, appended to a file so that the encodes of
        # forked evaluation workers are counted too
        encodes = tmp_path / "encodes"
        encode = router_module._encode_batch

        def counting_encode(*a):
            fd = os.open(encodes, os.O_WRONLY | os.O_CREAT | os.O_APPEND)
            try:
                os.write(fd, b".")
            finally:
                os.close(fd)
            return encode(*a)

        monkeypatch.setattr(router_module, "_encode_batch", counting_encode)
        one_pass = evaluate_restoration(model, manifest, strategies)
        # four router strategies, one encode per chunk
        assert len(encodes.read_bytes()) == 7 * len(LABELS)
        for name in self.STRATEGIES:
            alone = evaluate_restoration(model, manifest, {name: strategies[name]})
            assert report_values(one_pass[name]) == report_values(alone[name])
            assert report_values(one_pass[name]) == per_image_reference(model, manifest,
                                                                        strategies[name])

    def test_oracle_checks_the_manifest_before_reading(self, rng, tmp_path, monkeypatch):
        model = build_model(LABELS, seed=3)
        manifest = write_manifest_pairs(tmp_path, rng, ("t0", "t0+t1"), [(32, 32)])
        monkeypatch.setattr(harness, "read_ppm", lambda path: pytest.fail(f"read {path}"))
        strategies = {"average": build_strategy("average", model),
                      "oracle": build_strategy("oracle", model)}
        with pytest.raises(ConfigError, match="'t0\\+t1' is not a trained task"):
            evaluate_restoration(model, manifest, strategies)

    def test_pair_of_two_sizes_rejected(self, rng, tmp_path):
        # by verification, which compares the headers of each pair
        manifest = write_manifest_pairs(tmp_path, rng, ("t0",), [(32, 32)])
        clean_path, degraded_path = manifest.tasks[0].pairs[0]
        write_ppm(clean_path, gen_clean_image(0, (32, 40)))
        with pytest.raises(DataError, match=f"{clean_path} is 32x40 but {degraded_path} is 32x32"):
            load_manifest(tmp_path / "pairs.manifest")

    def test_an_unverified_manifest_is_rejected_before_any_image_is_read(self, rng, tmp_path,
                                                                        monkeypatch):
        model = build_model(LABELS, seed=3)
        write_manifest_pairs(tmp_path, rng, ("t0",), [(32, 32)])
        manifest = load_manifest(tmp_path / "pairs.manifest", verify=False)
        monkeypatch.setattr(harness, "read_ppm", lambda path: pytest.fail(f"read {path}"))
        with pytest.raises(ConfigError, match="task 't0': image sizes unknown"):
            evaluate_restoration(model, manifest, {"average": build_strategy("average", model)})

    def test_each_header_is_parsed_once_to_verify_and_once_to_decode(self, tmp_path,
                                                                     monkeypatch):
        # the chunks are cut from the sizes verification recorded
        config = DatasetConfig(seed=3, train_per_task=1, test_per_task=3, mixed_pairs=1)
        make_dataset(config, tmp_path / "data")
        parsed, header = [], degradations._ppm_header

        def counting_header(f, path):
            parsed.append(Path(path))
            return header(f, path)

        monkeypatch.setattr(degradations, "_ppm_header", counting_header)
        with usable_cpus(1):
            manifest = load_manifest(tmp_path / "data" / "test.manifest")
            model = build_model(manifest.labels, seed=3)
            evaluate_restoration(model, manifest, {"average": build_strategy("average", model),
                                                   "oracle": build_strategy("oracle", model)})
        files = [path for task in manifest.tasks for pair in task.pairs for path in pair]
        assert len(files) == 30
        assert Counter(parsed) == dict.fromkeys(files, 2)

    def test_reports_do_not_depend_on_the_usable_cpu_count(self, rng, tmp_path):
        # three tasks of two chunks each (three 32x32 pairs, then one 16x48):
        # one worker scores all six, or two split them 3 / 3
        model = build_model(LABELS, seed=3)
        randomize_adapters(model, rng, scale=0.05)
        manifest = write_manifest_pairs(tmp_path, rng, LABELS, [(32, 32)] * 3 + [(16, 48)])
        router = build_router(LABELS, seed=4)
        strategies = {name: build_strategy(name, model, router, k=2, seed=5,
                                           manual_s=[0.2, 0.0, 0.8])
                      for name in self.STRATEGIES}
        reports = []
        for cpus in (1, 2):
            with usable_cpus(cpus):
                got = evaluate_restoration(model, manifest, strategies)
            assert list(got) == list(self.STRATEGIES)
            assert all(list(got[name]) == list(LABELS) for name in got)
            reports.append({name: report_values(got[name]) for name in got})
        assert reports[0] == reports[1]

    @staticmethod
    def count_restores(monkeypatch, path):
        """Record (process id, image count) of every restore in a file, so
        that the restores of forked workers are counted too; returns a
        function that reads the records."""
        restore_chunk = harness.restore

        def counting_restore(model, images, weights):
            fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_APPEND)
            try:
                os.write(fd, f"{os.getpid()} {images.dims[0]}\n".encode())
            finally:
                os.close(fd)
            return restore_chunk(model, images, weights)

        monkeypatch.setattr(harness, "restore", counting_restore)
        return lambda: [tuple(map(int, line.split())) for line in path.read_text().splitlines()]

    def test_two_workers_restore_equal_shares_of_images(self, rng, tmp_path, monkeypatch):
        # five tasks of eight 32x32 pairs are ten chunks of four: two workers
        # restore 20 images each, where a task per item would split 24 / 16
        model = build_model(LABELS, seed=3)
        manifest = write_manifest_pairs(tmp_path, rng, [f"t{i}" for i in range(5)],
                                        [(32, 32)] * 8)
        restores = self.count_restores(monkeypatch, tmp_path / "restores")
        with usable_cpus(2):
            evaluate_restoration(model, manifest, {"average": build_strategy("average", model)})
        per_pid = {}
        for pid, images in restores():
            assert images == 4
            per_pid[pid] = per_pid.get(pid, 0) + images
        assert sorted(per_pid.values()) == [20, 20]
        assert os.getpid() in per_pid

    def test_a_large_first_image_leaves_the_rest_in_one_chunk(self, rng, tmp_path, monkeypatch):
        # a 64x64 pair fills a chunk alone; the sixteen 16x16 pairs after it
        # fill the next one
        model = build_model(LABELS, seed=3)
        manifest = write_manifest_pairs(tmp_path, rng, ("t0",), [(64, 64)] + [(16, 16)] * 16)
        restores = self.count_restores(monkeypatch, tmp_path / "restores")
        strategies = {name: build_strategy(name, model) for name in ("average", "oracle")}
        evaluate_restoration(model, manifest, strategies)
        assert sorted(images for _, images in restores()) == [1, 1, 16, 16]

    def test_runs_that_change_image_size_equal_the_per_image_loop(self, rng, tmp_path):
        # each task's chunks are [0:4] and [4:5] of 32x32, [5:7] and [7:8] of
        # 40x48 and [8:10] of 16x16: cut at the pixel budget and wherever
        # the size changes
        model = build_model(LABELS, seed=3)
        randomize_adapters(model, rng, scale=0.05)
        sizes = [(32, 32)] * 5 + [(40, 48)] * 3 + [(16, 16)] * 2
        manifest = write_manifest_pairs(tmp_path, rng, LABELS, sizes)
        router = build_router(LABELS, seed=4)
        for name in ("random", "top2", "all"):
            strategy = build_strategy(name, model, router, seed=5)
            reports = []
            for cpus in (1, 2):
                with usable_cpus(cpus):
                    reports.append(report_values(
                        evaluate_restoration(model, manifest, {name: strategy})[name]))
            assert reports[0] == reports[1] == per_image_reference(model, manifest, strategy)

    def test_corrupt_image_in_a_worker_raises_its_data_error(self, rng, tmp_path):
        model = build_model(LABELS, seed=3)
        manifest = write_manifest_pairs(tmp_path, rng, LABELS, [(32, 32)])
        # with two workers, the second task is the forked worker's
        degraded_path = manifest.tasks[1].pairs[0][1]
        degraded_path.write_bytes(degraded_path.read_bytes()[:-7])
        with usable_cpus(2), pytest.raises(DataError, match=f"{degraded_path}.*truncated"):
            evaluate_restoration(model, manifest, {"average": build_strategy("average", model)})
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_malformed_header_is_raised_before_any_image_is_read(self, rng, tmp_path,
                                                                monkeypatch):
        # verifying the manifest reads every header, so the error comes from
        # it, before evaluation reads any image or starts any worker
        model = build_model(LABELS, seed=3)
        manifest = write_manifest_pairs(tmp_path, rng, LABELS, [(32, 32)] * 3)
        degraded_path = manifest.tasks[1].pairs[-1][1]
        degraded_path.write_bytes(b"P6\nthirty-two 32\n255\n" + bytes(3 * 32 * 32))
        monkeypatch.setattr(harness, "read_ppm", lambda path: pytest.fail(f"read {path}"))
        monkeypatch.setattr(workers, "in_workers", lambda *args: pytest.fail("worker started"))
        with usable_cpus(2), pytest.raises(DataError, match=f"{degraded_path}: malformed"):
            evaluate_restoration(model, load_manifest(tmp_path / "pairs.manifest"),
                                 {"average": build_strategy("average", model)})

    @pytest.mark.parametrize("name,kwargs", [
        ("bogus", {}), ("manual", {}), ("manual", {"manual_s": [0.5, 0.5]}),
        ("topk", {"k": 0}), ("topk", {"k": 4}), ("topk", {}), ("top1", {"router": None}),
    ], ids=["unknown", "manual-without-vector", "manual-short", "topk-0", "topk-past-t",
            "topk-without-k", "top1-without-router"])
    def test_build_strategy_rejects(self, name, kwargs):
        model = build_model(LABELS, seed=3)
        args = {"router": build_router(LABELS, seed=4), **kwargs}
        with pytest.raises(ConfigError):
            build_strategy(name, model, **args)


class TestInWorkers:
    def test_results_come_back_in_item_order(self):
        parent = os.getpid()
        with usable_cpus(2):
            got = workers.in_workers(lambda x: (x, os.getpid()), list(range(7)))
        assert [x for x, _ in got] == list(range(7))
        assert [pid == parent for _, pid in got] == [i % 2 == 0 for i in range(7)]

    @pytest.mark.parametrize("blas_threads,count", [(1, 2), (2, 1), (3, 1)])
    def test_workers_leave_the_cores_that_blas_threads_use(self, blas_threads, count):
        with usable_cpus(2, blas_threads):
            assert workers._worker_count(7) == count

    @pytest.mark.parametrize("threads", [1, 2])
    def test_blas_thread_count_is_read_from_the_loaded_blas(self, threads):
        if "openblas" not in np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]:
            pytest.skip("numpy does not use OpenBLAS")
        env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads),
                   PYTHONPATH=str(Path(lorex.__file__).parents[1]))
        proc = subprocess.run(
            [sys.executable, "-c", "from lorex import workers; print(workers._blas_threads())"],
            capture_output=True, text=True, env=env, timeout=60)
        assert proc.stdout.split() == [str(threads)], proc.stderr

    def test_worker_count_is_at_most_the_item_count(self):
        with usable_cpus(2):
            assert workers.in_workers(lambda item: os.getpid(), ["one"]) == [os.getpid()]
        assert workers.in_workers(lambda item: item, []) == []

    def test_killed_worker_raises_lorex_error(self):
        parent = os.getpid()

        def fn(item):
            if os.getpid() != parent:
                os.kill(os.getpid(), signal.SIGKILL)
            return item

        with usable_cpus(2), pytest.raises(LorexError, match="killed by signal 9"):
            workers.in_workers(fn, [0, 1])
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_failing_caller_share_kills_the_workers(self):
        parent = os.getpid()

        def fn(item):
            if os.getpid() == parent:
                raise ConfigError("the caller's share failed")
            time.sleep(60)
            return item

        t0 = time.monotonic()
        with usable_cpus(2), pytest.raises(ConfigError, match="caller's share"):
            workers.in_workers(fn, [0, 1])
        assert time.monotonic() - t0 < 30
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_failing_worker_stops_the_caller_between_its_items(self):
        # the caller's share is items 0, 2, ..., 10: six items of 1 s each;
        # the child's first item raises at once
        parent = os.getpid()
        started = []

        def fn(item):
            if os.getpid() != parent:
                raise ConfigError("the worker's item failed")
            started.append(item)
            time.sleep(1)
            return item

        t0 = time.monotonic()
        with usable_cpus(2), pytest.raises(ConfigError, match="worker's item"):
            workers.in_workers(fn, list(range(12)))
        assert time.monotonic() - t0 < 4
        assert started == [0]
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_worker_whose_last_message_cannot_be_flushed_fails(self):
        # a worker's buffered last message is flushed as it exits; the pipe
        # under it is swapped for one with no reader, so the flush fails
        with pytest.raises(LorexError, match="exit status 1"):
            with workers._forked(2) as (rank, links):
                if rank:
                    reader, writer = os.pipe()
                    os.close(reader)
                    os.dup2(writer, links[0].outbox.fileno())
                    links[0].outbox.write(b"cut short")
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)


class TestMergedEquivalence:
    def test_whole_network_agreement(self, rng, monkeypatch):
        model = build_model(LABELS, seed=3)
        randomize_adapters(model, rng)
        for _ in range(5):
            x = Tensor(rng.random((3, 32, 32), dtype=np.float32))
            s = rng.random(3).astype(np.float32)
            s /= s.sum()
            mrg = forward(model, x, s, merged=True)
            with monkeypatch.context() as m:
                # every layer aggregates its expert outputs instead
                m.setattr(restorer, "adapted_forward", aggregated_forward)
                agg = forward(model, x, s)
            assert rel_err(agg.data, mrg.data) <= 1e-4

    def test_merge_does_not_mutate(self, rng):
        model = build_model(LABELS, seed=3)
        randomize_adapters(model, rng)
        digest = persist.base_digest(model)
        layer = model.layers["bot1"]
        merge_weights(layer, [0.3, 0.3, 0.4])
        assert persist.base_digest(model) == digest


class TestTrainConfig:
    @pytest.mark.parametrize("lr", [float("nan"), float("inf"), 0.0, -1e-3])
    def test_rejects_non_finite_or_non_positive_lr(self, lr):
        # a NaN lr would otherwise pass and fail only at the first loss
        with pytest.raises(ConfigError, match="learning_rate"):
            TrainConfig(learning_rate=lr)


class TestPretrainBase:
    def test_zero_iterations_unchanged(self, rng):
        model = build_model(LABELS, seed=4)
        digest = persist.base_digest(model)
        images = [Tensor(rng.random((3, 32, 32), dtype=np.float32)) for _ in range(4)]
        pretrain_base(model, images, TrainConfig(iterations=0, seed=1))
        assert persist.base_digest(model) == digest

    def test_empty_dataset_rejected(self):
        model = build_model(LABELS, seed=4)
        with pytest.raises(DataError):
            pretrain_base(model, [], TrainConfig(iterations=1, seed=1))

    def test_requires_untouched_adapters(self, rng):
        model = build_model(LABELS, seed=4)
        randomize_adapters(model, rng)
        images = [Tensor(rng.random((3, 32, 32), dtype=np.float32))]
        with pytest.raises(ConfigError):
            pretrain_base(model, images, TrainConfig(iterations=1, seed=1))

    def test_same_seed_bit_identical(self):
        images = [gen_clean_image(i, (32, 32)) for i in range(6)]
        digests = []
        for _ in range(2):
            model = build_model(LABELS, seed=4)
            pretrain_base(model, images, TrainConfig(iterations=5, batch_size=4, seed=9))
            digests.append(persist.base_digest(model))
        assert digests[0] == digests[1]

    def test_reduces_reconstruction_loss(self):
        images = [gen_clean_image(i, (32, 32)) for i in range(8)]
        model = build_model(LABELS, seed=4)
        x = Tensor(np.stack([img.data for img in images]))
        zeros = np.zeros(3, np.float32)
        before = float(np.abs(forward(model, x, zeros).data - x.data).mean())
        pretrain_base(model, images, TrainConfig(learning_rate=1e-3, iterations=60,
                                                 batch_size=4, seed=9))
        after = float(np.abs(forward(model, x, zeros).data - x.data).mean())
        assert after < before



class TestPretrainReplicas:
    """pretrain_base sums two half-batch gradients per step, computed by the
    caller and a forked replica when two workers fit."""

    IMAGES = [gen_clean_image(i, (32, 32)) for i in range(6)]
    CONFIG = TrainConfig(learning_rate=2e-3, iterations=4, batch_size=5, seed=9)

    def serial_two_shard_loop(self) -> str:
        # the step spelled out: shards of 3 and 2 images, each shard's L1 loss
        # weighted by its share of the batch, gradients summed in shard order
        model = build_model(LABELS, seed=4)
        data = np.stack([img.data for img in self.IMAGES])
        zeros = np.zeros(len(LABELS), np.float32)
        config = self.CONFIG
        params = model.base_params()
        adam = numerics.Adam(params, lr=config.learning_rate)
        for it in range(config.iterations):
            idx = seeding.stream(config.seed, "pretrain-batch", it).integers(
                0, len(data), size=config.batch_size)
            grads = []
            for part in (idx[:3], idx[3:]):
                tape = GradTape()
                batch = Tensor(data[part])
                loss = numerics.scale(
                    numerics.l1_loss(forward(model, batch, zeros, tape), batch, tape),
                    len(part) / config.batch_size, tape)
                grads.append(tape.gradients(loss, params))
            adam.step([a + b for a, b in zip(*grads)],
                      lr=numerics.cosine_lr(config.learning_rate, it, config.iterations))
        return persist.base_digest(model)

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_equals_a_serial_two_shard_loop(self, cpus):
        model = build_model(LABELS, seed=4)
        with usable_cpus(cpus):
            pretrain_base(model, self.IMAGES, self.CONFIG)
        assert persist.base_digest(model) == self.serial_two_shard_loop()

    def test_failing_replica_raises_its_error_in_the_caller(self, monkeypatch):
        parent = os.getpid()
        l1_loss = restorer.l1_loss

        def l1_loss_or_fail(*args):
            if os.getpid() != parent:
                raise ShapeError("the replica's shard failed")
            return l1_loss(*args)

        monkeypatch.setattr(restorer, "l1_loss", l1_loss_or_fail)
        with usable_cpus(2), pytest.raises(ShapeError, match="replica's shard"):
            pretrain_base(build_model(LABELS, seed=4), self.IMAGES, self.CONFIG)
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

class TestTrainLora:
    def test_only_target_adapter_changes(self, rng):
        model = build_model(LABELS, seed=5)
        base_digest = persist.base_digest(model)
        others_before = [persist.adapter_digest(model, j) for j in range(3)]
        task = random_task(rng, "t1")
        AdapterTrainer(model, 1, task,
                       TrainConfig(iterations=5, batch_size=4, seed=2)).run()
        assert persist.base_digest(model) == base_digest
        assert persist.adapter_digest(model, 0) == others_before[0]
        assert persist.adapter_digest(model, 2) == others_before[2]
        assert persist.adapter_digest(model, 1) != others_before[1]

    def test_zero_iterations_unchanged(self, rng):
        model = build_model(LABELS, seed=5)
        before = [persist.adapter_digest(model, j) for j in range(3)]
        AdapterTrainer(model, 0, random_task(rng, "t0"),
                       TrainConfig(iterations=0, seed=2)).run()
        assert [persist.adapter_digest(model, j) for j in range(3)] == before

    def test_foreign_label_rejected(self, rng):
        model = build_model(LABELS, seed=5)
        with pytest.raises(DataError):
            AdapterTrainer(model, 0, random_task(rng, "t1"),
                           TrainConfig(iterations=1, seed=2))

    def test_bad_task_index(self, rng):
        model = build_model(LABELS, seed=5)
        with pytest.raises(ConfigError):
            AdapterTrainer(model, 7, random_task(rng, "t0"), TrainConfig(seed=2))

    def test_sequential_equals_interleaved(self, rng):
        tasks = [random_task(rng, lb) for lb in LABELS]
        config = TrainConfig(iterations=12, batch_size=4, seed=6)

        seq = build_model(LABELS, seed=5)
        for k in range(3):
            AdapterTrainer(seq, k, tasks[k], config).run()

        inter = build_model(LABELS, seed=5)
        trainers = [AdapterTrainer(inter, k, tasks[k], config) for k in range(3)]
        for _ in range(config.iterations):
            for tr in trainers:
                tr.step()

        for k in range(3):
            assert persist.adapter_digest(seq, k) == persist.adapter_digest(inter, k)

    def test_same_seed_bit_identical(self, rng):
        task = random_task(rng, "t0")
        config = TrainConfig(iterations=8, batch_size=4, seed=3)
        digests = []
        for _ in range(2):
            model = build_model(LABELS, seed=5)
            AdapterTrainer(model, 0, task, config).run()
            digests.append(persist.adapter_digest(model, 0))
        assert digests[0] == digests[1]


class TestRestoreAuto:
    def test_label_mismatch_rejected(self, rng):
        model = build_model(LABELS, seed=5)
        router = build_router(("t0", "t2", "t1"), seed=5)
        x = Tensor(rng.random((3, 32, 32), dtype=np.float32))
        with pytest.raises(ConfigError):
            restore_auto(model, router, x, 1)

    def test_matches_manual_restore_with_routed_weights(self, rng):
        model = build_model(LABELS, seed=5)
        randomize_adapters(model, rng)
        router = build_router(LABELS, seed=5)
        x = Tensor(rng.random((3, 32, 32), dtype=np.float32))
        out, routed = restore_auto(model, router, x, 2)
        manual = restore(model, x, routed.s)
        assert out.data.tobytes() == manual.data.tobytes()
        assert routed.k == 2
