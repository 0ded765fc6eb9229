"""Restorer model contracts: transparency, isolation, determinism."""

import numpy as np
import pytest

from lorex import lora, numerics, persist, restorer
from lorex.degradations import DatasetManifest, TaskRecord, gen_clean_image, read_ppm, write_ppm
from lorex.errors import ConfigError, DataError, ShapeError
from lorex.harness import evaluate_restoration, strategy_weight_fn
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

    def test_adapted_subset(self):
        model = build_model(LABELS, seed=1, adapted=("bot1", "bot2"))
        assert model.adapted_layer_names() == ("bot1", "bot2")
        assert model.layers["enc1"].adapters == []

    def test_unknown_layer_rejected(self):
        with pytest.raises(ConfigError):
            build_model(LABELS, seed=1, adapted=("nope",))

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


class TestEvaluateRestoration:
    def test_equals_per_image_loop(self, rng, tmp_path):
        # chunks of 4 + 1, 2 + 1 and 2 images: a chunk ends when it is full
        # and when the image size changes
        model = build_model(LABELS, seed=3)
        randomize_adapters(model, rng, scale=0.05)
        sizes = [(32, 32)] * 5 + [(40, 48)] * 3 + [(32, 32)] * 2
        tasks = []
        for label in ("t0", "t1"):
            pairs = []
            for i, size in enumerate(sizes):
                clean = gen_clean_image(len(tasks) * 10 + i, size)
                degraded = Tensor(np.clip(clean.data + rng.normal(0, 0.1, clean.dims), 0, 1))
                paths = (tmp_path / f"{label}{i}c.ppm", tmp_path / f"{label}{i}d.ppm")
                write_ppm(paths[0], clean)
                write_ppm(paths[1], degraded)
                pairs.append(paths)
            tasks.append(TaskRecord(label, pairs))
        manifest = DatasetManifest(tasks)
        router = build_router(LABELS, seed=4)
        for strategy in ("random", "average", "top2"):
            fn = strategy_weight_fn(strategy, model, router, seed=5)
            got = evaluate_restoration(model, manifest, fn)
            for task in manifest.tasks:
                want = {"psnr": [], "ssim": [], "psnr_degraded": []}
                for idx, (clean_path, degraded_path) in enumerate(task.pairs):
                    clean, degraded = read_ppm(clean_path), read_ppm(degraded_path)
                    out = restore(model, degraded, fn(degraded, task.label, idx))
                    want["psnr"].append(psnr(out, clean))
                    want["ssim"].append(ssim(out, clean))
                    want["psnr_degraded"].append(psnr(degraded, clean))
                assert {m: r.values for m, r in got[task.label].items()} == want


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
