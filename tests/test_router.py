"""Routing algebra and the degradation encoder's contracts."""

import os
import signal
import time
from dataclasses import replace
from itertools import product

import numpy as np
import pytest
from conftest import usable_cpus

from lorex import router, seeding, workers
from lorex.degradations import DEFAULT_TASKS, DatasetManifest, DegradationSpec, TaskRecord, \
    apply_degradation, gen_clean_image, read_ppm, write_ppm
from lorex.errors import ConfigError, DataError, LorexError, NumericError, ShapeError
from lorex.harness import routing_accuracy
from lorex.numerics import Adam, GradTape, Tensor, cosine_lr, matmul, scale, \
    softmax_cross_entropy
from lorex.restorer import TrainConfig
from lorex.router import (
    RouterState,
    build_router,
    center_crop,
    encode_degradation,
    predict,
    predict_with_crop_correction,
    resize_bilinear,
    similarity,
    topk_reallocate,
    train_router,
)


def topk_mask_oracle(s_o, k):
    """Sort-based reference: K largest values, lowest index on ties."""
    order = sorted(range(len(s_o)), key=lambda i: (-s_o[i], i))
    mask = np.zeros(len(s_o), dtype=bool)
    mask[order[:k]] = True
    return mask


class TestSimilarity:
    def test_orthonormal_case(self):
        d = Tensor([[1.0, 0.0]])
        bank = Tensor([[1.0, 0.0], [0.0, 1.0]])
        np.testing.assert_array_equal(similarity(d, bank), [1.0, 0.0])

    def test_zero_vector(self):
        bank = Tensor([[1.0, 0.0], [0.0, 1.0]])
        np.testing.assert_array_equal(similarity(Tensor([[0.0, 0.0]]), bank), [0.0, 0.0])

    def test_dot_product_oracle(self):
        # columns [1,0] and [0.6,0.8]; d=[0.6,0.8] -> [0.6, 1.0]
        d = Tensor([[0.6, 0.8]])
        bank = Tensor([[1.0, 0.6], [0.0, 0.8]])
        np.testing.assert_allclose(similarity(d, bank), [0.6, 1.0], atol=1e-6)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            similarity(Tensor([[1.0, 0.0, 0.0]]), Tensor([[1.0], [0.0]]))


class TestTopkReallocate:
    def test_direct_arithmetic_oracle(self):
        out = topk_reallocate([0.5, 0.3, 0.2], 2)
        np.testing.assert_allclose(out.s, [0.625, 0.375, 0.0], atol=1e-6)
        np.testing.assert_array_equal(out.mask, [True, True, False])

    def test_k1_one_hot_at_argmax(self):
        out = topk_reallocate([0.1, 0.9, 0.3], 1)
        np.testing.assert_array_equal(out.s, [0.0, 1.0, 0.0])
        assert out.k == 1

    def test_all_negative_uniform_fallback(self):
        out = topk_reallocate([-0.2, -0.5, -0.9], 2)
        np.testing.assert_array_equal(out.s, [0.5, 0.5, 0.0])

    def test_mixed_sign_clamps_negatives(self):
        out = topk_reallocate([0.4, -0.2, 0.1], 3)
        np.testing.assert_allclose(out.s, [0.8, 0.0, 0.2], atol=1e-6)

    def test_k_out_of_range(self):
        for k in (0, 4, -1):
            with pytest.raises(ConfigError):
                topk_reallocate([0.1, 0.2, 0.3], k)

    def test_nonfinite_rejected(self):
        with pytest.raises(NumericError):
            topk_reallocate([0.1, float("nan")], 1)

    def test_exhaustive_small_cases_vs_oracle(self):
        # every sign/tie pattern for T <= 6, every K
        values = (-0.5, 0.0, 0.7)
        for t in range(1, 7):
            for pattern in product(values, repeat=t):
                for k in range(1, t + 1):
                    out = topk_reallocate(pattern, k)
                    np.testing.assert_array_equal(
                        out.mask, topk_mask_oracle(pattern, k),
                        err_msg=f"pattern={pattern} k={k}")
                    self._check_weight_contract(out, pattern, k)

    def test_random_cases_vs_oracle(self):
        rng = np.random.default_rng(77)
        for _ in range(1000):
            t = int(rng.integers(1, 9))
            s_o = (rng.standard_normal(t) * rng.uniform(0.1, 3)).astype(np.float32)
            k = int(rng.integers(1, t + 1))
            out = topk_reallocate(s_o, k)
            np.testing.assert_array_equal(out.mask, topk_mask_oracle(s_o, k))
            self._check_weight_contract(out, s_o, k)

    @staticmethod
    def _check_weight_contract(out, s_o, k):
        assert int(np.count_nonzero(out.s)) <= k
        assert np.all(out.s >= 0)
        if np.any(np.asarray(s_o)[out.mask] > 0):
            assert abs(out.s.sum() - 1.0) <= 1e-6
        assert np.all(out.s[~out.mask] == 0)

    def test_positive_rescaling_invariance(self):
        rng = np.random.default_rng(88)
        for _ in range(300):
            t = int(rng.integers(2, 8))
            s_o = rng.standard_normal(t).astype(np.float32)
            k = int(rng.integers(1, t + 1))
            c = float(rng.uniform(0.01, 50))
            base = topk_reallocate(s_o, k)
            scaled = topk_reallocate(s_o * c, k)
            np.testing.assert_array_equal(base.mask, scaled.mask)
            np.testing.assert_allclose(base.s, scaled.s, atol=1e-6)

    def test_k_equals_t_masks_nothing(self):
        out = topk_reallocate([0.2, -0.1, 0.5, 0.05], 4)
        assert out.mask.all()


class TestEncoder:
    def test_deterministic(self):
        state = build_router(["a", "b"], seed=3)
        img = gen_clean_image(42, (32, 32))
        d1 = encode_degradation(state, img)
        d2 = encode_degradation(state, img)
        assert d1.data.tobytes() == d2.data.tobytes()

    def test_unit_norm(self):
        state = build_router(["a", "b", "c"], seed=3)
        for seed in range(5):
            d = encode_degradation(state, gen_clean_image(seed, (32, 32)))
            assert abs(np.linalg.norm(d.data) - 1.0) <= 1e-6

    def test_patch_shape_enforced(self):
        state = build_router(["a"], seed=3)
        with pytest.raises(ShapeError):
            encode_degradation(state, gen_clean_image(1, (16, 16)))

    def test_bank_columns_unit_norm(self):
        state = build_router(["a", "b", "c"], seed=9)
        norms = np.linalg.norm(state.bank.data, axis=0)
        np.testing.assert_allclose(norms, 1.0, atol=1e-6)

    def test_duplicate_labels_rejected(self):
        with pytest.raises(ConfigError):
            build_router(["a", "a"], seed=1)


class TestCropCorrection:
    def test_patch_sized_input_equals_plain_predict(self, monkeypatch):
        # both views are the image itself, so it is encoded once
        state = build_router(["a", "b", "c"], seed=5)
        img = gen_clean_image(7, (32, 32))
        plain = predict(state, img, 2)
        calls = []
        encode = router._encode_batch
        monkeypatch.setattr(router, "_encode_batch",
                            lambda *args: calls.append(1) or encode(*args))
        corrected = predict_with_crop_correction(state, img, 2)
        assert len(calls) == 1
        for field in ("s_o", "mask", "s"):
            assert getattr(plain, field).tobytes() == getattr(corrected, field).tobytes()
        assert plain.k == corrected.k

    def test_deterministic(self):
        state = build_router(["a", "b"], seed=5)
        img = gen_clean_image(9, (64, 48))
        r1 = predict_with_crop_correction(state, img, 1)
        r2 = predict_with_crop_correction(state, img, 1)
        assert r1.s_o.tobytes() == r2.s_o.tobytes()

    def test_image_smaller_than_patch_scores_its_resized_view(self, monkeypatch):
        # no crop fits, so the crop view is the resized view: one encode,
        # and the result is plain predict on the resized image
        state = build_router(["a", "b", "c"], seed=5)
        calls = []
        encode = router._encode_batch
        monkeypatch.setattr(router, "_encode_batch",
                            lambda *args: calls.append(1) or encode(*args))
        for size in ((16, 16), (16, 48), (48, 16)):
            img = gen_clean_image(1, size)
            plain = predict(state, resize_bilinear(img, state.patch), 2)
            calls.clear()
            corrected = predict_with_crop_correction(state, img, 2)
            assert len(calls) == 1
            for field in ("s_o", "mask", "s"):
                assert getattr(plain, field).tobytes() == getattr(corrected, field).tobytes()

    def test_batched_scores_equal_the_per_image_formula(self, monkeypatch):
        # the per-image formula: score the resized view and, where a native
        # crop fits and differs from it, the center crop, then average
        state = build_router(["a", "b", "c"], seed=5)
        sizes = [(32, 32), (64, 64), (16, 16), (40, 48), (32, 32), (16, 48), (64, 64)]
        images = [apply_degradation(gen_clean_image(20 + i, size),
                                    DegradationSpec("gaussian_noise", {"sigma": 0.05}, i))
                  for i, size in enumerate(sizes)]

        def score(view):
            return similarity(encode_degradation(state, view), state.bank)

        calls = []
        encode = router._encode_batch
        monkeypatch.setattr(router, "_encode_batch",
                            lambda *args: calls.append(1) or encode(*args))
        got = router.crop_corrected_scores(state, images)
        plain = router.crop_corrected_scores(state, images, corrected=False)
        assert len(calls) == 2
        for image, row, plain_row in zip(images, got, plain):
            _, h, w = image.dims
            want = score(resize_bilinear(image, state.patch))
            assert plain_row.tobytes() == want.tobytes()
            if (h, w) != state.patch and h >= state.patch[0] and w >= state.patch[1]:
                want = (want + score(center_crop(image, state.patch))) * np.float32(0.5)
            assert row.tobytes() == want.tobytes()
            # one image alone: both of its views in one encode
            calls.clear()
            assert predict_with_crop_correction(state, image, 2).s_o.tobytes() == want.tobytes()
            assert len(calls) == 1

    def test_resize_identity_when_same_size(self):
        img = gen_clean_image(3, (32, 32))
        assert resize_bilinear(img, (32, 32)) is img

    def test_resize_constant_image_stays_constant(self):
        img = Tensor(np.full((3, 64, 64), 0.25, np.float32))
        out = resize_bilinear(img, (32, 32))
        np.testing.assert_allclose(out.data, 0.25, atol=1e-6)
        assert out.dims == (3, 32, 32)

    def test_center_crop(self):
        img = gen_clean_image(4, (48, 64))
        crop = center_crop(img, (32, 32))
        np.testing.assert_array_equal(crop.data, img.data[:, 8:40, 16:48])


def training_set(labels, per_label=6):
    return [(label, [gen_clean_image(1000 * i + j, (32, 32)) for j in range(per_label)])
            for i, label in enumerate(labels)]


class TestTrainRouter:

    def test_zero_iterations_unchanged(self):
        labels = ("a", "b")
        state = build_router(labels, seed=11)
        before = {k: v.data.tobytes() for k, v in state.params.items()}
        before_bank = state.bank.data.tobytes()
        train_router(state, training_set(labels), TrainConfig(iterations=0, seed=1))
        assert state.bank.data.tobytes() == before_bank
        assert all(state.params[k].data.tobytes() == v for k, v in before.items())

    def test_same_seed_bit_identical(self):
        labels = ("a", "b", "c")
        results = []
        for _ in range(2):
            state = build_router(labels, seed=11)
            train_router(state, training_set(labels),
                         TrainConfig(iterations=8, batch_size=4, seed=5))
            blob = state.bank.data.tobytes() + b"".join(
                state.params[k].data.tobytes() for k in sorted(state.params))
            results.append(blob)
        assert results[0] == results[1]

    def test_missing_label_coverage_rejected(self):
        state = build_router(("a", "b"), seed=11)
        with pytest.raises(DataError):
            train_router(state, training_set(("a",)), TrainConfig(iterations=1, seed=1))

    def test_bank_stays_normalized_after_training(self):
        labels = ("a", "b")
        state = build_router(labels, seed=11)
        train_router(state, training_set(labels),
                     TrainConfig(iterations=5, batch_size=4, seed=2))
        np.testing.assert_allclose(np.linalg.norm(state.bank.data, axis=0), 1.0, atol=1e-6)


def router_bytes(state) -> bytes:
    return state.bank.data.tobytes() + b"".join(
        state.params[k].data.tobytes() for k in sorted(state.params))


class TestRouterReplicas:
    """train_router sums two half-batch gradients per step, computed by the
    caller and a forked replica when two workers fit."""

    LABELS = ("a", "b", "c")
    CONFIG = TrainConfig(iterations=6, batch_size=5, seed=5)

    def serial_two_shard_loop(self) -> bytes:
        # the step spelled out: shards of 3 and 2 images, each shard's loss
        # weighted by its share of the batch, gradients summed in shard order
        state = build_router(self.LABELS, seed=11)
        x = np.stack([img.data for _, imgs in training_set(self.LABELS) for img in imgs])
        y = np.repeat(np.arange(len(self.LABELS)), 6)
        config = self.CONFIG
        params = state.param_list()
        adam = Adam(params, lr=config.learning_rate)
        for it in range(config.iterations):
            idx = seeding.stream(config.seed, "router-batch", it).integers(
                0, len(x), size=config.batch_size)
            first, second = idx[:3], idx[3:]
            grads = []
            for part in (first, second):
                tape = GradTape()
                d = router._encode_batch(state, x[part], tape)
                logits = scale(matmul(d, state.bank, tape), 1.0 / router.TEMPERATURE, tape)
                loss = scale(softmax_cross_entropy(logits, y[part], tape),
                             len(part) / config.batch_size, tape)
                grads.append(tape.gradients(loss, params))
            adam.step([a + b for a, b in zip(*grads)],
                      lr=cosine_lr(config.learning_rate, it, config.iterations))
            router.normalize_bank(state.bank)
        return router_bytes(state)

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_equals_a_serial_two_shard_loop(self, cpus):
        state = build_router(self.LABELS, seed=11)
        with usable_cpus(cpus):
            train_router(state, training_set(self.LABELS), self.CONFIG)
        assert router_bytes(state) == self.serial_two_shard_loop()

    def test_failing_replica_raises_its_error_in_the_caller(self, monkeypatch):
        parent = os.getpid()
        encode = router._encode_batch

        def encode_or_fail(*args):
            if os.getpid() != parent:
                raise ShapeError("the replica's shard failed")
            return encode(*args)

        monkeypatch.setattr(router, "_encode_batch", encode_or_fail)
        state = build_router(self.LABELS, seed=11)
        with usable_cpus(2), pytest.raises(ShapeError, match="replica's shard"):
            train_router(state, training_set(self.LABELS), self.CONFIG)
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_batch_of_one_forks_nothing(self, monkeypatch):
        monkeypatch.setattr(os, "fork", lambda: pytest.fail("forked a replica"))
        state = build_router(self.LABELS, seed=11)
        with usable_cpus(2):
            train_router(state, training_set(self.LABELS), replace(self.CONFIG, batch_size=1))


class TestReplicas:
    def test_every_process_gets_every_shard_in_order(self):
        parent = os.getpid()
        with usable_cpus(2), workers.replicas(2) as gather:
            got = [gather(lambda i: (i, step, os.getpid())) for step in range(3)]
        assert [[(i, step) for i, step, _ in shards] for shards in got] == \
            [[(0, step), (1, step)] for step in range(3)]
        assert all(shards[0][2] == parent != shards[1][2] for shards in got)
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_messages_larger_than_a_pipe_buffer_swap(self):
        # 8 MB each way, far past the 64 KiB Linux pipe buffer
        with usable_cpus(2), workers.replicas(2) as gather:
            shards = gather(lambda i: np.full(1 << 21, i, np.float32))
        assert [float(shard.sum()) for shard in shards] == [0.0, float(1 << 21)]

    def test_one_worker_computes_every_shard_in_turn(self, monkeypatch):
        monkeypatch.setattr(os, "fork", lambda: pytest.fail("forked a replica"))
        with usable_cpus(1), workers.replicas(3) as gather:
            assert gather(lambda i: (i, os.getpid())) == [(i, os.getpid()) for i in range(3)]

    def test_killed_replica_raises_lorex_error(self):
        parent = os.getpid()

        def fn(i):
            if os.getpid() != parent:
                os.kill(os.getpid(), signal.SIGKILL)
            return i

        with usable_cpus(2), pytest.raises(LorexError, match="killed by signal 9"):
            with workers.replicas(2) as gather:
                gather(fn)
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_failing_caller_kills_the_replica(self):
        parent = os.getpid()
        t0 = time.monotonic()
        with usable_cpus(2), pytest.raises(ConfigError, match="caller failed"):
            with workers.replicas(2) as gather:
                gather(lambda i: i)
                if os.getpid() != parent:
                    time.sleep(60)
                raise ConfigError("the caller failed")
        assert time.monotonic() - t0 < 30
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_replica_failing_after_its_last_gather_raises_in_the_caller(self):
        # the replica's extra gather sends a result the caller never reads,
        # then fails to read the caller's; its failure comes after that result
        parent = os.getpid()
        with usable_cpus(2), pytest.raises(LorexError, match="calling process ended"):
            with workers.replicas(2) as gather:
                gather(lambda i: i)
                if os.getpid() != parent:
                    gather(lambda i: i)
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_replica_still_writing_after_the_callers_last_gather_fails(self):
        # the replica's extra result (4 MB) overflows the pipe buffer, so it
        # can only finish writing while the caller reads
        parent = os.getpid()

        def timeout(*_):
            raise AssertionError("the caller hung on a replica still writing")

        previous = signal.signal(signal.SIGALRM, timeout)
        signal.alarm(20)
        try:
            with usable_cpus(2), pytest.raises(LorexError, match="calling process ended"):
                with workers.replicas(2) as gather:
                    gather(lambda i: i)
                    if os.getpid() != parent:
                        gather(lambda i: np.zeros(1 << 19))
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)


class TestRoutingAccuracy:
    SIZES = ((32, 32), (48, 40), (64, 64), (40, 56))

    def _manifest(self, tmp_path, tasks, sizes=SIZES):
        records = []
        for t, task in enumerate(tasks):
            pairs = []
            for i in range(6):
                clean = gen_clean_image(100 * t + i, sizes[i % len(sizes)])
                degraded = apply_degradation(
                    clean, DegradationSpec(task.kind, task.params, seed=i))
                paths = (tmp_path / f"{task.label}_{i}_c.ppm", tmp_path / f"{task.label}_{i}_d.ppm")
                write_ppm(paths[0], clean)
                write_ppm(paths[1], degraded)
                pairs.append(paths)
            records.append(TaskRecord(task.label, pairs))
        records.append(TaskRecord("not_routed", records[0].pairs[:2]))
        return DatasetManifest(records)

    @staticmethod
    def _reference(state, manifest, corrected):
        # one image at a time, as restore routes it
        per_task, hits, total, preds = {}, 0, 0, []
        for task in manifest.tasks:
            if task.label not in state.labels:
                continue
            task_hits = 0
            for _, degraded_path in task.pairs:
                img = read_ppm(degraded_path)
                if corrected:
                    s_o = predict_with_crop_correction(state, img, 1).s_o
                else:
                    s_o = similarity(encode_degradation(
                        state, resize_bilinear(img, state.patch)), state.bank)
                preds.append(int(np.argmax(s_o)))
                task_hits += int(preds[-1] == state.labels.index(task.label))
            per_task[task.label] = task_hits / len(task.pairs)
            hits += task_hits
            total += len(task.pairs)
        return hits / total, per_task, preds

    @staticmethod
    def _trained_router(tasks):
        state = build_router([t.label for t in tasks], seed=3)
        train_router(state, [(task.label, [
            apply_degradation(gen_clean_image(500 + i, (32, 32)),
                              DegradationSpec(task.kind, task.params, seed=i))
            for i in range(8)]) for task in tasks], TrainConfig(iterations=60, batch_size=8))
        return state

    def test_batched_equals_per_image_reference(self, tmp_path):
        tasks = DEFAULT_TASKS[:3]
        manifest = self._manifest(tmp_path, tasks)
        state = self._trained_router(tasks)
        refs = {}
        for corrected in (True, False):
            acc, per_task, preds = self._reference(state, manifest, corrected)
            assert routing_accuracy(state, manifest, corrected) == (acc, per_task)
            refs[corrected] = preds
        # the crops change some predictions, so both modes are exercised
        assert refs[True] != refs[False]

    def test_images_smaller_than_the_patch_are_scored(self, tmp_path):
        # 16x16 and 16x48 images have no native crop: their crop view is the
        # resized view, as in predict_with_crop_correction
        tasks = DEFAULT_TASKS[:3]
        manifest = self._manifest(tmp_path, tasks, sizes=((16, 16), (16, 48), (48, 40)))
        state = self._trained_router(tasks)
        for corrected in (True, False):
            acc, per_task, _ = self._reference(state, manifest, corrected)
            assert routing_accuracy(state, manifest, corrected) == (acc, per_task)

    def test_no_shared_label_rejected(self, tmp_path):
        manifest = self._manifest(tmp_path, DEFAULT_TASKS[:1])
        with pytest.raises(ConfigError):
            routing_accuracy(build_router(["x", "y"], seed=3), manifest)
