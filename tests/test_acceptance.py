"""Acceptance suite: exact mechanism invariants plus directional
desk-scale checks, one test per criterion, each printing a PASS/FAIL line.

Criteria 6-9 use the session-scoped trained pipeline (dataset, pretrained
base, five trained experts, trained router) built once in conftest.
"""

import time
from itertools import product

import numpy as np
import pytest

from lorex import persist, restorer
from lorex.cli import main as cli_main
from lorex.degradations import gen_clean_image, read_ppm
from lorex.harness import (
    evaluate_restoration,
    load_task_data,
    routing_accuracy,
    strategy_weight_fn,
)
from lorex.lora import AdaptedLayer, LoraAdapter, adapted_forward, aggregated_forward, \
    merge_weights, merged_forward
from lorex.numerics import (
    Tensor,
    add,
    bias_add,
    bias_add_rows,
    concat_channels,
    conv2d,
    finite_difference_check,
    global_avg_pool,
    l1_loss,
    l2_normalize_rows,
    leaky_relu,
    matmul,
    mean_all,
    mul,
    reshape,
    scale,
    softmax_cross_entropy,
    sub,
    sum_all,
    transpose2d,
    upsample_nearest2,
)
from lorex.restorer import (
    AdapterTrainer,
    TrainConfig,
    build_model,
    forward,
    restore,
    restore_auto,
)
from lorex.router import predict_with_crop_correction, topk_reallocate

from conftest import MASTER_SEED


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")


def rel_err(got, want):
    return float(np.abs(got - want).max() / max(np.abs(want).max(), 1.0))


def random_layer(rng, kind):
    if kind == "linear":
        n, m, t = int(rng.integers(3, 10)), int(rng.integers(3, 10)), int(rng.integers(2, 6))
        rank = int(rng.integers(1, max(2, min(n, m) - 1)))
        layer = AdaptedLayer(
            kind="linear",
            base_weight=Tensor(rng.standard_normal((n, m)).astype(np.float32) * 0.5),
            base_bias=Tensor(rng.standard_normal((n,)).astype(np.float32) * 0.1),
            adapters=[LoraAdapter.create(n, m, rank, rng) for _ in range(t)])
        x = Tensor(rng.standard_normal((int(rng.integers(1, 5)), m)).astype(np.float32))
    else:
        co, ci, t = int(rng.integers(2, 6)), int(rng.integers(2, 5)), int(rng.integers(2, 6))
        rank = int(rng.integers(1, max(2, min(co, ci * 9) - 1)))
        layer = AdaptedLayer(
            kind="conv",
            base_weight=Tensor(rng.standard_normal((co, ci, 3, 3)).astype(np.float32) * 0.3),
            base_bias=Tensor(rng.standard_normal((co,)).astype(np.float32) * 0.1),
            adapters=[LoraAdapter.create(co, ci * 9, rank, rng) for _ in range(t)],
            stride=int(rng.integers(1, 3)),
            padding="same" if rng.random() < 0.5 else "valid")
        x = Tensor(rng.standard_normal((1, ci, 8, 8)).astype(np.float32))
    for ad in layer.adapters:
        ad.b = Tensor(rng.standard_normal(ad.b.dims).astype(np.float32) * 0.3)
    s = (rng.random(layer.task_count) * (rng.random(layer.task_count) < 0.7)).astype(np.float32)
    return layer, x, s


def test_criterion_1_merge_aggregate_equivalence(monkeypatch):
    t0 = time.time()
    worst_layer = 0.0
    for trial in range(1000):
        rng = np.random.default_rng(4000 + trial)
        layer, x, s = random_layer(rng, "linear" if trial % 10 < 7 else "conv")
        agg = aggregated_forward(layer, x, s)
        mrg = merged_forward(layer, merge_weights(layer, s), x)
        worst_layer = max(worst_layer, rel_err(agg.data, mrg.data))

    worst_net = 0.0
    model = build_model(("a", "b", "c"), seed=41)
    rng = np.random.default_rng(42)
    for name in model.adapted_layer_names():
        for ad in model.layers[name].adapters:
            ad.b = Tensor(rng.standard_normal(ad.b.dims).astype(np.float32) * 0.2)
    for _ in range(30):
        x = Tensor(rng.random((3, 32, 32), dtype=np.float32))
        s = rng.random(3).astype(np.float32)
        s /= s.sum()
        mrg = forward(model, x, s, merged=True)
        with monkeypatch.context() as m:
            # the aggregation side: every layer sums its expert outputs
            m.setattr(restorer, "adapted_forward", aggregated_forward)
            agg = forward(model, x, s)
        worst_net = max(worst_net, rel_err(agg.data, mrg.data))

    elapsed = time.time() - t0
    ok = worst_layer <= 1e-5 and worst_net <= 1e-4 and elapsed < 30
    report(1, ok, f"per-layer {worst_layer:.2e} (<=1e-5), whole-net {worst_net:.2e} "
                  f"(<=1e-4), {elapsed:.1f}s (<30s)")
    assert ok


def test_criterion_2_zero_init_transparency():
    t0 = time.time()
    model = build_model(("a", "b", "c", "d"), seed=43)
    zeros = np.zeros(4, np.float32)
    rng = np.random.default_rng(44)
    identical = True
    for _ in range(100):
        x = Tensor(rng.random((3, 32, 32), dtype=np.float32))
        s = (rng.random(4) * 2).astype(np.float32)
        identical &= restore(model, x, s).data.tobytes() == \
            restore(model, x, zeros).data.tobytes()
    elapsed = time.time() - t0
    ok = identical and elapsed < 5
    report(2, ok, f"100 inputs bit-identical={identical}, {elapsed:.1f}s (<5s)")
    assert ok


def test_criterion_3_gradient_correctness():
    t0 = time.time()

    def head(out, w, tape):
        return mean_all(mul(out, w, tape), tape)

    def away(rng, shape, low=0.05):
        mag = rng.uniform(low, 1.0, size=shape).astype(np.float32)
        return mag * np.where(rng.random(shape) < 0.5, -1, 1).astype(np.float32)

    def primitive_cases(rng):
        x24 = Tensor(away(rng, (2, 4)))
        y24 = Tensor(away(rng, (2, 4)))
        w24 = Tensor(rng.standard_normal((2, 4)).astype(np.float32))
        xc = Tensor(away(rng, (1, 2, 6, 6)))
        kc = Tensor(away(rng, (3, 2, 3, 3)) * 0.5)
        stride = int(rng.integers(1, 3))
        pad = "same" if rng.random() < 0.5 else "valid"
        wc = Tensor(np.ones(conv2d(xc, kc, pad, stride).dims, np.float32))
        k1 = Tensor(away(rng, (2, 2, 1, 1)))
        w1 = Tensor(np.ones((1, 2, 6, 6), np.float32))
        bias = Tensor(away(rng, (2,)))
        wb = Tensor(np.ones((1, 2, 6, 6), np.float32))
        x4 = Tensor(away(rng, (1, 2, 6, 6)))
        wgap = Tensor(rng.standard_normal((1, 2)).astype(np.float32))
        xn = Tensor(away(rng, (2, 5), low=0.2))
        wn = Tensor(rng.standard_normal((2, 5)).astype(np.float32))
        wup = Tensor(rng.standard_normal((1, 2, 12, 12)).astype(np.float32))
        wcat = Tensor(rng.standard_normal((1, 4, 6, 6)).astype(np.float32))
        wt = Tensor(rng.standard_normal((4, 2)).astype(np.float32))
        wr = Tensor(rng.standard_normal((4, 2)).astype(np.float32))
        target = Tensor(x24.data + away(rng, (2, 4), low=0.05))
        logits = Tensor(rng.standard_normal((3, 4)).astype(np.float32))
        labels = rng.integers(0, 4, size=3)
        other = Tensor(away(rng, (2, 4)))
        return [
            ("matmul", lambda p, t: head(matmul(p, transpose2d(y24, t), t), Tensor(np.ones((2, 2), np.float32)), t), x24),
            ("conv2d", lambda p, t: head(conv2d(p, kc, pad, stride, t), wc, t), xc),
            ("conv2d_w", lambda p, t: head(conv2d(xc, p, pad, stride, t), wc, t), kc),
            ("conv2d_1x1", lambda p, t: head(conv2d(x4, p, "same", 1, t), w1, t), k1),
            ("bias_add", lambda p, t: head(bias_add(x4, p, t), wb, t), bias),
            ("bias_add_rows", lambda p, t: head(bias_add_rows(x24, p, t), w24, t), Tensor(away(rng, (4,)))),
            ("add", lambda p, t: head(add(p, y24, t), w24, t), x24),
            ("sub", lambda p, t: head(sub(y24, p, t), w24, t), x24),
            ("mul", lambda p, t: head(mul(p, y24, t), w24, t), x24),
            ("scale", lambda p, t: head(scale(p, 0.7, t), w24, t), x24),
            ("leaky_relu", lambda p, t: head(leaky_relu(p, 0.1, t), w24, t), x24),
            ("transpose2d", lambda p, t: head(transpose2d(p, t), wt, t), x24),
            ("reshape", lambda p, t: head(reshape(p, (4, 2), t), wr, t), x24),
            ("concat", lambda p, t: head(concat_channels([p, x4], t), wcat, t), x4),
            ("upsample", lambda p, t: head(upsample_nearest2(p, t), wup, t), x4),
            ("gap", lambda p, t: head(global_avg_pool(p, t), wgap, t), x4),
            ("l2norm", lambda p, t: head(l2_normalize_rows(p, t), wn, t), xn),
            ("l1_loss", lambda p, t: l1_loss(p, target, t), x24),
            ("softmax_ce", lambda p, t: softmax_cross_entropy(p, labels, t), logits),
            ("sum_all", lambda p, t: sum_all(p, t), x24),
            ("mean_all", lambda p, t: mean_all(p, t), other),
        ]

    worst = {}
    for trial in range(100):
        rng = np.random.default_rng(6000 + trial)
        for name, f, p in primitive_cases(rng):
            err = finite_difference_check(f, p, eps=1e-3)
            worst[name] = max(worst.get(name, 0.0), err)

    layer_worst = 0.0
    for trial in range(100):
        rng = np.random.default_rng(7000 + trial)
        layer, x, _ = random_layer(rng, "conv")
        target = Tensor(rng.random(
            adapted_forward(layer, x, np.zeros(layer.task_count)).dims, dtype=np.float32))
        s = rng.random(layer.task_count).astype(np.float32)

        def f(p, tape, layer=layer, x=x, s=s, target=target):
            layer.adapters[0].b = p
            return l1_loss(adapted_forward(layer, x, s, tape), target, tape)
        layer_worst = max(layer_worst, finite_difference_check(f, layer.adapters[0].b))

    elapsed = time.time() - t0
    bad = {k: v for k, v in worst.items() if v > 1e-3}
    ok = not bad and layer_worst <= 1e-3 and elapsed < 60
    report(3, ok, f"primitives max {max(worst.values()):.2e}, adapted layer "
                  f"{layer_worst:.2e} (<=1e-3), {elapsed:.1f}s (<60s)")
    assert ok, f"failing primitives: {bad}"


@pytest.mark.heavy
def test_criterion_4_expert_isolation_and_decomposition(dataset, base_model_path):
    t0 = time.time()
    config = TrainConfig(learning_rate=1e-3, seed=MASTER_SEED + 1, iterations=200,
                         batch_size=8)
    tasks = [load_task_data(dataset["train"], lb) for lb in dataset["train"].labels]

    seq = persist.load_model(base_model_path)
    base_digest = persist.base_digest(seq)
    isolated = True
    for k in range(seq.t):
        before = [persist.adapter_digest(seq, j) for j in range(seq.t)]
        AdapterTrainer(seq, k, tasks[k], config).run()
        isolated &= persist.base_digest(seq) == base_digest
        for j in range(seq.t):
            if j != k:
                isolated &= persist.adapter_digest(seq, j) == before[j]

    inter = persist.load_model(base_model_path)
    trainers = [AdapterTrainer(inter, k, tasks[k], config) for k in range(inter.t)]
    for _ in range(config.iterations):
        for tr in trainers:
            tr.step()
    decomposed = all(persist.adapter_digest(seq, k) == persist.adapter_digest(inter, k)
                     for k in range(seq.t))

    elapsed = time.time() - t0
    ok = isolated and decomposed and elapsed < 300
    report(4, ok, f"isolation={isolated}, sequential==interleaved={decomposed}, "
                  f"{elapsed:.0f}s (<300s)")
    assert ok


@pytest.mark.heavy
def test_training_loss_decreases_for_every_task(dataset, base_model_path):
    # loss at iteration 200 is below loss at iteration 0 on each default task
    model = persist.load_model(base_model_path)
    config = TrainConfig(learning_rate=1e-3, seed=MASTER_SEED + 1, iterations=200,
                         batch_size=8)
    for k, label in enumerate(model.labels):
        trainer = AdapterTrainer(model, k, load_task_data(dataset["train"], label),
                                 config).run()
        assert trainer.losses[199] < trainer.losses[0], label


def test_criterion_5_router_algebra():
    t0 = time.time()

    def mask_oracle(s_o, k):
        order = sorted(range(len(s_o)), key=lambda i: (-s_o[i], i))
        mask = np.zeros(len(s_o), dtype=bool)
        mask[order[:k]] = True
        return mask

    ok = True
    for t in range(1, 7):
        for pattern in product((-0.5, 0.0, 0.7), repeat=t):
            for k in range(1, t + 1):
                out = topk_reallocate(pattern, k)
                ok &= np.array_equal(out.mask, mask_oracle(pattern, k))
                ok &= int(np.count_nonzero(out.s)) <= k
                if np.any(np.asarray(pattern)[out.mask] > 0):
                    ok &= abs(float(out.s.sum()) - 1.0) <= 1e-6

    rng = np.random.default_rng(99)
    for _ in range(1000):
        t = int(rng.integers(1, 9))
        s_o = rng.standard_normal(t).astype(np.float32)
        k = int(rng.integers(1, t + 1))
        out = topk_reallocate(s_o, k)
        ok &= np.array_equal(out.mask, mask_oracle(s_o, k))
        c = float(rng.uniform(0.01, 100))
        scaled = topk_reallocate(s_o * c, k)
        ok &= np.array_equal(out.mask, scaled.mask)
        ok &= bool(np.allclose(out.s, scaled.s, atol=1e-6))

    elapsed = time.time() - t0
    ok = ok and elapsed < 10
    report(5, ok, f"exhaustive T<=6 + 1000 random vs sort oracle, rescaling "
                  f"invariant, {elapsed:.1f}s (<10s)")
    assert ok


@pytest.mark.heavy
def test_criterion_6_router_accuracy(dataset, trained_router, timings):
    t0 = time.time()
    acc_corrected, per_task = routing_accuracy(trained_router, dataset["test"],
                                               corrected=True)
    acc_plain, _ = routing_accuracy(trained_router, dataset["test"], corrected=False)
    eval_elapsed = time.time() - t0
    total = timings["train_router"] + eval_elapsed
    ok = acc_corrected >= 0.90 and acc_corrected >= acc_plain and total < 600
    report(6, ok, f"accuracy {acc_corrected:.3f} (>=0.90), corrected "
                  f"{acc_corrected:.3f} >= uncorrected {acc_plain:.3f}, "
                  f"{total:.0f}s (<600s); per-task {per_task}")
    assert ok


@pytest.mark.heavy
def test_criterion_7_restoration_gain(dataset, trained_model, timings):
    t0 = time.time()
    gains = {}
    for k, label in enumerate(trained_model.labels):
        s = np.zeros(trained_model.t, np.float32)
        s[k] = 1.0
        restored, degraded = [], []
        for clean_path, degraded_path in dataset["test"].task(label).pairs:
            clean = read_ppm(clean_path)
            deg = read_ppm(degraded_path)
            from lorex.metrics import psnr
            restored.append(psnr(restore(trained_model, deg, s), clean))
            degraded.append(psnr(deg, clean))
        gains[label] = float(np.mean(restored) - np.mean(degraded))
    total = timings["train_lora_all"] + (time.time() - t0)
    ok = all(g >= 2.0 for g in gains.values()) and total < 1800
    detail = ", ".join(f"{lb} {g:+.2f}" for lb, g in gains.items())
    report(7, ok, f"gains (>=+2.00 dB each): {detail}; {total:.0f}s (<1800s)")
    assert ok, gains


@pytest.mark.heavy
def test_criterion_8_routing_strategy_ordering(dataset, trained_model, trained_router):
    t0 = time.time()
    means = {}
    for strategy in ("random", "average", "top1", "all"):
        fn = strategy_weight_fn(strategy, trained_model, trained_router,
                                seed=MASTER_SEED)
        results = evaluate_restoration(trained_model, dataset["test"], fn,
                                       with_baseline=False)
        means[strategy] = float(np.mean([r["psnr"].mean for r in results.values()]))
    elapsed = time.time() - t0
    ok = (means["top1"] >= means["average"] + 1.0
          and means["top1"] >= means["random"] + 1.0
          and abs(means["all"] - means["top1"]) <= 0.1
          and elapsed < 300)
    report(8, ok, f"top1 {means['top1']:.2f}, average {means['average']:.2f}, "
                  f"random {means['random']:.2f}, all {means['all']:.2f} "
                  f"(|all-top1|={abs(means['all'] - means['top1']):.3f}<=0.1), "
                  f"{elapsed:.0f}s (<300s)")
    assert ok, means


@pytest.mark.heavy
def test_criterion_9_mixed_degradation_transfer(dataset, trained_model, trained_router):
    from lorex.metrics import psnr
    t0 = time.time()
    mix = dataset["mixed"].task("gaussian_blur+low_light")
    auto, degraded = [], []
    singles = {lb: [] for lb in trained_model.labels}
    for clean_path, degraded_path in mix.pairs:
        clean = read_ppm(clean_path)
        deg = read_ppm(degraded_path)
        out, _ = restore_auto(trained_model, trained_router, deg, 2)
        auto.append(psnr(out, clean))
        degraded.append(psnr(deg, clean))
        for k, lb in enumerate(trained_model.labels):
            s = np.zeros(trained_model.t, np.float32)
            s[k] = 1.0
            singles[lb].append(psnr(restore(trained_model, deg, s), clean))
    auto_m = float(np.mean(auto))
    deg_m = float(np.mean(degraded))
    best_single = max(float(np.mean(v)) for v in singles.values())
    elapsed = time.time() - t0
    ok = auto_m >= deg_m + 1.0 and auto_m >= best_single - 0.5 and elapsed < 300
    report(9, ok, f"auto K=2 {auto_m:.2f} vs degraded {deg_m:.2f} (+1.0 needed) "
                  f"and best single {best_single:.2f} (-0.5 allowed), "
                  f"{elapsed:.0f}s (<300s)")
    assert ok


@pytest.mark.heavy
def test_pretrained_base_reconstruction(dataset, base_model_path):
    # the frozen prior must encode clean images well before any expert exists
    from lorex.metrics import psnr
    model = persist.load_model(base_model_path)
    zeros = np.zeros(model.t, np.float32)
    values = [psnr(restore(model, read_ppm(c), zeros), read_ppm(c))
              for task in dataset["test"].tasks for c, _ in task.pairs[:8]]
    mean = float(np.mean(values))
    assert mean >= 30.0, f"clean reconstruction {mean:.2f} dB"


@pytest.mark.heavy
def test_router_noisy_task_accuracy(dataset, trained_router):
    _, per_task = routing_accuracy(trained_router, dataset["test"], corrected=True)
    assert per_task["gaussian_noise"] >= 0.90, per_task


@pytest.mark.heavy
def test_crop_correction_helps_on_oversized_blurry_images(trained_router):
    # downscaling a blurred image sharpens it and misleads the resized view;
    # averaging in the native-scale crop's similarity must not hurt
    from lorex.degradations import DegradationSpec, apply_degradation
    from lorex.router import encode_degradation, resize_bilinear, similarity

    blur_idx = trained_router.labels.index("gaussian_blur")
    spec = DegradationSpec("gaussian_blur", {"sigma": 0.6, "size": 3})
    hits_plain = hits_corrected = n = 0
    for i in range(60):
        clean = gen_clean_image(900000 + i, (64, 64))
        blurred = apply_degradation(clean, spec.with_seed(5000 + i))
        resized = resize_bilinear(blurred, trained_router.patch)
        plain = int(np.argmax(similarity(
            encode_degradation(trained_router, resized), trained_router.bank)))
        corrected = int(np.argmax(
            predict_with_crop_correction(trained_router, blurred, 1).s_o))
        hits_plain += plain == blur_idx
        hits_corrected += corrected == blur_idx
        n += 1
    assert hits_corrected / n >= hits_plain / n, (hits_corrected, hits_plain)


def test_criterion_10_reproducibility(tmp_path):
    def run(*argv):
        assert cli_main([str(a) for a in argv]) == 0

    outputs = {}
    for tag in ("r1", "r2"):
        root = tmp_path / tag
        data = root / "data"
        run("gen-data", "--out", data, "--seed", "5", "--train-per-task", "6",
            "--test-per-task", "3", "--mixed-pairs", "2")
        run("pretrain-base", "--data", data / "train.manifest",
            "--out", root / "base.uirl", "--seed", "5", "--iterations", "30")
        run("train-lora", "--task", "gaussian_noise",
            "--data", data / "train.manifest", "--ckpt", root / "base.uirl",
            "--out", root / "noise.uirl", "--iterations", "20", "--seed", "5")
        run("train-router", "--data", data / "train.manifest",
            "--out", root / "router.uirl", "--iterations", "20", "--seed", "5")
        run("eval", "--data", data / "test.manifest", "--ckpt", root / "noise.uirl",
            "--router", root / "router.uirl", "--strategy", "top1",
            "--out", root / "report.tsv")
        blob = {}
        for rel in ("data/train.manifest", "data/test.manifest", "base.uirl",
                    "noise.uirl", "router.uirl", "report.tsv"):
            blob[rel] = (root / rel).read_bytes()
        blob["tree"] = b"".join(
            p.read_bytes() for p in sorted(data.rglob("*.ppm")))
        outputs[tag] = blob

    same = all(outputs["r1"][k] == outputs["r2"][k] for k in outputs["r1"])
    report(10, same, "datasets, checkpoints, and reports bit-identical on rerun")
    assert same
