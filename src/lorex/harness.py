"""Stage defaults and evaluation machinery shared by the CLI and the tests."""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from . import seeding
from .degradations import DatasetManifest, read_ppm
from .errors import ConfigError
from .metrics import MetricReport, psnr, ssim
from .numerics import DTYPE, Tensor
from .restorer import RestorerModel, TaskData, TrainConfig, restore
from .router import RouterState, _encode_batch, center_crop, predict_with_crop_correction, \
    resize_bilinear

# pretraining and router schedules; TrainConfig() is the expert
# stage, a 40x scale-down of an 80K-iteration recipe whose hotter learning
# rate compensates for the shorter schedule
PRETRAIN = TrainConfig(learning_rate=2e-3, iterations=4000)
ROUTER = TrainConfig(iterations=6000, batch_size=16)


def load_task_data(manifest: DatasetManifest, label: str) -> TaskData:
    task = manifest.task(label)
    pairs = [(read_ppm(d), read_ppm(c)) for c, d in task.pairs]
    return TaskData.from_pairs(label, pairs)


def clean_training_images(manifest: DatasetManifest) -> list[Tensor]:
    """All clean images in manifest order (task order, then index order)."""
    return [read_ppm(c) for task in manifest.tasks for c, _ in task.pairs]


def router_training_set(manifest: DatasetManifest) -> list[tuple[str, list[Tensor]]]:
    """Per-label degraded images, the router's training input."""
    return [(task.label, [read_ppm(d) for _, d in task.pairs]) for task in manifest.tasks]


WeightFn = Callable[[Tensor, str, int], np.ndarray]


def strategy_weight_fn(strategy: str, model: RestorerModel,
                       router: RouterState | None = None, k: int | None = None,
                       seed: int = 0, manual_s: Sequence[float] | None = None) -> WeightFn:
    """Per-image composition weights for one evaluation strategy.

    random: one expert one-hot, drawn per image. average: uniform over all
    experts. top1/top2/topk/all: router similarity with the given K.
    oracle: one-hot at the image's true task. manual: a fixed user vector.
    A router whose label order differs from the model's is rejected.
    """
    if router is not None and router.labels != model.labels:
        raise ConfigError("router and model label order disagree")
    t = model.t

    if strategy == "average":
        uniform = np.full(t, 1.0 / t, DTYPE)
        return lambda img, label, idx: uniform
    if strategy == "random":
        def fn(img, label, idx):
            s = np.zeros(t, DTYPE)
            s[seeding.stream(seed, "random-expert", label, idx).integers(0, t)] = 1.0
            return s
        return fn
    if strategy == "oracle":
        def fn(img, label, idx):
            if label not in model.labels:
                raise ConfigError(f"oracle strategy: {label!r} is not a trained task")
            s = np.zeros(t, DTYPE)
            s[model.labels.index(label)] = 1.0
            return s
        return fn
    if strategy == "manual":
        if manual_s is None:
            raise ConfigError("manual strategy requires an explicit weight vector")
        fixed = np.asarray(manual_s, DTYPE)
        return lambda img, label, idx: fixed
    if strategy in ("top1", "top2", "topk", "all"):
        if router is None:
            raise ConfigError(f"strategy {strategy!r} requires a router")
        kk = {"top1": 1, "top2": 2, "all": t}.get(strategy, k)
        if kk is None:
            raise ConfigError("strategy 'topk' requires an explicit K")
        return lambda img, label, idx: predict_with_crop_correction(router, img, kk).s
    raise ConfigError(f"unknown strategy {strategy!r}")


# pixels restored per forward: four 32x32 images. Larger chunks add little
# speed but grow the im2col columns (eight 32x32 images per chunk raise the
# evaluate benchmark's peak RSS by about 5 MB)
CHUNK_PIXELS = 4096


def _read_in_chunks(pairs):
    # (clean, degraded) images of consecutive same-size pairs, at most
    # CHUNK_PIXELS per chunk, so only one chunk is held in memory
    chunk: list[tuple[Tensor, Tensor]] = []
    for clean_path, degraded_path in pairs:
        clean, degraded = read_ppm(clean_path), read_ppm(degraded_path)
        _, h, w = degraded.dims
        if chunk and (degraded.dims != chunk[0][1].dims
                      or (len(chunk) + 1) * h * w > CHUNK_PIXELS):
            yield chunk
            chunk = []
        chunk.append((clean, degraded))
    if chunk:
        yield chunk


def evaluate_restoration(model: RestorerModel, manifest: DatasetManifest,
                         weight_fn: WeightFn,
                         with_baseline: bool = True) -> dict[str, dict[str, MetricReport]]:
    """Restore every test pair and score it; returns task -> metric -> report.

    Consecutive same-size pairs are restored in chunks of at most
    ``CHUNK_PIXELS`` pixels: ``weight_fn`` gives each degraded image its
    weight vector, and one forward restores the chunk with one weight row
    per image. Every value equals that of restoring the image alone.
    Metrics: restored psnr/ssim plus (optionally) the degraded input's
    psnr_degraded baseline.
    """
    results: dict[str, dict[str, MetricReport]] = {}
    for task in manifest.tasks:
        psnrs, ssims, base = [], [], []
        for chunk in _read_in_chunks(task.pairs):
            weights = [weight_fn(degraded, task.label, len(psnrs) + j)
                       for j, (_, degraded) in enumerate(chunk)]
            restored = restore(model, Tensor._wrap(np.stack([d.data for _, d in chunk])),
                               np.stack(weights))
            for (clean, degraded), out in zip(chunk, restored.data):
                psnrs.append(psnr(out, clean))
                ssims.append(ssim(out, clean))
                if with_baseline:
                    base.append(psnr(degraded, clean))
        reports = {"psnr": MetricReport(psnrs), "ssim": MetricReport(ssims)}
        if with_baseline:
            reports["psnr_degraded"] = MetricReport(base)
        results[task.label] = reports
    return results


def _routing_scores(router: RouterState, images: list[Tensor], corrected: bool) -> np.ndarray:
    # (N, T) similarities, as predict_with_crop_correction scores each image:
    # one encode of the stacked resized views and, if corrected, one of the
    # native crops of the images that are not patch-sized (a patch-sized
    # image's crop is its resized view, so its score stays as it is)
    resized = np.stack([resize_bilinear(img, router.patch).data for img in images])
    scores = _encode_batch(router, resized).data @ router.bank.data
    if corrected:
        big = [i for i, img in enumerate(images) if img.dims[1:] != tuple(router.patch)]
        if big:
            crops = np.stack([center_crop(images[i], router.patch).data for i in big])
            crop_scores = _encode_batch(router, crops).data @ router.bank.data
            scores[big] = (scores[big] + crop_scores) * DTYPE(0.5)
    return scores


def routing_accuracy(router: RouterState, manifest: DatasetManifest,
                     corrected: bool = True) -> tuple[float, dict[str, float]]:
    """Fraction of degraded test images routed to their true task.

    ``corrected=False`` scores the resized view only; ``corrected=True``
    averages the resized and native-crop similarities first. Tasks whose
    label is not in the router vocabulary (mixed composites) are skipped.
    Each task's views are encoded as one batch.
    """
    per_task: dict[str, float] = {}
    total = hits = 0
    for task in manifest.tasks:
        if task.label not in router.labels:
            continue
        truth = router.labels.index(task.label)
        images = [read_ppm(degraded_path) for _, degraded_path in task.pairs]
        preds = np.argmax(_routing_scores(router, images, corrected), axis=1)
        task_hits = int((preds == truth).sum())
        per_task[task.label] = task_hits / len(task.pairs)
        hits += task_hits
        total += len(task.pairs)
    if total == 0:
        raise ConfigError("manifest shares no labels with the router")
    return hits / total, per_task
