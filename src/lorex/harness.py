"""Stage defaults, evaluation and expert training shared by the CLI and the tests.

``evaluate_restoration`` scores several composition strategies in one
pass over a manifest. Consecutive same-size pairs of a task form a chunk
of at most ``CHUNK_PIXELS`` pixels, and what does not depend on the
strategy is done once per chunk: each image is read once, the degraded
images are routed at most once (one batched crop-corrected encode, whose
scores every router strategy shares), and the clean images' SSIM
statistics are filtered once. What stays per strategy is the chunk's
(N, T) weight rows, one forward that restores the chunk with one row per
image, and one batched SSIM. Every score equals that of restoring and
scoring the image alone, bit for bit, so a report does not depend on which
strategies share the pass.

The chunks are planned once, by the caller, from the headers of the
degraded images, and they are the items of ``workers.in_workers`` (one
``gather`` of ``workers.replicas``), so workers get equal shares of images
when tasks are not a multiple of the worker count (two workers score 20
and 20 of five tasks of 8 pairs, not 24 and 16). Each chunk keeps its
images' indices within the task. W processes score the chunks, W being
the smaller of the chunk count and the usable cores that BLAS threads
leave free (see ``workers``): the calling process takes chunks 0, W, 2W,
..., and W - 1 forked children take the rest. No score depends on the
images scored with it, and each task's values are joined in manifest
order before its reports are built, so the reports are the ones a single
process computes, whatever the core count.

``train_experts`` trains experts in the same workers, one task per item: an
expert depends only on the base, its own initial factors, its task's pairs
and the schedule, so the trained model is bit-identical for any worker
count.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

import numpy as np

from . import seeding, workers
from .degradations import DatasetManifest, ppm_dims, read_ppm
from .errors import ConfigError, DataError
from .metrics import MetricReport, psnr, ssim_chunk, ssim_reference
from .numerics import DTYPE, Tensor
from .restorer import AdapterTrainer, RestorerModel, TaskData, TrainConfig, restore
from .router import RouterState, crop_corrected_scores, topk_reallocate

# pretraining and router schedules; TrainConfig() is the expert
# stage, a 40x scale-down of an 80K-iteration recipe whose hotter learning
# rate compensates for the shorter schedule
PRETRAIN = TrainConfig(learning_rate=2e-3, iterations=4000)
ROUTER = TrainConfig(iterations=6000, batch_size=16)


def load_task_data(manifest: DatasetManifest, label: str) -> TaskData:
    """One task's pairs, stacked; every image must have the size of the
    task's first degraded image, else ``DataError`` names the first that
    does not."""
    pairs = []
    for clean_path, degraded_path in manifest.task(label).pairs:
        degraded, clean = read_ppm(degraded_path), read_ppm(clean_path)
        size = (pairs[0][0] if pairs else degraded).dims
        for path, image in ((degraded_path, degraded), (clean_path, clean)):
            if image.dims != size:
                raise DataError(f"{path} is {image.dims[1]}x{image.dims[2]} but the first "
                                f"image of task {label!r} is {size[1]}x{size[2]}")
        pairs.append((degraded, clean))
    return TaskData.from_pairs(label, pairs)


def clean_training_images(manifest: DatasetManifest) -> list[Tensor]:
    """All clean images in manifest order (task order, then index order)."""
    return [read_ppm(c) for task in manifest.tasks for c, _ in task.pairs]


def router_training_set(manifest: DatasetManifest) -> list[tuple[str, list[Tensor]]]:
    """Per-label degraded images, the router's training input."""
    return [(task.label, [read_ppm(d) for _, d in task.pairs]) for task in manifest.tasks]


@dataclass
class Chunk:
    """Consecutive same-size degraded images of one task, as every strategy
    of an evaluation pass sees them."""

    label: str
    first: int                  # the first image's index within its task
    images: np.ndarray          # (N, 3, H, W)
    _routed: tuple | None = field(default=None, repr=False)

    def scores(self, router: RouterState) -> np.ndarray:
        """The images' crop-corrected similarities (N, T), encoded on first use."""
        if self._routed is None or self._routed[0] is not router:
            images = [Tensor._wrap(image) for image in self.images]
            self._routed = (router, crop_corrected_scores(router, images))
        return self._routed[1]


@dataclass(frozen=True)
class Strategy:
    """How one strategy composes the experts: ``weights(chunk)`` gives each
    image of the chunk its weight row, (N, T). ``tasks`` lists the task
    labels it can weight, or is None for any."""

    weights: Callable[[Chunk], np.ndarray]
    tasks: tuple[str, ...] | None = None

    def check(self, name: str, labels) -> None:
        """Reject task labels this strategy cannot weight."""
        for label in labels:
            if self.tasks is not None and label not in self.tasks:
                raise ConfigError(f"{name} strategy: {label!r} is not a trained task")


def build_strategy(name: str, model: RestorerModel, router: RouterState | None = None,
                   k: int | None = None, seed: int = 0,
                   manual_s: Sequence[float] | None = None) -> Strategy:
    """One evaluation strategy, checked before any image is seen.

    random: one expert one-hot, drawn per image. average: uniform over all
    experts. top1/top2/topk/all: router similarity with K = 1, 2, ``k`` or
    T. oracle: one-hot at the image's true task. manual: a fixed user vector.
    A router whose label order differs from the model's is rejected.
    """
    if router is not None and router.labels != model.labels:
        raise ConfigError("router and model label order disagree")
    t = model.t

    def same_row(row):
        return Strategy(lambda chunk: np.tile(row, (len(chunk.images), 1)))

    if name == "average":
        return same_row(np.full(t, 1.0 / t, DTYPE))
    if name == "manual":
        if manual_s is None:
            raise ConfigError("manual strategy requires an explicit weight vector")
        fixed = np.asarray(manual_s, DTYPE)
        if fixed.shape != (t,):
            raise ConfigError(f"manual weight vector length {fixed.size} != task count {t}")
        return same_row(fixed)
    if name == "random":
        def random_rows(chunk):
            s = np.zeros((len(chunk.images), t), DTYPE)
            for j, row in enumerate(s):
                row[seeding.stream(seed, "random-expert", chunk.label,
                                   chunk.first + j).integers(0, t)] = 1.0
            return s
        return Strategy(random_rows)
    if name == "oracle":
        def oracle_rows(chunk):
            s = np.zeros((len(chunk.images), t), DTYPE)
            s[:, model.labels.index(chunk.label)] = 1.0
            return s
        return Strategy(oracle_rows, tasks=model.labels)
    if name in ("top1", "top2", "topk", "all"):
        if router is None:
            raise ConfigError(f"strategy {name!r} requires a router")
        kk = {"top1": 1, "top2": 2, "all": t}.get(name, k)
        if kk is None:
            raise ConfigError("strategy 'topk' requires an explicit K")
        if not isinstance(kk, (int, np.integer)) or not 1 <= kk <= t:
            raise ConfigError(f"strategy {name!r}: K must be in [1, {t}], got {kk!r}")
        return Strategy(lambda chunk: np.stack(
            [topk_reallocate(row, kk).s for row in chunk.scores(router)]))
    raise ConfigError(f"unknown strategy {name!r}")


# pixels restored per forward: four 32x32 images. A chunk is the
# consecutive same-size pairs of one task that fit in it, or one pair if a
# single image is larger. Larger chunks add little speed but grow the im2col
# columns (eight 32x32 images per chunk raise the evaluate benchmark's peak
# RSS by about 5 MB)
CHUNK_PIXELS = 4096


def train_experts(model: RestorerModel, manifest: DatasetManifest, labels: Sequence[str],
                  config: TrainConfig) -> dict[str, list[float]]:
    """Train the expert of each of ``labels`` on its task's ``manifest``
    pairs with ``AdapterTrainer``, in place; returns label -> the expert's
    training losses, in ``labels`` order.

    Every label is checked before any image is read or any worker starts.
    The experts are trained one per item in ``workers.in_workers``, at most
    one worker per usable core; each item's result is its expert's trained
    factors and losses, and the factors are written back into ``model`` in
    label order. The model is bit-identical to training the experts one
    after another in one process.
    """
    labels = list(labels)
    for i, label in enumerate(labels):
        if label not in model.labels:
            raise ConfigError(f"task {label!r} is not in the model labels")
        if label in labels[:i]:
            raise ConfigError(f"task {label!r} is listed more than once")
        manifest.task(label)            # DataError if the manifest lacks it

    def train(label):
        trainer = AdapterTrainer(model, model.labels.index(label),
                                 load_task_data(manifest, label), config).run()
        return [p.data for p in trainer.params], trainer.losses

    losses = {}
    for label, (factors, curve) in zip(labels, workers.in_workers(train, labels)):
        for param, data in zip(model.adapter_params(model.labels.index(label)), factors):
            param.data[...] = data
        losses[label] = curve
    return losses


def evaluate_restoration(model: RestorerModel, manifest: DatasetManifest,
                         strategies: Mapping[str, Strategy], with_baseline: bool = True
                         ) -> dict[str, dict[str, dict[str, MetricReport]]]:
    """Restore every test pair under every strategy and score it, in one
    pass (see the module docstring); returns strategy -> task -> metric ->
    report, tasks in manifest order.

    Every strategy is checked against the manifest's labels before any
    image is read or any worker starts. The caller then reads the header of
    every degraded image and cuts each task's pairs into chunks (see
    ``CHUNK_PIXELS``), and the chunks are scored one per item in
    ``workers.in_workers``, at most one worker per usable core. Each task's
    values are joined in manifest order before its reports are built, so
    the reports are the same for any worker count. Metrics: restored
    psnr/ssim plus (optionally) the degraded input's psnr_degraded
    baseline, computed once per pair.
    """
    for name, strategy in strategies.items():
        strategy.check(name, manifest.labels)
    chunks = []                 # (task index, first pair, end pair)
    for t, task in enumerate(manifest.tasks):
        first, size = 0, None
        for i, (_, degraded_path) in enumerate(task.pairs):
            h, w = ppm_dims(degraded_path)
            if i > first and ((h, w) != size or (i + 1 - first) * h * w > CHUNK_PIXELS):
                chunks.append((t, first, i))
                first = i
            size = (h, w)
        if task.pairs:
            chunks.append((t, first, len(task.pairs)))

    def score(item):
        t, first, end = item
        task = manifest.tasks[t]
        return _score_chunk(model, task.label, task.pairs[first:end], first, strategies,
                            with_baseline)

    metrics = ("psnr", "ssim", "psnr_degraded") if with_baseline else ("psnr", "ssim")
    values = [{name: {metric: [] for metric in metrics} for name in strategies}
              for _ in manifest.tasks]
    for (t, _, _), scored in zip(chunks, workers.in_workers(score, chunks)):
        for name, per_metric in scored.items():
            for metric, chunk_values in per_metric.items():
                values[t][name][metric].extend(chunk_values)
    return {name: {task.label: {metric: MetricReport(v) for metric, v in task_values[name].items()}
                   for task, task_values in zip(manifest.tasks, values)}
            for name in strategies}


def _score_chunk(model: RestorerModel, label: str, pairs, first: int,
                 strategies: Mapping[str, Strategy], with_baseline: bool
                 ) -> dict[str, dict[str, list[float]]]:
    # strategy -> metric -> per-pair values for ``pairs``, the chunk of task
    # ``label`` from index ``first`` on, each image read once
    clean, degraded = [], []
    for clean_path, degraded_path in pairs:
        clean.append(read_ppm(clean_path).data)
        degraded.append(read_ppm(degraded_path).data)
        if clean[-1].shape != degraded[-1].shape:
            (_, h, w), (_, ch, cw) = degraded[-1].shape, clean[-1].shape
            raise DataError(f"{degraded_path} is {h}x{w} but its clean image is {ch}x{cw}")
    chunk, clean = Chunk(label, first, np.stack(degraded)), np.stack(clean)
    reference = ssim_reference(clean)
    base = ({"psnr_degraded": [psnr(d, c) for d, c in zip(chunk.images, clean)]}
            if with_baseline else {})
    values = {}
    for name, strategy in strategies.items():
        restored = restore(model, Tensor._wrap(chunk.images), strategy.weights(chunk)).data
        values[name] = {"psnr": [psnr(out, c) for out, c in zip(restored, clean)],
                        "ssim": ssim_chunk(restored, reference), **base}
    return values


def routing_accuracy(router: RouterState, manifest: DatasetManifest,
                     corrected: bool = True) -> tuple[float, dict[str, float]]:
    """Fraction of degraded test images routed to their true task.

    ``corrected=False`` scores the resized view only; ``corrected=True``
    averages the resized and native-crop similarities first. Tasks whose
    label is not in the router vocabulary (mixed composites) are skipped.
    Each task's views are encoded as one batch (``crop_corrected_scores``).
    """
    per_task: dict[str, float] = {}
    total = hits = 0
    for task in manifest.tasks:
        if task.label not in router.labels:
            continue
        truth = router.labels.index(task.label)
        images = [read_ppm(degraded_path) for _, degraded_path in task.pairs]
        preds = np.argmax(crop_corrected_scores(router, images, corrected), axis=1)
        task_hits = int((preds == truth).sum())
        per_task[task.label] = task_hits / len(task.pairs)
        hits += task_hits
        total += len(task.pairs)
    if total == 0:
        raise ConfigError("manifest shares no labels with the router")
    return hits / total, per_task
