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

The chunks are planned once, by the caller, from the image sizes that
verifying the manifest recorded (no header is parsed again). They are the
items of ``workers.in_workers`` (one ``gather`` of ``workers.replicas``),
so workers get equal shares of images when tasks are not a multiple of the
worker count (two workers score 20 and 20 of five tasks of 8 pairs, not 24
and 16). Each chunk keeps its images' indices within the task. W processes
score the chunks, W being the smaller of the chunk count and the usable
cores (see ``workers``): the calling process takes chunks 0, W, 2W, ...,
and W - 1 forked children take the rest. No score depends on the images
scored with it, and each task's values are joined in manifest order before
its reports are built, so the reports are the ones a single process
computes, whatever the core count.

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
from .degradations import DatasetManifest, TaskRecord, read_ppm
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


def _read(task: TaskRecord, side: int, first: int = 0, end: int | None = None) -> list[np.ndarray]:
    """Clean (side 0) or degraded (1) images of pairs ``first:end``, each of its recorded size."""
    images = [read_ppm(pair[side]).data for pair in task.pairs[first:end]]
    for pair, image, (h, w) in zip(task.pairs[first:end], images, task.known_sizes()[first:end]):
        if image.shape[1:] != (h, w):
            raise DataError(f"{pair[side]} is {image.shape[1]}x{image.shape[2]}, but the "
                            f"verified manifest recorded {h}x{w}")
    return images


def load_task_data(manifest: DatasetManifest, label: str) -> TaskData:
    """One task's pairs, stacked; they must share one size
    (``DatasetManifest.shared_size``), which is checked before any is read."""
    manifest.shared_size([label])
    task = manifest.task(label)
    return TaskData(label, np.stack(_read(task, 1)), np.stack(_read(task, 0)))


def clean_training_images(manifest: DatasetManifest) -> list[Tensor]:
    """All clean images in manifest order (task order, then index order);
    they must share one size, which is checked before any is read."""
    manifest.shared_size(manifest.labels)
    return [Tensor._wrap(image) for task in manifest.tasks for image in _read(task, 0)]


def router_training_set(manifest: DatasetManifest) -> list[tuple[str, list[Tensor]]]:
    """Per-label degraded images, the router's training input."""
    return [(task.label, list(map(Tensor._wrap, _read(task, 1)))) for task in manifest.tasks]


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
        manifest.shared_size([label])   # DataError: no such task, or sizes differ

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
    pass cut into chunks (see the module docstring and ``CHUNK_PIXELS``);
    returns strategy -> task -> metric -> report, tasks in manifest order.
    Metrics: restored psnr/ssim plus (optionally) the degraded input's
    psnr_degraded baseline, computed once per pair. The strategies and the
    sizes that verification recorded (``TaskRecord.known_sizes``) are
    checked before any image is read or any worker starts.
    """
    for name, strategy in strategies.items():
        strategy.check(name, manifest.labels)
    chunks = []                 # (task index, first pair, end pair)
    for t, task in enumerate(manifest.tasks):
        first, sizes = 0, task.known_sizes()
        for i, (h, w) in enumerate(sizes):
            if i > first and ((h, w) != sizes[i - 1] or (i + 1 - first) * h * w > CHUNK_PIXELS):
                chunks.append((t, first, i))
                first = i
        if sizes:
            chunks.append((t, first, len(sizes)))

    def score(item):
        t, first, end = item
        return _score_chunk(model, manifest.tasks[t], first, end, strategies, with_baseline)

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


def _score_chunk(model: RestorerModel, task: TaskRecord, first: int, end: int,
                 strategies: Mapping[str, Strategy], with_baseline: bool
                 ) -> dict[str, dict[str, list[float]]]:
    # strategy -> metric -> per-pair values for the chunk of ``task``'s
    # pairs ``first:end``, each image read once
    chunk = Chunk(task.label, first, np.stack(_read(task, 1, first, end)))
    clean = np.stack(_read(task, 0, first, end))
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
