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

Tasks are scored in ``workers.in_workers``: W processes, W being the
smaller of the task count and the usable cores that BLAS threads leave
free (see ``workers``). The calling process takes tasks 0, W, 2W, ..., and
W - 1 forked children take the rest, one share each. No score depends on
the tasks scored with it, so the results, put back in manifest order, are
the ones a single process computes, and every report is identical
whatever the core count.

``train_experts`` trains experts the same way, one task per item: an
expert depends only on the base, its own initial factors, its task's pairs
and the schedule, so the trained model is bit-identical for any worker
count.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterator, Mapping, Sequence

import numpy as np

from . import seeding, workers
from .degradations import DatasetManifest, read_ppm
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


WeightFn = Callable[[Tensor, str, int], np.ndarray]


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


def strategy_weight_fn(strategy: str, model: RestorerModel,
                       router: RouterState | None = None, k: int | None = None,
                       seed: int = 0, manual_s: Sequence[float] | None = None) -> WeightFn:
    """Per-image composition weights, ``fn(image, label, index)`` -> (T,):
    the one-image case of ``build_strategy``."""
    built = build_strategy(strategy, model, router, k, seed, manual_s)

    def fn(img, label, idx):
        built.check(strategy, (label,))
        return built.weights(Chunk(label, idx, img.data[None]))[0]
    return fn


# pixels restored per forward: four 32x32 images. Larger chunks add little
# speed but grow the im2col columns (eight 32x32 images per chunk raise the
# evaluate benchmark's peak RSS by about 5 MB)
CHUNK_PIXELS = 4096


def _read_in_chunks(task) -> Iterator[tuple[Chunk, np.ndarray]]:
    # each pair read once; consecutive same-size pairs form a chunk of at
    # most CHUNK_PIXELS pixels, so only one chunk is held in memory. Yields
    # each chunk with its clean images.
    def chunk(first, pairs):
        return (Chunk(task.label, first, np.stack([d for _, d in pairs])),
                np.stack([c for c, _ in pairs]))

    pairs: list[tuple[np.ndarray, np.ndarray]] = []
    first = 0
    for clean_path, degraded_path in task.pairs:
        clean, degraded = read_ppm(clean_path).data, read_ppm(degraded_path).data
        if clean.shape != degraded.shape:
            raise DataError(f"{degraded_path} is {degraded.shape[1]}x{degraded.shape[2]} "
                            f"but its clean image is {clean.shape[1]}x{clean.shape[2]}")
        _, h, w = degraded.shape
        if pairs and (degraded.shape != pairs[0][1].shape
                      or (len(pairs) + 1) * h * w > CHUNK_PIXELS):
            yield chunk(first, pairs)
            first += len(pairs)
            pairs = []
        pairs.append((clean, degraded))
    if pairs:
        yield chunk(first, pairs)


def train_experts(model: RestorerModel, manifest: DatasetManifest, labels: Sequence[str],
                  config: TrainConfig) -> dict[str, list[float]]:
    """Train the expert of each of ``labels`` on its task's ``manifest``
    pairs with ``AdapterTrainer``, in place; returns label -> the expert's
    training losses, in ``labels`` order.

    Every label is checked before any image is read or any worker starts.
    The experts are trained in ``workers.in_workers``, at most one worker per
    usable core; each worker returns its experts' trained factors, which
    are written back into ``model`` in label order. The model is
    bit-identical to training the experts one after another in one process.
    """
    labels = list(labels)
    for i, label in enumerate(labels):
        if label not in model.labels:
            raise ConfigError(f"task {label!r} is not in the model labels")
        if label in labels[:i]:
            raise ConfigError(f"task {label!r} is listed more than once")
        manifest.task(label)            # DataError if the manifest lacks it

    def train(share):
        out = []
        for label in share:
            trainer = AdapterTrainer(model, model.labels.index(label),
                                     load_task_data(manifest, label), config).run()
            out.append(([p.data for p in trainer.params], trainer.losses))
        return out

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
    image is read or any worker starts. The tasks are scored in
    ``workers.in_workers``, at most one worker per usable core; the reports are
    the same for any worker count. Metrics: restored psnr/ssim plus
    (optionally) the degraded input's psnr_degraded baseline, computed once
    per pair.
    """
    for name, strategy in strategies.items():
        strategy.check(name, manifest.labels)

    def score(tasks):
        return [_score_task(model, task, strategies, with_baseline) for task in tasks]

    results: dict[str, dict[str, dict[str, MetricReport]]] = {name: {} for name in strategies}
    for task, reports in zip(manifest.tasks, workers.in_workers(score, manifest.tasks)):
        for name in strategies:
            results[name][task.label] = reports[name]
    return results


def _score_task(model: RestorerModel, task, strategies: Mapping[str, Strategy],
                with_baseline: bool) -> dict[str, dict[str, MetricReport]]:
    # strategy -> metric -> report for one task
    values = {name: ([], []) for name in strategies}
    base = []
    for chunk, clean in _read_in_chunks(task):
        reference = ssim_reference(clean)
        for name, strategy in strategies.items():
            restored = restore(model, Tensor._wrap(chunk.images),
                               strategy.weights(chunk)).data
            psnrs, ssims = values[name]
            psnrs.extend(psnr(out, c) for out, c in zip(restored, clean))
            ssims.extend(ssim_chunk(restored, reference))
        if with_baseline:
            base.extend(psnr(d, c) for d, c in zip(chunk.images, clean))
    reports = {}
    for name, (psnrs, ssims) in values.items():
        reports[name] = {"psnr": MetricReport(psnrs), "ssim": MetricReport(ssims)}
        if with_baseline:
            reports[name]["psnr_degraded"] = MetricReport(base)
    return reports


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
