"""The universal image restorer.

A small frozen conv encoder-decoder with skip connections is the shared
degradation-agnostic prior; one low-rank adapter set per degradation type
specializes it. Training is strictly per task: every batch comes from one
degradation type, the composition weights are the matching one-hot vector,
and only that task's adapter factors receive updates — the base and all
other adapter sets stay bit-identical. Inference composes experts per
layer, by merging their weighted deltas into the layer's weight, with the
weights supplied manually or by the router.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import seeding, workers
from .errors import ConfigError, DataError, ShapeError
from .lora import (
    AdaptedLayer,
    LoraAdapter,
    adapted_forward,
    merge_weights,
    merged_forward,
    per_image_forward,
)
from .numerics import (
    DTYPE,
    Adam,
    GradTape,
    Tensor,
    clip01,
    cosine_lr,
    l1_loss,
    leaky_relu,
)
from .router import RouterOutput, RouterState, predict_with_crop_correction

# name, in_channels, out_channels, stride; a decode block takes the pair
# (low, skip) and convolves the 2x nearest-upsampled low-resolution features
# concatenated with the skip connection (numerics.upsample_conv2d, which
# builds neither tensor), so its in_channels are low's plus skip's; a
# linear head projects full-resolution features to RGB
ARCH: tuple[tuple[str, int, int, int], ...] = (
    ("enc1", 3, 16, 2),
    ("enc2", 16, 32, 2),
    ("enc3", 32, 48, 2),
    ("bot1", 48, 48, 1),
    ("bot2", 48, 48, 1),
    ("dec1", 48 + 32, 32, 1),
    ("dec2", 32 + 16, 16, 1),
    ("dec3", 16 + 3, 16, 1),
    ("head", 16, 3, 1),
)
LAYER_NAMES = tuple(name for name, _, _, _ in ARCH)
KERNEL = 3
LEAKY_SLOPE = 0.1
DEFAULT_RANKS = {"enc1": 4, "enc2": 4, "enc3": 4, "bot1": 8, "bot2": 8,
                 "dec1": 4, "dec2": 4, "dec3": 4, "head": 4}


@dataclass
class TrainConfig:
    """One training stage's schedule; the defaults are the expert stage's."""

    learning_rate: float = 1e-3
    iterations: int = 2000
    batch_size: int = 8
    seed: int = 0

    def __post_init__(self):
        if not math.isfinite(self.learning_rate) or self.learning_rate <= 0:
            raise ConfigError("learning_rate must be finite and positive")
        if self.iterations < 0:
            raise ConfigError("iterations must be >= 0")
        if self.batch_size < 1:
            raise ConfigError("batch_size must be >= 1")


@dataclass
class RestorerModel:
    layers: dict[str, AdaptedLayer]
    labels: tuple[str, ...]

    def __post_init__(self):
        self.labels = tuple(self.labels)
        if len(set(self.labels)) != len(self.labels):
            raise ConfigError("task labels must be unique")
        for name in LAYER_NAMES:
            if name not in self.layers:
                raise ConfigError(f"model is missing layer {name!r}")

    @property
    def t(self) -> int:
        return len(self.labels)

    def adapted_layer_names(self) -> tuple[str, ...]:
        return tuple(n for n in LAYER_NAMES if self.layers[n].adapters)

    def base_params(self) -> list[Tensor]:
        out = []
        for name in LAYER_NAMES:
            layer = self.layers[name]
            out.append(layer.base_weight)
            if layer.base_bias is not None:
                out.append(layer.base_bias)
        return out

    def adapter_params(self, k: int) -> list[Tensor]:
        if not 0 <= k < self.t:
            raise ConfigError(f"task index {k} out of range for T={self.t}")
        out = []
        for name in self.adapted_layer_names():
            out.extend(self.layers[name].adapters[k].params())
        return out


def effective_rank(requested: int, n: int, m: int) -> int:
    """Clamp a requested rank so the adapter stays strictly low-rank."""
    return max(1, min(requested, min(n, m) - 1))


def build_model(labels: Sequence[str], seed: int, ranks: int | None = None) -> RestorerModel:
    """Fresh model: seeded base weights and zero-initialized adapters on
    every layer; ``ranks`` is one rank for every layer (default
    ``DEFAULT_RANKS``: 4 outer / 8 bottleneck).
    """
    labels = tuple(labels)
    rank_map = DEFAULT_RANKS if ranks is None else dict.fromkeys(LAYER_NAMES, ranks)

    layers: dict[str, AdaptedLayer] = {}
    for name, cin, cout, stride in ARCH:
        rng = seeding.stream(seed, "base-init", name)
        bound = np.sqrt(6.0 / (cin * KERNEL * KERNEL))
        weight = Tensor(rng.uniform(-bound, bound, (cout, cin, KERNEL, KERNEL)).astype(DTYPE))
        n, m = cout, cin * KERNEL * KERNEL
        r = effective_rank(rank_map[name], n, m)
        adapters = [LoraAdapter.create(n, m, r, seeding.stream(seed, "adapter-init", name, lb))
                    for lb in labels]
        layers[name] = AdaptedLayer(kind="conv", base_weight=weight,
                                    base_bias=Tensor.zeros((cout,)),
                                    adapters=adapters, stride=stride, padding="same")
    return RestorerModel(layers=layers, labels=labels)


def fits_input(h: int, w: int) -> bool:
    """The restorer's input rule: extents that are multiples of 8, at least 16."""
    return h % 8 == 0 and w % 8 == 0 and min(h, w) >= 16


def _check_input(x: Tensor) -> tuple[np.ndarray, bool]:
    squeeze = x.data.ndim == 3
    x4 = x.data[None] if squeeze else x.data
    if x4.ndim != 4 or x4.shape[1] != 3:
        raise ShapeError(f"expected (3,H,W) or (N,3,H,W), got {x.dims}")
    h, w = x4.shape[2], x4.shape[3]
    if not fits_input(h, w):
        raise ShapeError(f"spatial extents must be multiples of 8 and >= 16, got {h}x{w}")
    return x4, squeeze


def forward(model: RestorerModel, x: Tensor, s, tape: GradTape | None = None,
            merged: bool = False) -> Tensor:
    """Full forward pass; each layer runs once on its merged weight.

    ``s`` is one weight vector (T,) for the whole batch or, for inference,
    an (N, T) matrix with one row per image: each layer then merges one
    weight per distinct row and runs one conv over the batch, and image i's
    output is bit-identical to its own forward with ``s[i]``. With
    ``merged=True`` every adapted layer instead runs a plain forward on the
    exported ``merge_weights`` tensor of a vector ``s``, which carries no
    gradient to the adapter factors. Each decoder layer is handed the pair
    ``(low, skip)``, its low-resolution input and its skip connection, and
    runs ``upsample_conv2d`` on it on every path. Output is unclipped
    (training needs the gradient); ``restore`` applies the [0,1] clamp.
    """
    x4, squeeze = _check_input(x)
    s = np.asarray(s, dtype=DTYPE)
    rows = None
    if s.ndim == 2:
        if tape is not None or merged:
            raise ConfigError("per-image weights are for untaped, unmerged inference only")
        if s.shape != (x4.shape[0], model.t):
            raise ConfigError(f"weight matrix dims {s.shape} != {(x4.shape[0], model.t)} "
                              "(images, tasks)")
        rows, index = np.unique(s, axis=0, return_inverse=True)
        index = index.ravel()
        if len(rows) == 1:      # one vector for the whole batch after all
            s, rows = rows[0], None
    if rows is None:
        s = s.ravel()
        if s.shape != (model.t,):
            raise ConfigError(f"weight vector length {s.shape[0]} != task count {model.t}")

    def apply(name: str, xin) -> Tensor:
        layer = model.layers[name]
        if rows is not None:
            return per_image_forward(layer, xin, rows if layer.adapters else rows[:, :0], index)
        if merged and layer.adapters:
            return merged_forward(layer, merge_weights(layer, s), xin, tape)
        return adapted_forward(layer, xin, s if layer.adapters else (), tape)

    x_in = Tensor._wrap(x4)
    h1 = leaky_relu(apply("enc1", x_in), LEAKY_SLOPE, tape)
    h2 = leaky_relu(apply("enc2", h1), LEAKY_SLOPE, tape)
    h3 = leaky_relu(apply("enc3", h2), LEAKY_SLOPE, tape)
    b1 = leaky_relu(apply("bot1", h3), LEAKY_SLOPE, tape)
    b2 = leaky_relu(apply("bot2", b1), LEAKY_SLOPE, tape)
    d1 = leaky_relu(apply("dec1", (b2, h2)), LEAKY_SLOPE, tape)
    d2 = leaky_relu(apply("dec2", (d1, h1)), LEAKY_SLOPE, tape)
    d3 = leaky_relu(apply("dec3", (d2, x_in)), LEAKY_SLOPE, tape)
    out = apply("head", d3)
    return Tensor._wrap(out.data[0]) if squeeze else out


def restore(model: RestorerModel, image: Tensor, s) -> Tensor:
    """Restore with explicit composition weights, a vector (T,) or one row
    per image (N, T); output clipped to [0,1]."""
    s = np.asarray(s, dtype=DTYPE)
    if not np.all(np.isfinite(s)) or (s < 0).any():
        raise ConfigError("composition weights must be finite and non-negative")
    return clip01(forward(model, image, s))


def restore_auto(model: RestorerModel, router: RouterState, image: Tensor,
                 k: int) -> tuple[Tensor, RouterOutput]:
    """Route (with crop correction) then restore; returns both for audit."""
    if router.labels != model.labels:
        raise ConfigError(
            f"router labels {router.labels} do not match model labels {model.labels}")
    routed = predict_with_crop_correction(router, image, k)
    return restore(model, image, routed.s), routed


# ---------------------------------------------------------------------------
# training


@dataclass
class TaskData:
    """One task's paired images, stacked for batching."""

    label: str
    degraded: np.ndarray    # (n, 3, h, w) float32
    clean: np.ndarray       # (n, 3, h, w) float32

    @property
    def n(self) -> int:
        return self.degraded.shape[0]


def pretrain_base(model: RestorerModel, clean_images: Sequence[Tensor],
                  config: TrainConfig) -> RestorerModel:
    """Train the base as a clean-image autoencoder, in place.

    Requires untouched (zero-initialized) adapters; after this the base is
    frozen by convention — no other training routine writes to it.

    Data-parallel: the steps are ``workers.train_sharded``'s, with each
    shard's L1 reconstruction loss as its loss. With two usable cores a
    forked replica computes one half-batch shard while the caller computes
    the other; the base is bit-identical for any worker count.
    """
    if not clean_images:
        raise DataError("pretraining requires a non-empty clean image set")
    for name in model.adapted_layer_names():
        for ad in model.layers[name].adapters:
            if ad.b.data.any():
                raise ConfigError("pretrain_base requires zero-initialized adapters")

    data = np.stack([img.data for img in clean_images])
    zeros = np.zeros(model.t, DTYPE)

    def shard_loss(idx, tape):
        batch = Tensor._wrap(data[idx])
        return l1_loss(forward(model, batch, zeros, tape), batch, tape)

    workers.train_sharded(model.base_params(), config, "pretrain-batch", len(data), shard_loss)
    return model


class AdapterTrainer:
    """Stepwise trainer for one task's adapter set.

    Batches are a pure function of (seed, label, iteration) and the
    optimizer state lives here, so training several tasks sequentially,
    round-robin interleaved, or in separate processes
    (``harness.train_experts``) produces bit-identical adapters either way.
    """

    def __init__(self, model: RestorerModel, k: int, task: TaskData, config: TrainConfig):
        if not 0 <= k < model.t:
            raise ConfigError(f"task index {k} out of range for T={model.t}")
        if task.label != model.labels[k]:
            raise DataError(
                f"task data labelled {task.label!r} does not belong to task {k} "
                f"({model.labels[k]!r})")
        self.model = model
        self.k = k
        self.task = task
        self.config = config
        self.s = np.zeros(model.t, DTYPE)
        self.s[k] = 1.0
        self.params = model.adapter_params(k)
        self.adam = Adam(self.params, lr=config.learning_rate)
        self.iteration = 0
        self.losses: list[float] = []

    def step(self) -> float:
        it = self.iteration
        rng = seeding.stream(self.config.seed, "lora-batch", self.task.label, it)
        idx = rng.integers(0, self.task.n, size=self.config.batch_size)
        x = Tensor._wrap(self.task.degraded[idx])
        y = Tensor._wrap(self.task.clean[idx])
        tape = GradTape()
        out = forward(self.model, x, self.s, tape)
        loss = l1_loss(out, y, tape)
        self.adam.step(tape.gradients(loss, self.params),
                       lr=cosine_lr(self.config.learning_rate, it, self.config.iterations))
        self.iteration += 1
        value = loss.item()
        self.losses.append(value)
        return value

    def run(self) -> "AdapterTrainer":
        for _ in range(self.config.iterations):
            self.step()
        return self
