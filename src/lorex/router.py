"""Degradation-aware routing.

A small strided conv encoder maps a degraded patch to a unit-norm latent
vector, which is scored against a bank of per-degradation embeddings by
cosine similarity. Top-K reallocation masks all but the K largest scores
and renormalizes the survivors into composition weights for the experts.

Negative scores are clamped to zero before renormalizing so the weights
stay a convex combination; if every masked score is non-positive the
weights fall back to uniform 1/K over the masked indices. Ties in the
Top-K selection break toward the lowest index.

``train_router`` trains encoder and bank jointly, data-parallel, in the
training step it shares with base pretraining (``workers.train_sharded``):
each step sums the gradients of two fixed half-batch shards, which a forked
replica and the caller compute side by side where two cores are free. The
router is bit-identical for any worker count.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import seeding, workers
from .errors import ConfigError, DataError, NumericError, ShapeError
from .numerics import (
    DTYPE,
    GradTape,
    Tensor,
    bias_add,
    conv2d,
    global_avg_pool,
    l2_normalize_rows,
    leaky_relu,
    matmul,
    scale,
    softmax_cross_entropy,
)

# encoder layout: three conv blocks then global average pooling; the first
# block keeps full resolution so fine texture survives (it is what tells a
# blurred patch from one posterized into flat cells)
ENCODER_CHANNELS = (3, 16, 32, 32)
ENCODER_STRIDES = (1, 2, 2)
ENCODER_KERNEL = 3
LATENT_WIDTH = ENCODER_CHANNELS[-1]
# name -> dims of every encoder parameter: the one layout build_router makes
# and a router checkpoint must hold
ENCODER_PARAM_DIMS: dict[str, tuple[int, ...]] = {
    f"conv{i}.{part}": dims
    for i, (cin, cout) in enumerate(zip(ENCODER_CHANNELS, ENCODER_CHANNELS[1:]), 1)
    for part, dims in (("weight", (cout, cin, ENCODER_KERNEL, ENCODER_KERNEL)),
                       ("bias", (cout,)))
}
# softmax temperature for router training; large enough that cross-entropy
# keeps repelling wrong-class embeddings (their cosines end up negative,
# which is what makes K=T routing match Top-1 after clamping)
TEMPERATURE = 0.3


@dataclass
class RouterState:
    """Encoder parameters, degradation bank, and the label order they share."""

    params: dict[str, Tensor]          # ENCODER_PARAM_DIMS' names and dims
    bank: Tensor                       # (LATENT_WIDTH, T), unit-norm columns
    labels: tuple[str, ...]
    patch: tuple[int, int] = (32, 32)

    def __post_init__(self):
        self.labels = tuple(self.labels)
        if len(set(self.labels)) != len(self.labels):
            raise ConfigError("router labels must be unique")
        if self.bank.data.ndim != 2 or self.bank.dims[1] != len(self.labels):
            raise ShapeError(f"bank dims {self.bank.dims} do not match {len(self.labels)} labels")
        norms = np.sqrt((self.bank.data * self.bank.data).sum(axis=0))
        if np.abs(norms - 1.0).max() > 1e-4:
            raise ConfigError("bank columns must be L2-normalized")

    def param_list(self) -> list[Tensor]:
        return [self.params[k] for k in sorted(self.params)] + [self.bank]


@dataclass
class RouterOutput:
    """Raw similarities, the Top-K mask, and the reallocated weights."""

    s_o: np.ndarray
    mask: np.ndarray
    s: np.ndarray
    k: int


def normalize_bank(bank: Tensor) -> None:
    norms = np.sqrt((bank.data * bank.data).sum(axis=0, keepdims=True))
    bank.data /= np.maximum(norms, DTYPE(1e-12))


def build_router(labels, seed: int, patch: tuple[int, int] = (32, 32)) -> RouterState:
    """Seeded fresh router with the ``ENCODER_PARAM_DIMS`` layout; conv
    weights He-uniform, biases zero, bank random unit columns."""
    params = {name: Tensor.zeros(dims) for name, dims in ENCODER_PARAM_DIMS.items()}
    for i in range(len(ENCODER_STRIDES)):
        w = params[f"conv{i + 1}.weight"].data
        rng = seeding.stream(seed, "router-init", i)
        bound = np.sqrt(6.0 / (w.shape[1] * ENCODER_KERNEL * ENCODER_KERNEL))
        w[:] = rng.uniform(-bound, bound, size=w.shape)
    bank_rng = seeding.stream(seed, "router-init", "bank")
    bank = Tensor(bank_rng.standard_normal((LATENT_WIDTH, len(tuple(labels)))).astype(DTYPE))
    normalize_bank(bank)
    return RouterState(params=params, bank=bank, labels=tuple(labels), patch=patch)


def _encode_batch(state: RouterState, x4: np.ndarray, tape: GradTape | None = None) -> Tensor:
    h = Tensor._wrap(x4)
    for i, stride in enumerate(ENCODER_STRIDES, 1):
        h = conv2d(h, state.params[f"conv{i}.weight"], "same", stride, tape)
        h = bias_add(h, state.params[f"conv{i}.bias"], tape)
        h = leaky_relu(h, 0.1, tape)
    d = global_avg_pool(h, tape)
    return l2_normalize_rows(d, tape)


def encode_degradation(state: RouterState, image: Tensor) -> Tensor:
    """Unit-norm degradation vector (1, LATENT_WIDTH) of a patch-sized image."""
    expect = (3, state.patch[0], state.patch[1])
    if image.dims != expect:
        raise ShapeError(f"image dims {image.dims} do not match patch {expect}")
    return _encode_batch(state, image.data[None])


def similarity(d: Tensor, bank: Tensor) -> np.ndarray:
    """Row-vector times bank: one cosine score per degradation type."""
    dv = d.data.reshape(1, -1) if d.data.ndim == 1 else d.data
    if dv.ndim != 2 or dv.shape[0] != 1 or dv.shape[1] != bank.dims[0]:
        raise ShapeError(f"cannot score {d.dims} against bank {bank.dims}")
    return matmul(Tensor._wrap(np.ascontiguousarray(dv)), bank).data.ravel()


def topk_reallocate(s_o, k: int) -> RouterOutput:
    """Mask all but the K largest scores and renormalize the survivors."""
    s_o = np.asarray(s_o, dtype=DTYPE).ravel()
    t = s_o.shape[0]
    if not isinstance(k, (int, np.integer)) or not 1 <= k <= t:
        raise ConfigError(f"k must be in [1, {t}], got {k!r}")
    if not np.all(np.isfinite(s_o)):
        raise NumericError("similarity vector contains non-finite values")
    order = np.argsort(-s_o, kind="stable")     # descending; ties -> lowest index
    mask = np.zeros(t, dtype=bool)
    mask[order[:k]] = True
    clamped = np.where(mask, np.maximum(s_o, DTYPE(0)), DTYPE(0))
    total = clamped.sum()
    if total > 0:
        s = clamped / total
    else:
        s = mask.astype(DTYPE) / DTYPE(k)
    return RouterOutput(s_o=s_o.copy(), mask=mask, s=s.astype(DTYPE), k=int(k))


def resize_bilinear(image: Tensor, target: tuple[int, int]) -> Tensor:
    """Deterministic bilinear resize of a (3,H,W) image; identity if sizes match."""
    if image.data.ndim != 3:
        raise ShapeError(f"resize expects (C,H,W), got {image.dims}")
    c, h, w = image.dims
    th, tw = target
    if (h, w) == (th, tw):
        return image
    ys = (np.arange(th, dtype=np.float64) + 0.5) * (h / th) - 0.5
    xs = (np.arange(tw, dtype=np.float64) + 0.5) * (w / tw) - 0.5
    ys = np.clip(ys, 0, h - 1)
    xs = np.clip(xs, 0, w - 1)
    y0 = np.floor(ys).astype(np.int64)
    x0 = np.floor(xs).astype(np.int64)
    y1 = np.minimum(y0 + 1, h - 1)
    x1 = np.minimum(x0 + 1, w - 1)
    fy = (ys - y0).astype(DTYPE)[None, :, None]
    fx = (xs - x0).astype(DTYPE)[None, None, :]
    a = image.data[:, y0][:, :, x0]
    b = image.data[:, y0][:, :, x1]
    cc = image.data[:, y1][:, :, x0]
    dd = image.data[:, y1][:, :, x1]
    top = a * (1 - fx) + b * fx
    bot = cc * (1 - fx) + dd * fx
    return Tensor._wrap((top * (1 - fy) + bot * fy).astype(DTYPE))


def center_crop(image: Tensor, target: tuple[int, int]) -> Tensor:
    c, h, w = image.dims
    th, tw = target
    if h < th or w < tw:
        raise ShapeError(f"image {h}x{w} smaller than crop {th}x{tw}")
    y = (h - th) // 2
    x = (w - tw) // 2
    return Tensor._wrap(np.ascontiguousarray(image.data[:, y:y + th, x:x + tw]))


def _crop_view(image: Tensor, patch: tuple[int, int]) -> Tensor | None:
    # The native-scale view of crop correction: the center crop, or None
    # where that view is the resized one. That is so for a patch-sized image
    # (the same pixels) and for one smaller than the patch in either extent
    # (no crop fits, so it is upsampled like the resized view).
    _, h, w = image.dims
    if (h, w) == tuple(patch) or h < patch[0] or w < patch[1]:
        return None
    return center_crop(image, patch)


def crop_corrected_scores(state: RouterState, images, corrected: bool = True) -> np.ndarray:
    """(N, T) similarities of (3, H, W) images, as crop correction scores
    them: the mean of the resized view's and the native center crop's
    scores (only the resized view's where the crop view is the resized
    view, or with ``corrected=False``).

    Every view is encoded in one batch, and each is scored by its own
    (1, Z) @ bank product, so row i is bit for bit what encoding image i's
    views alone and scoring them with ``similarity`` gives.
    """
    views, cropped = [], []
    for image in images:
        if image.data.ndim != 3:
            raise ShapeError(f"expected (3,H,W), got {image.dims}")
        views.append(resize_bilinear(image, state.patch).data)
    if corrected:
        for i, image in enumerate(images):
            crop = _crop_view(image, state.patch)
            if crop is not None:
                cropped.append(i)
                views.append(crop.data)
    d = _encode_batch(state, np.stack(views)).data
    scores = np.concatenate([d[i:i + 1] @ state.bank.data for i in range(len(d))])
    n = len(images)
    for j, i in enumerate(cropped):
        scores[i] = (scores[i] + scores[n + j]) * DTYPE(0.5)
    return scores[:n]


def predict_with_crop_correction(state: RouterState, full_image: Tensor, k: int) -> RouterOutput:
    """Average the similarity of the resized image and of a native-scale
    center crop before Top-K reallocation.

    Resizing can distort the apparent degradation (downsampling sharpens
    blur); the crop sees it at native scale. For a patch-sized input both
    views are the same pixels, and an input smaller than the patch in
    either extent has no crop, so its crop view is the resized view. Then
    this encodes once and reallocates the resized view's own similarity,
    bit-identical since (s + s) * 0.5 == s in float32. A larger input
    encodes its two views as one batch.
    """
    return topk_reallocate(crop_corrected_scores(state, [full_image])[0], k)


def train_router(state: RouterState, dataset, config) -> RouterState:
    """Jointly train encoder and bank with cosine-similarity cross-entropy.

    ``dataset`` is a sequence of (label, images) with one entry per router
    label; bank columns act as class embeddings and are renormalized after
    every step. Mutates ``state`` in place and returns it.

    The steps are ``workers.train_sharded``'s, with each shard's
    cross-entropy as its loss.
    """
    by_label = {label: images for label, images in dataset}
    missing = [lb for lb in state.labels if lb not in by_label or len(by_label[lb]) == 0]
    if missing:
        raise DataError(f"dataset does not cover labels: {missing}")

    xs, ys = [], []
    for idx, label in enumerate(state.labels):
        for img in by_label[label]:
            if img.dims != (3, *state.patch):
                raise ShapeError(f"training image dims {img.dims} != patch {state.patch}")
            xs.append(img.data)
            ys.append(idx)
    x_all = np.stack(xs)
    y_all = np.asarray(ys, dtype=np.int64)
    inv_temp = 1.0 / TEMPERATURE

    def shard_loss(idx, tape):
        d = _encode_batch(state, x_all[idx], tape)
        logits = scale(matmul(d, state.bank, tape), inv_temp, tape)
        return softmax_cross_entropy(logits, y_all[idx], tape)

    workers.train_sharded(state.param_list(), config, "router-batch", len(x_all), shard_loss,
                          after_step=lambda: normalize_bank(state.bank))
    return state
