"""Low-rank adapter algebra.

An adapter is a pair of factors (b, a) whose plain product b @ a is a
strictly low-rank delta on one frozen base weight. A layer carries one
adapter per task and composes them by *merged weights*: the weighted deltas
are added onto the base weight and the layer runs one plain forward on the
sum. Per-layer linearity in the weight makes this equal, up to float
reassociation, to *output aggregation* (the base path plus each active
adapter path times its composition weight), which ``aggregated_forward``
keeps as the reference the tests compare against. With a gradient tape the
merge is built from taped ops, so the factors get their gradients through
the merged weight's gradient by the chain rule. For inference,
``per_image_forward`` gives every image of a batch its own merged weight.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, NumericError, ShapeError
from .numerics import (
    DTYPE,
    GradTape,
    Tensor,
    add,
    bias_add,
    bias_add_rows,
    conv2d,
    conv2d_per_image,
    matmul,
    reshape,
    scale,
    transpose2d,
)


@dataclass
class LoraAdapter:
    """One expert's factors for one base layer.

    ``b`` is (n, r) and zero at construction so a fresh adapter contributes
    exactly nothing; ``a`` is (r, m), seeded uniform on [-1/sqrt(m), 1/sqrt(m)].
    The delta is the plain product b @ a.
    """

    b: Tensor
    a: Tensor
    rank: int

    def __post_init__(self):
        if self.b.data.ndim != 2 or self.a.data.ndim != 2:
            raise ShapeError("adapter factors must be 2-D")
        n, rb = self.b.dims
        ra, m = self.a.dims
        if rb != ra or rb != self.rank:
            raise ShapeError(f"factor ranks disagree: b {self.b.dims}, a {self.a.dims}, rank {self.rank}")
        if not 1 <= self.rank < min(n, m):
            raise ConfigError(f"rank must satisfy 1 <= r < min(n,m)={min(n, m)}, got {self.rank}")

    @classmethod
    def create(cls, n: int, m: int, rank: int, rng: np.random.Generator) -> "LoraAdapter":
        if not 1 <= rank < min(n, m):
            raise ConfigError(f"rank must satisfy 1 <= r < min(n,m)={min(n, m)}, got {rank}")
        bound = 1.0 / math.sqrt(m)
        a = rng.uniform(-bound, bound, size=(rank, m)).astype(DTYPE)
        return cls(b=Tensor.zeros((n, rank)), a=Tensor(a), rank=rank)

    @property
    def out_dim(self) -> int:
        return self.b.dims[0]

    @property
    def in_dim(self) -> int:
        return self.a.dims[1]

    def params(self) -> list[Tensor]:
        return [self.b, self.a]


@dataclass
class AdaptedLayer:
    """A frozen base layer plus its per-task adapters.

    ``kind`` is "linear" (weight (n,m), forward y = x W^T + bias) or "conv"
    (weight (c_out,c_in,k,k)); conv adapters factor the flattened kernel
    matrix (n = c_out, m = c_in*k*k) and the delta is reshaped back into
    kernel layout. An empty adapter list marks a layer outside the adapted
    set; otherwise the list length is the global task count.
    """

    kind: str
    base_weight: Tensor
    base_bias: Tensor | None
    adapters: list[LoraAdapter] = field(default_factory=list)
    stride: int = 1
    padding: str = "same"

    def __post_init__(self):
        if self.kind not in ("linear", "conv"):
            raise ConfigError(f"layer kind must be 'linear' or 'conv', got {self.kind!r}")
        n, m = self.flat_dims
        for ad in self.adapters:
            if ad.out_dim != n or ad.in_dim != m:
                raise ShapeError(f"adapter {ad.out_dim}x{ad.in_dim} does not fit weight {n}x{m}")

    @property
    def task_count(self) -> int:
        return len(self.adapters)

    @property
    def flat_dims(self) -> tuple[int, int]:
        if self.kind == "linear":
            return self.base_weight.dims
        co, ci, kh, kw = self.base_weight.dims
        return co, ci * kh * kw


def lora_delta(adapter: LoraAdapter) -> Tensor:
    """The dense delta b @ a."""
    return matmul(adapter.b, adapter.a)


def _active(layer: AdaptedLayer, s, tape: GradTape | None) -> list[tuple[float, LoraAdapter]]:
    # Adapters with a nonzero weight. Outside of gradient recording, adapters
    # whose up-projection is still all-zero are dropped too: their delta is
    # exactly zero. Taped runs keep them so a fresh b gets its gradient.
    s = np.asarray(s, dtype=DTYPE).ravel()
    if s.shape != (layer.task_count,):
        raise ConfigError(
            f"weight vector has length {s.shape[0]}, layer has {layer.task_count} adapters")
    if not np.all(np.isfinite(s)):
        raise NumericError("weight vector contains non-finite values")
    return [(float(si), ad) for si, ad in zip(s, layer.adapters)
            if si != 0.0 and not (tape is None and not ad.b.data.any())]


def _merge_rows(layer: AdaptedLayer, rows) -> np.ndarray:
    # One merged weight per row of composition weights, (R, n, m): the base
    # plus s_i * (b @ a) for each of the row's active adapters, in adapter
    # order. The active rule is _active's without a tape.
    rows = np.asarray(rows, dtype=DTYPE)
    if rows.ndim != 2 or rows.shape[1] != layer.task_count:
        raise ConfigError(
            f"weights of dims {rows.shape[1:]} do not fit {layer.task_count} adapters")
    if not np.isfinite(rows).all():
        raise NumericError("weight vector contains non-finite values")
    acc = np.empty((len(rows), *layer.flat_dims), DTYPE)
    acc[:] = layer.base_weight.data.reshape(layer.flat_dims)
    listed = rows.tolist()
    for i, adapter in enumerate(layer.adapters):
        users = [r for r, row in enumerate(listed) if row[i] != 0]
        if users and adapter.b.data.any():
            delta = adapter.b.data @ adapter.a.data
            for r in users:
                acc[r] += rows[r, i] * delta
    return acc


def _merged(layer: AdaptedLayer, s) -> Tensor:
    # the merged weight of one vector, in the base weight's layout
    return Tensor._wrap(_merge_rows(layer, np.ravel(s)[None])[0].reshape(layer.base_weight.dims))


def _base_forward(layer: AdaptedLayer, x: Tensor, tape: GradTape | None,
                  weight: Tensor | None = None) -> Tensor:
    w = layer.base_weight if weight is None else weight
    if layer.kind == "linear":
        out = matmul(x, transpose2d(w, tape), tape)
        if layer.base_bias is not None:
            out = bias_add_rows(out, layer.base_bias, tape)
    else:
        out = conv2d(x, w, layer.padding, layer.stride, tape)
        if layer.base_bias is not None:
            out = bias_add(out, layer.base_bias, tape)
    return out


def adapted_forward(layer: AdaptedLayer, x: Tensor, s, tape: GradTape | None = None) -> Tensor:
    """One forward on the merged weight W + sum_k s_k * delta_k, with one
    weight vector ``s`` (T,) for the whole batch.

    With no active adapter this is the plain base forward, bit-identical to
    the layer without adapters. With a tape the merged weight is built from
    taped ops, so the adapter factors receive gradients.
    """
    if tape is None:
        return _base_forward(layer, x, None, _merged(layer, s))
    active = _active(layer, s, tape)
    if not active:
        return _base_forward(layer, x, tape)
    weight = layer.base_weight
    for si, adapter in active:
        delta = scale(matmul(adapter.b, adapter.a, tape), si, tape)
        weight = add(weight, reshape(delta, weight.dims, tape), tape)
    return _base_forward(layer, x, tape, weight)


def per_image_forward(layer: AdaptedLayer, x: Tensor, rows, index) -> Tensor:
    """Inference forward of a conv layer where image j runs on the merged
    weight of ``rows[index[j]]``: one merged weight per distinct row (R, T),
    then one conv over the batch. Image j's output is bit-identical to
    ``adapted_forward`` on image j alone with weights ``rows[index[j]]``."""
    if layer.kind != "conv":
        raise ConfigError("per-image weights need a conv layer")
    merged = _merge_rows(layer, rows)[index]
    out = conv2d_per_image(x, merged.reshape(len(merged), *layer.base_weight.dims),
                           layer.padding, layer.stride)
    return bias_add(out, layer.base_bias) if layer.base_bias is not None else out


def _delta_forward(layer: AdaptedLayer, adapter: LoraAdapter, x: Tensor,
                   weight: float, tape: GradTape | None) -> Tensor:
    if layer.kind == "linear":
        h = matmul(x, transpose2d(adapter.a, tape), tape)
        h = matmul(h, transpose2d(adapter.b, tape), tape)
        return scale(h, weight, tape)
    co, ci, kh, kw = layer.base_weight.dims
    ka = reshape(adapter.a, (adapter.rank, ci, kh, kw), tape)
    h = conv2d(x, ka, layer.padding, layer.stride, tape)
    kb = reshape(adapter.b, (co, adapter.rank, 1, 1), tape)
    h = conv2d(h, kb, "same", 1, tape)
    return scale(h, weight, tape)


def aggregated_forward(layer: AdaptedLayer, x: Tensor, s,
                       tape: GradTape | None = None) -> Tensor:
    """Base output plus weighted adapter outputs: the output-aggregation
    reference for ``adapted_forward``, with the same active-adapter rule."""
    out = _base_forward(layer, x, tape)
    for si, adapter in _active(layer, s, tape):
        out = add(out, _delta_forward(layer, adapter, x, si, tape), tape)
    return out


def merge_weights(layer: AdaptedLayer, s) -> Tensor:
    """The merged weight W + sum_k s_k * delta_k, skipping all-zero
    up-projections as inference does. Does not mutate the layer."""
    return _merged(layer, s)


def merged_forward(layer: AdaptedLayer, merged_weight: Tensor, x: Tensor,
                   tape: GradTape | None = None) -> Tensor:
    """Plain forward with a replacement weight, e.g. from ``merge_weights``."""
    if merged_weight.dims != layer.base_weight.dims:
        raise ShapeError(
            f"merged weight dims {merged_weight.dims} != base {layer.base_weight.dims}")
    return _base_forward(layer, x, tape, weight=merged_weight)
