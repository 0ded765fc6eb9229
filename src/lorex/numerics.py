"""Dense float32 tensors with reverse-mode gradients.

The operation set is exactly what the restorer and router need: matrix
multiply, 2-D convolution (stride 1 or 2, same/valid padding), the decoder's
upsample-concat-conv as one op, elementwise ops, channel concat,
nearest-neighbour upsampling, global average pooling, row normalization,
and two scalar losses. Everything is float32 and deterministic: same
inputs give bit-identical outputs.

Gradient recording is explicit: pass a ``GradTape`` to an op and it appends
a backward record; ``GradTape.gradients`` replays the records in reverse.
A tape is single-owner and must not be shared across concurrent forward
passes.

Convolutions lower to one GEMM in one of two ways, chosen from shapes
alone (``_shift_add``). Most gather im2col columns. A stride-1 conv with
k > 1 and fewer output than input channels (the RGB head) runs
shift-and-add instead (kn2row; Vasudevan et al. 2017, arXiv 1704.04428):
the tap-stacked (k*k*C_out, C_in) kernel multiplies the zero-bordered
input once, giving one plane per tap, and the k*k shifted windows of
those planes sum to the output. Its kernel gradient spreads the output
gradient over the same shifted planes.

Either way, a conv's input gradient is convolutions too, not a scatter: input pixel
``i = stride*q + p`` receives ``g[q + d]`` through tap
``u = p + pad - stride*d``, so each of the ``stride**2`` phases of the
input grid is a stride-1 correlation of the zero-bordered output gradient
with that phase's taps of the flipped, channel-transposed kernel
(Dumoulin & Visin 2016, arXiv 1603.07285). Stride 1 is one phase, the
flipped-kernel conv; a 3x3 kernel at stride 2 splits into phases of 1, 2,
2 and 4 taps.

``upsample_conv2d`` runs a 3x3 conv on nearest-2x-upsampled channels at the
low resolution, as in sub-pixel convolution (Shi et al. 2016, arXiv
1609.05158). Upsampling repeats each low row twice, so along one axis
output phase 0 sees the taps ``[t0, t1+t2]`` on low rows ``(a-1, a)`` and
phase 1 sees ``[t0+t1, t2]`` on ``(a, a+1)``. One constant 9x16 fold
matrix turns a 3x3 kernel into the four phases' 2x2 kernels, and its
transpose folds their gradients back: 16 multiply-adds per low-resolution
pixel and channel pair instead of 36.

Finiteness policy: tensors are validated at construction and every scalar
reduction (losses, sums) raises ``NumericError`` on a non-finite result, so
a diverging computation fails at the step that produced it instead of
propagating NaNs.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

from .errors import ConfigError, NumericError, ShapeError

DTYPE = np.float32


class Tensor:
    """Dense row-major float32 array.

    Construction copies and validates: every extent positive, every value
    finite. Internal ops use the trusted ``_wrap`` path on arrays they have
    just computed.
    """

    __slots__ = ("data",)

    def __init__(self, data):
        arr = np.array(data, dtype=DTYPE, order="C")
        if arr.size == 0:
            raise ShapeError("tensor extents must all be positive")
        if not np.all(np.isfinite(arr)):
            raise NumericError("tensor contains non-finite values")
        self.data = arr

    @classmethod
    def _wrap(cls, arr: np.ndarray) -> "Tensor":
        t = cls.__new__(cls)
        t.data = arr
        return t

    @classmethod
    def zeros(cls, dims) -> "Tensor":
        return cls._wrap(np.zeros(dims, DTYPE))

    @property
    def dims(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def copy(self) -> "Tensor":
        return Tensor._wrap(self.data.copy())

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError(f"item() requires a scalar, got dims {self.dims}")
        return float(self.data.reshape(()))

    def __repr__(self) -> str:
        return f"Tensor(dims={self.dims})"


# One backward record: the op's output plus, per input, a pull function
# mapping the output gradient to that input's gradient contribution.
# Pull functions must return freshly allocated arrays (never views of g).
_Pulls = Sequence[tuple[Tensor, Callable[[np.ndarray], np.ndarray]]]


class GradTape:
    """Ordered record of taped operations for one forward pass."""

    __slots__ = ("_records",)

    def __init__(self):
        self._records: list[tuple[Tensor, _Pulls]] = []

    def __len__(self) -> int:
        return len(self._records)

    def record(self, out: Tensor, pulls: _Pulls) -> None:
        self._records.append((out, pulls))

    def gradients(self, output: Tensor, params: Sequence[Tensor]) -> list[np.ndarray]:
        """Gradients of a scalar output w.r.t. each param, in param order.

        Records are replayed in exact reverse order of forward execution.
        Pulls for tensors that cannot reach any param are skipped; params
        absent from the tape get zero gradients.
        """
        if output.size != 1:
            raise ShapeError("gradients() requires a scalar output")
        needed = {id(p) for p in params}
        reach = set(needed)
        for out, pulls in self._records:
            if any(id(t) in reach for t, _ in pulls):
                reach.add(id(out))

        acc: dict[int, np.ndarray] = {id(output): np.ones(output.dims, DTYPE)}
        for out, pulls in reversed(self._records):
            g = acc.pop(id(out), None)
            if g is None:
                continue
            for t, pull in pulls:
                if id(t) not in reach:
                    continue
                contrib = pull(g)
                prev = acc.get(id(t))
                if prev is None:
                    acc[id(t)] = contrib
                else:
                    prev += contrib
        return [acc.get(id(p), np.zeros(p.dims, DTYPE)) for p in params]


# ---------------------------------------------------------------------------
# primitives


def matmul(a: Tensor, b: Tensor, tape: GradTape | None = None) -> Tensor:
    """Standard 2-D matrix product."""
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise ShapeError(f"matmul needs 2-D operands, got {a.dims} and {b.dims}")
    if a.dims[1] != b.dims[0]:
        raise ShapeError(f"matmul inner dims differ: {a.dims} vs {b.dims}")
    out = Tensor._wrap(a.data @ b.data)
    if tape is not None:
        tape.record(out, [
            (a, lambda g, bd=b.data: g @ bd.T),
            (b, lambda g, ad=a.data: ad.T @ g),
        ])
    return out


def _zero_border(x4: np.ndarray, pad: int) -> np.ndarray:
    # x4 with pad zero rows and columns on every side; several times faster
    # than np.pad on these small arrays
    n, c, h, w = x4.shape
    out = np.zeros((n, c, h + 2 * pad, w + 2 * pad), DTYPE)
    out[:, :, pad:pad + h, pad:pad + w] = x4
    return out


def _im2col(x4: np.ndarray, k: int, stride: int, pad: int):
    # Column layout is (N, C*k*k, OH*OW): contiguous in the pixel axis, so
    # the conv GEMMs run without layout copies.
    if k == 1:
        sub = x4[:, :, ::stride, ::stride]
        n, c, oh, ow = sub.shape
        cols = sub.reshape(n, c, oh * ow) if stride == 1 \
            else np.ascontiguousarray(sub).reshape(n, c, oh * ow)
        return cols, oh, ow
    if pad:
        x4 = _zero_border(x4, pad)
    n, c, h, w = x4.shape
    oh, ow = (h - k) // stride + 1, (w - k) // stride + 1
    sn, sc, sy, sx = x4.strides
    win = np.lib.stride_tricks.as_strided(
        x4, (n, c, k, k, oh, ow), (sn, sc, sy, sx, sy * stride, sx * stride), writeable=False)
    return np.ascontiguousarray(win).reshape(n, c * k * k, oh * ow), oh, ow


def _phases(extent: int, k: int, stride: int, pad: int) -> list[tuple[int, int, int, int]]:
    # One axis of a conv's input grid, split into its stride phases. Input
    # row i = stride*a + p takes output-gradient row a + d through tap
    # u = p + pad - stride*d. Per phase p: (row count, first d, tap count,
    # index of the first tap in the flipped kernel); a phase's taps are
    # every stride-th tap, and their d are consecutive.
    out = []
    for p in range(stride):
        d = -((k - 1 - p - pad) // stride)
        u = p + pad - stride * d
        out.append((-(-(extent - p) // stride), d, u // stride + 1 if u >= 0 else 0, k - 1 - u))
    return out


def _conv_data_grad(g: np.ndarray, kernel: np.ndarray, h: int, w: int,
                    stride: int, pad: int) -> np.ndarray:
    # Input gradient of a conv: each stride phase of the input grid is a
    # stride-1 correlation of the zero-bordered g with that phase's taps of
    # the flipped, channel-transposed kernel, as one gather and one GEMM.
    n, co, oh, ow = g.shape
    c, k = kernel.shape[1], kernel.shape[2]
    rows, cols = _phases(h, k, stride, pad), _phases(w, k, stride, pad)
    top, left = -rows[0][1], -cols[0][1]
    bottom = max(0, max(q + d + t - 1 - oh for q, d, t, _ in rows))
    right = max(0, max(q + d + t - 1 - ow for q, d, t, _ in cols))
    gp = np.zeros((n, co, top + oh + bottom, left + ow + right), DTYPE)
    gp[:, :, top:top + oh, left:left + ow] = g
    flipped = kernel.transpose(1, 0, 2, 3)[:, :, ::-1, ::-1]
    sn, sc, sy, sx = gp.strides
    dx = np.empty((n, c, h, w), DTYPE) if stride > 1 else None
    for p, (hq, dh, th, fh) in enumerate(rows):
        for r, (wq, dw, tw, fw) in enumerate(cols):
            if hq < 1 or wq < 1:
                continue
            if th == 0 or tw == 0:
                dx[:, :, p::stride, r::stride] = 0
                continue
            win = np.lib.stride_tricks.as_strided(
                gp[:, :, top + dh:, left + dw:], (n, co, th, tw, hq, wq),
                (sn, sc, sy, sx, sy, sx), writeable=False)
            taps = np.ascontiguousarray(win).reshape(n, co * th * tw, hq * wq)
            sub = flipped[:, :, fh::stride, fw::stride].reshape(c, co * th * tw)
            out = np.matmul(sub, taps)
            if dx is None:      # stride 1: the one phase is the whole grid
                return out.reshape(n, c, h, w)
            dx[:, :, p::stride, r::stride] = out.reshape(n, c, hq, wq)
    return dx


def _shift_add(c_out: int, c_in: int, k: int, stride: int) -> bool:
    # The lowering rule. Per output pixel, im2col writes C_in*k*k column
    # floats to feed a GEMM of only C_out rows, while shift-and-add writes
    # C_out*k*k tap-plane floats: fewer exactly when C_out < C_in (the
    # 16->3 head, 27 floats instead of 144). Measured, shift-and-add loses
    # whenever C_out >= C_in. It needs stride 1, and a 1x1 im2col is free.
    return stride == 1 and k > 1 and c_out < c_in


def _tap_rows(kernel: np.ndarray) -> np.ndarray:
    # (..., C_out, C_in, k, k) -> (..., k*k*C_out, C_in), rows ordered (tap, C_out)
    *lead, co, c, k, _ = kernel.shape
    taps = np.moveaxis(kernel, (-2, -1), (len(lead), len(lead) + 1))
    return np.ascontiguousarray(taps).reshape(*lead, k * k * co, c)


def _conv_gemm(x4: np.ndarray, kernel: np.ndarray, stride: int, pad: int):
    # The lowered conv of conv2d and conv2d_per_image: the output for a
    # (C_out,C_in,k,k) kernel or one (N,C_out,C_in,k,k) kernel per image,
    # and the lowered input the weight gradient reuses: im2col columns
    # (N, C_in*k*k, OH*OW), or for shift-and-add the flattened
    # zero-bordered input (N, C_in, Hp*Wp).
    *lead, co, c, k, _ = kernel.shape
    n = x4.shape[0]
    if not _shift_add(co, c, k, stride):
        cols, oh, ow = _im2col(x4, k, stride, pad)
        return np.matmul(kernel.reshape(*lead, co, -1), cols).reshape(n, co, oh, ow), cols
    xp = _zero_border(x4, pad) if pad else x4
    hp, wp = xp.shape[2:]
    oh, ow = hp - k + 1, wp - k + 1
    flat = xp.reshape(n, c, hp * wp)
    planes = np.matmul(_tap_rows(kernel), flat).reshape(n, k, k, co, hp, wp)
    out = planes[:, 0, 0, :, :oh, :ow].copy()
    for u in range(k):
        for v in range(k):
            if u or v:
                out += planes[:, u, v, :, u:u + oh, v:v + ow]
    return out, flat


def _conv_geometry(x: Tensor, kernel_dims, padding: str, stride: int) -> tuple[int, int]:
    # validates one conv and returns its kernel size and zero padding
    if padding not in ("same", "valid"):
        raise ConfigError(f"padding must be 'same' or 'valid', got {padding!r}")
    if not isinstance(stride, int) or stride < 1:
        raise ConfigError(f"stride must be a positive integer, got {stride!r}")
    if len(kernel_dims) != 4 or kernel_dims[2] != kernel_dims[3]:
        raise ShapeError(f"kernel must be (C_out,C_in,k,k), got {tuple(kernel_dims)}")
    k = kernel_dims[2]
    if k % 2 == 0:
        raise ConfigError(f"kernel size must be odd, got {k}")
    if x.data.ndim != 4:
        raise ShapeError(f"input must be (N,C,H,W), got {x.dims}")
    _, c, h, w = x.dims
    if c != kernel_dims[1]:
        raise ShapeError(f"input has {c} channels, kernel expects {kernel_dims[1]}")
    if padding == "valid" and (h < k or w < k):
        raise ShapeError(f"input {h}x{w} smaller than kernel {k} under valid padding")
    return k, (k - 1) // 2 if padding == "same" else 0


def conv2d(x: Tensor, kernel: Tensor, padding: str = "same", stride: int = 1,
           tape: GradTape | None = None) -> Tensor:
    """2-D cross-correlation (no kernel flip), zero padding.

    ``x`` is (N,C,H,W); ``kernel`` is (C_out,C_in,k,k) with k odd.
    ``same`` pads symmetrically with (k-1)/2 zeros, so stride 1 preserves
    H and W and stride 2 halves even extents.

    The lowering follows from the shapes alone. A stride-1 conv with k > 1
    and C_out < C_in runs shift-and-add: one GEMM of the (k*k*C_out, C_in)
    tap-stacked kernel with the zero-bordered input, then a sum of the k*k
    shifted windows of its planes in a fixed tap order. Every other conv
    runs one GEMM on im2col columns. With a tape the same lowering computes
    the kernel gradient, so training and inference share one path per
    shape; the input gradient is the per-phase convolutions for both.
    """
    k, pad = _conv_geometry(x, kernel.dims, padding, stride)
    n, c, h, w = x.dims
    co = kernel.dims[0]
    data, lowered = _conv_gemm(x.data, kernel.data, stride, pad)
    out = Tensor._wrap(data)
    if tape is None:
        return out
    oh, ow = data.shape[2:]
    if _shift_add(co, c, k, stride):
        hp, wp = h + 2 * pad, w + 2 * pad

        def pull_w(g):
            # g at the k*k shifted positions of the tap planes, (N, k*k*C_out, Hp*Wp)
            grid = np.zeros((n, k, k, co, hp, wp), DTYPE)
            for u in range(k):
                for v in range(k):
                    grid[:, u, v, :, u:u + oh, v:v + ow] = g
            grid = grid.reshape(n, k * k * co, hp * wp)
            gt = np.matmul(grid, lowered.transpose(0, 2, 1)).sum(axis=0)
            return np.ascontiguousarray(gt.reshape(k, k, co, c).transpose(2, 3, 0, 1))
    else:
        def pull_w(g):
            gmat = g.reshape(n, co, oh * ow)
            gw = np.matmul(gmat, lowered.transpose(0, 2, 1)).sum(axis=0)
            return gw.reshape(kernel.dims)

    def pull_x(g):
        return _conv_data_grad(g, kernel.data, h, w, stride, pad)

    tape.record(out, [(x, pull_x), (kernel, pull_w)])
    return out


def conv2d_per_image(x: Tensor, kernels: np.ndarray, padding: str = "same",
                     stride: int = 1) -> Tensor:
    """``conv2d`` without a tape where image i runs on its own kernel
    ``kernels[i]``, (N,C_out,C_in,k,k). It picks ``conv2d``'s lowering by
    the same rule (shift-and-add for stride 1, k > 1 and C_out < C_in,
    else im2col), and each image's GEMM and tap sum are the ones ``conv2d``
    runs for that image alone, so outputs are bit-identical."""
    if kernels.ndim != 5 or kernels.shape[0] != x.dims[0]:
        raise ShapeError(f"kernels must be (N,C_out,C_in,k,k) for {x.dims[0]} images, "
                         f"got {kernels.shape}")
    _, pad = _conv_geometry(x, kernels.shape[1:], padding, stride)
    return Tensor._wrap(_conv_gemm(x.data, kernels, stride, pad)[0])


# Nearest 2x upsampling folds a 3-tap row [t0, t1, t2] into two 2-tap rows
# on the low-resolution grid: output row 2a sees low rows (a-1, a, a), so
# phase 0 is [t0, t1+t2] on rows (a-1, a); row 2a+1 sees (a, a, a+1), so
# phase 1 is [t0+t1, t2] on rows (a, a+1). _FOLD_AXIS[t, 2p+u] is 1 where
# tap t feeds tap u of phase p; _FOLD applies it to both axes of a 3x3
# kernel, columns ordered (row phase, column phase, row tap, column tap).
_FOLD_AXIS = np.array([[1, 0, 1, 0], [0, 1, 1, 0], [0, 1, 0, 1]], DTYPE).reshape(3, 2, 2)
_FOLD = np.einsum("ipu,jrv->ijpruv", _FOLD_AXIS, _FOLD_AXIS).reshape(9, 16)


def _phase_kernels(kernel: np.ndarray) -> np.ndarray:
    # (..., C_out, C_low, 3, 3) -> (..., 4*C_out, 4*C_low): rows (phase,
    # C_out), columns (2x2 tap, C_low), one 2x2 kernel per output phase.
    # Folding with _FOLD.T first keeps C_low innermost, so the reorder
    # copies whole channel rows.
    *lead, co, cl = kernel.shape[:-2]
    taps = kernel.reshape(-1, co * cl, 9).transpose(0, 2, 1)
    folded = np.matmul(_FOLD.T, taps).reshape(-1, 2, 2, 2, 2, co, cl)
    stacked = np.ascontiguousarray(folded.transpose(0, 1, 2, 5, 3, 4, 6))
    return stacked.reshape(*lead, 4 * co, 4 * cl)


def upsample_conv2d(low: Tensor, skip: Tensor, kernel: Tensor,
                    tape: GradTape | None = None) -> Tensor:
    """``conv2d(concat_channels([upsample_nearest2(low), skip]), kernel)``
    with same padding and stride 1, without building either tensor.

    ``low`` is (N,C_low,h,w), ``skip`` (N,C_skip,2h,2w) and ``kernel``
    (C_out,C_low+C_skip,3,3), or, untaped, (N,C_out,C_low+C_skip,3,3) with
    one kernel per image; image i's output then equals its own call with
    ``kernel[i]`` bit for bit. The skip channels run through ``conv2d`` at
    full resolution. The upsampled channels run at low resolution: the four
    output phases' 2x2 kernels are stacked into one (4*C_out, 4*C_low)
    matrix, which multiplies one 2x2 gather of the zero-bordered ``low``
    over the (h+1)x(w+1) grid, and each phase is written to every other
    output row and column. That is 16 multiply-adds per low-resolution
    pixel and channel pair instead of 36, forward and backward.
    """
    per_image = kernel.data.ndim == 5
    if per_image and tape is not None:
        raise ConfigError("per-image kernels are for untaped inference only")
    if low.data.ndim != 4 or skip.data.ndim != 4:
        raise ShapeError(f"low and skip must be (N,C,H,W), got {low.dims} and {skip.dims}")
    n, cl, h, w = low.dims
    co, cin = kernel.dims[-4:-2]
    if (skip.dims[0] != n or skip.dims[2:] != (2 * h, 2 * w) or cin != cl + skip.dims[1]
            or kernel.dims[-2:] != (3, 3) or (per_image and kernel.dims[0] != n)):
        raise ShapeError(f"upsample_conv2d: low {low.dims}, skip {skip.dims} and kernel "
                         f"{kernel.dims} do not fit")
    lowp = _zero_border(low.data, 1)
    sn, sc, sy, sx = lowp.strides
    cols = np.ascontiguousarray(np.lib.stride_tricks.as_strided(
        lowp, (n, 2, 2, cl, h + 1, w + 1), (sn, sy, sx, sc, sy, sx), writeable=False)
    ).reshape(n, 4 * cl, (h + 1) * (w + 1))
    stacked = _phase_kernels(kernel.data[..., :cl, :, :])
    phases = np.matmul(stacked, cols).reshape(n, 2, 2, co, h + 1, w + 1)
    out = np.empty((n, co, 2 * h, 2 * w), DTYPE)
    for p in (0, 1):
        for r in (0, 1):
            out[:, :, p::2, r::2] = phases[:, p, r, :, p:p + h, r:r + w]
    skip_kernel = np.ascontiguousarray(kernel.data[..., cl:, :, :])
    if per_image:
        out += conv2d_per_image(skip, skip_kernel).data
        return Tensor._wrap(out)
    skip_kernel = Tensor._wrap(skip_kernel)
    if tape is not None:
        tape.record(skip_kernel, [(kernel, lambda g: np.concatenate(
            [np.zeros((co, cl, 3, 3), DTYPE), g], axis=1))])
    skip_out = conv2d(skip, skip_kernel, "same", 1, tape)
    out += skip_out.data
    result = Tensor._wrap(out)
    if tape is not None:
        spread_of = [None, None]

        def spread(g):
            # g's phases on the (h+1)x(w+1) grid, (N, 4*C_out, grid), once per g
            if spread_of[0] is not g:
                grid = np.zeros((n, 2, 2, co, h + 1, w + 1), DTYPE)
                for p in (0, 1):
                    for r in (0, 1):
                        grid[:, p, r, :, p:p + h, r:r + w] = g[:, :, p::2, r::2]
                spread_of[:] = g, grid.reshape(n, 4 * co, -1)
            return spread_of[1]

        def pull_low(g):
            # grid cell (b, c) gathered lowp[b+u, c+v]: low[a] is lowp[a+1]
            d = np.matmul(stacked.T, spread(g)).reshape(n, 2, 2, cl, h + 1, w + 1)
            return (d[:, 0, 0, :, 1:, 1:] + d[:, 0, 1, :, 1:, :w]
                    + d[:, 1, 0, :, :h, 1:] + d[:, 1, 1, :, :h, :w])

        def pull_w(g):
            gs = np.matmul(spread(g), cols.transpose(0, 2, 1)).sum(axis=0)
            gs = gs.reshape(2, 2, co, 2, 2, cl).transpose(0, 1, 3, 4, 2, 5)
            up = (_FOLD @ gs.reshape(16, co * cl)).reshape(3, 3, co, cl)
            return np.concatenate([up.transpose(2, 3, 0, 1),
                                   np.zeros((co, cin - cl, 3, 3), DTYPE)], axis=1)

        tape.record(result, [(low, pull_low), (kernel, pull_w),
                             (skip_out, lambda g: g.copy())])
    return result


def transpose2d(x: Tensor, tape: GradTape | None = None) -> Tensor:
    if x.data.ndim != 2:
        raise ShapeError(f"transpose2d needs a 2-D tensor, got {x.dims}")
    out = Tensor._wrap(np.ascontiguousarray(x.data.T))
    if tape is not None:
        tape.record(out, [(x, lambda g: np.ascontiguousarray(g.T))])
    return out


def reshape(x: Tensor, dims, tape: GradTape | None = None) -> Tensor:
    dims = tuple(int(d) for d in dims)
    if int(np.prod(dims)) != x.size:
        raise ShapeError(f"cannot reshape {x.dims} to {dims}")
    out = Tensor._wrap(x.data.reshape(dims).copy())
    if tape is not None:
        tape.record(out, [(x, lambda g: g.reshape(x.dims).copy())])
    return out


def bias_add_rows(x: Tensor, bias: Tensor, tape: GradTape | None = None) -> Tensor:
    """Add a length-n bias to every row of an (N,n) tensor."""
    if x.data.ndim != 2 or bias.data.ndim != 1 or bias.dims[0] != x.dims[1]:
        raise ShapeError(f"bias dims {bias.dims} do not match rows of {x.dims}")
    out = Tensor._wrap(x.data + bias.data[None, :])
    if tape is not None:
        tape.record(out, [(x, lambda g: g.copy()), (bias, lambda g: g.sum(axis=0))])
    return out


def bias_add(x: Tensor, bias: Tensor, tape: GradTape | None = None) -> Tensor:
    """Add a per-channel bias to an (N,C,H,W) tensor."""
    if x.data.ndim != 4 or bias.data.ndim != 1 or bias.dims[0] != x.dims[1]:
        raise ShapeError(f"bias dims {bias.dims} do not match the channels of {x.dims}")
    out = Tensor._wrap(x.data + bias.data[None, :, None, None])
    if tape is not None:
        tape.record(out, [(x, lambda g: g.copy()), (bias, lambda g: g.sum(axis=(0, 2, 3)))])
    return out


def _binary_shapes(a: Tensor, b: Tensor, name: str):
    if a.dims != b.dims:
        raise ShapeError(f"{name} needs matching dims, got {a.dims} and {b.dims}")


def add(a: Tensor, b: Tensor, tape: GradTape | None = None) -> Tensor:
    _binary_shapes(a, b, "add")
    out = Tensor._wrap(a.data + b.data)
    if tape is not None:
        tape.record(out, [(a, lambda g: g.copy()), (b, lambda g: g.copy())])
    return out


def sub(a: Tensor, b: Tensor, tape: GradTape | None = None) -> Tensor:
    _binary_shapes(a, b, "sub")
    out = Tensor._wrap(a.data - b.data)
    if tape is not None:
        tape.record(out, [(a, lambda g: g.copy()), (b, lambda g: -g)])
    return out


def mul(a: Tensor, b: Tensor, tape: GradTape | None = None) -> Tensor:
    _binary_shapes(a, b, "mul")
    out = Tensor._wrap(a.data * b.data)
    if tape is not None:
        tape.record(out, [
            (a, lambda g, bd=b.data: g * bd),
            (b, lambda g, ad=a.data: g * ad),
        ])
    return out


def scale(x: Tensor, c: float, tape: GradTape | None = None) -> Tensor:
    c = float(c)
    if not math.isfinite(c):
        raise NumericError(f"scale factor must be finite, got {c}")
    out = Tensor._wrap(x.data * c)
    if tape is not None:
        tape.record(out, [(x, lambda g: g * c)])
    return out


def leaky_relu(x: Tensor, slope: float = 0.1, tape: GradTape | None = None) -> Tensor:
    """``x`` where positive, else ``slope * x``, for 0 <= slope < 1.

    Computed branch-free as ``max(x, slope*x)``, which is that function,
    signed zeros included, only for a slope in [0, 1).
    """
    slope = float(slope)
    if not 0.0 <= slope < 1.0:
        raise ConfigError(f"leaky_relu slope must be in [0, 1), got {slope}")
    out = Tensor._wrap(np.maximum(x.data, x.data * DTYPE(slope)))
    if tape is not None:
        pos = (x.data > 0).view(np.uint8)
        factors = np.array([slope, 1.0], DTYPE)
        tape.record(out, [(x, lambda g: g * factors.take(pos))])
    return out


def concat_channels(parts: Sequence[Tensor], tape: GradTape | None = None) -> Tensor:
    """Concatenate (N,C,H,W) tensors along the channel axis."""
    if not parts:
        raise ShapeError("concat_channels needs at least one tensor")
    for p in parts:
        if p.data.ndim != 4:
            raise ShapeError("concat_channels expects (N,C,H,W) tensors")
    out = Tensor._wrap(np.concatenate([p.data for p in parts], axis=1))
    if tape is not None:
        pulls = []
        start = 0
        for p in parts:
            stop = start + p.dims[1]
            pulls.append((p, lambda g, a=start, b=stop: np.ascontiguousarray(g[:, a:b])))
            start = stop
        tape.record(out, pulls)
    return out


def upsample_nearest2(x: Tensor, tape: GradTape | None = None) -> Tensor:
    """Nearest-neighbour 2x upsampling of an (N,C,H,W) tensor."""
    if x.data.ndim != 4:
        raise ShapeError("upsample_nearest2 expects (N,C,H,W)")
    out = Tensor._wrap(x.data.repeat(2, axis=2).repeat(2, axis=3))
    if tape is not None:
        n, c, h, w = x.dims

        def pull(g):
            return g.reshape(n, c, h, 2, w, 2).sum(axis=(3, 5))
        tape.record(out, [(x, pull)])
    return out


def global_avg_pool(x: Tensor, tape: GradTape | None = None) -> Tensor:
    """Spatial mean of an (N,C,H,W) tensor, giving (N,C)."""
    if x.data.ndim != 4:
        raise ShapeError("global_avg_pool expects (N,C,H,W)")
    n, c, h, w = x.dims
    out = Tensor._wrap(x.data.mean(axis=(2, 3)))
    if tape is not None:
        def pull(g):
            full = np.empty((n, c, h, w), DTYPE)
            full[:] = (g / (h * w))[:, :, None, None]
            return full
        tape.record(out, [(x, pull)])
    return out


def l2_normalize_rows(x: Tensor, tape: GradTape | None = None) -> Tensor:
    """Normalize each row of an (N,Z) tensor to unit L2 norm."""
    if x.data.ndim != 2:
        raise ShapeError("l2_normalize_rows expects (N,Z)")
    norm = np.sqrt((x.data * x.data).sum(axis=1, keepdims=True))
    safe = np.maximum(norm, DTYPE(1e-12))
    y = x.data / safe
    out = Tensor._wrap(y)
    if tape is not None:
        def pull(g):
            along = (g * y).sum(axis=1, keepdims=True)
            return (g - y * along) / safe
        tape.record(out, [(x, pull)])
    return out


def sum_all(x: Tensor, tape: GradTape | None = None) -> Tensor:
    out = Tensor._wrap(np.asarray(x.data.sum(), DTYPE))
    _check_scalar_finite(out, "sum_all")
    if tape is not None:
        tape.record(out, [(x, lambda g: np.full(x.dims, DTYPE(g), DTYPE))])
    return out


def mean_all(x: Tensor, tape: GradTape | None = None) -> Tensor:
    out = Tensor._wrap(np.asarray(x.data.mean(), DTYPE))
    _check_scalar_finite(out, "mean_all")
    if tape is not None:
        n = x.size
        tape.record(out, [(x, lambda g: np.full(x.dims, DTYPE(g) / DTYPE(n), DTYPE))])
    return out


def l1_loss(pred: Tensor, target: Tensor, tape: GradTape | None = None) -> Tensor:
    """Mean absolute error as a scalar tensor."""
    _binary_shapes(pred, target, "l1_loss")
    diff = pred.data - target.data
    out = Tensor._wrap(np.asarray(np.abs(diff).mean(), DTYPE))
    _check_scalar_finite(out, "l1_loss")
    if tape is not None:
        n = DTYPE(diff.size)
        sgn = np.sign(diff)
        tape.record(out, [
            (pred, lambda g: sgn * (DTYPE(g) / n)),
            (target, lambda g: sgn * (-DTYPE(g) / n)),
        ])
    return out


def softmax_cross_entropy(logits: Tensor, labels: np.ndarray,
                          tape: GradTape | None = None) -> Tensor:
    """Mean cross-entropy of (N,T) logits against integer class labels."""
    if logits.data.ndim != 2:
        raise ShapeError("softmax_cross_entropy expects (N,T) logits")
    labels = np.asarray(labels, dtype=np.int64)
    n, t = logits.dims
    if labels.shape != (n,):
        raise ShapeError(f"labels must have shape ({n},), got {labels.shape}")
    if labels.min() < 0 or labels.max() >= t:
        raise ConfigError("label index out of range")
    z = logits.data - logits.data.max(axis=1, keepdims=True)
    ez = np.exp(z)
    probs = ez / ez.sum(axis=1, keepdims=True)
    nll = np.log(ez.sum(axis=1)) - z[np.arange(n), labels]
    out = Tensor._wrap(np.asarray(nll.mean(), DTYPE))
    _check_scalar_finite(out, "softmax_cross_entropy")
    if tape is not None:
        def pull(g):
            grad = probs.copy()
            grad[np.arange(n), labels] -= DTYPE(1)
            return grad * (DTYPE(g) / DTYPE(n))
        tape.record(out, [(logits, pull)])
    return out


def clip01(x: Tensor) -> Tensor:
    """Clamp values to [0,1]. Inference-only; not gradient-capable."""
    return Tensor._wrap(np.clip(x.data, 0.0, 1.0))


def _check_scalar_finite(t: Tensor, name: str) -> None:
    if not np.isfinite(t.data).all():
        raise NumericError(f"{name} produced a non-finite value")


# ---------------------------------------------------------------------------
# gradient verification


def finite_difference_check(f, params: Tensor, eps: float = 1e-3) -> float:
    """Max relative error between taped and central-difference gradients.

    ``f(params, tape)`` must return a scalar Tensor. The relative error at
    coordinate i is |analytic_i - fd_i| / max(1, |fd_i|), where fd uses the
    actually representable float32 step around each coordinate.
    """
    if eps <= 0:
        raise ConfigError(f"eps must be positive, got {eps}")
    tape = GradTape()
    out = f(params, tape)
    if out.size != 1:
        raise ShapeError("finite_difference_check requires a scalar function")
    _check_scalar_finite(out, "finite_difference_check")
    analytic = tape.gradients(out, [params])[0].ravel()

    flat = params.data.ravel()
    worst = 0.0
    for i in range(flat.size):
        orig = flat[i]
        hi = DTYPE(float(orig) + eps)
        lo = DTYPE(float(orig) - eps)
        flat[i] = hi
        fp = f(params, None).item()
        flat[i] = lo
        fm = f(params, None).item()
        flat[i] = orig
        if not (math.isfinite(fp) and math.isfinite(fm)):
            raise NumericError("function non-finite at perturbed point")
        fd = (fp - fm) / (float(hi) - float(lo))
        rel = abs(float(analytic[i]) - fd) / max(1.0, abs(fd))
        worst = max(worst, rel)
    return worst


# ---------------------------------------------------------------------------
# optimization


class Adam:
    """Adam with in-place float32 updates; one instance per parameter set."""

    def __init__(self, params: Sequence[Tensor], lr: float,
                 beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.params = list(params)
        self.lr = float(lr)
        self.beta1 = float(beta1)
        self.beta2 = float(beta2)
        self.eps = float(eps)
        self.t = 0
        self.m = [np.zeros(p.dims, DTYPE) for p in self.params]
        self.v = [np.zeros(p.dims, DTYPE) for p in self.params]

    def step(self, grads: Sequence[np.ndarray], lr: float | None = None) -> None:
        if len(grads) != len(self.params):
            raise ShapeError("gradient count does not match parameter count")
        self.t += 1
        lr_t = self.lr if lr is None else float(lr)
        c1 = 1.0 - self.beta1 ** self.t
        c2 = 1.0 - self.beta2 ** self.t
        for p, g, m, v in zip(self.params, grads, self.m, self.v):
            m *= DTYPE(self.beta1)
            m += DTYPE(1 - self.beta1) * g
            v *= DTYPE(self.beta2)
            v += DTYPE(1 - self.beta2) * (g * g)
            step = (m / DTYPE(c1)) / (np.sqrt(v / DTYPE(c2)) + DTYPE(self.eps))
            p.data -= DTYPE(lr_t) * step


def cosine_lr(base_lr: float, iteration: int, total: int) -> float:
    """Cosine decay from base_lr toward 0 over ``total`` iterations."""
    if total <= 0:
        return base_lr
    frac = min(max(iteration, 0), total) / total
    return base_lr * 0.5 * (1.0 + math.cos(math.pi * frac))
