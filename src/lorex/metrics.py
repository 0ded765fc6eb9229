"""Reference-based image quality metrics: PSNR and SSIM.

SSIM uses the standard 11x11 Gaussian window (sigma 1.5), K1=0.01,
K2=0.03, dynamic range 1, computed per channel over valid windows and
averaged. ``ssim_chunk`` scores a chunk of images against references
whose local statistics ``ssim_reference`` filtered once, so scoring
several restorations of the same clean images filters the clean side
once. PSNR of identical images is capped at 100 dB so reports stay
finite. Internals run in float64.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import ShapeError
from .numerics import Tensor

PSNR_CAP = 100.0
SSIM_WINDOW = 11
SSIM_SIGMA = 1.5
SSIM_K1 = 0.01
SSIM_K2 = 0.03


def _as_array(x) -> np.ndarray:
    return np.asarray(x.data if isinstance(x, Tensor) else x, dtype=np.float64)


def psnr(a, b, max_val: float = 1.0) -> float:
    """10*log10(max_val^2 / MSE), capped at 100 dB for identical inputs."""
    av, bv = _as_array(a), _as_array(b)
    if av.shape != bv.shape:
        raise ShapeError(f"psnr shape mismatch: {av.shape} vs {bv.shape}")
    mse = float(np.mean((av - bv) ** 2))
    if mse == 0.0:
        return PSNR_CAP
    return min(10.0 * np.log10(max_val * max_val / mse), PSNR_CAP)


def _gaussian_taps(size: int, sigma: float) -> np.ndarray:
    half = size // 2
    x = np.arange(-half, half + 1, dtype=np.float64)
    g = np.exp(-0.5 * (x / sigma) ** 2)
    return g / g.sum()


# the 2-D window is the outer product of these taps, so it is applied as
# one pass along H and one along W, each a product with a banded matrix
_TAPS = _gaussian_taps(SSIM_WINDOW, SSIM_SIGMA)


@functools.lru_cache(maxsize=None)
def _band(n: int) -> np.ndarray:
    # (n - 10, n): row i holds the taps in columns i .. i + 10, so band @ x
    # is the window along x's rows at every valid position
    band = np.zeros((n - SSIM_WINDOW + 1, n))
    for i, row in enumerate(band):
        row[i:i + SSIM_WINDOW] = _TAPS
    band.flags.writeable = False
    return band


def _filter(x: np.ndarray) -> np.ndarray:
    # the Gaussian window over the last two axes, at valid positions only:
    # one small GEMM per (H, W) slice each way, so a slice's result does not
    # depend on how many slices are filtered with it
    h, w = x.shape[-2:]
    return _band(h) @ x @ _band(w).T


@dataclass(frozen=True)
class SsimReference:
    """Reference images with their local statistics, filtered once and
    reused by every ``ssim_chunk`` call against them."""

    images: np.ndarray      # (N, C, H, W), as given
    mu: np.ndarray          # local means, float64
    mu_sq: np.ndarray       # mu * mu
    var: np.ndarray         # local variances


def ssim_reference(images) -> SsimReference:
    """The reference side of ``ssim_chunk`` for (N, C, H, W) images."""
    y = images.data if isinstance(images, Tensor) else np.asarray(images)
    if y.ndim != 4:
        raise ShapeError(f"ssim reference expects (N,C,H,W), got shape {y.shape}")
    h, w = y.shape[2:]
    if h < SSIM_WINDOW or w < SSIM_WINDOW:
        raise ShapeError(f"image {h}x{w} smaller than SSIM window {SSIM_WINDOW}")
    y64 = _as_array(y)
    mu, yy = _filter(np.stack([y64, y64 * y64]))
    mu_sq = mu * mu
    return SsimReference(y, mu, mu_sq, yy - mu_sq)


def ssim_chunk(images, reference: SsimReference) -> list[float]:
    """Mean local structural similarity of each of (N, C, H, W) images to
    the reference image with the same index; entry i equals
    ``ssim(images[i], reference.images[i])`` bit for bit."""
    # float64 x times y converts y exactly, so y need not be kept as float64
    x, y = _as_array(images), reference.images
    if x.shape != y.shape:
        raise ShapeError(f"ssim shape mismatch: {x.shape} vs {y.shape}")
    c1 = (SSIM_K1 * 1.0) ** 2
    c2 = (SSIM_K2 * 1.0) ** 2
    # local means of x, x^2 and xy for every image and channel in one pass
    mu_x, xx, xy = _filter(np.stack([x, x * x, x * y]))
    mu_y = reference.mu
    mu_x_sq = mu_x * mu_x
    sig_xy = xy - mu_x * mu_y
    num = (2 * mu_x * mu_y + c1) * (2 * sig_xy + c2)
    den = (mu_x_sq + reference.mu_sq + c1) * (xx - mu_x_sq + reference.var + c2)
    # per channel, then over channels
    return [float(v) for v in (num / den).mean(axis=(2, 3)).mean(axis=1)]


def ssim(a, b) -> float:
    """Mean local structural similarity over channels: the one-image case
    of ``ssim_chunk``."""
    av, bv = _as_array(a), _as_array(b)
    if av.shape != bv.shape:
        raise ShapeError(f"ssim shape mismatch: {av.shape} vs {bv.shape}")
    if av.ndim == 2:
        av, bv = av[None], bv[None]
    if av.ndim != 3:
        raise ShapeError(f"ssim expects (C,H,W) or (H,W), got shape {av.shape}")
    return ssim_chunk(av[None], ssim_reference(bv[None]))[0]


@dataclass
class MetricReport:
    """Per-image metric values plus their mean and population stddev."""

    values: list[float]

    @property
    def mean(self) -> float:
        return float(np.mean(self.values))

    @property
    def stddev(self) -> float:
        return float(np.std(self.values))

    def __len__(self) -> int:
        return len(self.values)


def report_line(task: str, metric: str, report: MetricReport) -> str:
    """Machine-readable: task<TAB>metric<TAB>mean<TAB>stddev."""
    return f"{task}\t{metric}\t{report.mean:.6f}\t{report.stddev:.6f}"


def format_table(rows: list[tuple[str, str, MetricReport]]) -> str:
    """Human-readable fixed-width table of (task, metric, report) rows."""
    widths = [max(len(r[0]) for r in rows + [("task",)]),
              max(len(r[1]) for r in rows + [("", "metric")])]
    lines = [f"{'task':<{widths[0]}}  {'metric':<{widths[1]}}  {'mean':>10}  {'stddev':>10}"]
    for task, metric, rep in rows:
        lines.append(f"{task:<{widths[0]}}  {metric:<{widths[1]}}  "
                     f"{rep.mean:>10.4f}  {rep.stddev:>10.4f}")
    return "\n".join(lines)
