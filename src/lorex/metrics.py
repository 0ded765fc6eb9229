"""Reference-based image quality metrics: PSNR and SSIM.

SSIM uses the standard 11x11 Gaussian window (sigma 1.5), K1=0.01,
K2=0.03, dynamic range 1, computed per channel over valid windows and
averaged. PSNR of identical images is capped at 100 dB so reports stay
finite. Internals run in float64.
"""

from __future__ import annotations

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
    data = x.data if isinstance(x, Tensor) else np.asarray(x)
    return data.astype(np.float64)


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
# one pass along H and one along W
_TAPS = _gaussian_taps(SSIM_WINDOW, SSIM_SIGMA)


def ssim(a, b) -> float:
    """Mean local structural similarity over channels."""
    av, bv = _as_array(a), _as_array(b)
    if av.shape != bv.shape:
        raise ShapeError(f"ssim shape mismatch: {av.shape} vs {bv.shape}")
    if av.ndim == 2:
        av, bv = av[None], bv[None]
    if av.ndim != 3:
        raise ShapeError(f"ssim expects (C,H,W) or (H,W), got shape {av.shape}")
    _, h, w = av.shape
    if h < SSIM_WINDOW or w < SSIM_WINDOW:
        raise ShapeError(f"image {h}x{w} smaller than SSIM window {SSIM_WINDOW}")

    c1 = (SSIM_K1 * 1.0) ** 2
    c2 = (SSIM_K2 * 1.0) ** 2
    # local means of x, y, x^2, y^2 and xy for every channel in one filter pass
    stats = np.stack([av, bv, av * av, bv * bv, av * bv])
    window = np.lib.stride_tricks.sliding_window_view
    stats = window(stats, SSIM_WINDOW, axis=2) @ _TAPS
    mu_x, mu_y, xx, yy, xy = window(stats, SSIM_WINDOW, axis=3) @ _TAPS
    sig_x = xx - mu_x * mu_x
    sig_y = yy - mu_y * mu_y
    sig_xy = xy - mu_x * mu_y
    num = (2 * mu_x * mu_y + c1) * (2 * sig_xy + c2)
    den = (mu_x * mu_x + mu_y * mu_y + c1) * (sig_x + sig_y + c2)
    return float(np.mean([np.mean(m) for m in num / den]))


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
