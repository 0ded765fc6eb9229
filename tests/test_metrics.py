"""PSNR and SSIM contracts."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lorex.degradations import DegradationSpec, apply_degradation, gen_clean_image
from lorex.errors import ShapeError
from lorex.metrics import (
    MetricReport,
    PSNR_CAP,
    _TAPS,
    _filter,
    format_table,
    psnr,
    report_line,
    ssim,
    ssim_chunk,
    ssim_reference,
)
from lorex.numerics import Tensor


class TestPsnr:
    def test_identical_images_capped(self):
        img = gen_clean_image(1, (32, 32))
        assert psnr(img, img) == PSNR_CAP == 100.0

    def test_formula_oracle_mse_001(self):
        # constant offset 0.1 -> MSE 0.01 -> 20 dB
        a = Tensor(np.zeros((3, 16, 16), np.float32))
        b = Tensor(np.full((3, 16, 16), 0.1, np.float32))
        assert psnr(a, b) == pytest.approx(20.0, abs=1e-5)

    def test_zeros_vs_ones(self):
        a = Tensor(np.zeros((3, 8, 8), np.float32))
        b = Tensor(np.ones((3, 8, 8), np.float32))
        assert psnr(a, b) == pytest.approx(0.0, abs=1e-9)

    def test_max_val_scaling(self):
        a = np.zeros((4, 4))
        b = np.full((4, 4), 25.5)
        assert psnr(a, b, max_val=255.0) == pytest.approx(20.0, abs=1e-9)

    def test_symmetry(self):
        a = gen_clean_image(2, (32, 32))
        b = gen_clean_image(3, (32, 32))
        assert abs(psnr(a, b) - psnr(b, a)) <= 1e-9

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            psnr(Tensor.zeros((3, 8, 8)), Tensor.zeros((3, 8, 9)))

    def test_strictly_decreasing_with_noise(self):
        clean = gen_clean_image(11, (32, 32))
        values = []
        for sigma in (0.02, 0.05, 0.1, 0.2):
            noisy = apply_degradation(clean, DegradationSpec(
                "gaussian_noise", {"sigma": sigma}, 123))
            values.append(psnr(noisy, clean))
        assert all(a > b for a, b in zip(values, values[1:]))


def ssim_2d_window_reference(a: np.ndarray, b: np.ndarray) -> float:
    """SSIM with the 11x11 Gaussian window applied as one 2-D window per
    channel and statistic, the textbook form of the separable filter."""
    x = np.arange(-5, 6, dtype=np.float64)
    g = np.exp(-0.5 * (x / 1.5) ** 2)
    g /= g.sum()
    window = np.outer(g, g)
    c1, c2 = 0.01 ** 2, 0.03 ** 2
    a, b = np.asarray(a, np.float64), np.asarray(b, np.float64)
    if a.ndim == 2:
        a, b = a[None], b[None]

    def mean(img):
        win = np.lib.stride_tricks.sliding_window_view(img, (11, 11))
        return np.einsum("ijkl,kl->ij", win, window)

    per_channel = []
    for x, y in zip(a, b):
        mu_x, mu_y = mean(x), mean(y)
        sig_x = mean(x * x) - mu_x * mu_x
        sig_y = mean(y * y) - mu_y * mu_y
        sig_xy = mean(x * y) - mu_x * mu_y
        num = (2 * mu_x * mu_y + c1) * (2 * sig_xy + c2)
        den = (mu_x * mu_x + mu_y * mu_y + c1) * (sig_x + sig_y + c2)
        per_channel.append(np.mean(num / den))
    return float(np.mean(per_channel))


class TestSsim:
    def test_identical_images_one(self):
        img = gen_clean_image(4, (32, 32))
        assert abs(ssim(img, img) - 1.0) <= 1e-9

    def test_constant_zero_vs_one_closed_form(self):
        # zero-variance inputs: contrast/structure terms are 1, luminance
        # term is C1/(1+C1) ~ 1.0e-4
        a = Tensor(np.zeros((3, 16, 16), np.float32))
        b = Tensor(np.ones((3, 16, 16), np.float32))
        c1 = 0.01 ** 2
        want = c1 / (1 + c1)
        assert ssim(a, b) == pytest.approx(want, rel=1e-9)
        assert want == pytest.approx(1.0e-4, abs=1e-8)

    def test_noisy_image_below_09(self):
        # sigma=0.1 noise wrecks local structure
        for seed in range(20):
            clean = gen_clean_image(seed, (32, 32))
            noisy = apply_degradation(clean, DegradationSpec(
                "gaussian_noise", {"sigma": 0.1}, seed))
            assert ssim(noisy, clean) < 0.9

    def test_symmetry(self):
        a = gen_clean_image(5, (32, 32))
        b = apply_degradation(a, DegradationSpec("gaussian_blur",
                                                 {"sigma": 1.5, "size": 7}, 0))
        assert abs(ssim(a, b) - ssim(b, a)) <= 1e-9

    def test_self_similarity_random_images(self, rng):
        for _ in range(5):
            img = Tensor(rng.random((3, 16, 16), dtype=np.float32))
            assert abs(ssim(img, img) - 1.0) <= 1e-9

    @pytest.mark.parametrize("shape", [(3, 16, 16), (3, 32, 33), (16, 16), (20, 31)],
                             ids=["16x16", "32x33", "2d-16x16", "2d-20x31"])
    def test_matches_direct_2d_window(self, rng, shape):
        a = rng.random(shape)
        b = np.clip(a + 0.1 * rng.standard_normal(shape), 0, 1)
        assert abs(ssim(a, b) - ssim_2d_window_reference(a, b)) <= 1e-12

    @settings(deadline=None)
    @given(n=st.integers(1, 4), h=st.integers(11, 48), w=st.integers(11, 48),
           seed=st.integers(0, 2**32 - 1))
    def test_chunk_equals_one_image_at_a_time(self, n, h, w, seed):
        rng = np.random.default_rng(seed)
        a = rng.random((n, 3, h, w), dtype=np.float32)
        b = np.clip(a + rng.normal(0, 0.1, a.shape), 0, 1).astype(np.float32)
        got = ssim_chunk(a, ssim_reference(b))
        assert got == [ssim(a[i], b[i]) for i in range(n)]

    def test_chunk_shapes_checked(self):
        ref = ssim_reference(np.zeros((2, 3, 16, 16)))
        with pytest.raises(ShapeError):
            ssim_chunk(np.zeros((1, 3, 16, 16)), ref)
        for bad in (np.zeros((3, 16, 16)), np.zeros((1, 3, 16, 8))):
            with pytest.raises(ShapeError):
                ssim_reference(bad)

    @pytest.mark.parametrize("h,w", [(11, 11), (16, 48), (32, 32), (40, 48)])
    def test_banded_filter_equals_the_sliding_window(self, rng, h, w):
        x = rng.random((2, 3, h, w))
        window = np.lib.stride_tricks.sliding_window_view
        want = window(window(x, 11, axis=-2) @ _TAPS, 11, axis=-1) @ _TAPS
        got = _filter(x)
        assert got.shape == want.shape == (2, 3, h - 10, w - 10)
        assert np.abs(got - want).max() <= 1e-12

    def test_undersized_image_rejected(self):
        with pytest.raises(ShapeError):
            ssim(Tensor.zeros((3, 8, 8)), Tensor.zeros((3, 8, 8)))

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            ssim(Tensor.zeros((3, 16, 16)), Tensor.zeros((3, 16, 17)))


class TestMetricReport:
    def test_mean_and_stddev(self):
        rep = MetricReport([1.0, 2.0, 3.0, 4.0])
        assert rep.mean == pytest.approx(2.5)
        assert rep.stddev == pytest.approx(np.std([1, 2, 3, 4]))
        assert len(rep) == 4

    def test_machine_line_format(self):
        rep = MetricReport([20.0, 22.0])
        line = report_line("gaussian_noise", "psnr", rep)
        task, metric, mean, std = line.split("\t")
        assert task == "gaussian_noise"
        assert metric == "psnr"
        assert float(mean) == pytest.approx(21.0)
        assert float(std) == pytest.approx(1.0)

    def test_table_contains_rows(self):
        rep = MetricReport([0.5])
        table = format_table([("taskx", "ssim", rep)])
        assert "taskx" in table and "ssim" in table
