"""Tensor, tape, and primitive-op contracts."""

import numpy as np
import pytest

from lorex.errors import ConfigError, NumericError, ShapeError
from lorex.numerics import (
    Adam,
    GradTape,
    Tensor,
    add,
    bias_add,
    bias_add_rows,
    concat_channels,
    conv2d,
    cosine_lr,
    finite_difference_check,
    global_avg_pool,
    l1_loss,
    l2_normalize_rows,
    leaky_relu,
    matmul,
    mean_all,
    mul,
    reshape,
    scale,
    softmax_cross_entropy,
    sub,
    sum_all,
    transpose2d,
    upsample_nearest2,
)

FD_TOL = 1e-3


def weighted_sum(out, w, tape):
    """Fixed linear functional of an op output; a smooth, well-conditioned
    scalar head for finite-difference checks."""
    return mean_all(mul(out, w, tape), tape)


def away_from_zero(rng, shape, low=0.05, high=1.0):
    """Random values with |v| >= low so eps=1e-3 cannot cross a kink."""
    mag = rng.uniform(low, high, size=shape).astype(np.float32)
    sign = np.where(rng.random(shape) < 0.5, -1.0, 1.0).astype(np.float32)
    return mag * sign


class TestTensor:
    def test_construction_copies_and_validates(self):
        t = Tensor([[1.0, 2.0], [3.0, 4.0]])
        assert t.dims == (2, 2)
        assert t.data.dtype == np.float32

    def test_nan_rejected(self):
        with pytest.raises(NumericError):
            Tensor([1.0, float("nan")])

    def test_inf_rejected(self):
        with pytest.raises(NumericError):
            Tensor([float("inf")])

    def test_empty_rejected(self):
        with pytest.raises(ShapeError):
            Tensor(np.zeros((0, 3), np.float32))

    def test_item_requires_scalar(self):
        with pytest.raises(ShapeError):
            Tensor([1.0, 2.0]).item()


class TestMatmul:
    def test_hand_oracle(self):
        # [[1,2],[3,4]] @ [[5,6],[7,8]], worked by hand
        out = matmul(Tensor([[1, 2], [3, 4]]), Tensor([[5, 6], [7, 8]]))
        np.testing.assert_array_equal(out.data, [[19, 22], [43, 50]])

    def test_identity(self, rng):
        a = Tensor(rng.standard_normal((4, 4)).astype(np.float32))
        out = matmul(a, Tensor(np.eye(4, dtype=np.float32)))
        np.testing.assert_array_equal(out.data, a.data)

    def test_zero(self, rng):
        a = Tensor(rng.standard_normal((3, 4)).astype(np.float32))
        out = matmul(a, Tensor.zeros((4, 2)))
        np.testing.assert_array_equal(out.data, np.zeros((3, 2)))

    def test_identity_associativity(self, rng):
        # (A @ I) @ B == A @ B bit-exactly
        a = Tensor(rng.standard_normal((5, 5)).astype(np.float32))
        b = Tensor(rng.standard_normal((5, 3)).astype(np.float32))
        eye = Tensor(np.eye(5, dtype=np.float32))
        np.testing.assert_array_equal(matmul(matmul(a, eye), b).data, matmul(a, b).data)

    def test_shape_error(self):
        with pytest.raises(ShapeError):
            matmul(Tensor.zeros((2, 3)), Tensor.zeros((2, 3)))


class TestConv2d:
    def test_all_ones_sum_oracle(self):
        out = conv2d(Tensor(np.ones((1, 1, 3, 3))), Tensor(np.ones((1, 1, 3, 3))), "valid")
        np.testing.assert_array_equal(out.data, [[[[9.0]]]])

    def test_delta_kernel_identity(self, rng):
        x = Tensor(rng.random((1, 2, 6, 6), dtype=np.float32))
        k = np.zeros((2, 2, 3, 3), np.float32)
        k[0, 0, 1, 1] = 1.0
        k[1, 1, 1, 1] = 1.0
        np.testing.assert_array_equal(conv2d(x, Tensor(k), "same").data, x.data)

    def test_zero_kernel(self, rng):
        x = Tensor(rng.random((1, 2, 5, 5), dtype=np.float32))
        out = conv2d(x, Tensor.zeros((3, 2, 3, 3)), "same")
        np.testing.assert_array_equal(out.data, np.zeros((1, 3, 5, 5)))

    def test_even_kernel_rejected(self):
        with pytest.raises(ConfigError):
            conv2d(Tensor.zeros((1, 1, 5, 5)), Tensor.zeros((1, 1, 2, 2)))

    def test_undersized_valid_rejected(self):
        with pytest.raises(ShapeError):
            conv2d(Tensor.zeros((1, 1, 2, 2)), Tensor.zeros((1, 1, 3, 3)), "valid")

    def test_channel_mismatch(self):
        with pytest.raises(ShapeError):
            conv2d(Tensor.zeros((1, 2, 5, 5)), Tensor.zeros((1, 3, 3, 3)))

    def test_bad_padding(self):
        with pytest.raises(ConfigError):
            conv2d(Tensor.zeros((1, 1, 5, 5)), Tensor.zeros((1, 1, 3, 3)), "reflect")

    def test_stride2_shapes(self):
        out = conv2d(Tensor.zeros((1, 1, 8, 8)), Tensor.zeros((2, 1, 3, 3)), "same", 2)
        assert out.dims == (1, 2, 4, 4)
        out = conv2d(Tensor.zeros((1, 1, 7, 7)), Tensor.zeros((2, 1, 3, 3)), "valid", 2)
        assert out.dims == (1, 2, 3, 3)

    def test_batched_matches_single(self, rng):
        x = rng.random((3, 2, 6, 6), dtype=np.float32)
        k = Tensor(rng.standard_normal((4, 2, 3, 3)).astype(np.float32))
        batched = conv2d(Tensor(x), k, "same", 2)
        for i in range(3):
            single = conv2d(Tensor(x[i:i + 1]), k, "same", 2)
            np.testing.assert_array_equal(batched.data[i:i + 1], single.data)


def col2im_pull_x(g, kernel, x_dims, stride, pad):
    """Reference conv input gradient: a GEMM onto the im2col columns, then
    a scatter-add of each kernel tap's column block onto the padded input."""
    n, c, h, w = x_dims
    co, _, k, _ = kernel.shape
    _, _, oh, ow = g.shape
    gcols = np.matmul(kernel.reshape(co, -1).T, g.reshape(n, co, oh * ow))
    g6 = gcols.reshape(n, c, k * k, oh * ow)
    buf = np.zeros((n, c, h + 2 * pad, w + 2 * pad), np.float32)
    span_h = (oh - 1) * stride + 1
    span_w = (ow - 1) * stride + 1
    for u in range(k):
        for v in range(k):
            buf[:, :, u:u + span_h:stride, v:v + span_w:stride] += \
                g6[:, :, u * k + v].reshape(n, c, oh, ow)
    return buf[:, :, pad:pad + h, pad:pad + w]


class TestConvDataGradient:
    """The taped conv input gradient (per-phase convolutions) against the
    im2col/col2im scatter reference above."""

    @pytest.mark.parametrize("k", [1, 3, 5])
    @pytest.mark.parametrize("stride", [1, 2, 3])
    @pytest.mark.parametrize("padding", ["same", "valid"])
    @pytest.mark.parametrize("extent", [(8, 8), (9, 7), (5, 6), (16, 12)])
    def test_matches_col2im_reference(self, k, stride, padding, extent, rng):
        x = Tensor(rng.standard_normal((2, 3, *extent)).astype(np.float32))
        kernel = Tensor(rng.standard_normal((4, 3, k, k)).astype(np.float32))
        tape = GradTape()
        out = conv2d(x, kernel, padding, stride, tape)
        g = rng.standard_normal(out.dims).astype(np.float32)
        loss = sum_all(mul(out, Tensor(g), tape), tape)
        dx = tape.gradients(loss, [x])[0]
        pad = (k - 1) // 2 if padding == "same" else 0
        ref = col2im_pull_x(g, kernel.data, x.dims, stride, pad)
        assert dx.shape == x.dims
        assert np.abs(dx - ref).max() <= 1e-5 * np.abs(ref).max()


class TestLeakyRelu:
    @pytest.mark.parametrize("slope", [-0.1, 1.0, 2.0, float("nan")])
    def test_slope_outside_unit_interval_rejected(self, slope):
        with pytest.raises(ConfigError):
            leaky_relu(Tensor.zeros((2, 2)), slope)

    @pytest.mark.parametrize("slope", [0.0, 0.1, 0.5])
    def test_bit_identical_to_where_reference(self, slope, rng):
        x = rng.standard_normal((4, 3, 5, 5)).astype(np.float32)
        x.flat[:4] = [0.0, -0.0, 1e-45, -1e-45]
        g = rng.standard_normal(x.shape).astype(np.float32)
        g.flat[4:8] = [0.0, -0.0, 0.0, -0.0]
        s = np.float32(slope)
        xt = Tensor._wrap(x)
        tape = GradTape()
        out = leaky_relu(xt, slope, tape)
        loss = sum_all(mul(out, Tensor._wrap(g), tape), tape)
        dx = tape.gradients(loss, [xt])[0]
        assert out.data.tobytes() == np.where(x > 0, x, x * s).tobytes()
        assert dx.tobytes() == np.where(x > 0, g, g * s).tobytes()


class TestDeterminism:
    def test_ops_bit_identical_on_repeat(self, rng):
        x = Tensor(rng.standard_normal((2, 3, 8, 8)).astype(np.float32))
        k = Tensor(rng.standard_normal((4, 3, 3, 3)).astype(np.float32))
        a = conv2d(x, k, "same", 2)
        b = conv2d(x, k, "same", 2)
        assert a.data.tobytes() == b.data.tobytes()
        m1 = Tensor(rng.standard_normal((6, 7)).astype(np.float32))
        m2 = Tensor(rng.standard_normal((7, 5)).astype(np.float32))
        assert matmul(m1, m2).data.tobytes() == matmul(m1, m2).data.tobytes()


class TestGradTape:
    def test_untaped_param_zero_gradient(self, rng):
        x = Tensor(rng.standard_normal((2, 2)).astype(np.float32))
        other = Tensor(rng.standard_normal((4,)).astype(np.float32))
        tape = GradTape()
        loss = sum_all(mul(x, x, tape), tape)
        gx, gother = tape.gradients(loss, [x, other])
        np.testing.assert_allclose(gx, 2 * x.data, rtol=1e-6)
        np.testing.assert_array_equal(gother, np.zeros(4))

    def test_fanout_accumulates(self):
        # f(x) = sum(x*x) + 3*sum(x) -> df/dx = 2x + 3
        x = Tensor([1.0, -2.0, 0.5])
        tape = GradTape()
        loss = add(sum_all(mul(x, x, tape), tape),
                   scale(sum_all(x, tape), 3.0, tape), tape)
        g = tape.gradients(loss, [x])[0]
        np.testing.assert_allclose(g, 2 * x.data + 3, rtol=1e-6)

    def test_scalar_output_required(self):
        x = Tensor([1.0, 2.0])
        with pytest.raises(ShapeError):
            GradTape().gradients(x, [x])


class TestFiniteDifferenceCheck:
    def test_square_function(self):
        # f(x) = x^2 at x=3: analytic 6 vs central difference at eps=1e-3
        def f(p, tape):
            return sum_all(mul(p, p, tape), tape)
        err = finite_difference_check(f, Tensor([3.0]), eps=1e-3)
        assert err <= 1e-5

    def test_constant_function_exact_zero(self):
        def f(p, tape):
            return Tensor([0.5])
        assert finite_difference_check(f, Tensor([1.0, 2.0]), eps=1e-3) == 0.0

    def test_eps_must_be_positive(self):
        with pytest.raises(ConfigError):
            finite_difference_check(lambda p, t: sum_all(p, t), Tensor([1.0]), eps=0.0)

    def test_nonfinite_function_rejected(self):
        def f(p, tape):
            arr = np.log(p.data)  # negative input -> nan
            t = Tensor._wrap(arr.astype(np.float32))
            return sum_all(t, tape)
        with pytest.raises(NumericError):
            finite_difference_check(f, Tensor([-1.0]))


class TestPrimitiveGradients:
    """Central-difference checks on random small tensors, 100 seeded trials
    per primitive (values kept away from non-differentiable points)."""

    TRIALS = 100

    def _check(self, build, err_tol=FD_TOL):
        worst = 0.0
        for trial in range(self.TRIALS):
            rng = np.random.default_rng(9000 + trial)
            f, params = build(rng)
            worst = max(worst, finite_difference_check(f, params, eps=1e-3))
        assert worst <= err_tol, f"max FD error {worst}"

    def test_matmul(self):
        def build(rng):
            a = Tensor(away_from_zero(rng, (3, 4)))
            b = Tensor(away_from_zero(rng, (4, 2)))
            w = Tensor(rng.standard_normal((3, 2)).astype(np.float32))
            side = rng.random() < 0.5
            def f(p, tape):
                out = matmul(p, b, tape) if side else matmul(a, p, tape)
                return weighted_sum(out, w, tape)
            return f, (a if side else b)
        self._check(build)

    def test_conv2d(self):
        def build(rng):
            stride = int(rng.integers(1, 3))
            padding = "same" if rng.random() < 0.5 else "valid"
            x = Tensor(away_from_zero(rng, (1, 2, 6, 6)))
            k = Tensor(away_from_zero(rng, (3, 2, 3, 3)) * 0.5)
            out_dims = conv2d(x, k, padding, stride).dims
            w = Tensor(rng.standard_normal(out_dims).astype(np.float32))
            side = rng.random() < 0.5
            def f(p, tape):
                out = conv2d(p if side else x, k if side else p, padding, stride, tape)
                return weighted_sum(out, w, tape)
            return f, (x if side else k)
        self._check(build)

    def test_conv2d_1x1(self):
        def build(rng):
            x = Tensor(away_from_zero(rng, (1, 3, 5, 5)))
            k = Tensor(away_from_zero(rng, (2, 3, 1, 1)))
            w = Tensor(rng.standard_normal((1, 2, 5, 5)).astype(np.float32))
            side = rng.random() < 0.5
            def f(p, tape):
                out = conv2d(p if side else x, k if side else p, "same", 1, tape)
                return weighted_sum(out, w, tape)
            return f, (x if side else k)
        self._check(build)

    def test_bias_add(self):
        def build(rng):
            x = Tensor(away_from_zero(rng, (2, 3, 4, 4)))
            b = Tensor(away_from_zero(rng, (3,)))
            w = Tensor(rng.standard_normal((2, 3, 4, 4)).astype(np.float32))
            side = rng.random() < 0.5
            def f(p, tape):
                out = bias_add(p if side else x, b if side else p, tape)
                return weighted_sum(out, w, tape)
            return f, (x if side else b)
        self._check(build)

    def test_bias_add_rows(self):
        def build(rng):
            x = Tensor(away_from_zero(rng, (4, 3)))
            b = Tensor(away_from_zero(rng, (3,)))
            w = Tensor(rng.standard_normal((4, 3)).astype(np.float32))
            def f(p, tape):
                return weighted_sum(bias_add_rows(x, p, tape), w, tape)
            return f, b
        self._check(build)

    def test_elementwise(self):
        def build(rng):
            x = Tensor(away_from_zero(rng, (3, 4)))
            y = Tensor(away_from_zero(rng, (3, 4)))
            w = Tensor(rng.standard_normal((3, 4)).astype(np.float32))
            op = rng.integers(0, 4)
            def f(p, tape):
                if op == 0:
                    out = add(p, y, tape)
                elif op == 1:
                    out = sub(y, p, tape)
                elif op == 2:
                    out = mul(p, y, tape)
                else:
                    out = scale(p, 0.7, tape)
                return weighted_sum(out, w, tape)
            return f, x
        self._check(build)

    def test_leaky_relu(self):
        def build(rng):
            x = Tensor(away_from_zero(rng, (3, 5), low=0.05))
            w = Tensor(rng.standard_normal((3, 5)).astype(np.float32))
            def f(p, tape):
                return weighted_sum(leaky_relu(p, 0.1, tape), w, tape)
            return f, x
        self._check(build)

    def test_shape_ops(self):
        def build(rng):
            x = Tensor(away_from_zero(rng, (2, 6)))
            op = rng.integers(0, 2)
            def f(p, tape):
                if op == 0:
                    out = transpose2d(p, tape)
                    w = Tensor(np.arange(12, dtype=np.float32).reshape(6, 2))
                else:
                    out = reshape(p, (3, 4), tape)
                    w = Tensor(np.arange(12, dtype=np.float32).reshape(3, 4))
                return weighted_sum(out, w, tape)
            return f, x
        self._check(build)

    def test_concat_and_upsample(self):
        def build(rng):
            x = Tensor(away_from_zero(rng, (1, 2, 3, 3)))
            y = Tensor(away_from_zero(rng, (1, 1, 3, 3)))
            op = rng.integers(0, 2)
            w_cat = Tensor(rng.standard_normal((1, 3, 3, 3)).astype(np.float32))
            w_up = Tensor(rng.standard_normal((1, 2, 6, 6)).astype(np.float32))
            def f(p, tape):
                if op == 0:
                    return weighted_sum(concat_channels([p, y], tape), w_cat, tape)
                return weighted_sum(upsample_nearest2(p, tape), w_up, tape)
            return f, x
        self._check(build)

    def test_pool_and_normalize(self):
        def build(rng):
            op = rng.integers(0, 2)
            if op == 0:
                x = Tensor(away_from_zero(rng, (2, 3, 4, 4)))
                w = Tensor(rng.standard_normal((2, 3)).astype(np.float32))
                def f(p, tape):
                    return weighted_sum(global_avg_pool(p, tape), w, tape)
            else:
                x = Tensor(away_from_zero(rng, (2, 5), low=0.2))
                w = Tensor(rng.standard_normal((2, 5)).astype(np.float32))
                def f(p, tape):
                    return weighted_sum(l2_normalize_rows(p, tape), w, tape)
            return f, x
        self._check(build)

    def test_losses(self):
        def build(rng):
            op = rng.integers(0, 3)
            if op == 0:
                pred = Tensor(away_from_zero(rng, (2, 6)))
                target = Tensor(pred.data + away_from_zero(rng, (2, 6), low=0.05))
                def f(p, tape):
                    return l1_loss(p, target, tape)
                return f, pred
            if op == 1:
                logits = Tensor(rng.standard_normal((3, 4)).astype(np.float32))
                labels = rng.integers(0, 4, size=3)
                def f(p, tape):
                    return softmax_cross_entropy(p, labels, tape)
                return f, logits
            x = Tensor(away_from_zero(rng, (3, 3)))
            def f(p, tape):
                return mean_all(p, tape)
            return f, x
        self._check(build)


class TestAdamAndSchedule:
    def test_adam_descends_quadratic(self):
        x = Tensor([4.0, -3.0])
        opt = Adam([x], lr=0.1)
        for _ in range(200):
            opt.step([2 * x.data])
        assert np.abs(x.data).max() < 0.1

    def test_adam_deterministic(self, rng):
        g = rng.standard_normal((3,)).astype(np.float32)
        results = []
        for _ in range(2):
            x = Tensor([1.0, 2.0, 3.0])
            opt = Adam([x], lr=0.01)
            for _ in range(10):
                opt.step([g * x.data])
            results.append(x.data.tobytes())
        assert results[0] == results[1]

    def test_grad_count_checked(self):
        opt = Adam([Tensor([1.0])], lr=0.1)
        with pytest.raises(ShapeError):
            opt.step([])

    def test_cosine_schedule(self):
        assert cosine_lr(1.0, 0, 100) == pytest.approx(1.0)
        assert cosine_lr(1.0, 50, 100) == pytest.approx(0.5)
        assert cosine_lr(1.0, 100, 100) == pytest.approx(0.0, abs=1e-12)
        values = [cosine_lr(1e-3, t, 10) for t in range(10)]
        assert all(a >= b for a, b in zip(values, values[1:]))
