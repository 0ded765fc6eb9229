"""Adapter algebra: deltas, merging, the aggregation reference, and their
equivalence in outputs and gradients."""

import numpy as np
import pytest

from lorex.errors import ConfigError, NumericError
from lorex.lora import (
    AdaptedLayer,
    LoraAdapter,
    adapted_forward,
    aggregated_forward,
    lora_delta,
    merge_weights,
    merged_forward,
    per_image_forward,
)
from lorex.numerics import GradTape, Tensor, finite_difference_check, l1_loss, mul, sum_all


def rel_err(got: np.ndarray, want: np.ndarray) -> float:
    """Max absolute difference relative to the reference tensor's scale."""
    return float(np.abs(got - want).max() / max(np.abs(want).max(), 1.0))


def random_adapter(rng, n, m, rank, nonzero=True) -> LoraAdapter:
    ad = LoraAdapter.create(n, m, rank, rng)
    if nonzero:
        ad.b = Tensor(rng.standard_normal((n, rank)).astype(np.float32) * 0.3)
    return ad


def random_linear_layer(rng, n, m, t, rank=2) -> AdaptedLayer:
    return AdaptedLayer(
        kind="linear",
        base_weight=Tensor(rng.standard_normal((n, m)).astype(np.float32) * 0.5),
        base_bias=Tensor(rng.standard_normal((n,)).astype(np.float32) * 0.1),
        adapters=[random_adapter(rng, n, m, rank) for _ in range(t)],
    )


def random_conv_layer(rng, co, ci, t, rank=2, stride=1, padding="same") -> AdaptedLayer:
    m = ci * 9
    return AdaptedLayer(
        kind="conv",
        base_weight=Tensor(rng.standard_normal((co, ci, 3, 3)).astype(np.float32) * 0.3),
        base_bias=Tensor(rng.standard_normal((co,)).astype(np.float32) * 0.1),
        adapters=[random_adapter(rng, co, m, rank) for _ in range(t)],
        stride=stride,
        padding=padding,
    )


class TestLoraAdapter:
    def test_fresh_adapter_zero_up_projection(self, rng):
        ad = LoraAdapter.create(8, 12, 3, rng)
        np.testing.assert_array_equal(ad.b.data, np.zeros((8, 3)))
        bound = 1.0 / np.sqrt(12)
        assert np.all(np.abs(ad.a.data) <= bound)

    def test_rank_must_be_strictly_low(self, rng):
        with pytest.raises(ConfigError):
            LoraAdapter.create(4, 8, 4, rng)
        with pytest.raises(ConfigError):
            LoraAdapter.create(4, 8, 0, rng)
        LoraAdapter.create(4, 8, 3, rng)

    def test_seeded_init_deterministic(self):
        a1 = LoraAdapter.create(6, 9, 2, np.random.default_rng(5))
        a2 = LoraAdapter.create(6, 9, 2, np.random.default_rng(5))
        assert a1.a.data.tobytes() == a2.a.data.tobytes()


class TestLoraDelta:
    def test_hand_oracle(self):
        # b @ a = [[1],[0]] @ [[0,2]] = [[0,2],[0,0]]
        ad = LoraAdapter(b=Tensor([[1.0], [0.0]]), a=Tensor([[0.0, 2.0]]), rank=1)
        np.testing.assert_array_equal(lora_delta(ad).data, [[0, 2], [0, 0]])

    def test_fresh_adapter_zero_delta(self, rng):
        ad = LoraAdapter.create(5, 7, 2, rng)
        np.testing.assert_array_equal(lora_delta(ad).data, np.zeros((5, 7)))

    def test_numerical_rank_at_most_r(self, rng):
        for _ in range(20):
            n, m = int(rng.integers(6, 12)), int(rng.integers(6, 12))
            r = int(rng.integers(1, min(n, m) - 1))
            delta = lora_delta(random_adapter(rng, n, m, r)).data
            sv = np.linalg.svd(delta.astype(np.float64), compute_uv=False)
            assert np.all(sv[r:] <= 1e-4 * max(sv[0], 1e-12))


class TestMergeWeights:
    def test_one_hot_is_base_plus_delta(self, rng):
        layer = random_linear_layer(rng, 5, 7, 3)
        merged = merge_weights(layer, [0, 1, 0])
        want = layer.base_weight.data + lora_delta(layer.adapters[1]).data
        np.testing.assert_array_equal(merged.data, want)

    def test_all_zero_returns_base_bit_exact(self, rng):
        layer = random_linear_layer(rng, 5, 7, 3)
        merged = merge_weights(layer, [0, 0, 0])
        assert merged.data.tobytes() == layer.base_weight.data.tobytes()

    def test_hand_oracle_two_experts(self):
        # I2 + 0.5*[[0,2],[0,0]] + 0.5*[[0,0],[3,0]] = [[1,1],[1.5,1]]
        layer = AdaptedLayer(
            kind="linear",
            base_weight=Tensor(np.eye(2, dtype=np.float32)),
            base_bias=None,
            adapters=[
                LoraAdapter(b=Tensor([[1.0], [0.0]]), a=Tensor([[0.0, 2.0]]), rank=1),
                LoraAdapter(b=Tensor([[0.0], [1.0]]), a=Tensor([[3.0, 0.0]]), rank=1),
            ])
        merged = merge_weights(layer, [0.5, 0.5])
        np.testing.assert_allclose(merged.data, [[1, 1], [1.5, 1]], rtol=1e-6)

    def test_zero_up_projection_skipped_bit_exact(self, rng):
        # a fresh expert with a nonzero weight leaves the base untouched,
        # as inference does
        layer = random_linear_layer(rng, 5, 7, 3)
        layer.adapters[2].b = Tensor.zeros(layer.adapters[2].b.dims)
        merged = merge_weights(layer, [0, 0, 0.8])
        assert merged.data.tobytes() == layer.base_weight.data.tobytes()

    def test_does_not_mutate_layer(self, rng):
        layer = random_linear_layer(rng, 4, 6, 2)
        before = layer.base_weight.data.tobytes()
        merge_weights(layer, [0.3, 0.7])
        assert layer.base_weight.data.tobytes() == before

    def test_weight_vector_length_checked(self, rng):
        layer = random_linear_layer(rng, 4, 6, 2)
        with pytest.raises(ConfigError):
            merge_weights(layer, [1.0])


class TestAdaptedForward:
    def test_all_zero_weights_give_base_output(self, rng):
        x = Tensor(rng.standard_normal((4, 7)).astype(np.float32))
        layer = random_linear_layer(rng, 5, 7, 3)
        base = merged_forward(layer, layer.base_weight, x)
        out = adapted_forward(layer, x, [0, 0, 0])
        assert out.data.tobytes() == base.data.tobytes()

    def test_fresh_adapters_transparent_any_weights(self, rng):
        x = Tensor(rng.standard_normal((2, 3, 8, 8)).astype(np.float32))
        layer = random_conv_layer(rng, 4, 3, 3)
        for ad in layer.adapters:
            ad.b = Tensor.zeros(ad.b.dims)
        base = adapted_forward(layer, x, [0, 0, 0])
        out = adapted_forward(layer, x, [0.4, 0.1, 0.5])
        assert out.data.tobytes() == base.data.tobytes()

    def test_one_hot_matches_merged_linear(self, rng):
        x = Tensor(rng.standard_normal((4, 7)).astype(np.float32))
        layer = random_linear_layer(rng, 5, 7, 3)
        agg = adapted_forward(layer, x, [0, 0, 1])
        mrg = merged_forward(layer, merge_weights(layer, [0, 0, 1]), x)
        assert rel_err(agg.data, mrg.data) <= 1e-5

    def test_half_half_matches_merged_linear(self, rng):
        x = Tensor(rng.standard_normal((4, 7)).astype(np.float32))
        layer = random_linear_layer(rng, 5, 7, 3)
        s = [0.5, 0.5, 0]
        agg = adapted_forward(layer, x, s)
        mrg = merged_forward(layer, merge_weights(layer, s), x)
        assert rel_err(agg.data, mrg.data) <= 1e-5

    def test_untaped_equals_exported_merge_bit_exact(self, rng):
        x = Tensor(rng.standard_normal((2, 3, 8, 8)).astype(np.float32))
        layer = random_conv_layer(rng, 4, 3, 3, stride=2)
        s = [0.2, 0.0, 0.7]
        out = adapted_forward(layer, x, s)
        mrg = merged_forward(layer, merge_weights(layer, s), x)
        assert out.data.tobytes() == mrg.data.tobytes()

    def test_weight_length_error(self, rng):
        layer = random_linear_layer(rng, 4, 6, 2)
        with pytest.raises(ConfigError):
            adapted_forward(layer, Tensor.zeros((2, 6)), [1, 0, 0])

    def test_nonfinite_weights_rejected(self, rng):
        layer = random_linear_layer(rng, 4, 6, 2)
        with pytest.raises(NumericError):
            adapted_forward(layer, Tensor.zeros((2, 6)), [float("nan"), 0])


class TestPerImageForward:
    def test_each_image_matches_its_own_adapted_forward(self, rng):
        layer = random_conv_layer(rng, 4, 3, 3, stride=2, padding="valid")
        layer.adapters[1].b = Tensor.zeros(layer.adapters[1].b.dims)
        x = Tensor(rng.standard_normal((4, 3, 9, 9)).astype(np.float32))
        rows = np.array([[0, 0, 0], [0.2, 0.5, 0.3], [1, 0, 0]], np.float32)
        index = np.array([2, 0, 2, 1])
        out = per_image_forward(layer, x, rows, index)
        for j, r in enumerate(index):
            alone = adapted_forward(layer, Tensor(x.data[j:j + 1]), rows[r])
            assert out.data[j].tobytes() == alone.data[0].tobytes()

    def test_rows_are_checked(self, rng):
        layer = random_conv_layer(rng, 4, 3, 3)
        x = Tensor.zeros((2, 3, 8, 8))
        with pytest.raises(ConfigError):
            per_image_forward(layer, x, np.eye(2, dtype=np.float32), [0, 1])
        with pytest.raises(NumericError):
            per_image_forward(layer, x, np.full((2, 3), np.inf, np.float32), [0, 1])

    def test_linear_layer_rejected(self, rng):
        layer = random_linear_layer(rng, 4, 6, 2)
        with pytest.raises(ConfigError):
            per_image_forward(layer, Tensor.zeros((2, 6)), np.eye(2, dtype=np.float32), [0, 1])


class TestMergeAggregateEquivalence:
    """Per-layer Eq(merged weights) == Eq(output aggregation) up to float
    reassociation, over many random (layer, x, s) triples; the aggregation
    side is the ``aggregated_forward`` reference."""

    TRIALS = 300  # the acceptance suite runs the full 1000

    def test_linear_layers(self, rng):
        for _ in range(self.TRIALS):
            n, m, t = (int(rng.integers(3, 10)) for _ in range(3))
            rank = int(rng.integers(1, max(2, min(n, m) - 1)))
            layer = random_linear_layer(rng, n, m, t, rank)
            x = Tensor(rng.standard_normal((int(rng.integers(1, 5)), m)).astype(np.float32))
            s = (rng.random(t) * (rng.random(t) < 0.7)).astype(np.float32)
            agg = aggregated_forward(layer, x, s)
            mrg = merged_forward(layer, merge_weights(layer, s), x)
            assert rel_err(agg.data, mrg.data) <= 1e-5

    def test_conv_layers(self, rng):
        for _ in range(self.TRIALS // 3):
            co, ci, t = int(rng.integers(2, 6)), int(rng.integers(2, 5)), int(rng.integers(2, 5))
            rank = int(rng.integers(1, max(2, min(co, ci * 9) - 1)))
            stride = int(rng.integers(1, 3))
            padding = "same" if rng.random() < 0.5 else "valid"
            layer = random_conv_layer(rng, co, ci, t, rank, stride, padding)
            x = Tensor(rng.standard_normal((1, ci, 8, 8)).astype(np.float32))
            s = (rng.random(t) * (rng.random(t) < 0.7)).astype(np.float32)
            agg = aggregated_forward(layer, x, s)
            mrg = merged_forward(layer, merge_weights(layer, s), x)
            assert rel_err(agg.data, mrg.data) <= 1e-5


class TestGradientFlow:
    def test_inactive_adapters_get_exactly_zero_gradient(self, rng):
        layer = random_conv_layer(rng, 4, 3, 3)
        x = Tensor(rng.standard_normal((1, 3, 6, 6)).astype(np.float32))
        target = Tensor(rng.standard_normal((1, 4, 6, 6)).astype(np.float32))
        tape = GradTape()
        out = adapted_forward(layer, x, [0.0, 1.0, 0.0], tape)
        loss = l1_loss(out, target, tape)
        params = [p for ad in layer.adapters for p in ad.params()]
        grads = tape.gradients(loss, params)
        for k, (gb, ga) in enumerate(zip(grads[::2], grads[1::2])):
            if k == 1:
                assert np.abs(gb).max() > 0
                assert np.abs(ga).max() > 0
            else:
                np.testing.assert_array_equal(gb, 0)
                np.testing.assert_array_equal(ga, 0)

    def test_zero_up_projection_still_gets_gradient_when_taped(self, rng):
        # training must be able to leave b == 0, so the taped path never
        # applies the inference shortcut
        layer = random_conv_layer(rng, 4, 3, 2)
        for ad in layer.adapters:
            ad.b = Tensor.zeros(ad.b.dims)
        x = Tensor(rng.standard_normal((1, 3, 6, 6)).astype(np.float32))
        target = Tensor(rng.standard_normal((1, 4, 6, 6)).astype(np.float32))
        tape = GradTape()
        loss = l1_loss(adapted_forward(layer, x, [1.0, 0.0], tape), target, tape)
        gb = tape.gradients(loss, [layer.adapters[0].b])[0]
        assert np.abs(gb).max() > 0

    def test_adapted_layer_finite_difference(self, rng):
        layer = random_conv_layer(rng, 4, 2, 2)
        x = Tensor(rng.standard_normal((1, 2, 5, 5)).astype(np.float32))
        target = Tensor(rng.standard_normal((1, 4, 5, 5)).astype(np.float32))

        def f_b(p, tape):
            layer.adapters[0].b = p
            return l1_loss(adapted_forward(layer, x, [0.6, 0.4], tape), target, tape)

        def f_a(p, tape):
            layer.adapters[1].a = p
            return l1_loss(adapted_forward(layer, x, [0.6, 0.4], tape), target, tape)

        assert finite_difference_check(f_b, layer.adapters[0].b) <= 1e-3
        assert finite_difference_check(f_a, layer.adapters[1].a) <= 1e-3

    def test_gradients_match_aggregation_reference(self, rng):
        # the merged taped path gets dB and dA through dW_eff; they must
        # agree with the per-expert paths of the aggregation reference
        cases = [("conv", stride, padding) for stride in (1, 2)
                 for padding in ("same", "valid")] + [("linear", 1, "same")] * 2
        for kind, stride, padding in cases * 3:
            t = 4
            if kind == "conv":
                layer = random_conv_layer(rng, 5, 3, t, rank=2, stride=stride,
                                          padding=padding)
                x = Tensor(rng.standard_normal((2, 3, 8, 8)).astype(np.float32))
            else:
                layer = random_linear_layer(rng, 6, 9, t, rank=3)
                x = Tensor(rng.standard_normal((4, 9)).astype(np.float32))
            layer.adapters[3].b = Tensor.zeros(layer.adapters[3].b.dims)
            s = np.array([0.5, 0.0, 0.3, 0.2], np.float32)
            w = Tensor(rng.standard_normal(adapted_forward(layer, x, s).dims)
                       .astype(np.float32))
            params = [p for ad in layer.adapters for p in ad.params()] + [x]
            grads = []
            for fwd in (adapted_forward, aggregated_forward):
                tape = GradTape()
                loss = sum_all(mul(fwd(layer, x, s, tape), w, tape), tape)
                grads.append(tape.gradients(loss, params))
            for got, want in zip(*grads):
                if want.any():
                    assert np.abs(got - want).max() / np.abs(want).max() <= 1e-4
                else:
                    np.testing.assert_array_equal(got, 0)
