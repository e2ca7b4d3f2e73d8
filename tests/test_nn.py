import io
import itertools
import struct

import numpy as np
import pytest
from hypothesis import given, strategies as st

from avq360 import nn
from avq360.audiofe import write_features
from avq360.errors import DataError, NumericError, ValidationError

from oracles import (four_view_maxpool2, gradient_rel_err, naive_conv2d, naive_maxpool2,
                     numerical_gradient, padded_window_columns, read_features,
                     relu_pool_backward, relu_pool_forward, with_crc)


def weighted_sum_loss(seed, shape):
    """Fixed random linear functional: turns any op output into a scalar."""
    r = np.random.default_rng(seed).normal(size=shape)
    return r, lambda y: float((r * y).sum())


class TestConv2d:
    def test_identity_kernel(self):
        x = np.random.default_rng(0).normal(size=(2, 3, 5, 5))
        w = np.zeros((3, 3, 1, 1))
        for i in range(3):
            w[i, i, 0, 0] = 1.0
        y = nn.conv2d_forward(x, w)[0]
        np.testing.assert_allclose(y, x, atol=1e-15)

    def test_all_ones_kernel_on_constant(self):
        x = np.full((1, 1, 6, 6), 2.5)
        w = np.ones((1, 1, 3, 3))
        y = nn.conv2d_forward(x, w, stride=1, pad=0)[0]
        np.testing.assert_allclose(y, 9 * 2.5, atol=1e-12)
        assert y.shape == (1, 1, 4, 4)

    def test_output_size_with_stride_and_pad(self):
        x = np.zeros((1, 2, 9, 7))
        w = np.zeros((4, 2, 3, 3))
        y = nn.conv2d_forward(x, w, stride=2, pad=1)[0]
        assert y.shape == (1, 4, 5, 4)

    def test_no_output_positions(self):
        with pytest.raises(ValidationError, match="no output positions"):
            nn.conv2d_forward(np.zeros((1, 1, 2, 2)), np.zeros((1, 1, 3, 3)))[0]

    @pytest.mark.parametrize("stride,pad", [(1, 0), (1, 1), (2, 1)])
    def test_gradients_match_finite_differences(self, stride, pad):
        rng = np.random.default_rng(42)
        x = rng.normal(size=(2, 3, 5, 5))
        w = rng.normal(size=(4, 3, 3, 3)) * 0.5
        b = rng.normal(size=4)
        y, cache = nn.conv2d_forward(x, w, b, stride, pad)
        r, loss = weighted_sum_loss(1, y.shape)
        gx, gw, gb = nn.conv2d_backward(r, cache)
        for arr, grad, f in [
            (x, gx, lambda v: loss(nn.conv2d_forward(v, w, b, stride, pad)[0])),
            (w, gw, lambda v: loss(nn.conv2d_forward(x, v, b, stride, pad)[0])),
            (b, gb, lambda v: loss(nn.conv2d_forward(x, w, v, stride, pad)[0])),
        ]:
            num = numerical_gradient(f, arr)
            assert gradient_rel_err(grad, num) < 1e-6


class TestMaxPool2:
    def test_constant_input(self):
        y = nn.maxpool2_forward(np.full((1, 2, 4, 4), 3.0))[0]
        np.testing.assert_allclose(y, 3.0)
        assert y.shape == (1, 2, 2, 2)

    def test_increasing_raster_picks_bottom_right(self):
        x = np.arange(16, dtype=float).reshape(1, 1, 4, 4)
        y = nn.maxpool2_forward(x)[0]
        np.testing.assert_allclose(y[0, 0], [[5, 7], [13, 15]])

    def test_odd_dims_rejected(self):
        with pytest.raises(ValidationError, match="even"):
            nn.maxpool2_forward(np.zeros((1, 1, 3, 4)))[0]

    def test_tie_routes_to_first_index(self):
        x = np.zeros((1, 1, 2, 2))
        y, cache = nn.maxpool2_forward(x)
        gx = nn.maxpool2_backward(np.ones((1, 1, 1, 1)), cache)
        np.testing.assert_allclose(gx[0, 0], [[1, 0], [0, 0]])

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=(2, 3, 6, 4))
        y, cache = nn.maxpool2_forward(x)
        r, loss = weighted_sum_loss(2, y.shape)
        gx = nn.maxpool2_backward(r, cache)
        num = numerical_gradient(lambda v: loss(nn.maxpool2_forward(v)[0]), x)
        assert gradient_rel_err(gx, num) < 1e-6


# (C, H, W, O) of the 3 band convs and the 4 audio convs of the default model
MODEL_CONV_SHAPES = [
    (1, 16, 32, 8), (8, 8, 16, 16), (16, 4, 8, 32),
    (1, 96, 64, 8), (8, 48, 32, 16), (16, 24, 16, 32), (32, 12, 8, 64),
]


def assert_close_to_oracle(got, want, rel=1e-12):
    """Largest difference within rel of the oracle's largest magnitude."""
    want = np.asarray(want)
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= rel * np.abs(want).max()


class TestKernelOracles:
    """The vectorised conv and pool kernels against plain-loop oracles."""

    @pytest.mark.parametrize(
        "shape,stride,pad",
        [(s, 1, 1) for s in MODEL_CONV_SHAPES] + [((3, 9, 7, 4), 2, 0), ((3, 9, 7, 4), 2, 1)],
    )
    def test_conv_matches_oracle(self, shape, stride, pad):
        c, h, wd, o = shape
        rng = np.random.default_rng(c * 1000 + h + stride + pad)
        x = rng.normal(size=(2, c, h, wd))
        w = rng.normal(size=(o, c, 3, 3))
        b = rng.normal(size=o)
        y, cache = nn.conv2d_forward(x, w, b, stride, pad)
        gy = rng.normal(size=y.shape)
        gx, gw, gb = nn.conv2d_backward(gy, cache)
        want = naive_conv2d(x.tolist(), w.tolist(), b.tolist(), gy.tolist(), stride, pad)
        for got, ref in zip((y, gx, gw, gb), want):
            assert_close_to_oracle(got, ref)

    def test_pool_ties_route_like_oracle(self):
        # integers in 0..2 (half of them clipped to 0): most windows hold ties
        rng = np.random.default_rng(5)
        x = np.maximum(rng.integers(-2, 3, size=(2, 3, 8, 6)), 0).astype(np.float64)
        y, cache = nn.maxpool2_forward(x)
        gy = rng.normal(size=y.shape)
        gx = nn.maxpool2_backward(gy, cache)
        want_y, want_gx = naive_maxpool2(x.tolist(), gy.tolist())
        np.testing.assert_array_equal(y, want_y)
        np.testing.assert_array_equal(gx, want_gx)

    def test_pool_equals_four_view_max_bitwise(self):
        # every window over six values, signed zeros and -inf among them,
        # except the all -inf ones, whose max the finite check refuses
        vals = [-np.inf, -1.0, -0.0, 0.0, 1.0, 2.0]
        windows = np.array(list(itertools.product(vals, repeat=4)))
        windows = windows[np.isfinite(windows.max(axis=1))]
        x = windows.reshape(-1, 1, 2, 2).transpose(1, 2, 0, 3).reshape(1, 1, 2, -1)
        rng = np.random.default_rng(6)
        for x in (x, rng.integers(-2, 3, size=(2, 3, 8, 6)) * 0.5, rng.normal(size=(3, 2, 6, 10))):
            assert nn.maxpool2_forward(x)[0].tobytes() == four_view_maxpool2(x).tobytes()

    def test_pool_refuses_an_infinite_max(self):
        x = np.zeros((1, 1, 4, 4))
        x[0, 0, 3, 2] = np.inf
        with pytest.raises(NumericError, match="maxpool2"):
            nn.maxpool2_forward(x)

    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("pad", [0, 1])
    def test_conv_columns_equal_padded_windows(self, stride, pad):
        rng = np.random.default_rng(10 * stride + pad)
        w = rng.normal(size=(4, 3, 3, 3))
        b = rng.normal(size=4)
        # a C-order input, and a strided view like the model's band slices
        for x in (rng.normal(size=(2, 3, 7, 6)), rng.normal(size=(2, 4, 3, 7, 6))[:, 1]):
            y, (cols, *_) = nn.conv2d_forward(x, w, b, stride, pad)
            want = padded_window_columns(x, 3, 3, stride, pad)
            assert cols.tobytes() == want.tobytes()
            want_y = w.reshape(4, -1) @ want
            want_y += b[:, None]
            assert y.tobytes() == want_y.tobytes()

    @pytest.mark.parametrize("stride,pad", [(1, 1), (2, 0)])
    def test_conv_without_input_gradient(self, stride, pad):
        rng = np.random.default_rng(11)
        x = rng.normal(size=(2, 3, 8, 6))
        w = rng.normal(size=(4, 3, 3, 3))
        b = rng.normal(size=4)
        y, cache = nn.conv2d_forward(x, w, b, stride, pad)
        gy = rng.normal(size=y.shape)
        _, gw, gb = nn.conv2d_backward(gy, cache)
        gx0, gw0, gb0 = nn.conv2d_backward(gy, cache, need_gx=False)
        assert gx0 is None
        assert gw0.tobytes() == gw.tobytes()
        assert gb0.tobytes() == gb.tobytes()

    def test_conv_without_input_gradient_still_checks_gw(self):
        y, cache = nn.conv2d_forward(np.ones((1, 1, 4, 4)), np.ones((2, 1, 3, 3)), None, 1, 1)
        gy = np.full(y.shape, np.nan)
        with pytest.raises(NumericError):
            nn.conv2d_backward(gy, cache, need_gx=False)

    def test_conv_layer_without_input_gradient(self):
        rng = np.random.default_rng(12)
        store = nn.ParamStore()
        conv = nn.Conv2d(store, "c", 2, 3, rng)
        x = rng.normal(size=(2, 2, 6, 4))
        y, cache = conv.forward(x)
        gy = rng.normal(size=y.shape)
        conv.backward(gy, cache)
        full = {k: g.copy() for k, g in store.grads.items()}
        store.zero_grads()
        assert conv.backward(gy, cache, need_gx=False) is None
        for k, g in store.grads.items():
            assert g.tobytes() == full[k].tobytes()


class TestPoolBeforeRelu:
    """The conv stage of ``model._ConvStack``, max pool then relu, equals
    relu then pool byte for byte, signed zeros included."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_stage_matches_relu_then_pool(self, seed):
        rng = np.random.default_rng(seed)
        # integers in -2..2: ties in most windows, exact zeros, all-negative windows
        x = rng.integers(-2, 3, size=(2, 3, 8, 6)).astype(np.float64)
        x[0, 0, :2, :2] = [[-1.0, -2.0], [-1.0, -3.0]]  # all negative, max tied
        x[0, 1, :2, :2] = 0.0                            # all zero
        x[1, 2, :2, :2] = [[-1.0, 0.0], [0.0, -2.0]]     # max exactly zero, tied
        gy = rng.normal(size=(2, 3, 4, 3))               # about half negative
        p, pool_cache = nn.maxpool2_forward(x)
        y, relu_cache = nn.relu_forward(p)
        gx = nn.maxpool2_backward(nn.relu_backward(gy, relu_cache), pool_cache)
        want_y, cache = relu_pool_forward(x)
        want_gx = relu_pool_backward(gy, cache)
        assert y.tobytes() == want_y.tobytes()
        assert gx.tobytes() == want_gx.tobytes()
        # both signs of zero occur in the gradients compared
        assert np.signbit(gx[gx == 0]).any() and not np.signbit(gx[gx == 0]).all()


class TestElementwiseOps:
    def test_relu_values(self):
        np.testing.assert_allclose(nn.relu_forward(np.array([-1.0, 0.0, 2.0]))[0], [0.0, 0.0, 2.0])

    def test_relu_gradient(self):
        rng = np.random.default_rng(8)
        x = rng.normal(size=(4, 5)) + 0.1  # keep away from the kink
        y, cache = nn.relu_forward(x)
        r, loss = weighted_sum_loss(3, y.shape)
        g = nn.relu_backward(r, cache)
        num = numerical_gradient(lambda v: loss(nn.relu_forward(v)[0]), x)
        assert gradient_rel_err(g, num) < 1e-6

    def test_softmax_uniform_for_equal_logits(self):
        y = nn.softmax(np.zeros((3, 5)))
        np.testing.assert_allclose(y, 0.2, atol=1e-15)

    def test_softmax_shift_invariance_and_rows_sum(self):
        rng = np.random.default_rng(9)
        x = rng.normal(size=(6, 7)) * 3
        y1 = nn.softmax(x)
        y2 = nn.softmax(x + 123.0)
        np.testing.assert_allclose(y1, y2, atol=1e-12)
        np.testing.assert_allclose(y1.sum(axis=-1), 1.0, atol=1e-12)

    def test_softmax_gradient(self):
        rng = np.random.default_rng(10)
        x = rng.normal(size=(3, 6))
        y = nn.softmax(x)
        r, loss = weighted_sum_loss(4, y.shape)
        g = nn.softmax_backward(r, y)
        num = numerical_gradient(lambda v: loss(nn.softmax(v)), x)
        assert gradient_rel_err(g, num) < 1e-6

    def test_sigmoid_stable_at_extremes(self):
        y = nn.sigmoid(np.array([-800.0, 0.0, 800.0]))
        np.testing.assert_allclose(y, [0.0, 0.5, 1.0], atol=1e-12)


class TestLinear:
    def test_gradients(self):
        rng = np.random.default_rng(11)
        x = rng.normal(size=(3, 4, 5))
        w = rng.normal(size=(5, 6))
        b = rng.normal(size=6)
        y, cache = nn.linear_forward(x, w, b)
        r, loss = weighted_sum_loss(5, y.shape)
        gx, gw, gb = nn.linear_backward(r, cache)
        assert gradient_rel_err(
            gx, numerical_gradient(lambda v: loss(nn.linear_forward(v, w, b)[0]), x)) < 1e-6
        assert gradient_rel_err(
            gw, numerical_gradient(lambda v: loss(nn.linear_forward(x, v, b)[0]), w)) < 1e-6
        assert gradient_rel_err(
            gb, numerical_gradient(lambda v: loss(nn.linear_forward(x, w, v)[0]), b)) < 1e-6

    def test_dim_mismatch(self):
        with pytest.raises(ValidationError):
            nn.linear_forward(np.zeros((2, 3)), np.zeros((4, 5)))[0]


class TestLayerNorm:
    def test_normalizes_last_dim(self):
        rng = np.random.default_rng(12)
        x = rng.normal(loc=5.0, scale=3.0, size=(4, 16))
        y = nn.layer_norm_forward(x, np.ones(16), np.zeros(16))[0]
        np.testing.assert_allclose(y.mean(axis=-1), 0.0, atol=1e-12)
        np.testing.assert_allclose(y.var(axis=-1), 1.0, atol=1e-4)  # eps-shifted

    def test_gradients(self):
        rng = np.random.default_rng(13)
        x = rng.normal(size=(3, 8))
        gamma = rng.normal(size=8)
        beta = rng.normal(size=8)
        y, cache = nn.layer_norm_forward(x, gamma, beta)
        r, loss = weighted_sum_loss(6, y.shape)
        gx, ggamma, gbeta = nn.layer_norm_backward(r, cache)
        assert gradient_rel_err(
            gx, numerical_gradient(lambda v: loss(nn.layer_norm_forward(v, gamma, beta)[0]), x)
        ) < 1e-6
        assert gradient_rel_err(
            ggamma,
            numerical_gradient(lambda v: loss(nn.layer_norm_forward(x, v, beta)[0]), gamma),
        ) < 1e-6
        assert gradient_rel_err(
            gbeta,
            numerical_gradient(lambda v: loss(nn.layer_norm_forward(x, gamma, v)[0]), beta),
        ) < 1e-6


def make_mha_params(d, seed):
    rng = np.random.default_rng(seed)
    p = {}
    for key in ("wq", "wk", "wv", "wo"):
        p[key] = rng.normal(size=(d, d)) / np.sqrt(d)
    for key in ("bq", "bk", "bv", "bo"):
        p[key] = rng.normal(size=d) * 0.1
    return p


class TestMultiHeadAttention:
    def test_single_kv_token_ignores_queries(self):
        d = 8
        p = make_mha_params(d, 0)
        kv = np.random.default_rng(1).normal(size=(1, d))
        q_a = np.random.default_rng(2).normal(size=(4, d))
        q_b = np.random.default_rng(3).normal(size=(4, d))
        y_a = nn.mha_forward(q_a, kv, p, heads=2)[0]
        y_b = nn.mha_forward(q_b, kv, p, heads=2)[0]
        np.testing.assert_allclose(y_a, y_b, atol=1e-12)
        expected = (kv @ p["wv"] + p["bv"]) @ p["wo"] + p["bo"]
        np.testing.assert_allclose(y_a, np.repeat(expected, 4, axis=0), atol=1e-12)

    def test_kv_permutation_invariance(self):
        d = 8
        p = make_mha_params(d, 4)
        rng = np.random.default_rng(5)
        q = rng.normal(size=(3, d))
        kv = rng.normal(size=(6, d))
        perm = rng.permutation(6)
        y1 = nn.mha_forward(q, kv, p, heads=4)[0]
        y2 = nn.mha_forward(q, kv[perm], p, heads=4)[0]
        np.testing.assert_allclose(y1, y2, atol=1e-12)

    def test_outputs_are_convex_combinations_per_head(self):
        d = 8
        heads = 2
        hd = d // heads
        p = make_mha_params(d, 6)
        rng = np.random.default_rng(7)
        q_in = rng.normal(size=(5, d))
        kv_in = rng.normal(size=(4, d))
        y, cache = nn.mha_forward(q_in, kv_in, p, heads)
        _, _, _, _, vh, attn, o, *_ = cache
        np.testing.assert_allclose(attn.sum(axis=-1), 1.0, atol=1e-12)
        oh = o.reshape(5, heads, hd).transpose(1, 0, 2)
        for h in range(heads):
            vmin = vh[h].min(axis=0) - 1e-12
            vmax = vh[h].max(axis=0) + 1e-12
            assert np.all(oh[h] >= vmin) and np.all(oh[h] <= vmax)

    def test_dim_mismatch(self):
        p = make_mha_params(8, 8)
        with pytest.raises(ValidationError):
            nn.mha_forward(np.zeros((2, 8)), np.zeros((2, 6)), p, heads=2)[0]
        with pytest.raises(ValidationError, match="divisible"):
            nn.mha_forward(np.zeros((2, 6)), np.zeros((2, 6)), p, heads=4)[0]

    def test_gradients_two_heads_four_tokens(self):
        d = 8
        heads = 2
        p = make_mha_params(d, 9)
        rng = np.random.default_rng(10)
        q_in = rng.normal(size=(4, d))
        kv_in = rng.normal(size=(4, d))
        y, cache = nn.mha_forward(q_in, kv_in, p, heads)
        r, loss = weighted_sum_loss(11, y.shape)
        gq, gkv, grads = nn.mha_backward(r, cache)

        assert gradient_rel_err(
            gq,
            numerical_gradient(
                lambda v: loss(nn.mha_forward(v, kv_in, p, heads)[0]), q_in),
        ) < 1e-5
        assert gradient_rel_err(
            gkv,
            numerical_gradient(
                lambda v: loss(nn.mha_forward(q_in, v, p, heads)[0]), kv_in),
        ) < 1e-5
        for key in ("wq", "bq", "wk", "bk", "wv", "bv", "wo", "bo"):
            def f(v, key=key):
                trial = dict(p)
                trial[key] = v
                return loss(nn.mha_forward(q_in, kv_in, trial, heads)[0])

            num = numerical_gradient(f, p[key])
            assert gradient_rel_err(grads[key], num) < 1e-5, key

    def test_self_attention_gradient_shares_input(self):
        # q_in is kv_in: total input grad is the sum of both paths
        d = 8
        p = make_mha_params(d, 12)
        x = np.random.default_rng(13).normal(size=(3, d))
        y, cache = nn.mha_forward(x, x, p, heads=2)
        r, loss = weighted_sum_loss(14, y.shape)
        gq, gkv, _ = nn.mha_backward(r, cache)
        num = numerical_gradient(
            lambda v: loss(nn.mha_forward(v, v, p, 2)[0]), x)
        assert gradient_rel_err(gq + gkv, num) < 1e-5


class TestAdam:
    def test_zero_gradient_leaves_params(self):
        store = nn.ParamStore()
        store.create("w", (2,), lambda _: np.array([1.0, -2.0]))
        state = nn.adam_init(store, lr=0.1)
        nn.adam_step(store, state)
        np.testing.assert_allclose(store.params["w"], [1.0, -2.0])
        assert state.step == 1

    def test_first_step_closed_form(self):
        # with constant gradient g the first update is -lr*g/(|g|+eps)
        store = nn.ParamStore()
        store.create("w", (1,), lambda _: np.array([0.5]))
        state = nn.adam_init(store, lr=1e-3)
        g = 0.37
        store.add_grad("w", np.array([g]))
        nn.adam_step(store, state)
        expected = 0.5 - 1e-3 * g / (abs(g) + nn.ADAM_EPS)
        assert store.params["w"][0] == pytest.approx(expected, rel=1e-12)

    def test_deterministic_over_100_steps(self):
        def run():
            store = nn.ParamStore()
            rng = np.random.default_rng(0)
            store.create("w", (4, 4), lambda shape: rng.normal(size=shape))
            state = nn.adam_init(store, lr=1e-3)
            for k in range(100):
                store.zero_grads()
                store.add_grad("w", np.sin(store.params["w"] + k).astype(np.float64))
                nn.adam_step(store, state)
            return store.params["w"].copy()

        a, b = run(), run()
        assert a.tobytes() == b.tobytes()

    def test_missing_gradient_errors(self):
        store = nn.ParamStore()
        store.create("w", (2,), np.zeros)
        state = nn.adam_init(store)
        del store.grads["w"]
        with pytest.raises(NumericError, match="missing gradient"):
            nn.adam_step(store, state)


class TestParamStore:
    def test_duplicate_name_rejected(self):
        store = nn.ParamStore()
        store.create("w", (2,), np.zeros)
        with pytest.raises(ValidationError, match="duplicate"):
            store.create("w", (2,), np.zeros)

    def test_create_from_initial_takes_the_array_over(self):
        w = np.arange(4.0).reshape(2, 2)
        store = nn.ParamStore({"w": w})
        assert store.create("w", (2, 2), no_init) is w
        assert store.params["w"] is w
        # a loaded store holds no gradients until it trains
        assert store.grads == {}
        store.zero_grads()
        assert store.grads["w"].shape == (2, 2) and not store.grads["w"].any()

    def test_store_from_initial_steps_like_an_eager_one(self):
        rng = np.random.default_rng(5)
        arrays = {"w": rng.normal(size=(3, 4)), "b": rng.normal(size=4)}
        eager = nn.ParamStore()
        loaded = nn.ParamStore({name: a.copy() for name, a in arrays.items()})
        for name, a in arrays.items():
            eager.create(name, a.shape, lambda _, a=a: a.copy())
            loaded.create(name, a.shape, no_init)
        assert loaded.grads == {}
        states = nn.adam_init(eager), nn.adam_init(loaded)
        for k in range(3):
            for store, state in zip((eager, loaded), states):
                store.zero_grads()
                for name in arrays:
                    store.add_grad(name, np.sin(store.params[name] + k))
                nn.adam_step(store, state)
        for name in arrays:
            assert loaded.params[name].tobytes() == eager.params[name].tobytes()

    def test_first_add_grad_of_a_loaded_store_starts_from_zero(self):
        store = nn.ParamStore({"w": np.ones(3)})
        store.create("w", (3,), no_init)
        store.add_grad("w", np.array([-0.0, 1.5, -2.0]))
        assert store.grads["w"].tobytes() == np.array([0.0, 1.5, -2.0]).tobytes()

    def test_create_from_initial_shape_mismatch(self):
        store = nn.ParamStore({"w": np.zeros(3)})
        with pytest.raises(DataError) as e:
            store.create("w", (2, 2), no_init)
        assert str(e.value) == "shape mismatch for w: checkpoint (3,) vs model (2, 2)"
        assert store.params == {} and store.grads == {}

    def test_create_from_initial_missing_name(self):
        store = nn.ParamStore({"v": np.zeros(2)})
        with pytest.raises(DataError) as e:
            store.create("w", (2,), no_init)
        assert str(e.value) == "checkpoint lacks parameter w"
        assert store.params == {} and store.grads == {}


def no_init(shape):
    raise AssertionError(f"initializer called for {shape}")


class TestFiniteChecks:
    def test_nan_trips_error(self):
        x = np.array([[1.0, np.nan]])
        with pytest.raises(NumericError, match="non-finite"):
            nn.linear_forward(x, np.eye(2))[0]


class TestLayerNames:
    """A layer's NumericError names the layer; the functional op's, only the op."""

    @staticmethod
    def _layers(store, rng):
        return {
            "conv2d": (nn.Conv2d(store, "audio.cnn.conv0", 1, 2, rng), (np.full((1, 1, 4, 4), 1e308),)),
            "linear": (nn.Linear(store, "head", 2, 1, rng), (np.full((3, 2), 1e308),)),
            "layer_norm": (nn.LayerNorm(store, "audio.ln", 4), (np.full((3, 4), 1e308),)),
            "mha": (nn.MultiHeadAttention(store, "fusion.block1.xattn", 4, 2, rng),
                    # queries of zero keep the softmax finite; the values overflow
                    (np.full((3, 4), -0.25), np.full((2, 4), 2e307))),
        }

    @pytest.mark.parametrize("op", ["conv2d", "linear", "layer_norm", "mha"])
    def test_overflow_names_the_layer(self, op):
        store = nn.ParamStore()
        layer, args = self._layers(store, np.random.default_rng(0))[op]
        for p in store.params.values():
            p[...] = 1.0  # so no two terms of a sum cancel
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NumericError) as e:
                layer.forward(*args)
        assert str(e.value) == f"{layer._name}: {op}: non-finite values detected"

    def test_functional_op_names_only_itself(self):
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NumericError) as e:
                nn.conv2d_forward(np.full((1, 1, 4, 4), 1e308), np.ones((2, 1, 3, 3)), None, 1, 1)
        assert str(e.value) == "conv2d: non-finite values detected"


class TestCheckpointFormat:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(20)
        tensors = {
            "a.w": rng.normal(size=(3, 4)).astype(np.float32),
            "b": np.float32(7.0),
            "c.vec": rng.normal(size=5).astype(np.float32),
        }
        path = tmp_path / "m.avqc"
        nn.write_checkpoint(path, tensors)
        out = nn.read_checkpoint(path)
        assert set(out) == set(tensors)
        np.testing.assert_array_equal(out["a.w"], tensors["a.w"])
        assert out["b"].shape == ()
        assert float(out["b"]) == 7.0
        assert path.read_bytes()[:4] == b"AVQC"

    def test_f8_payload_is_exact_and_marked_by_its_width(self, tmp_path):
        rng = np.random.default_rng(21)
        tensors = {"audio": rng.normal(size=(2, 3)), "key": np.arange(4.0)}
        path = tmp_path / "f.avqc"
        nn.write_checkpoint(path, tensors, dtype="<f8")
        out = nn.read_checkpoint(path)
        for name, arr in tensors.items():
            assert out[name].dtype == np.float64
            np.testing.assert_array_equal(out[name], arr)
        # the header with the payload width, then the first name
        assert path.read_bytes()[:25] == b"AVQC" + struct.pack("<IIII", 2, 2, 8, 5) + b"audio"

    def test_version_1_file_is_refused(self, tmp_path):
        # the layout before the payload width and the checksum
        path = tmp_path / "v1.avqc"
        path.write_bytes(b"AVQC" + struct.pack("<III", 1, 1, 1) + b"b"
                         + struct.pack("<If", 0, 1.0))
        with pytest.raises(DataError) as e:
            nn.read_checkpoint(path)
        assert str(e.value) == f"{path}: unsupported checkpoint version 1"

    # the payload width, a name length, a payload byte, the checksum
    @pytest.mark.parametrize("at", [12, 16, -5, -1])
    def test_any_flipped_bit_is_checksum_mismatch(self, tmp_path, at):
        path = tmp_path / "m.avqc"
        nn.write_checkpoint(path, {"head.b": np.float32(1.0), "head.w": np.ones(3, np.float32)})
        raw = bytearray(path.read_bytes())
        raw[at] ^= 0x01
        path.write_bytes(raw)
        with pytest.raises(DataError) as e:
            nn.read_checkpoint(path)
        assert str(e.value) == f"{path}: checksum mismatch"

    def test_unknown_payload_width_is_data_error(self, tmp_path):
        path = tmp_path / "w.avqc"
        path.write_bytes(with_crc(b"AVQC" + struct.pack("<IIII", 2, 1, 2, 1) + b"b"
                                  + struct.pack("<I", 0) + bytes(2)))
        with pytest.raises(DataError) as e:
            nn.read_checkpoint(path)
        assert str(e.value) == f"{path}: payload width 2, not 4 or 8"

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.avqc"
        path.write_bytes(b"XXXX" + bytes(8))
        with pytest.raises(DataError, match="magic"):
            nn.read_checkpoint(path)

    def test_truncation_detected(self, tmp_path):
        path = tmp_path / "t.avqc"
        nn.write_checkpoint(path, {"w": np.zeros((4, 4), dtype=np.float32)})
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(DataError):
            nn.read_checkpoint(path)

    def test_repeated_tensor_name_is_data_error(self, tmp_path):
        # a second record of a name would otherwise replace the first
        path = tmp_path / "m.avqc"
        nn.write_checkpoint(path, {"head.b": np.float32(1.0), "head.w": np.zeros(2, np.float32)})
        raw = bytearray(path.read_bytes()[:-4])  # without the checksum
        raw[8:12] = struct.pack("<I", 3)
        record = io.BytesIO()
        nn.write_tensor_record(record, np.float32(5.0))
        raw += struct.pack("<I", len(b"head.b")) + b"head.b"
        path.write_bytes(with_crc(bytes(raw) + record.getvalue()))
        with pytest.raises(DataError, match=r"tensor 'head\.b' appears twice") as e:
            nn.read_checkpoint(path)
        assert str(path) in str(e.value)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_tensor_is_data_error(self, tmp_path, value):
        w = np.zeros((2, 3), np.float32)
        w[1, 2] = value
        path = tmp_path / "m.avqc"
        nn.write_checkpoint(path, {"head.b": np.float32(1.0), "head.w": w})
        with pytest.raises(DataError, match=r"tensor 'head\.w' holds non-finite values") as e:
            nn.read_checkpoint(path)
        assert str(e.value).startswith(f"{path}: ")

    def test_interrupted_write_leaves_earlier_checkpoint_and_no_temporary_file(
        self, tmp_path, monkeypatch
    ):
        path = tmp_path / "m.avqc"
        tensors = {"a": np.ones((2, 3), dtype=np.float32), "b": np.float32(2.0)}
        nn.write_checkpoint(path, tensors)
        before = path.read_bytes()
        write_record = nn.write_tensor_record
        written = []
        tmp_seen = []

        def fail_after_one(f, arr, *dtype):
            if written:
                # the temporary file is open, with the first record in it
                tmp_seen.append((tmp_path / "m.avqc.tmp").is_file())
                raise KeyboardInterrupt
            written.append(arr)
            write_record(f, arr, *dtype)

        monkeypatch.setattr(nn, "write_tensor_record", fail_after_one)
        with pytest.raises(KeyboardInterrupt):
            nn.write_checkpoint(path, {k: v * 2 for k, v in tensors.items()})
        assert len(written) == 1 and tmp_seen == [True]
        assert path.read_bytes() == before
        assert list(tmp_path.iterdir()) == [path]


class TestTensorRecords:
    @pytest.mark.parametrize("fmt", ["avqf", "avqc"])
    def test_every_truncation_is_a_data_error(self, tmp_path, fmt):
        arr = np.arange(6, dtype=np.float32).reshape(2, 3)
        path = tmp_path / f"full.{fmt}"
        if fmt == "avqf":
            write_features(path, arr)
            read = read_features
        else:
            nn.write_checkpoint(path, {"a": arr, "b": np.float32(1.0)})
            read = nn.read_checkpoint
        data = path.read_bytes()
        read(path)
        cut = tmp_path / f"cut.{fmt}"
        for n in range(len(data)):
            cut.write_bytes(data[:n])
            with pytest.raises(DataError):
                read(cut)

    def test_huge_declared_shape_fails_before_allocating(self, tmp_path):
        path = tmp_path / "huge.avqf"
        path.write_bytes(b"AVQF" + struct.pack("<5I", 4, *[2 ** 32 - 1] * 4) + bytes(16))
        with pytest.raises(DataError, match="declared size"):
            read_features(path)

    @pytest.mark.parametrize("rank, dim", [(65, 0), (2000, 2 ** 32 - 1)])
    @pytest.mark.parametrize("fmt", ["avqf", "avqc"])
    def test_rank_above_64_is_data_error(self, tmp_path, fmt, rank, dim):
        record = struct.pack(f"<{rank + 1}I", rank, *[dim] * rank)
        path = tmp_path / f"rank.{fmt}"
        if fmt == "avqf":
            path.write_bytes(b"AVQF" + record)
            read = read_features
        else:
            path.write_bytes(with_crc(b"AVQC" + struct.pack("<IIII", 2, 1, 4, 1) + b"a"
                                      + record))
            read = nn.read_checkpoint
        with pytest.raises(DataError, match=f"tensor rank {rank} at offset .* exceeds 64"):
            read(path)

    def test_rank_64_loads(self, tmp_path):
        path = tmp_path / "rank64.avqf"
        path.write_bytes(b"AVQF" + struct.pack("<65I", 64, *[1] * 64) + struct.pack("<f", 2.5))
        arr = read_features(path)
        assert arr.shape == (1,) * 64 and arr.item() == 2.5

    def test_empty_tensor_too_large_for_numpy_is_data_error(self, tmp_path):
        # no payload bytes, so only numpy's shape limit can refuse it
        path = tmp_path / "empty.avqf"
        path.write_bytes(b"AVQF" + struct.pack("<5I", 4, 0, *[2 ** 31] * 3))
        with pytest.raises(DataError, match=r"tensor shape \(0, 2147483648, .*\) is too large"):
            read_features(path)

    def test_empty_tensor_loads(self, tmp_path):
        path = tmp_path / "empty.avqf"
        path.write_bytes(b"AVQF" + struct.pack("<3I", 2, 0, 7))
        assert read_features(path).shape == (0, 7)


class TestInit:
    @given(st.integers(0, 2 ** 31 - 1))
    def test_kaiming_uniform_bounds(self, seed):
        rng = np.random.default_rng(seed)
        w = nn.kaiming_uniform(rng, (16, 9), fan_in=9)
        bound = np.sqrt(6.0 / 9.0)
        assert np.all(np.abs(w) <= bound)
