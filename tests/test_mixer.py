import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hashmixer.config import build_run_config
from hashmixer.mixer import (
    ERF_BLOCK,
    ModelConfig,
    _normalize_rows,
    backward_batch,
    count_parameters,
    forward_batch,
    gelu_grad,
    init_params,
    normal_cdf,
    param_shapes,
)
from hashmixer.projection import FeatureMatrix, TokenWindows
from hashmixer.training import cross_entropy_masked


def forward(matrix, params, cfg):
    """Single-example forward through ``forward_batch``; token head returns (labels, s)."""
    logits, record = forward_batch(
        matrix.data[None, :, :], np.array([matrix.valid_len]), params, cfg
    )
    return logits[0], record


def backward(record, upstream, params, cfg):
    """Single-example backward matching :func:`forward`."""
    grads, input_grad = backward_batch(record, upstream[None, ...], params, cfg)
    return grads, input_grad[0]


def gelu(x):
    """Exact GELU as the network computes it: x * Phi(x)."""
    return x * normal_cdf(x)


def layer_norm(v, scale, shift):
    """One vector through the network's row normalization, then the affine."""
    xhat, _ = _normalize_rows(v[None, :])
    return xhat[0] * scale + shift


def small_cfg(head="token", depth=2, num_labels=5):
    return ModelConfig(input_rows=12, seq_len=6, bottleneck=8, hidden=8,
                       depth=depth, head=head, num_labels=num_labels)


def numeric_gradients(loss_fn, params, h=1e-4):
    grads = {}
    for name, p in params.items():
        g = np.empty_like(p)
        flat, gflat = p.ravel(), g.ravel()
        for idx in range(flat.size):
            orig = flat[idx]
            flat[idx] = orig + h
            up = loss_fn()
            flat[idx] = orig - h
            down = loss_fn()
            flat[idx] = orig
            gflat[idx] = (up - down) / (2 * h)
        grads[name] = g
    return grads


def max_rel_error(analytic, numeric, floor=1e-6):
    worst = 0.0
    for name in analytic:
        a, n = analytic[name].ravel(), numeric[name].ravel()
        denom = np.maximum(np.maximum(np.abs(a), np.abs(n)), floor)
        worst = max(worst, float((np.abs(a - n) / denom).max()))
    return worst


class TestConfigAndParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            small_cfg(depth=-1)
        with pytest.raises(ValueError):
            ModelConfig(input_rows=0, seq_len=6, bottleneck=8, hidden=8,
                        depth=1, head="token", num_labels=5)
        with pytest.raises(ValueError):
            small_cfg(head="attention")

    def test_count_matches_initialized_sizes(self):
        rng = np.random.default_rng(99)
        random_cfgs = [
            ModelConfig(
                input_rows=int(rng.integers(1, 40)),
                seq_len=int(rng.integers(1, 20)),
                bottleneck=int(rng.integers(1, 30)),
                hidden=int(rng.integers(1, 30)),
                depth=int(rng.integers(0, 4)),
                head=rng.choice(["token", "pooled"]),
                num_labels=int(rng.integers(1, 50)),
            )
            for _ in range(20)
        ]
        x_small = build_run_config(preset="x-small").model_config(num_labels=78)
        for cfg in [*random_cfgs, x_small]:
            params = init_params(cfg, seed=1)
            assert count_parameters(cfg) == sum(p.size for p in params.values())
            assert set(params) == set(param_shapes(cfg))

    def test_init_deterministic(self):
        cfg = small_cfg()
        a = init_params(cfg, seed=11)
        b = init_params(cfg, seed=11)
        for name in a:
            assert np.array_equal(a[name], b[name]), name
        c = init_params(cfg, seed=12)
        assert any(not np.array_equal(a[k], c[k]) for k in a)

    def test_biases_zero_scales_one(self):
        params = init_params(small_cfg(), seed=3)
        assert not params["bottleneck.bias"].any()
        assert not params["mixer.0.token_mlp.b1"].any()
        assert np.all(params["mixer.0.norm1.scale"] == 1.0)
        assert not params["mixer.0.norm1.shift"].any()

    def test_weight_mean_is_statistically_centred(self):
        cfg = ModelConfig(input_rows=400, seq_len=4, bottleneck=300, hidden=4,
                          depth=0, head="token", num_labels=2)
        w = init_params(cfg, seed=5)["bottleneck.weight"]
        assert w.size >= 100_000
        a = math.sqrt(6.0 / (400 + 300))
        assert np.abs(w).max() <= a
        stderr = (2 * a / math.sqrt(12.0)) / math.sqrt(w.size)
        assert abs(w.mean()) < 3 * stderr


class TestGelu:
    def test_zero(self):
        assert gelu(np.array(0.0)) == 0.0

    def test_saturates_high(self):
        assert abs(float(gelu(np.array(10.0))) - 10.0) < 1e-6

    def test_matches_stdlib_erf_oracle(self):
        for x in (-2.5, -1.0, 0.3, 1.0, 4.2):
            expected = x * 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))
            assert abs(float(gelu(np.array(x))) - expected) < 1e-12


class TestFloat32Gelu:
    """float32 takes the blocked rational erf; float64 takes math.erf per element."""

    CDF_TOL = 4e-7

    @staticmethod
    def exact_cdf(x32):
        return np.array([0.5 * (1.0 + math.erf(float(v) / math.sqrt(2.0))) for v in x32])

    def test_cdf_matches_stdlib_erf_on_a_dense_grid(self):
        x = np.linspace(-10.0, 10.0, 400_001, dtype=np.float32)
        cdf = normal_cdf(x)
        assert cdf.dtype == np.float32
        assert np.abs(cdf - self.exact_cdf(x)).max() <= self.CDF_TOL

    def test_infinities_and_nan(self):
        cdf = normal_cdf(np.array([np.inf, -np.inf, np.nan, 0.0], dtype=np.float32))
        assert cdf[0] == 1.0 and cdf[1] == 0.0 and np.isnan(cdf[2]) and cdf[3] == 0.5
        grad = gelu_grad(np.array([np.nan], dtype=np.float32))
        assert np.isnan(grad[0])

    def test_zero_d_input(self):
        x = np.array(0.8, dtype=np.float32)
        cdf = normal_cdf(x)
        assert cdf.shape == () and cdf.dtype == np.float32
        assert abs(float(cdf) - self.exact_cdf([x])[0]) <= self.CDF_TOL
        assert gelu_grad(x).shape == ()

    def test_non_contiguous_input(self, rng):
        x = rng.normal(scale=3.0, size=(40, 30)).astype(np.float32)
        view = x.T[::2]
        assert not view.flags.c_contiguous
        assert np.array_equal(normal_cdf(view), normal_cdf(np.ascontiguousarray(view)))
        cdf = normal_cdf(view)
        assert np.array_equal(gelu_grad(view, cdf), gelu_grad(np.ascontiguousarray(view), cdf))

    @pytest.mark.parametrize("size", [0, 1, ERF_BLOCK - 1, ERF_BLOCK + 1, 2 * ERF_BLOCK + 17])
    def test_block_boundaries_do_not_matter(self, size, rng):
        x = rng.normal(scale=3.0, size=size).astype(np.float32)
        cdf = normal_cdf(x)
        grad = gelu_grad(x, cdf)
        assert cdf.shape == grad.shape == (size,)
        cut = size // 3  # pieces that do not start on a block boundary
        assert np.array_equal(cdf, np.concatenate([normal_cdf(x[:cut]), normal_cdf(x[cut:])]))
        assert np.array_equal(grad, np.concatenate([gelu_grad(x[:cut], cdf[:cut]),
                                                    gelu_grad(x[cut:], cdf[cut:])]))
        if size:
            assert np.abs(cdf - self.exact_cdf(x)).max() <= self.CDF_TOL

    def test_gelu_grad_matches_float64_formula(self):
        x = np.linspace(-10.0, 10.0, 100_001, dtype=np.float32)
        x64 = x.astype(np.float64)
        expected = normal_cdf(x64) + x64 * np.exp(-0.5 * x64 * x64) / math.sqrt(2.0 * math.pi)
        for grad in (gelu_grad(x), gelu_grad(x, normal_cdf(x))):
            assert grad.dtype == np.float32
            assert np.abs(grad - expected).max() <= 1e-6

    def test_float64_cdf_is_stdlib_erf(self, rng):
        x = rng.normal(scale=4.0, size=10_000)
        expected = [0.5 * (1.0 + math.erf(v * (1.0 / math.sqrt(2.0)))) for v in x.tolist()]
        cdf = normal_cdf(x)
        assert cdf.dtype == np.float64 and np.array_equal(cdf, expected)
        cdf = normal_cdf(np.array(0.8))
        assert isinstance(cdf, np.ndarray) and cdf.shape == () and cdf.dtype == np.float64
        assert float(cdf) == 0.5 * (1.0 + math.erf(0.8 * (1.0 / math.sqrt(2.0))))


class TestLayerNorm:
    def test_constant_vector_maps_to_shift(self):
        out = layer_norm(np.full(7, 3.3), np.ones(7), np.zeros(7))
        assert np.allclose(out, 0.0, atol=1e-3)

    def test_standardized_vector_is_fixed_point(self):
        v = np.array([-1.0, 1.0, -1.0, 1.0])
        out = layer_norm(v, np.ones(4), np.zeros(4))
        assert np.allclose(out, v, atol=1e-6)

    @given(st.lists(st.floats(-50, 50), min_size=2, max_size=32))
    @settings(max_examples=100)
    def test_matches_two_pass_oracle(self, values):
        v = np.array(values, dtype=np.float64)
        mean = sum(values) / len(values)
        var = sum((x - mean) ** 2 for x in values) / len(values)
        expected = (v - mean) / math.sqrt(var + 1e-6)
        out = layer_norm(v, np.ones(len(values)), np.zeros(len(values)))
        assert np.allclose(out, expected, atol=1e-9)


class TestForward:
    def test_shapes_at_paper_scale(self):
        cfg = ModelConfig(input_rows=3072, seq_len=64, bottleneck=256, hidden=256,
                          depth=2, head="token", num_labels=78)
        params = init_params(cfg, seed=0)
        matrix = FeatureMatrix(data=np.zeros((3072, 64)), valid_len=10)
        logits, record = forward(matrix, params, cfg)
        bottleneck = params["bottleneck.weight"] @ matrix.data + params["bottleneck.bias"][:, None]
        assert bottleneck.shape == (256, 64)
        assert record.mixer_out.shape == (1, 256, 64)
        assert logits.shape == (78, 64)

    def test_depth_zero_is_linear_head_of_bottleneck(self, rng):
        cfg = small_cfg(depth=0)
        params = init_params(cfg, seed=2)
        data = rng.normal(size=(12, 6))
        logits, _ = forward(FeatureMatrix(data=data, valid_len=6), params, cfg)
        b = params["bottleneck.weight"] @ data + params["bottleneck.bias"][:, None]
        expected = params["head.weight"] @ b + params["head.bias"][:, None]
        assert np.allclose(logits, expected, atol=1e-12)

    def test_pooled_single_valid_column(self, rng):
        cfg = small_cfg(head="pooled", num_labels=3)
        params = init_params(cfg, seed=4)
        data = rng.normal(size=(12, 6))
        logits, record = forward(FeatureMatrix(data=data, valid_len=1), params, cfg)
        assert np.array_equal(record.alpha[0, :1], [1.0])
        assert not record.alpha[0, 1:].any()
        assert np.allclose(record.pooled[0], record.mixer_out[0, :, 0])
        assert logits.shape == (3,)

    def test_pooled_weights_form_a_convex_combination(self, rng):
        cfg = small_cfg(head="pooled", num_labels=3)
        params = init_params(cfg, seed=4)
        data = rng.normal(size=(3, 12, 6))
        valid = np.array([2, 4, 6])
        _, record = forward_batch(data, valid, params, cfg)
        alpha = record.alpha
        assert np.all(alpha >= 0)
        assert np.allclose(alpha.sum(axis=1), 1.0)
        for i, v in enumerate(valid):
            assert not alpha[i, v:].any()
            hull = record.mixer_out[i, :, :v] @ alpha[i, :v]
            assert np.allclose(hull, record.pooled[i], atol=1e-12)

    def test_zero_mlp_weights_make_layers_identity(self, rng):
        cfg = small_cfg(depth=3)
        params = init_params(cfg, seed=8)
        for name in list(params):
            if ".token_mlp." in name or ".channel_mlp." in name:
                params[name] = np.zeros_like(params[name])
        data = rng.normal(size=(12, 6))
        _, record = forward(FeatureMatrix(data=data, valid_len=6), params, cfg)
        bottleneck = params["bottleneck.weight"] @ data + params["bottleneck.bias"][:, None]
        assert np.allclose(record.mixer_out[0], bottleneck, atol=1e-12)

    def test_mixer_output_shape_equals_bottleneck(self, rng):
        for depth in (0, 1, 2):
            cfg = small_cfg(depth=depth)
            params = init_params(cfg, seed=1)
            data = rng.normal(size=(2, 12, 6))
            _, record = forward_batch(data, np.array([6, 3]), params, cfg)
            bottleneck = params["bottleneck.weight"] @ data + params["bottleneck.bias"][:, None]
            assert record.mixer_out.shape == bottleneck.shape == (2, 8, 6)

    def test_shape_mismatch_rejected(self):
        cfg = small_cfg()
        params = init_params(cfg, seed=1)
        with pytest.raises(ValueError):
            forward_batch(np.zeros((1, 11, 6)), np.array([6]), params, cfg)

    def test_pooled_rejects_empty_examples(self):
        cfg = small_cfg(head="pooled", num_labels=3)
        params = init_params(cfg, seed=1)
        with pytest.raises(ValueError):
            forward_batch(np.zeros((1, 12, 6)), np.array([0]), params, cfg)


class TestBackward:
    @pytest.mark.parametrize("head,depth", [("token", 0), ("token", 1), ("token", 2),
                                            ("pooled", 0), ("pooled", 1), ("pooled", 2)])
    def test_gradients_match_finite_differences(self, head, depth, rng):
        cfg = small_cfg(head=head, depth=depth, num_labels=4)
        params = init_params(cfg, seed=21)
        data = rng.normal(size=(2, 12, 6))
        valid = np.array([4, 6])
        if head == "token":
            labels = np.array([[1, 0, 3, 2, -1, -1], [0, 1, 2, 3, 0, 1]])
        else:
            labels = np.array([2, 0])

        def loss_fn():
            logits, _ = forward_batch(data, valid, params, cfg)
            return cross_entropy_masked(logits, labels, head=head)[0]

        logits, record = forward_batch(data, valid, params, cfg)
        _, dlogits = cross_entropy_masked(logits, labels, head=head)
        grads, input_grad = backward_batch(record, dlogits, params, cfg)
        numeric = numeric_gradients(loss_fn, params)
        assert max_rel_error(grads, numeric) < 1e-4

        flat, gflat = data.ravel(), input_grad.ravel()
        h = 1e-4
        for idx in range(0, flat.size, 7):
            orig = flat[idx]
            flat[idx] = orig + h
            up = loss_fn()
            flat[idx] = orig - h
            down = loss_fn()
            flat[idx] = orig
            num = (up - down) / (2 * h)
            assert abs(gflat[idx] - num) / max(abs(gflat[idx]), abs(num), 1e-6) < 1e-4

    def test_zero_upstream_gives_zero_grads(self, rng):
        cfg = small_cfg()
        params = init_params(cfg, seed=3)
        matrix = FeatureMatrix(data=rng.normal(size=(12, 6)), valid_len=6)
        logits, record = forward(matrix, params, cfg)
        grads, input_grad = backward(record, np.zeros_like(logits), params, cfg)
        assert all(not g.any() for g in grads.values())
        assert not input_grad.any()

    def test_input_grad_optional(self, rng):
        # only a dense input has an input gradient; token windows have none
        cfg = small_cfg()
        params = init_params(cfg, seed=3)
        matrix = FeatureMatrix(data=rng.normal(size=(12, 6)), valid_len=6)
        logits, record = forward(matrix, params, cfg)
        grads, input_grad = backward(record, np.ones_like(logits), params, cfg)
        assert input_grad.shape == matrix.data.shape
        assert grads["bottleneck.weight"].shape == (8, 12)
        windows, _, valid = token_case(rng, 1, distinct=True)
        logits, record = forward_batch(windows, valid, params, cfg)
        grads, input_grad = backward_batch(record, np.ones_like(logits), params, cfg)
        assert input_grad is None
        assert grads["bottleneck.weight"].shape == (8, 12)


def token_case(rng, window, distinct, m=4, s=6, valid=(4, 6, 1)):
    """Random counting-style token windows and the dense tensor they stand for.

    With ``distinct`` every live window slot holds its own table row;
    otherwise the slots draw from 5 rows and the padding row.
    """
    n, slots = len(valid), 2 * window + 1
    rows = n * slots * s if distinct else 5
    table = np.vstack([np.zeros((1, m)), rng.integers(0, 3, size=(rows, m))]).astype(np.float32)
    ids = np.zeros((n, slots, s), dtype=np.intp)
    for i, v in enumerate(valid):
        if distinct:
            ids[i, :, :v] = 1 + i * slots * s + np.arange(slots * v).reshape(slots, v)
        else:
            ids[i, :, :v] = rng.integers(0, rows + 1, size=(slots, v))
    dense = np.concatenate([table[ids[:, j]].transpose(0, 2, 1) for j in range(slots)], axis=1)
    return TokenWindows(table=table, ids=ids), dense, np.array(valid)


def token_cfg(window, head, m=4, s=6, depth=2):
    return ModelConfig(input_rows=(2 * window + 1) * m, seq_len=s, bottleneck=8, hidden=8,
                       depth=depth, head=head, num_labels=5)


def case_labels(head, valid, s=6, num_labels=5):
    if head == "pooled":
        return np.arange(len(valid)) % num_labels
    labels = np.full((len(valid), s), -1)
    for i, v in enumerate(valid):
        labels[i, :v] = (np.arange(v) + i) % num_labels
    return labels


class TestTokenInput:
    """Token windows give the dense path's logits and gradients."""

    @staticmethod
    def run(inputs, valid, labels, params, cfg):
        logits, record = forward_batch(inputs, valid, params, cfg)
        _, dlogits = cross_entropy_masked(logits, labels, head=cfg.head)
        grads, _ = backward_batch(record, dlogits, params, cfg)
        return logits, grads

    @pytest.mark.parametrize("window", [0, 1])
    @pytest.mark.parametrize("head", ["token", "pooled"])
    @pytest.mark.parametrize("distinct", [True, False])
    @pytest.mark.parametrize("valid", [(4, 6, 1), (6, 6)])  # padded, or no padding row at all
    def test_matches_dense_float64(self, window, head, distinct, valid, rng):
        windows, dense, valid = token_case(rng, window, distinct, valid=valid)
        cfg = token_cfg(window, head)
        params = init_params(cfg, seed=8)
        labels = case_labels(head, valid)
        logits_t, grads_t = self.run(windows, valid, labels, params, cfg)
        logits_d, grads_d = self.run(dense.astype(np.float64), valid, labels, params, cfg)
        assert logits_t.dtype == np.float64
        assert np.abs(logits_t - logits_d).max() <= 1e-12 * np.abs(logits_d).max()
        assert grads_t.keys() == grads_d.keys()
        for name in grads_d:
            scale = np.abs(grads_d[name]).max()
            assert np.abs(grads_t[name] - grads_d[name]).max() <= 1e-12 * scale, name

    @pytest.mark.parametrize("window", [0, 1])
    @pytest.mark.parametrize("head", ["token", "pooled"])
    def test_matches_dense_float32(self, window, head, rng):
        windows, dense, valid = token_case(rng, window, distinct=False)
        cfg = token_cfg(window, head)
        params = {k: p.astype(np.float32) for k, p in init_params(cfg, seed=8).items()}
        labels = case_labels(head, valid)
        logits_t, grads_t = self.run(windows, valid, labels, params, cfg)
        logits_d, grads_d = self.run(dense, valid, labels, params, cfg)
        assert logits_t.dtype == np.float32
        assert np.abs(logits_t - logits_d).max() <= 1e-5 * np.abs(logits_d).max()
        for name in grads_d:
            scale = np.abs(grads_d[name]).max()
            assert np.abs(grads_t[name] - grads_d[name]).max() <= 1e-5 * scale, name

    @pytest.mark.parametrize("head", ["token", "pooled"])
    def test_bottleneck_weight_matches_finite_differences(self, head, rng):
        windows, _, valid = token_case(rng, 1, distinct=False)
        cfg = token_cfg(1, head)
        params = init_params(cfg, seed=21)
        labels = case_labels(head, valid)

        def loss_fn():
            logits, _ = forward_batch(windows, valid, params, cfg)
            return cross_entropy_masked(logits, labels, head=head)[0]

        _, grads = self.run(windows, valid, labels, params, cfg)
        numeric = numeric_gradients(loss_fn, {"bottleneck.weight": params["bottleneck.weight"]})
        assert max_rel_error({"bottleneck.weight": grads["bottleneck.weight"]}, numeric) < 1e-4

    def test_input_grad_rejected(self, rng):
        # token windows give no input gradient, only the parameter gradients
        windows, _, valid = token_case(rng, 1, distinct=True)
        cfg = token_cfg(1, "token")
        params = init_params(cfg, seed=3)
        logits, record = forward_batch(windows, valid, params, cfg)
        grads, input_grad = backward_batch(record, np.ones_like(logits), params, cfg)
        assert input_grad is None
        assert grads.keys() == params.keys()
        assert grads["bottleneck.weight"].shape == params["bottleneck.weight"].shape

    def test_shape_mismatch_rejected(self, rng):
        windows, _, valid = token_case(rng, 1, distinct=True)
        params = init_params(token_cfg(0, "token"), seed=3)
        with pytest.raises(ValueError):
            forward_batch(windows, valid, params, token_cfg(0, "token"))


class TestFloat32Network:
    """float32 (blocked rational erf) against float64 (math.erf) on the same parameters."""

    @pytest.mark.parametrize("head", ["token", "pooled"])
    @pytest.mark.parametrize("form", ["dense", "token"])
    def test_within_1e4_of_float64(self, head, form, rng):
        windows, dense, valid = token_case(rng, 1, distinct=False)
        cfg = token_cfg(1, head)
        params32 = {k: p.astype(np.float32) for k, p in init_params(cfg, seed=8).items()}
        params64 = {k: p.astype(np.float64) for k, p in params32.items()}
        labels = case_labels(head, valid)
        if form == "token":
            inputs32 = inputs64 = windows
        else:
            inputs32, inputs64 = dense, dense.astype(np.float64)
        logits32, grads32 = TestTokenInput.run(inputs32, valid, labels, params32, cfg)
        logits64, grads64 = TestTokenInput.run(inputs64, valid, labels, params64, cfg)
        assert logits32.dtype == np.float32 and logits64.dtype == np.float64
        assert np.abs(logits32 - logits64).max() <= 1e-4 * np.abs(logits64).max()
        for name in grads64:
            assert grads32[name].dtype == np.float32, name
            scale = np.abs(grads64[name]).max()
            assert np.abs(grads32[name] - grads64[name]).max() <= 1e-4 * scale, name


class TestParameterCounts:
    # table of (input_rows, bottleneck, depth, expected) at s=64, hidden=256,
    # 78-label token head; expected values are the published sizes
    GRID = [
        (3072, 256, 2, 1_200_000),   # base
        (1536, 256, 2, 760_000),     # token feature size 512
        (6144, 256, 2, 1_900_000),   # token feature size 2048
        (1024, 256, 2, 630_000),     # window 0
        (9216, 256, 2, 2_700_000),   # window 4
        (3072, 64, 2, 340_000),      # bottleneck 64
        (3072, 512, 2, 2_200_000),   # bottleneck 512
        (3072, 256, 1, 990_000),     # one layer
        (3072, 256, 4, 1_500_000),   # four layers
        (6144, 256, 4, 2_300_000),   # large
        (6144, 512, 4, 4_400_000),   # x-large
        (1024, 64, 2, 200_000),      # x-small
        (512, 64, 2, 180_000),       # smallest ablation
    ]

    @pytest.mark.parametrize("input_rows,bottleneck,depth,expected", GRID)
    def test_published_grid_within_ten_percent(self, input_rows, bottleneck, depth, expected):
        cfg = ModelConfig(input_rows=input_rows, seq_len=64, bottleneck=bottleneck,
                          hidden=256, depth=depth, head="token", num_labels=78)
        count = count_parameters(cfg)
        assert abs(count - expected) / expected < 0.10
