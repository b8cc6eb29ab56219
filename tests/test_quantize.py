import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as stnp

from hashmixer.quantize import QuantTensor, dequantize, quantize_params, quantize_tensor

finite_tensors = stnp.arrays(
    dtype=np.float64,
    shape=stnp.array_shapes(min_dims=1, max_dims=3, min_side=1, max_side=8),
    elements=st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False),
)


class TestQuantizeTensor:
    def test_documented_example(self):
        q = quantize_tensor(np.array([-1.0, 0.5, 1.0]))
        assert q.scale == pytest.approx(1.0 / 127.0)
        assert q.values.tolist() == [-127, 64, 127]

    def test_all_zero_convention(self):
        q = quantize_tensor(np.zeros((3, 2)))
        assert q.scale == 1.0
        assert not q.values.any()
        assert np.array_equal(dequantize(q), np.zeros((3, 2)))

    def test_round_half_away_from_zero(self):
        q = quantize_tensor(np.array([127.0, 0.5, -0.5, 1.5]))
        # scale = 1.0; halves round away from zero
        assert q.values.tolist() == [127, 1, -1, 2]

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            quantize_tensor(np.array([1.0, np.nan]))
        with pytest.raises(ValueError):
            quantize_tensor(np.array([np.inf]))

    @given(finite_tensors)
    @example(np.array([5e-324]))
    @example(np.array([1e-44]))
    @settings(max_examples=150)
    def test_dequantization_error_bounded_by_half_scale(self, w):
        q = quantize_tensor(w)
        err = np.abs(dequantize(q) - w).max()
        assert err <= q.scale / 2 + 1e-12

    @given(finite_tensors)
    @example(np.array([5e-324]))
    @example(np.array([1e-44]))
    @settings(max_examples=150)
    def test_idempotence(self, w):
        q = quantize_tensor(w)
        q2 = quantize_tensor(dequantize(q))
        assert q2.scale == pytest.approx(q.scale, rel=1e-12)
        assert np.array_equal(q2.values, q.values)

    def test_grid_values_round_trip_exactly(self):
        scale = 0.037
        grid = np.array([-127, -3, 0, 64, 127], dtype=np.int8)
        w = grid.astype(np.float64) * scale
        q = quantize_tensor(w)
        assert np.array_equal(q.values, grid)
        assert np.array_equal(dequantize(q), w)

    def test_validation(self):
        for scale in (0.0, -1.0, np.nan, np.inf):
            with pytest.raises(ValueError):
                QuantTensor(values=np.zeros(3, dtype=np.int8), scale=scale)
        with pytest.raises(ValueError):
            QuantTensor(values=np.zeros(3, dtype=np.int16), scale=1.0)


def test_quantize_params_preserves_names_and_shapes(rng):
    params = {"a.weight": rng.normal(size=(4, 6)), "a.bias": np.zeros(4)}
    qp = quantize_params(params)
    assert set(qp) == {"a.weight", "a.bias"}
    assert qp["a.weight"].shape == (4, 6)
    assert qp["a.bias"].scale == 1.0


def _tiny_model_cfg():
    from hashmixer.mixer import ModelConfig

    return ModelConfig(input_rows=32, seq_len=4, bottleneck=8, hidden=8,
                       depth=1, head="token", num_labels=2)


def test_underflowing_scale_follows_zero_convention():
    q = quantize_tensor(np.array([1e-44, -5e-45]))
    assert q.scale == 1.0
    assert not q.values.any()
    # the smallest scale float32 still holds keeps its integers
    q = quantize_tensor(np.array([127 * 1.5e-45]))
    assert q.values.tolist() == [127]
    assert np.float32(q.scale) > 0


def test_tiny_tensor_survives_save_load(tmp_path):
    from hashmixer.mixer import init_params
    from hashmixer.model_io import load_model, save_quantized_model

    cfg = _tiny_model_cfg()
    params = init_params(cfg, seed=1)
    name = next(iter(params))
    params[name] = np.full(params[name].shape, 1e-44)
    path = str(tmp_path / "tiny.q.bin")
    save_quantized_model(path, quantize_params(params), cfg)
    loaded, _, was_quantized = load_model(path)
    assert was_quantized
    assert not loaded[name].any()


class TestQuantizedEval:
    """``hashmixer eval`` on a float and an int8 container of one model."""

    @pytest.fixture()
    def setup(self, tmp_path):
        import json

        from hashmixer.data import Example, save_jsonl
        from hashmixer.mixer import init_params
        from hashmixer.model_io import save_model, save_quantized_model
        from hashmixer.vocab import save_vocab

        vocab_path = str(tmp_path / "vocab.txt")
        save_vocab(["[UNK]", "go", "stop", "now"], vocab_path)
        config_path = str(tmp_path / "run.json")
        with open(config_path, "w", encoding="utf-8") as fh:
            json.dump({"projection": {"kind": "minhash", "n_hashes": 8, "feature_size": 32,
                                      "window": 0, "max_seq_len": 4},
                       "paths": {"vocab": vocab_path}}, fh)
        cfg = _tiny_model_cfg()
        params = init_params(cfg, seed=1)
        float_path = str(tmp_path / "m.bin")
        quant_path = str(tmp_path / "m.q.bin")
        save_model(float_path, params, cfg)
        save_quantized_model(quant_path, quantize_params(params), cfg)
        data_path = str(tmp_path / "val.jsonl")
        save_jsonl([Example(tokens=["go", "now"], slot_labels=["A", "B"]),
                    Example(tokens=["stop"], slot_labels=["B"])], data_path)
        (tmp_path / "labels.json").write_text('["A", "B"]', encoding="utf-8")
        return float_path, quant_path, data_path, config_path

    @staticmethod
    def _eval(model, data, config, *extra):
        from hashmixer.cli import run

        return run(["eval", "--model", model, "--data", data, "--config", config, *extra])

    def test_reports_metric_and_flag(self, setup, capsys):
        import json

        float_path, quant_path, data_path, config_path = setup
        assert self._eval(float_path, data_path, config_path) == 0
        float_report = json.loads(capsys.readouterr().out)
        assert self._eval(quant_path, data_path, config_path) == 0
        quant_report = json.loads(capsys.readouterr().out)
        assert float_report["quantized"] is False
        assert quant_report["quantized"] is True
        assert quant_report["metric"] == "exact_match"
        assert 0.0 <= quant_report["value"] <= 1.0

    def test_label_count_mismatch_rejected(self, setup, tmp_path, capsys):
        float_path, _, data_path, config_path = setup
        labels = tmp_path / "three.json"
        labels.write_text('["A", "B", "C"]', encoding="utf-8")
        assert self._eval(float_path, data_path, config_path, "--labels", str(labels)) == 2
        assert "inventory" in capsys.readouterr().err

    def test_nan_scale_file_is_model_error(self, setup, capsys):
        import struct

        from hashmixer.mixer import param_shapes

        _, quant_path, data_path, config_path = setup
        name, shape = next(iter(param_shapes(_tiny_model_cfg()).items()))
        # magic, header, then the first tensor's name, type, rank and dims
        offset = 8 + struct.calcsize("<IIIIIIBII") + 2 + len(name.encode()) + 2 + 4 * len(shape)
        with open(quant_path, "r+b") as fh:
            fh.seek(offset)
            fh.write(struct.pack("<f", float("nan")))
        assert self._eval(quant_path, data_path, config_path) == 2
        assert "scale" in capsys.readouterr().err
