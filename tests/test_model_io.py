import struct

import numpy as np
import pytest

from hashmixer.errors import ModelFileError
from hashmixer.mixer import ModelConfig, init_params
from hashmixer.model_io import (
    MODEL_MAGIC,
    load_features,
    load_model,
    save_features,
    save_model,
    save_quantized_model,
)
from hashmixer.projection import FeatureMatrix
from hashmixer.quantize import dequantize, quantize_params


@pytest.fixture()
def cfg():
    return ModelConfig(input_rows=24, seq_len=8, bottleneck=12, hidden=10,
                       depth=2, head="pooled", num_labels=7)


class TestModelContainer:
    def test_float_round_trip(self, cfg, tmp_path):
        params = init_params(cfg, seed=6)
        path = str(tmp_path / "model.bin")
        save_model(path, params, cfg)
        loaded, loaded_cfg, quantized = load_model(path)
        assert loaded_cfg == cfg
        assert quantized is False
        for name, p in params.items():
            assert loaded[name].shape == p.shape
            # storage is float32; round trip is exact at that precision
            assert np.array_equal(loaded[name], p.astype(np.float32).astype(np.float64))

    def test_quantized_round_trip(self, cfg, tmp_path):
        params = init_params(cfg, seed=6)
        qparams = quantize_params(params)
        path = str(tmp_path / "model.q.bin")
        save_quantized_model(path, qparams, cfg)
        loaded, loaded_cfg, quantized = load_model(path)
        assert quantized is True
        for name, q in qparams.items():
            expected = dequantize(q)
            scale32 = np.float32(q.scale)
            assert np.allclose(loaded[name], q.values.astype(np.float64) * scale32,
                               atol=0.0)
            assert np.allclose(loaded[name], expected, rtol=1e-6, atol=1e-9)

    def test_quantized_file_is_about_a_quarter(self, cfg, tmp_path):
        params = init_params(cfg, seed=6)
        fpath, qpath = str(tmp_path / "f.bin"), str(tmp_path / "q.bin")
        save_model(fpath, params, cfg)
        save_quantized_model(qpath, quantize_params(params), cfg)
        import os

        ratio = os.path.getsize(qpath) / os.path.getsize(fpath)
        assert 0.2 < ratio < 0.45  # tiny model: headers are a visible share

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"WRONGMAG" + b"\x00" * 64)
        with pytest.raises(ModelFileError):
            load_model(str(path))

    def test_truncated_file(self, cfg, tmp_path):
        params = init_params(cfg, seed=6)
        path = tmp_path / "model.bin"
        save_model(str(path), params, cfg)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 2])
        with pytest.raises(ModelFileError, match="truncated"):
            load_model(str(path))

    def test_missing_tensor_detected(self, cfg, tmp_path):
        params = init_params(cfg, seed=6)
        partial = dict(params)
        partial.pop("head.query")
        path = str(tmp_path / "model.bin")
        save_model(path, partial, cfg)
        with pytest.raises(ModelFileError, match="head.query"):
            load_model(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ModelFileError, match="cannot read"):
            load_model(str(tmp_path / "absent.bin"))

    def test_non_utf8_tensor_name(self, cfg, tmp_path):
        path = tmp_path / "model.bin"
        save_model(str(path), init_params(cfg, seed=6), cfg)
        blob = bytearray(path.read_bytes())
        blob[len(MODEL_MAGIC) + struct.calcsize("<IIIIIIBII") + 2] = 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(ModelFileError, match="UTF-8"):
            load_model(str(path))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_float32_tensor_rejected(self, cfg, tmp_path, value):
        params = init_params(cfg, seed=6)
        params["head.bias"][2] = value
        path = str(tmp_path / "model.bin")
        save_model(path, params, cfg)
        with pytest.raises(ModelFileError, match="head.bias holds NaN or infinite values"):
            load_model(path)

    def test_trailing_bytes_rejected(self, cfg, tmp_path):
        path = tmp_path / "model.bin"
        save_model(str(path), init_params(cfg, seed=6), cfg)
        path.write_bytes(path.read_bytes() + b"\x00" * 7)
        with pytest.raises(ModelFileError, match="7 trailing bytes"):
            load_model(str(path))


class TestFeatureDump:
    def test_round_trip(self, tmp_path, rng):
        mats = [
            FeatureMatrix(data=rng.normal(size=(6, 4)).astype(np.float32).astype(np.float64),
                          valid_len=v)
            for v in (0, 2, 4)
        ]
        path = str(tmp_path / "features.bin")
        save_features(path, mats)
        loaded = load_features(path)
        assert len(loaded) == 3
        for a, b in zip(mats, loaded):
            assert a.valid_len == b.valid_len
            assert np.array_equal(a.data, b.data)

    def test_shape_mismatch_rejected(self, tmp_path, rng):
        mats = [FeatureMatrix(data=np.zeros((4, 3)), valid_len=1),
                FeatureMatrix(data=np.zeros((5, 3)), valid_len=1)]
        with pytest.raises(ValueError):
            save_features(str(tmp_path / "f.bin"), mats)
        assert not (tmp_path / "f.bin").exists()

    def test_empty_dump(self, tmp_path):
        path = str(tmp_path / "empty.bin")
        save_features(path, [])
        assert load_features(path) == []

    def test_generator_with_count_matches_list(self, tmp_path, rng):
        mats = [FeatureMatrix(data=rng.normal(size=(6, 4)), valid_len=v) for v in (1, 2, 3)]
        listed, streamed = tmp_path / "list.bin", tmp_path / "stream.bin"
        save_features(str(listed), mats)
        save_features(str(streamed), (m for m in mats), count=len(mats))
        assert streamed.read_bytes() == listed.read_bytes()

    def test_count_mismatch_rejected(self, tmp_path):
        mats = [FeatureMatrix(data=np.zeros((4, 3)), valid_len=1)] * 2
        with pytest.raises(ValueError, match="header says 3"):
            save_features(str(tmp_path / "f.bin"), iter(mats), count=3)
        assert not (tmp_path / "f.bin").exists()

    def test_trailing_bytes_rejected(self, tmp_path):
        path = tmp_path / "features.bin"
        save_features(str(path), [FeatureMatrix(data=np.zeros((4, 3)), valid_len=1)])
        path.write_bytes(path.read_bytes() + b"\x00" * 7)
        with pytest.raises(ModelFileError, match="7 trailing bytes"):
            load_features(str(path))
