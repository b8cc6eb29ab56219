import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hashmixer.errors import ModelFileError
from hashmixer.hashing import HashFamily
from hashmixer.mixer import ModelConfig, init_params
from hashmixer.model_io import (
    FEATURES_MAGIC,
    MODEL_MAGIC,
    load_features,
    load_model,
    save_features,
    save_model,
    save_quantized_model,
)
from hashmixer.projection import FeatureMatrix, build_cache, load_cache, save_cache
from hashmixer.quantize import dequantize, quantize_params
from hashmixer.vocab import Vocabulary

from conftest import MODEL_HEADER, TensorList, patch_model_header


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

    def test_float32_container_loads_as_float32_copies(self, cfg, tmp_path):
        params = init_params(cfg, seed=6)
        path = str(tmp_path / "model.bin")
        save_model(path, params, cfg)
        loaded, _, _ = load_model(path)
        for name, p in params.items():
            got = loaded[name]
            assert got.dtype == np.float32, name
            assert got.flags.writeable and got.flags.c_contiguous and got.flags.aligned, name
            assert np.array_equal(got, p.astype(np.float32)), name

    def test_int8_container_loads_as_exact_float64(self, cfg, tmp_path):
        qparams = quantize_params(init_params(cfg, seed=6))
        path = str(tmp_path / "model.q.bin")
        save_quantized_model(path, qparams, cfg)
        loaded, _, _ = load_model(path)
        for name, q in qparams.items():
            assert loaded[name].dtype == np.float64, name
            assert np.array_equal(loaded[name], q.values.astype(np.float64) * np.float32(q.scale))

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

    @pytest.mark.parametrize("quantized", [False, True])
    def test_unknown_tensor_rejected(self, cfg, tmp_path, quantized):
        params = {**init_params(cfg, seed=6), "junk": np.ones(3)}
        path = str(tmp_path / "model.bin")
        if quantized:
            save_quantized_model(path, quantize_params(params), cfg)
        else:
            save_model(path, params, cfg)
        with pytest.raises(ModelFileError,
                           match=r"model\.bin: tensors \['junk'\] are not parameters of this model"):
            load_model(path)

    def test_repeated_tensor_rejected(self, cfg, tmp_path):
        params = init_params(cfg, seed=6)
        path = str(tmp_path / "model.bin")
        # every parameter once, then head.bias again: a later copy must not overwrite the first
        save_model(path, TensorList([*params.items(), ("head.bias", params["head.bias"] + 1)]), cfg)
        with pytest.raises(ModelFileError, match=r"model\.bin: tensor head\.bias appears more than once"):
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

    @pytest.mark.parametrize("field", ["input_rows", "seq_len", "bottleneck", "hidden",
                                       "num_labels"])
    def test_zero_header_field_rejected(self, cfg, tmp_path, field):
        path = tmp_path / "model.bin"
        save_model(str(path), init_params(cfg, seed=6), cfg)
        patch_model_header(path, **{field: 0})
        with pytest.raises(ModelFileError, match=f"{field} must be >= 1"):
            load_model(str(path))

    def test_wrapping_tensor_shape_rejected(self, tmp_path):
        # 65536**4 elements wrap a 64-bit element count to 0
        name = b"bottleneck.weight"
        path = tmp_path / "model.bin"
        path.write_bytes(MODEL_MAGIC + struct.pack(MODEL_HEADER, 1, 24, 8, 12, 10, 0, 1, 7, 1)
                         + struct.pack("<H", len(name)) + name
                         + struct.pack("<BB4I", 0, 4, *(65536,) * 4))
        with pytest.raises(ModelFileError, match="truncated"):
            load_model(str(path))

    def test_corrupt_depth_rejected_before_layers_are_listed(self, cfg, tmp_path):
        path = tmp_path / "model.bin"
        save_model(str(path), init_params(cfg, seed=6), cfg)
        patch_model_header(path, depth=2**32 - 1)
        with pytest.raises(ModelFileError, match="depth 4294967295 needs 51539607540 tensors"):
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

    def test_loads_float32_values_unchanged(self, tmp_path, rng):
        mats = [FeatureMatrix(data=rng.normal(size=(6, 4)).astype(np.float32), valid_len=v)
                for v in (1, 4)]
        path = str(tmp_path / "features.bin")
        save_features(path, mats)
        for a, b in zip(mats, load_features(path)):
            assert b.data.dtype == np.float32
            assert b.data.shape == (6, 4)
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

    def test_generator_matches_list(self, tmp_path, rng):
        mats = [FeatureMatrix(data=rng.normal(size=(6, 4)), valid_len=v) for v in (1, 2, 3)]
        listed, streamed = tmp_path / "list.bin", tmp_path / "stream.bin"
        save_features(str(listed), mats)
        save_features(str(streamed), (m for m in mats))
        assert streamed.read_bytes() == listed.read_bytes()
        version, count, rows, cols = struct.unpack_from("<IQII", listed.read_bytes(), 8)
        assert (version, count, rows, cols) == (1, 3, 6, 4)

    @pytest.mark.parametrize("existing", [False, True])
    def test_failed_stream_leaves_the_target_as_it_was(self, tmp_path, existing):
        # the dump is renamed into place only when the stream ends
        def failing():
            yield FeatureMatrix(data=np.zeros((4, 3)), valid_len=1)
            raise RuntimeError("featurizer died")

        path = tmp_path / "f.bin"
        if existing:
            save_features(str(path), [FeatureMatrix(data=np.ones((2, 2)), valid_len=2)])
        before = path.read_bytes() if existing else None
        with pytest.raises(RuntimeError):
            save_features(str(path), failing())
        assert (path.read_bytes() if existing else None) == before
        assert sorted(p.name for p in tmp_path.iterdir()) == (["f.bin"] if existing else [])

    def test_valid_len_beyond_columns_rejected(self, tmp_path):
        path = tmp_path / "f.bin"
        save_features(str(path), [FeatureMatrix(data=np.zeros((4, 3)), valid_len=3)])
        blob = bytearray(path.read_bytes())
        blob[len(FEATURES_MAGIC) + struct.calcsize("<IQII")] = 4
        path.write_bytes(bytes(blob))
        with pytest.raises(ModelFileError, match="valid length 4 exceeds 3 columns"):
            load_features(str(path))

    def test_trailing_bytes_rejected(self, tmp_path):
        path = tmp_path / "features.bin"
        save_features(str(path), [FeatureMatrix(data=np.zeros((4, 3)), valid_len=1)])
        path.write_bytes(path.read_bytes() + b"\x00" * 7)
        with pytest.raises(ModelFileError, match="7 trailing bytes"):
            load_features(str(path))


@pytest.fixture(scope="module")
def containers(tmp_path_factory):
    """A tiny float32 model, its int8 form, a 3-example feature dump and a tiny cache."""
    root = tmp_path_factory.mktemp("containers")
    cfg = ModelConfig(input_rows=4, seq_len=3, bottleneck=2, hidden=2, depth=1,
                      head="pooled", num_labels=2)
    params = init_params(cfg, seed=1)
    save_model(str(root / "model.bin"), params, cfg)
    save_quantized_model(str(root / "model.q.bin"), quantize_params(params), cfg)
    save_features(str(root / "features.bin"), [
        FeatureMatrix(data=np.full((2, 3), v, np.float32), valid_len=v) for v in (0, 2, 3)])
    vocab = Vocabulary.from_units(["[UNK]", "a", "##b"])
    save_cache(build_cache(vocab, HashFamily(2)), str(root / "cache.bin"))
    return root


_LOADERS = {"model.bin": load_model, "model.q.bin": load_model,
            "features.bin": load_features, "cache.bin": load_cache}


def _loads_or_rejects(name, path, blob, case):
    path.write_bytes(blob)
    try:
        _LOADERS[name](str(path))
    except ModelFileError:
        pass
    except Exception as exc:  # anything else would reach the user as a stray error
        pytest.fail(f"{name}, {case}: {type(exc).__name__}: {exc}")


class TestMappedReads:
    def test_cache_table_and_dump_matrices_are_read_only_views(self, containers):
        views = [load_cache(str(containers / "cache.bin")).table]
        views += [m.data for m in load_features(str(containers / "features.bin"))]
        for view in views:
            assert not view.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                view[...] = 0

    def test_a_loaded_cache_saves_over_its_own_file(self, containers, tmp_path):
        # the table is a view of the file being replaced; writing in place would truncate it
        path = tmp_path / "cache.bin"
        path.write_bytes((containers / "cache.bin").read_bytes())
        save_cache(load_cache(str(path)), str(path))
        assert path.read_bytes() == (containers / "cache.bin").read_bytes()

    @pytest.mark.parametrize("name", ["model.bin", "model.q.bin"])
    def test_model_tensors_own_their_data(self, containers, name):
        params, _, _ = load_model(str(containers / name))
        for tensor in params.values():
            assert tensor.flags.owndata and tensor.flags.writeable and tensor.base is None


class TestContainerFuzz:
    """Every damaged container loads or raises ModelFileError, never anything else."""

    @pytest.mark.parametrize("name", sorted(_LOADERS))
    def test_every_truncation_and_byte_mutation(self, containers, tmp_path, name):
        blob = (containers / name).read_bytes()
        path = tmp_path / name
        for n in range(len(blob)):
            _loads_or_rejects(name, path, blob[:n], f"cut to {n} bytes")
        for i, old in enumerate(blob):
            for new in {0x00, 0xFF, old ^ 0x80} - {old}:
                _loads_or_rejects(name, path, blob[:i] + bytes([new]) + blob[i + 1:],
                                  f"byte {i} set to {new:#04x}")

    @settings(max_examples=200, deadline=None)
    @given(name=st.sampled_from(sorted(_LOADERS)), position=st.integers(0, 2**16),
           value=st.integers(0, 255))
    def test_random_byte_mutation(self, containers, name, position, value):
        blob = bytearray((containers / name).read_bytes())
        blob[position % len(blob)] = value
        _loads_or_rejects(name, containers / f"mutated-{name}", bytes(blob),
                          f"byte {position % len(blob)} set to {value:#04x}")
