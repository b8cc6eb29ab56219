import struct

import pytest

from hashmixer.errors import DataError, ModelFileError
from hashmixer.files import ContainerReader, read_json, read_text


class TestText:
    def test_universal_newlines(self, tmp_path):
        path = tmp_path / "t.txt"
        path.write_bytes(b"a\r\nb\rc\n")
        assert read_text(str(path), "text file") == "a\nb\nc\n"

    @pytest.mark.parametrize("blob", [None, b"\xc3\x28"])
    def test_unreadable_or_undecodable_names_the_file(self, tmp_path, blob):
        path = tmp_path / "t.txt"
        if blob is not None:
            path.write_bytes(blob)
        with pytest.raises(DataError, match=f"cannot read vocabulary file {path}"):
            read_text(str(path), "vocabulary file")

    def test_invalid_json_names_the_file(self, tmp_path):
        path = tmp_path / "t.json"
        path.write_text('["a", ', encoding="utf-8")
        with pytest.raises(DataError, match=f"{path}: invalid JSON"):
            read_json(str(path), "label inventory")


class TestContainerReader:
    def _reader(self, tmp_path, payload):
        path = tmp_path / "c.bin"
        path.write_bytes(b"MAGC" + payload)
        return ContainerReader(str(path), b"MAGC", "test container")

    @pytest.mark.parametrize("blob", [b"", b"MA", b"NOPE1234"])
    def test_wrong_or_short_magic(self, tmp_path, blob):
        path = tmp_path / "c.bin"
        path.write_bytes(blob)
        with pytest.raises(ModelFileError, match="is not a test container"):
            ContainerReader(str(path), b"MAGC", "test container")

    def test_reads_in_order_then_finishes(self, tmp_path):
        reader = self._reader(tmp_path, struct.pack("<I2h", 7, -1, 2))
        assert reader.unpack("<I") == (7,)
        assert reader.array("<i2", (2,)).tolist() == [-1, 2]
        reader.finish()

    def test_element_count_does_not_wrap(self, tmp_path):
        # 65536**4 elements wrap a 64-bit product to 0
        with pytest.raises(ModelFileError, match="truncated"):
            self._reader(tmp_path, b"").array("<f4", (65536,) * 4)

    def test_trailing_bytes(self, tmp_path):
        reader = self._reader(tmp_path, b"\x00" * 3)
        with pytest.raises(ModelFileError, match="3 trailing bytes"):
            reader.finish()
