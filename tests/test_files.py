import mmap
import os
import stat
import struct

import pytest

from hashmixer.errors import DataError, ModelFileError
from hashmixer.files import ContainerReader, read_json, read_text, replacing


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

    @pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity"])
    def test_non_json_constants_are_refused(self, tmp_path, literal):
        path = tmp_path / "t.json"
        path.write_text(f'{{"a": [1, {literal}]}}', encoding="utf-8")
        with pytest.raises(DataError, match=f"{path}: invalid JSON: {literal} is not"):
            read_json(str(path), "config file")

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

    def test_maps_the_file(self, tmp_path):
        reader = self._reader(tmp_path, b"\x01")
        assert isinstance(reader.blob.obj, mmap.mmap)
        assert reader.blob.readonly

    def test_directory_names_the_path(self, tmp_path):
        with pytest.raises(ModelFileError, match=f"cannot read test container {tmp_path}"):
            ContainerReader(str(tmp_path), b"MAGC", "test container")


class TestReplacing:
    def test_replaces_the_target_with_a_fresh_file(self, tmp_path):
        target, plain = tmp_path / "t.bin", tmp_path / "plain.bin"
        target.write_bytes(b"old contents")
        with open(plain, "wb"):
            pass
        with replacing(str(target)) as fh:
            fh.write(b"new")
        assert target.read_bytes() == b"new"
        assert sorted(os.listdir(tmp_path)) == ["plain.bin", "t.bin"]
        # the same permissions as a file that open() creates
        assert target.stat().st_mode == plain.stat().st_mode

    def test_keeps_the_mode_of_the_file_it_replaces(self, tmp_path):
        target, fresh, plain = tmp_path / "t.bin", tmp_path / "fresh.bin", tmp_path / "plain.bin"
        target.write_bytes(b"old")
        target.chmod(0o640)
        with open(plain, "wb"):
            pass
        for path in (target, fresh):
            with replacing(str(path)) as fh:
                fh.write(b"new")
        assert stat.S_IMODE(target.stat().st_mode) == 0o640
        assert fresh.stat().st_mode == plain.stat().st_mode  # no file to keep a mode from

    def test_writes_through_a_symbolic_link(self, tmp_path):
        real, link = tmp_path / "real.bin", tmp_path / "link.bin"
        real.write_bytes(b"old")
        link.symlink_to(real)
        with replacing(str(link)) as fh:
            fh.write(b"new")
        assert link.is_symlink() and real.read_bytes() == b"new"
        assert sorted(os.listdir(tmp_path)) == ["link.bin", "real.bin"]

    @pytest.mark.parametrize("existing", [False, True])
    def test_failure_leaves_the_target_as_it_was(self, tmp_path, existing):
        target = tmp_path / "t.bin"
        if existing:
            target.write_bytes(b"old contents")
        with pytest.raises(KeyError):
            with replacing(str(target)) as fh:
                fh.write(b"half")
                raise KeyError("writer died")
        assert os.listdir(tmp_path) == (["t.bin"] if existing else [])
        if existing:
            assert target.read_bytes() == b"old contents"

    def test_missing_directory_names_the_target(self, tmp_path):
        target = tmp_path / "absent" / "t.bin"
        with pytest.raises(FileNotFoundError) as info:
            with replacing(str(target)):
                pass
        assert str(info.value).endswith(f"'{target}'")

    def test_directory_target_names_it_and_leaves_nothing(self, tmp_path):
        target = tmp_path / "d"
        target.mkdir()
        with pytest.raises(IsADirectoryError) as info:
            with replacing(str(target)) as fh:
                fh.write(b"data")
        assert str(info.value).endswith(f"'{target}'")
        assert os.listdir(tmp_path) == ["d"] and os.listdir(target) == []

    def test_fifo_target_is_refused_and_left_as_it_was(self, tmp_path):
        target = tmp_path / "t.fifo"
        os.mkfifo(target)
        with pytest.raises(DataError, match=f"{target} is not a regular file"):
            with replacing(str(target)) as fh:
                fh.write(b"data")
        assert stat.S_ISFIFO(os.lstat(target).st_mode)
        assert os.listdir(tmp_path) == ["t.fifo"]

    def test_link_to_a_fifo_is_refused(self, tmp_path):
        fifo, link = tmp_path / "t.fifo", tmp_path / "link"
        os.mkfifo(fifo)
        link.symlink_to(fifo)
        with pytest.raises(DataError, match=f"{link} is not a regular file"):
            with replacing(str(link)):
                pass
        assert link.is_symlink() and stat.S_ISFIFO(os.lstat(fifo).st_mode)
        assert sorted(os.listdir(tmp_path)) == ["link", "t.fifo"]
