"""Segment file I/O: line conventions, atomicity, alignment checks."""

from __future__ import annotations

import os
import stat

import pytest
from hypothesis import given
from hypothesis import strategies as st

from mbrforge.errors import AlignmentError
from mbrforge.textio import (
    atomic_write_bytes,
    read_segments,
    require_aligned,
    write_segments,
)

segments_st = st.lists(st.text(alphabet="ab c\t", max_size=10), max_size=10)


class TestReadSegments:
    @pytest.mark.parametrize(
        "raw,expected",
        [
            ("", []),
            ("a\n", ["a"]),
            ("a", ["a"]),
            ("a\nb\n", ["a", "b"]),
            ("a\n\n", ["a", ""]),
            ("\n", [""]),
        ],
    )
    def test_line_conventions(self, tmp_path, raw, expected):
        path = tmp_path / "f.txt"
        path.write_text(raw, encoding="utf-8")
        assert read_segments(path) == expected

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(OSError):
            read_segments(tmp_path / "absent.txt")


class TestWriteSegments:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "f.txt"
        write_segments(path, ["one", "", "three"])
        assert read_segments(path) == ["one", "", "three"]

    def test_rejects_embedded_newline(self, tmp_path):
        with pytest.raises(ValueError):
            write_segments(tmp_path / "f.txt", ["a\nb"])

    @given(segments_st)
    def test_round_trip_property(self, segments):
        import tempfile
        from pathlib import Path

        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "f.txt"
            write_segments(path, segments)
            assert read_segments(path) == segments


class TestAtomicWrite:
    def test_overwrites_existing(self, tmp_path):
        path = tmp_path / "out.bin"
        path.write_bytes(b"old")
        atomic_write_bytes(path, b"new")
        assert path.read_bytes() == b"new"

    def test_no_temp_files_left(self, tmp_path):
        path = tmp_path / "out.bin"
        atomic_write_bytes(path, b"data")
        assert [p.name for p in tmp_path.iterdir()] == ["out.bin"]

    def test_new_file_mode_follows_umask(self, tmp_path):
        old = os.umask(0o027)
        try:
            atomic_write_bytes(tmp_path / "out.bin", b"data")
        finally:
            os.umask(old)
        assert stat.S_IMODE((tmp_path / "out.bin").stat().st_mode) == 0o640

    def test_replaced_file_keeps_its_mode(self, tmp_path):
        path = tmp_path / "out.bin"
        path.write_bytes(b"old")
        path.chmod(0o604)
        atomic_write_bytes(path, b"new")
        assert path.read_bytes() == b"new"
        assert stat.S_IMODE(path.stat().st_mode) == 0o604

    def test_symlinked_output_writes_through_to_its_target(self, tmp_path):
        target = tmp_path / "target.txt"
        target.write_text("old\n")
        link = tmp_path / "out.txt"
        link.symlink_to(target.name)
        write_segments(link, ["new"])
        assert link.is_symlink()
        assert target.read_text() == "new\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out.txt", "target.txt"]


class TestRequireAligned:
    def test_equal_counts_pass(self):
        require_aligned({"a": 3, "b": 3, "c": 3})

    def test_unequal_counts_name_all_inputs(self):
        with pytest.raises(AlignmentError) as exc_info:
            require_aligned({"hyp.txt": 2, "ref.txt": 3})
        message = str(exc_info.value)
        assert "hyp.txt: 2 lines" in message
        assert "ref.txt: 3 lines" in message
