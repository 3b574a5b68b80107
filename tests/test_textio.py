"""Segment file I/O: line conventions, atomicity, alignment checks."""

from __future__ import annotations

import os
import re
import stat
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from mbrforge.errors import AlignmentError, UsageError
from mbrforge.textio import (
    read_aligned,
    read_segments,
    require_aligned,
    segment_lines,
    staged_outputs,
)

segments_st = st.lists(st.text(alphabet="ab c\t", max_size=10), max_size=10)


def write_outputs(outputs, remove=()) -> None:
    """Write every ``(path, data)`` output in one staged block."""
    with staged_outputs([path for path, _data in outputs], remove) as files:
        for out, (_path, data) in zip(files, outputs):
            out.write(data)


def atomic_write_bytes(path, data) -> None:
    """Write one output in its own staged block."""
    write_outputs([(path, data)])


def write_segments(path, segments) -> None:
    """Write one segment file the way the commands do."""
    write_outputs([(path, segment_lines(segments))])


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
            ("a\r\nb\r\n", ["a\r", "b\r"]),
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

    @pytest.mark.parametrize(
        "segments",
        [["x\ry", "z"], ["crlf\r", "\r", ""], ["a\x85b", "c\u2028d\u2029"]],
        ids=["inner-cr", "trailing-cr", "unicode-line-breaks"],
    )
    def test_round_trip_keeps_cr_and_unicode_line_breaks(self, tmp_path, segments):
        path = tmp_path / "f.txt"
        write_segments(path, segments)
        assert read_segments(path) == segments

    def test_rejects_embedded_newline(self):
        with pytest.raises(ValueError):
            segment_lines(["a\nb"])

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

    def test_failed_rename_keeps_old_file(self, tmp_path, monkeypatch):
        path = tmp_path / "out.txt"
        write_segments(path, ["old"])

        def failing_replace(src, dst):
            raise OSError("rename failed")

        monkeypatch.setattr(os, "replace", failing_replace)
        with pytest.raises(OSError, match="rename failed"):
            write_segments(path, ["new", "lines"])
        assert path.read_bytes() == b"old\n"
        assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]

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


class TestReadAligned:
    def test_returns_each_file_in_order(self, tmp_path):
        (tmp_path / "a.txt").write_text("x\ny\n")
        (tmp_path / "b.txt").write_text("1\n2")
        assert read_aligned(tmp_path / "a.txt", tmp_path / "b.txt") == [["x", "y"], ["1", "2"]]

    def test_unequal_counts_name_every_path(self, tmp_path):
        (tmp_path / "a.txt").write_text("x\n")
        (tmp_path / "b.txt").write_text("1\n2\n")
        with pytest.raises(AlignmentError) as exc_info:
            read_aligned(tmp_path / "a.txt", str(tmp_path / "b.txt"))
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        assert str(exc_info.value) == f"inputs are not aligned ({a}: 1 lines, {b}: 2 lines)"


class TestWriteOutputs:
    def test_writes_every_output_and_removes(self, tmp_path):
        (tmp_path / "stale").write_bytes(b"old")
        write_outputs(
            [(tmp_path / "a", b"A"), (str(tmp_path / "b"), b"B")], remove=[tmp_path / "stale"]
        )
        assert sorted(p.name for p in tmp_path.iterdir()) == ["a", "b"]
        assert (tmp_path / "a").read_bytes() == b"A"
        assert (tmp_path / "b").read_bytes() == b"B"

    def test_missing_remove_path_is_fine(self, tmp_path):
        write_outputs([(tmp_path / "a", b"A")], remove=[tmp_path / "absent"])
        assert [p.name for p in tmp_path.iterdir()] == ["a"]

    @pytest.mark.parametrize("last", ["missing/b", "dir"], ids=["missing-directory", "directory"])
    def test_failed_output_changes_nothing(self, tmp_path, last):
        (tmp_path / "a").write_bytes(b"old a")
        (tmp_path / "stale").write_bytes(b"old stale")
        (tmp_path / "dir").mkdir()
        with pytest.raises(OSError):
            write_outputs([(tmp_path / "a", b"new"), (tmp_path / last, b"new")],
                          remove=[tmp_path / "stale"])
        assert sorted(p.name for p in tmp_path.iterdir()) == ["a", "dir", "stale"]
        assert (tmp_path / "a").read_bytes() == b"old a"
        assert (tmp_path / "stale").read_bytes() == b"old stale"
        assert list((tmp_path / "dir").iterdir()) == []

    def test_directory_target_is_named(self, tmp_path):
        with pytest.raises(IsADirectoryError, match=re.escape(str(tmp_path))):
            write_outputs([(tmp_path, b"x")])

    @pytest.mark.parametrize("link", [False, True], ids=["same-name", "symlink"])
    def test_two_outputs_that_are_one_file_are_refused(self, tmp_path, link):
        out = tmp_path / "o"
        out.write_bytes(b"old")
        other = tmp_path / "o2" if link else out
        if link:
            other.symlink_to(out)
        message = f"outputs {out} and {other} are the same file"
        with pytest.raises(UsageError, match=re.escape(message)):
            write_outputs([(out, b"selection"), (other, b"matrix")])
        assert out.read_bytes() == b"old"
        assert sorted(p.name for p in tmp_path.iterdir()) == (["o", "o2"] if link else ["o"])

    def test_fifo_target_is_refused(self, tmp_path):
        (tmp_path / "a").write_bytes(b"old a")
        fifo = tmp_path / "fifo"
        os.mkfifo(fifo)
        with pytest.raises(OSError, match=re.escape(f"{fifo}: not a regular file")):
            write_outputs([(tmp_path / "a", b"new"), (fifo, b"new")])
        assert stat.S_ISFIFO(os.lstat(fifo).st_mode)
        assert (tmp_path / "a").read_bytes() == b"old a"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["a", "fifo"]

    def test_error_while_staging_deletes_staged_files(self, tmp_path, monkeypatch):
        real_fdopen = os.fdopen
        opened = []

        def fdopen_failing_second(fd, *args):
            opened.append(fd)
            if len(opened) == 2:
                os.close(fd)
                raise OSError("disk full")
            return real_fdopen(fd, *args)

        monkeypatch.setattr(os, "fdopen", fdopen_failing_second)
        with pytest.raises(OSError, match="disk full"):
            write_outputs([(tmp_path / "a", b"A"), (tmp_path / "b", b"B")])
        assert list(tmp_path.iterdir()) == []


def test_only_textio_changes_files():
    # Every write, rename and unlink of an output goes through textio, so a
    # command's outputs are replaced together or not at all.
    src = Path(__file__).parent.parent / "src" / "mbrforge"
    calls = re.compile(
        r"os\.open\(|os\.fdopen\(|os\.fchmod\(|os\.replace\(|\.unlink\(|\.write_text\(|\.write_bytes\("
    )
    found = {
        f"{path.name}:{number}"
        for path in sorted(src.glob("*.py"))
        for number, line in enumerate(path.read_text().splitlines(), 1)
        if calls.search(line)
    }
    assert found and all(site.startswith("textio.py:") for site in found), sorted(found)


def test_only_textio_resolves_output_paths():
    # realpath, resolve and with_name drop a trailing "/" or "/.", so only
    # textio, after names_file, may normalise a path that names an output.
    src = Path(__file__).parent.parent / "src" / "mbrforge"
    calls = re.compile(r"realpath\(|\.resolve\(|\.with_name\(")
    found = {
        f"{path.name}:{number}"
        for path in sorted(src.glob("*.py"))
        for number, line in enumerate(path.read_text().splitlines(), 1)
        if calls.search(line)
    }
    assert found and all(site.startswith("textio.py:") for site in found), sorted(found)
