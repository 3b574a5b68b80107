"""Plain-text segment files and atomic output writing.

Segment files are UTF-8, one segment per line, LF line endings; a trailing
LF on the final line is optional and ignored on read.  A CR is content, not
a line break.  All writers go through a temp-file-plus-rename so a failed
run never leaves a truncated output behind.
"""

from __future__ import annotations

import os
import stat
from pathlib import Path

from .errors import AlignmentError, DataError


def read_text(path: str | Path) -> str:
    """Read a whole UTF-8 file with no newline translation; bad bytes raise DataError."""
    try:
        return Path(path).read_bytes().decode("utf-8")
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not valid UTF-8 at byte {exc.start}") from exc


def read_segments(path: str | Path) -> list[str]:
    """Read one segment per line.  An empty file has zero segments."""
    raw = read_text(path)
    if raw == "":
        return []
    if raw.endswith("\n"):
        raw = raw[:-1]
    return raw.split("\n")


def atomic_write_bytes(path: str | Path, data: bytes) -> None:
    """Write through a temp file in the same directory, then rename over ``path``.

    A new file gets the mode a plain ``open`` would give it, 0o666 less the
    umask; a replaced file keeps its mode.  A symbolic link is written
    through: its target is replaced and the link is left in place.
    """
    path = Path(os.path.realpath(path))
    try:
        mode = stat.S_IMODE(os.stat(path).st_mode)
    except FileNotFoundError:
        mode = None
    tmp = path.with_name(f".{path.name}.{os.getpid()}.{os.urandom(4).hex()}.tmp")
    # The kernel applies the umask to 0o666; O_EXCL never reuses a file.
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "wb") as fh:
            if mode is not None:
                os.fchmod(fh.fileno(), mode)
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_text(path: str | Path, text: str) -> None:
    atomic_write_bytes(path, text.encode("utf-8"))


def write_segments(path: str | Path, segments: list[str]) -> None:
    """Write one segment per line, each terminated by LF."""
    for seg in segments:
        if "\n" in seg:
            raise ValueError("segments must not contain embedded newlines")
    atomic_write_text(path, "".join(s + "\n" for s in segments))


def require_aligned(counts: dict[str, int]) -> None:
    """Raise AlignmentError naming every input and its line count if they differ."""
    if len(set(counts.values())) > 1:
        detail = ", ".join(f"{name}: {n} lines" for name, n in counts.items())
        raise AlignmentError(f"inputs are not aligned ({detail})")
