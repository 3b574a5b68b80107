"""Plain-text segment files and the only code that changes files.

Segment files are UTF-8, one segment per line, LF line endings; a trailing
LF on the final line is optional and ignored on read.  A CR is content, not
a line break.  A command's outputs are staged as temp files and renamed
into place together, so a failed run leaves every one of them as it was.
"""

from __future__ import annotations

import os
import stat
from pathlib import Path
from typing import Sequence

from .errors import AlignmentError, DataError, UsageError


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


def read_aligned(*paths: str | Path) -> list[list[str]]:
    """Read each file's segments; the files must have equal line counts."""
    columns = [read_segments(path) for path in paths]
    require_aligned({str(path): len(lines) for path, lines in zip(paths, columns)})
    return columns


def segment_lines(segments: Sequence[str]) -> bytes:
    """Encode one segment per line, each terminated by LF."""
    text = "".join(s + "\n" for s in segments)
    if text.count("\n") != len(segments):
        raise ValueError("segments must not contain embedded newlines")
    return text.encode("utf-8")


def _existing_mode(path: Path) -> int | None:
    """Permission bits of an existing regular file, None if there is no file."""
    try:
        info = os.stat(path)
    except FileNotFoundError:
        return None
    if stat.S_ISDIR(info.st_mode):
        raise IsADirectoryError(f"{path}: is a directory")
    if not stat.S_ISREG(info.st_mode):  # a FIFO or a device would be replaced
        raise OSError(f"{path}: not a regular file")
    return stat.S_IMODE(info.st_mode)


def write_outputs(
    outputs: Sequence[tuple[str | Path, bytes]], remove: Sequence[str | Path] = ()
) -> None:
    """Replace every ``(path, data)`` output together, then unlink each ``remove`` path.

    Before anything is written, each target must be a regular file or
    absent, no two outputs may be one file and no ``remove`` path may be a
    directory.  Each output is staged as a temp file beside its target, and
    any error deletes every temp file.  A new file gets 0o666 less the
    umask, as from a plain ``open``; a replaced file keeps its mode.  A
    symbolic link is written through: its target is replaced, the link kept.
    """
    targets: dict[Path, str | Path] = {}  # resolved target -> the output that names it
    for target, _data in outputs:
        path = Path(os.path.realpath(target))
        if path in targets:
            raise UsageError(f"outputs {targets[path]} and {target} are the same file")
        targets[path] = target
    modes = [_existing_mode(path) for path in targets]
    for path in map(Path, remove):
        if path.is_dir() and not path.is_symlink():  # unlink drops a link, not its target
            raise IsADirectoryError(f"{path}: is a directory")
    staged: list[tuple[Path, Path]] = []  # (temp file, target)
    try:
        for path, mode, (_target, data) in zip(targets, modes, outputs):
            tmp = path.with_name(f".{path.name}.{os.getpid()}.{os.urandom(4).hex()}.tmp")
            # The kernel applies the umask to 0o666; O_EXCL never reuses a file.
            fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
            staged.append((tmp, path))
            with os.fdopen(fd, "wb") as fh:
                if mode is not None:
                    os.fchmod(fh.fileno(), mode)
                fh.write(data)
        for tmp, path in staged:
            os.replace(tmp, path)
        for path in remove:
            Path(path).unlink(missing_ok=True)
    except BaseException:
        for tmp, _path in staged:
            tmp.unlink(missing_ok=True)  # a renamed one is gone already
        raise


def atomic_write_bytes(path: str | Path, data: bytes) -> None:
    """Write one output through ``write_outputs``."""
    write_outputs([(path, data)])


def require_aligned(counts: dict[str, int]) -> None:
    """Raise AlignmentError naming every input and its line count if they differ."""
    if len(set(counts.values())) > 1:
        detail = ", ".join(f"{name}: {n} lines" for name, n in counts.items())
        raise AlignmentError(f"inputs are not aligned ({detail})")
