"""Plain-text segment files and the only code that changes files.

Segment files are UTF-8, one segment per line, LF line endings; a trailing
LF on the final line is optional and ignored on read.  A CR is content, not
a line break.  Outputs are written into temp files and renamed into place
together; README lists the part-way states a failed rename or unlink leaves.
``names_file`` alone decides whether an output path, as given, names a file.
"""

from __future__ import annotations

import os
import stat
from contextlib import ExitStack, contextmanager
from pathlib import Path
from typing import BinaryIO, Iterator, Sequence

from .errors import AlignmentError, DataError, UsageError, located


def read_text(path: str | Path) -> str:
    """Read a whole UTF-8 file with no newline translation; bad bytes raise DataError."""
    try:
        return Path(path).read_bytes().decode("utf-8")
    except UnicodeDecodeError as exc:
        with located(path):
            raise DataError(f"not valid UTF-8 at byte {exc.start}") from exc


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


def names_file(path: str | Path) -> bool:
    """Whether the last component of ``path``, as given, names a file: ``out/`` names none."""
    return os.path.basename(path) not in ("", ".", "..")


def _existing_mode(path: Path) -> int | None:
    """Permission bits of an existing regular file, None if there is no file."""
    try:
        info = os.stat(path)
    except FileNotFoundError:
        if not path.parent.is_dir():  # else staging would fail, naming a temp file
            raise FileNotFoundError(f"{path.parent}: no such directory") from None
        return None
    if stat.S_ISDIR(info.st_mode):
        raise IsADirectoryError(f"{path}: is a directory")
    if not stat.S_ISREG(info.st_mode):  # a FIFO or a device would be replaced
        raise OSError(f"{path}: not a regular file")
    return stat.S_IMODE(info.st_mode)


def check_outputs(
    paths: Sequence[str | Path], remove: Sequence[str | Path] = ()
) -> dict[Path, int | None]:
    """Check that every output in ``paths`` can be replaced and each ``remove`` path unlinked.

    Each output must pass ``names_file`` as given; its target must be a
    regular file or absent in a directory that exists, no two outputs may
    be one file and no ``remove`` path may be a directory.  Returns each
    resolved target with the mode it keeps (None if new), in ``paths`` order.
    """
    targets: dict[Path, str | Path] = {}  # resolved target -> the output that names it
    for target in paths:
        path = Path(os.path.realpath(target))
        if path in targets:
            raise UsageError(f"outputs {targets[path]} and {target} are the same file")
        targets[path] = target
    modes = {path: _existing_mode(path) for path in targets}
    for target in paths:  # realpath drops a trailing "/" or "/.", which open would refuse
        if not names_file(target):
            raise OSError(f"{target}: names no file")
    for path in map(Path, remove):
        if path.is_dir() and not path.is_symlink():  # unlink drops a link, not its target
            raise IsADirectoryError(f"{path}: is a directory")
    return modes


@contextmanager
def staged_outputs(
    paths: Sequence[str | Path], remove: Sequence[str | Path] = ()
) -> Iterator[list[BinaryIO]]:
    """Yield one open binary file per output; on a clean exit replace every target together.

    ``check_outputs`` runs first, so before anything is written a bad
    target stops the command.  Each output is staged as a temp file
    beside its target; a clean exit renames them in order and then
    unlinks each ``remove`` path, and any error deletes every temp file.
    A new file gets 0o666 less the umask, as from a plain ``open``; a
    replaced file keeps its mode.  A symbolic link is written through:
    its target is replaced, the link kept.
    """
    modes = check_outputs(paths, remove)
    staged: list[Path] = []  # temp files, in the order of ``modes``
    try:
        with ExitStack() as stack:  # closes every staged file, on an error too
            files: list[BinaryIO] = []
            for path, mode in modes.items():
                tmp = path.with_name(f".{path.name}.{os.getpid()}.{os.urandom(4).hex()}.tmp")
                # The kernel applies the umask to 0o666; O_EXCL never reuses a file.
                fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
                staged.append(tmp)
                files.append(stack.enter_context(os.fdopen(fd, "wb")))
                if mode is not None:
                    os.fchmod(fd, mode)
            yield files
        for tmp, path in zip(staged, modes):
            os.replace(tmp, path)
        for path in remove:
            Path(path).unlink(missing_ok=True)
    except BaseException:
        for tmp in staged:
            tmp.unlink(missing_ok=True)  # a renamed one is gone already
        raise


def require_aligned(counts: dict[str, int]) -> None:
    """Raise AlignmentError naming every input and its line count if they differ."""
    if len(set(counts.values())) > 1:
        detail = ", ".join(f"{name}: {n} lines" for name, n in counts.items())
        raise AlignmentError(f"inputs are not aligned ({detail})")
