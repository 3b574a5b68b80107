"""Fault sweep over the file boundary.

Each command that writes runs once cleanly while every file-changing call
is counted: ``os.open``, ``os.fchmod``, each ``write``/``writelines`` to a
staged file and its close, ``os.replace`` and ``os.unlink``.  Then it runs
again once per call, with that call raising ENOSPC.  Every failed run must
exit 5, name the error once, leave no temp file and no open descriptor,
and leave each output as it was, except for the part-way states a rename
or unlink failing after an earlier rename can leave.
"""

from __future__ import annotations

import errno
import os
import re
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from mbrforge import cli
from mbrforge.checkpoint import TensorStore
from fixtures import toy_chat_doc, write_doc_jsonl

ENOSPC = OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


class _CountedFile:
    """A staged file whose write, writelines and close are fault points."""

    def __init__(self, fh, hit):
        self._fh = fh
        self._hit = hit

    def write(self, data):
        self._hit("write", None)
        return self._fh.write(data)

    def writelines(self, lines):
        self._hit("writelines", None)
        return self._fh.writelines(lines)

    def close(self):
        try:
            self._hit("close", None)
        finally:
            self._fh.close()  # a close whose flush fails still closes the file

    def fileno(self):
        return self._fh.fileno()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


class FaultPoints:
    """Records the file-changing calls of one run; the ``fail_at``-th raises ENOSPC."""

    def __init__(self, fail_at: int | None = None):
        self.fail_at = fail_at
        self.calls: list[tuple[str, str | None]] = []  # (kind, path), in call order

    def _hit(self, kind: str, path) -> None:
        if path is not None:  # a temp name's pid and random part differ from run to run
            path = re.sub(r"\.\d+\.[0-9a-f]+\.tmp$", ".tmp", os.path.realpath(path))
        self.calls.append((kind, path))
        if len(self.calls) == self.fail_at:
            raise OSError(ENOSPC.errno, ENOSPC.strerror)

    @contextmanager
    def installed(self, monkeypatch):
        real = {name: getattr(os, name) for name in ("open", "fchmod", "replace", "unlink")}
        real_fdopen = os.fdopen

        def point(name, path_arg):
            def call(*args, **kwargs):
                self._hit(name, args[path_arg] if path_arg is not None else None)
                return real[name](*args, **kwargs)

            return call

        with monkeypatch.context() as patch:
            patch.setattr(os, "open", point("open", 0))
            patch.setattr(os, "fchmod", point("fchmod", None))
            patch.setattr(os, "replace", point("replace", 1))
            patch.setattr(os, "unlink", point("unlink", 0))
            patch.setattr(os, "fdopen", lambda *a, **k: _CountedFile(real_fdopen(*a, **k), self._hit))
            yield self


def _lines(path: Path, lines) -> Path:
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    return path


def _scenario(name: str, d: Path) -> tuple[list[str], dict[Path, bytes | None], Path | None]:
    """argv, each output with its old bytes (None: absent), and the path the run removes."""
    removed = None
    if name == "mbr":
        src = _lines(d / "src.txt", ["s1", "s2", "s3"])
        cands = [
            _lines(d / "a.txt", ["the cat", "x", "one two"]),
            _lines(d / "b.txt", ["the cat", "y y", "one"]),
            _lines(d / "c.txt", ["a dog", "y y", "two"]),
        ]
        argv = ["mbr", "--src", str(src), *(a for c in cands for a in ("--cand", str(c))),
                "--out", str(d / "out.txt"), "--matrix-out", str(d / "matrix.tsv")]
        outputs = {d / "out.txt": b"old out\n", d / "matrix.tsv": None}
    elif name in ("build-st", "build-bt"):
        _lines(d / "mono.txt", ["a b c", "d e", "f"])
        _lines(d / "mt.txt", ["x y z", "u v", "w"])
        prefix = d / "corpus"
        if name == "build-st":
            argv = ["build-st", "--src", str(d / "mono.txt"), "--mt", str(d / "mt.txt")]
            outputs = {d / "corpus.src": b"old src\n", d / "corpus.tgt": None,
                       d / "corpus.meta": b"old meta\n"}
        else:
            argv = ["build-bt", "--tgt", str(d / "mono.txt"), "--bt", str(d / "mt.txt"),
                    "--no-meta"]
            outputs = {d / "corpus.src": b"old src\n", d / "corpus.tgt": None,
                       d / "corpus.meta": b"stale meta\n"}
            removed = d / "corpus.meta"
        argv += ["--out-prefix", str(prefix)]
    elif name == "merge":
        for prefix, tag in (("c1", "self-train"), ("c2", "genuine")):
            _lines(d / f"{prefix}.src", [f"{prefix} s1", f"{prefix} s2"])
            _lines(d / f"{prefix}.tgt", [f"{prefix} t1", f"{prefix} t2"])
            _lines(d / f"{prefix}.meta", [tag, tag])
        argv = ["merge", "--inputs", str(d / "c1"), str(d / "c2"), "--seed", "3",
                "--out-prefix", str(d / "merged")]
        outputs = {d / "merged.src": b"old src\n", d / "merged.tgt": None, d / "merged.meta": None}
    elif name == "prompts":
        write_doc_jsonl(toy_chat_doc(), d / "doc.jsonl")
        argv = ["prompts", "--mode", "stream", "--doc", str(d / "doc.jsonl"),
                "--out", str(d / "prompts.jsonl")]
        outputs = {d / "prompts.jsonl": b"old prompts\n"}
    elif name == "avg":
        for k in (1, 2):
            store = TensorStore({"w": np.full((3, 2), k, dtype=np.float32),
                                 "b": np.array([-0.0, k], dtype=np.float32)})
            (d / f"ck{k}.tsf").write_bytes(store.serialize())
        argv = ["avg", "--inputs", str(d / "ck1.tsf"), str(d / "ck2.tsf"),
                "--out", str(d / "avg.tsf")]
        outputs = {d / "avg.tsf": b"old avg"}
    else:
        assert name == "lora-merge"
        base = TensorStore({"w": np.ones((2, 2), dtype=np.float32)})
        adapter = TensorStore({"w.lora_A": np.array([[2.0, 1.0]], dtype=np.float32),
                               "w.lora_B": np.array([[3.0], [4.0]], dtype=np.float32)})
        (d / "base.tsf").write_bytes(base.serialize())
        (d / "adapter.tsf").write_bytes(adapter.serialize())
        argv = ["lora-merge", "--base", str(d / "base.tsf"), "--adapter", str(d / "adapter.tsf"),
                "--alpha", "2", "--out", str(d / "merged.tsf")]
        outputs = {d / "merged.tsf": None}
    return argv, outputs, removed


COMMANDS = ["mbr", "build-st", "build-bt", "merge", "prompts", "avg", "lora-merge"]


def _restore(state: dict[Path, bytes | None]) -> None:
    for path, data in state.items():
        if data is None:
            path.unlink(missing_ok=True)
        else:
            path.write_bytes(data)


def _state(paths) -> dict[Path, bytes | None]:
    return {path: path.read_bytes() if path.exists() else None for path in paths}


def _open_fds() -> set[str]:
    return set(os.listdir("/proc/self/fd"))


def _run(argv, monkeypatch, capsys, fail_at=None) -> tuple[int, FaultPoints, str]:
    capsys.readouterr()
    with FaultPoints(fail_at).installed(monkeypatch) as points:
        code = cli.main(argv)
    return code, points, capsys.readouterr().err


def _clean_run(name, tmp_path, monkeypatch, capsys):
    """The scenario, its old and new states, and the clean run's call list."""
    argv, old, removed = _scenario(name, tmp_path)
    _restore(old)
    code, points, err = _run(argv, monkeypatch, capsys)
    assert (code, err) == (0, "")
    new = _state(old)
    assert all(new[path] not in (None, old[path]) for path in old if path != removed)
    assert removed is None or new[removed] is None
    return argv, old, new, points.calls


def _commit_index(calls, path: Path) -> int:
    """The 1-based index of the rename (or unlink) that puts ``path`` in its new state."""
    target = os.path.realpath(path)
    return next(k for k, (kind, p) in enumerate(calls, 1)
                if kind in ("replace", "unlink") and p == target)


@pytest.mark.parametrize("name", COMMANDS)
def test_every_fault_point_fails_cleanly(name, tmp_path, monkeypatch, capsys):
    argv, old, new, calls = _clean_run(name, tmp_path, monkeypatch, capsys)
    kinds = {kind for kind, _path in calls}
    assert {"open", "close", "replace"} <= kinds and kinds & {"write", "writelines"}
    commits = {path: _commit_index(calls, path) for path in old}
    mixed = 0
    for k in range(1, len(calls) + 1):
        _restore(old)
        fds = _open_fds()
        code, points, err = _run(argv, monkeypatch, capsys, fail_at=k)
        assert points.calls[:k] == calls[:k], k  # the run took the clean run's path
        assert code == 5, (k, calls[k - 1])
        assert err == f"mbrforge: i/o error: {ENOSPC}\n", k
        assert list(tmp_path.rglob("*.tmp")) == [], (k, calls[k - 1])
        assert _open_fds() == fds, (k, calls[k - 1])
        want = {path: new[path] if commits[path] < k else old[path] for path in old}
        assert _state(old) == want, (k, calls[k - 1])
        mixed += want != old
    # Only a fault after the first rename leaves a mix: one per later rename or unlink.
    assert mixed == len(old) - 1


def _fail_at(calls, kind: str, nth: int) -> int:
    return [k for k, (kd, _path) in enumerate(calls, 1) if kd == kind][nth - 1]


def test_second_rename_failing_leaves_first_output_new(tmp_path, monkeypatch, capsys):
    argv, old, new, calls = _clean_run("mbr", tmp_path, monkeypatch, capsys)
    out, matrix = tmp_path / "out.txt", tmp_path / "matrix.tsv"
    _restore(old)
    code, _points, _err = _run(argv, monkeypatch, capsys, fail_at=_fail_at(calls, "replace", 2))
    assert code == 5
    assert out.read_bytes() == new[out] != old[out]
    assert not matrix.exists()
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "a.txt", "b.txt", "c.txt", "out.txt", "src.txt"
    ]


def test_failed_meta_unlink_leaves_new_corpus_beside_stale_meta(tmp_path, monkeypatch, capsys):
    argv, old, new, calls = _clean_run("build-bt", tmp_path, monkeypatch, capsys)
    meta = tmp_path / "corpus.meta"
    _restore(old)
    fail_at = _fail_at(calls, "unlink", 1)
    assert fail_at == len(calls)  # the unlink comes after every rename
    code, _points, _err = _run(argv, monkeypatch, capsys, fail_at=fail_at)
    assert code == 5
    assert meta.read_bytes() == b"stale meta\n"
    for ext in (".src", ".tgt"):
        path = tmp_path / f"corpus{ext}"
        assert path.read_bytes() == new[path] != old[path]
