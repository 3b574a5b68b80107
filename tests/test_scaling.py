"""Every command's work grows linearly with its input.

Each case runs one command in process through ``cli.main`` at three input
sizes, each double the last, and counts the ``line`` events that
``sys.settrace`` reports for code under ``src/mbrforge``.  The counts are
deterministic, so the test cannot be flaky: a ratio above ``MAX_RATIO``
between two successive sizes means the command does super-linear work in
Python, such as a scan of the whole input for every item.

Only Python lines are counted.  A C-level scan inside a loop (``in`` on a
list, ``list.index``, ``str.count``) is one line event however long it
runs, so a quadratic cost hidden in such a call is not caught here.
"""

from __future__ import annotations

import io
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

import mbrforge
from mbrforge import cli
from mbrforge.promptgen import ChatDocument, ChatTurn

from fixtures import write_doc_jsonl

PACKAGE = str(Path(mbrforge.__file__).parent)
MAX_RATIO = 2.2
TURNS = (100, 200, 400)  # turns in the one chat document
LINES = (100, 200, 400)  # lines in each line-aligned text file
WORDS = "the a cat dog sat ran on under mat rug red blue , . !".split()


def _line(i: int, system: int) -> str:
    """A deterministic sentence of 4 to 11 words; system 0 is the reference side."""
    if i % 10 == 9:  # every tenth line repeats an earlier one, so --dedup has work
        i -= 9
    words = [WORDS[(i * 7 + j * (3 + system)) % len(WORDS)] for j in range(4 + (i + system) % 8)]
    return " ".join(words)


def _write_lines(path: Path, m: int, system: int) -> None:
    path.write_text("".join(_line(i, system) + "\n" for i in range(m)), encoding="utf-8")


def _write_texts(d: Path, m: int) -> None:
    for system, name in enumerate(["src", "a", "b", "c", "d"]):
        _write_lines(d / f"{name}.txt", m, system)
    for prefix in ("p", "q"):  # corpora for merge, one half each
        _write_lines(d / f"{prefix}.src", m // 2, 0 if prefix == "p" else 2)
        _write_lines(d / f"{prefix}.tgt", m // 2, 1 if prefix == "p" else 3)


def _write_chat(path: Path, turns: int) -> None:
    """One document of alternating customer and agent turns, each with a reference."""
    directions = (("customer", "English", "German"), ("agent", "German", "English"))
    write_doc_jsonl(
        ChatDocument(
            doc_id="scaling",
            turns=tuple(
                ChatTurn(*directions[i % 2], f"source {i}", f"mt {i}", f"reference {i}")
                for i in range(turns)
            ),
        ),
        path,
    )


def _prompts(mode: str) -> tuple[tuple[int, ...], list[str]]:
    argv = ["prompts", "--mode", mode, "--doc", "chat.jsonl", "--k", "3", "--out", "p.jsonl"]
    return TURNS, argv


CANDIDATES = [arg for name in "abcd" for arg in ("--cand", f"{name}.txt")]
CASES = {
    "prompts --mode stream": _prompts("stream"),
    "prompts --mode context": _prompts("context"),
    "prompts --mode fewshot": _prompts("fewshot"),
    "mbr --utility chrf --matrix-out": (
        LINES,
        ["mbr", "--src", "src.txt", *CANDIDATES, "--utility", "chrf", "--out", "mbr.txt",
         "--matrix-out", "matrix.tsv"],
    ),
    "eval --metric chrf": (
        LINES,
        ["eval", "--hyp", "a.txt", "--ref", "src.txt", "--metric", "chrf"],
    ),
    "eval --metric bleu --sentence-level": (
        LINES,
        ["eval", "--hyp", "a.txt", "--ref", "src.txt", "--metric", "bleu", "--sentence-level"],
    ),
    "build-st --dedup": (
        LINES,
        ["build-st", "--src", "src.txt", "--mt", "a.txt", "--out-prefix", "st", "--dedup"],
    ),
    "build-bt --tag": (
        LINES,
        ["build-bt", "--tgt", "src.txt", "--bt", "b.txt", "--out-prefix", "bt", "--tag", "<BT>"],
    ),
    "merge --seed": (
        LINES,
        ["merge", "--inputs", "p", "q", "--out-prefix", "merged", "--seed", "7"],
    ),
}


def _count_lines(argv: list[str]) -> int:
    """Line events under src/mbrforge while ``cli.main(argv)`` runs; restores the tracer."""
    count = 0

    def local(frame, event, arg):
        nonlocal count
        count += event == "line"
        return local

    def global_tracer(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(PACKAGE) else None

    previous = sys.gettrace()
    sys.settrace(global_tracer)
    try:
        with redirect_stdout(io.StringIO()):
            code = cli.main(argv)
    finally:
        sys.settrace(previous)
    assert code == 0, f"{argv} exited {code}"
    return count


def _workspace(root: Path, index: int) -> Path:
    d = root / str(index)
    d.mkdir()
    _write_chat(d / "chat.jsonl", TURNS[index])
    _write_texts(d, LINES[index])
    return d


def test_line_counts_grow_linearly(tmp_path, monkeypatch):
    dirs = [_workspace(tmp_path, index) for index in range(3)]
    report, failed = [], []
    for name, (sizes, argv) in CASES.items():
        monkeypatch.chdir(dirs[0])
        with redirect_stdout(io.StringIO()):  # untraced: the first run's lazy imports
            assert cli.main(argv) == 0
        counts = []
        for d in dirs:
            monkeypatch.chdir(d)
            counts.append(_count_lines(argv))
        ratios = [later / earlier for earlier, later in zip(counts, counts[1:])]
        if max(ratios) > MAX_RATIO:
            failed.append(name)
        report.append(
            f"{name}: sizes {sizes}, lines {counts}, ratios "
            + ", ".join(f"{ratio:.2f}" for ratio in ratios)
        )
    assert not failed, (
        f"super-linear: {', '.join(failed)} (a ratio above {MAX_RATIO})\n" + "\n".join(report)
    )


def test_count_restores_the_tracer_it_found(monkeypatch):
    def fail(argv):
        raise RuntimeError("command failed")

    def outer(frame, event, arg):
        return None

    monkeypatch.setattr(cli, "main", fail)
    found = sys.gettrace()
    sys.settrace(outer)
    try:
        with pytest.raises(RuntimeError, match="command failed"):
            _count_lines(["eval"])
        assert sys.gettrace() is outer
    finally:
        sys.settrace(found)
