"""Every check that parallel inputs line up raises the same AlignmentError.

Each site names every input it holds with its line count: library
functions their parameter names, code that read files the file paths.
"""

from __future__ import annotations

from functools import partial
from pathlib import Path

import pytest

from mbrforge import cli
from mbrforge.errors import EXIT_DATA, AlignmentError
from mbrforge.mbr import CandidateSet
from mbrforge.metrics import char_ngram_stats, corpus_stats
from mbrforge.selftrain import ParallelCorpus, build_bt_corpus, build_st_corpus, read_corpus


def write_lines(path: Path, count: int) -> str:
    path.write_text("".join(f"word {i}\n" for i in range(count)), encoding="utf-8")
    return str(path)


def misaligned_message(counts: dict[str, int]) -> str:
    detail = ", ".join(f"{name}: {n} lines" for name, n in counts.items())
    return f"inputs are not aligned ({detail})"


# Each site takes a scratch directory and returns the call that must fail
# and the inputs, with their counts, that its message must name in order.
def corpus_stats_site(tmp_path):
    call = partial(corpus_stats, ["a", "b"], ["a"], char_ngram_stats)
    return call, {"hyps": 2, "refs": 1}


def build_st_site(tmp_path):
    return partial(build_st_corpus, ["a", "b"], ["x"]), {"sources": 2, "translations": 1}


def build_bt_site(tmp_path):
    call = partial(build_bt_corpus, ["a"], ["x", "y"])
    return call, {"targets": 1, "back_translations": 2}


def read_corpus_site(tmp_path):
    src = write_lines(tmp_path / "corp.src", 2)
    tgt = write_lines(tmp_path / "corp.tgt", 1)
    return partial(read_corpus, tmp_path / "corp"), {src: 2, tgt: 1}


def read_corpus_meta_site(tmp_path):
    src = write_lines(tmp_path / "corp.src", 1)
    tgt = write_lines(tmp_path / "corp.tgt", 1)
    meta = tmp_path / "corp.meta"
    meta.write_text("genuine\ngenuine\n", encoding="utf-8")
    return partial(read_corpus, tmp_path / "corp"), {src: 1, tgt: 1, str(meta): 2}


def parallel_corpus_site(tmp_path):
    return partial(ParallelCorpus, (("a", "b"),), ()), {"pairs": 1, "provenance": 0}


def candidate_set_site(tmp_path):
    call = partial(CandidateSet, ("s1", "s2"), ("a",), (("x",),))
    return call, {"sources": 2, "candidates": 1}


@pytest.mark.parametrize(
    "site",
    [
        corpus_stats_site,
        build_st_site,
        build_bt_site,
        read_corpus_site,
        read_corpus_meta_site,
        parallel_corpus_site,
        candidate_set_site,
    ],
    ids=lambda site: site.__name__.removesuffix("_site"),
)
def test_library_site(tmp_path, site):
    call, counts = site(tmp_path)
    with pytest.raises(AlignmentError) as exc_info:
        call()
    assert str(exc_info.value) == misaligned_message(counts)


def eval_argv(tmp_path):
    hyp = write_lines(tmp_path / "hyp.txt", 2)
    ref = write_lines(tmp_path / "ref.txt", 1)
    return ["eval", "--hyp", hyp, "--ref", ref], {hyp: 2, ref: 1}


def mbr_argv(tmp_path):
    src = write_lines(tmp_path / "src.txt", 2)
    a = write_lines(tmp_path / "a.txt", 2)
    b = write_lines(tmp_path / "b.txt", 1)
    argv = ["mbr", "--src", src, "--cand", a, "--cand", b,
            "--out", str(tmp_path / "out.txt"), "--matrix-out", str(tmp_path / "m.tsv")]
    return argv, {src: 2, a: 2, b: 1}


def build_st_argv(tmp_path):
    src = write_lines(tmp_path / "mono.txt", 2)
    mt = write_lines(tmp_path / "mt.txt", 1)
    argv = ["build-st", "--src", src, "--mt", mt, "--out-prefix", str(tmp_path / "st")]
    return argv, {src: 2, mt: 1}


def build_bt_argv(tmp_path):
    tgt = write_lines(tmp_path / "tgt.txt", 1)
    bt = write_lines(tmp_path / "bt.txt", 2)
    argv = ["build-bt", "--tgt", tgt, "--bt", bt, "--out-prefix", str(tmp_path / "bt")]
    return argv, {tgt: 1, bt: 2}


def merge_argv(tmp_path):
    good_src = write_lines(tmp_path / "good.src", 1)
    write_lines(tmp_path / "good.tgt", 1)
    src = write_lines(tmp_path / "bad.src", 1)
    tgt = write_lines(tmp_path / "bad.tgt", 3)
    argv = ["merge", "--inputs", good_src[: -len(".src")], src[: -len(".src")],
            "--out-prefix", str(tmp_path / "merged")]
    return argv, {src: 1, tgt: 3}


@pytest.mark.parametrize(
    "argv_of",
    [eval_argv, mbr_argv, build_st_argv, build_bt_argv, merge_argv],
    ids=lambda argv_of: argv_of.__name__.removesuffix("_argv").replace("_", "-"),
)
def test_cli_site(tmp_path, capsys, argv_of):
    argv, counts = argv_of(tmp_path)
    inputs = sorted(tmp_path.iterdir())
    assert cli.main(argv) == EXIT_DATA
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"mbrforge: error: {misaligned_message(counts)}\n"
    assert sorted(tmp_path.iterdir()) == inputs  # nothing written
