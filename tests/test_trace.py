"""Traced runs: the names perfbench/child.py wraps still exist and still report.

The benchmark's ``--trace 1`` replaces library functions by name and calls
them in fixed shapes; a rename or a new call shape breaks only traced runs,
so each traced step here must exit 0 and yield its layer metrics.
"""

from __future__ import annotations

import importlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

from fixtures import toy_chat_doc, write_doc_jsonl

PERFBENCH = Path(__file__).parent.parent / "perfbench"


@pytest.fixture
def span_metrics(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("layers").span_metrics


@pytest.fixture
def inputs(tmp_path):
    files = {
        "src": ["s0", "s1"],
        "a": ["a b", "x"],
        "b": ["a b", "y"],
        "c": ["c d", "z"],
    }
    for name, lines in files.items():
        (tmp_path / f"{name}.txt").write_text("".join(f"{line}\n" for line in lines))
    return tmp_path


def traced(tmp_path: Path, span_metrics, *argv: str) -> dict:
    spans = tmp_path / "spans.json"
    result = subprocess.run(
        [sys.executable, str(PERFBENCH / "child.py"), "trace", str(spans), "r0", "test",
         "--", *argv],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0, result.stderr
    return span_metrics(json.loads(spans.read_text()))


def mbr_argv(d: Path, *extra: str) -> list[str]:
    argv = ["mbr", "--src", str(d / "src.txt"), "--out", str(d / "out.txt")]
    for name in "abc":
        argv += ["--cand", str(d / f"{name}.txt")]
    return [*argv, "--workers", "1", *extra]


def test_native_mbr(inputs, span_metrics):
    metrics = traced(inputs, span_metrics, *mbr_argv(inputs))
    assert "mbr.segment_ms_p50" in metrics
    assert "metrics.scorer_s" in metrics
    # Segment 0 has 2 distinct candidates and segment 1 has 3: 4 + 9 pairs.
    assert metrics["mbr.pairs_requested"] == (13, "count")


def test_external_mbr(inputs, span_metrics):
    scorer = f"{sys.executable} {PERFBENCH / 'scorer.py'}"
    argv = mbr_argv(inputs, "--utility", "external", "--external-cmd", scorer)
    metrics = traced(inputs, span_metrics, *argv)
    assert "mbr.segment_ms_p50" in metrics
    assert metrics["mbr.pairs_requested"] == (13, "count")
    assert metrics["bridge.roundtrips"] == (2, "count")  # one batch per segment


def test_eval(inputs, span_metrics):
    argv = ["eval", "--hyp", str(inputs / "a.txt"), "--ref", str(inputs / "b.txt")]
    metrics = traced(inputs, span_metrics, *argv)
    assert "cli.eval_s" in metrics
    assert "metrics.corpus_s" in metrics


@pytest.mark.parametrize("mode", ["stream", "context", "fewshot"])
def test_prompts(tmp_path, span_metrics, mode):
    write_doc_jsonl(toy_chat_doc(), tmp_path / "chat.jsonl")
    argv = ["prompts", "--mode", mode, "--doc", str(tmp_path / "chat.jsonl"),
            "--out", str(tmp_path / "prompts.jsonl"), "--k", "0"]
    metrics = traced(tmp_path, span_metrics, *argv)
    assert "promptgen.read_s" in metrics
    assert f"promptgen.render_{mode}_s" in metrics
