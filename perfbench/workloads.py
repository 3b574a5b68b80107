"""Workload definitions and the seeded input generator.

Every input the program sees is written here from ``random.Random(seed)``
and ``numpy.random.default_rng(seed)``; nothing is downloaded.  A
workload names its shape (segments m, candidates n, words per segment L,
duplicate share, worker count, bridge batch size) and the CLI steps that
run on the generated files.  ``steps`` returns those steps as argv lists
for ``mbrforge.cli.main``, with ``--workers`` always explicit so the
``MBRFORGE_WORKERS`` environment variable cannot change a run.
"""

from __future__ import annotations

import json
import random
import sys
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

PUNCTUATION = (",", ".")


@dataclass(frozen=True)
class Shape:
    """Corpus shape: the knobs the generator varies between workloads."""

    segments: int  # m
    candidates: int  # n; 1 for the 1:1 eval-build corpus
    length: int  # mean words per segment (L)
    length_jitter: int  # segment lengths spread evenly over L +- jitter
    perturb: float  # per-word replacement rate between candidates / hyp and ref
    dup_share: float  # share of candidates that repeat an earlier candidate string
    vocab: int = 300


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    kind: str  # "mbr" or "eval-build"
    shape: Shape
    utility: str = ""  # mbr --utility
    workers: int = 1
    batch_size: int = 32
    # eval-build only: chat documents x turns, checkpoint tensors
    chat_docs: int = 0
    chat_turns: int = 0
    ckpt_count: int = 5
    ckpt_dim: int = 0
    lora_rank: int = 8

    def pairs_per_invocation(self) -> int:
        """Scored pairs per invocation: m*n^2 for mbr, m per eval step otherwise."""
        if self.kind == "mbr":
            return self.shape.segments * self.shape.candidates**2
        return self.shape.segments * len(EVAL_STEPS)

    def probe(self, segments: int) -> "Workload":
        """The same workload cut down to ``segments`` segments."""
        shape = replace(self.shape, segments=min(segments, self.shape.segments))
        return replace(
            self,
            shape=shape,
            chat_docs=min(self.chat_docs, 2),
            ckpt_dim=min(self.ckpt_dim, 64),
        )


# (metric, sentence-level) for the four eval steps of eval-build
EVAL_STEPS = (("bleu", False), ("chrf", False), ("bleu", True), ("chrf", True))
PROMPT_MODES = ("stream", "context", "fewshot")
LORA_ALPHA = 16.0

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="mbr-chrf-dup",
            why="chrF kernel and repeated candidates, so dedup has work; "
            "n=16, L~30, m=6, 25% duplicate candidates, workers 1",
            kind="mbr",
            shape=Shape(segments=6, candidates=16, length=30, length_jitter=4,
                        perturb=0.25, dup_share=0.25),
            utility="chrf",
            workers=1,
        ),
        Workload(
            name="mbr-bleu-long",
            why="BLEU kernel at long segments, cost grows with L^2; "
            "n=8, L~100, m=2, no duplicates, workers 1",
            kind="mbr",
            shape=Shape(segments=2, candidates=8, length=100, length_jitter=0,
                        perturb=0.25, dup_share=0.0),
            utility="bleu",
            workers=1,
        ),
        Workload(
            name="mbr-bridge",
            why="external scorer bridge round trips, native metrics idle; "
            "n=4, L~25, m=300, no duplicates, batch size 256, workers 1",
            kind="mbr",
            shape=Shape(segments=300, candidates=4, length=25, length_jitter=4,
                        perturb=0.25, dup_share=0.0),
            utility="external",
            workers=1,
            batch_size=256,
        ),
        Workload(
            name="eval-build",
            why="eval (corpus and sentence level, workers 2), build-st/bt, merge, "
            "avg of 5 + lora-merge, prompts x3; 1:1 data m=400, L~20, 10% dup",
            kind="eval-build",
            shape=Shape(segments=400, candidates=1, length=20, length_jitter=6,
                        perturb=0.3, dup_share=0.1),
            workers=2,
            chat_docs=6,
            chat_turns=40,
            ckpt_dim=256,
        ),
    )
}


def make_vocab(rng: random.Random, size: int) -> list[str]:
    """``size`` distinct lowercase pseudo-words of two to four syllables.

    The syllable count cycles with the word's rank, so the frequent words
    have the same lengths under every seed and so does the text's size.
    """
    consonants = "bdfgklmnprstvz"
    vowels = "aeiou"
    words: list[str] = []
    seen: set[str] = set()
    while len(words) < size:
        syllables = 2 + len(words) % 3
        word = "".join(rng.choice(consonants) + rng.choice(vowels) for _ in range(syllables))
        if word not in seen:
            seen.add(word)
            words.append(word)
    return words


class TextGen:
    """Zipf-weighted sentences over a synthetic vocabulary."""

    def __init__(self, rng: random.Random, shape: Shape):
        self.rng = rng
        self.shape = shape
        self.words = make_vocab(rng, shape.vocab) + list(PUNCTUATION)
        self.weights = [1.0 / (rank + 1) for rank in range(len(self.words))]

    def sentences(self, count: int) -> list[list[str]]:
        """``count`` sentences whose lengths spread evenly over L +- jitter.

        The lengths are stratified, not drawn, so that every seed has the
        same mean length and the work per run does not drift with the seed.
        """
        jitter = self.shape.length_jitter
        lengths = [max(1, self.shape.length + round(-jitter + 2 * jitter * (i + 0.5) / count))
                   for i in range(count)]
        self.rng.shuffle(lengths)
        return [self.rng.choices(self.words, self.weights, k=n) for n in lengths]

    def perturb(self, words: list[str]) -> list[str]:
        out = []
        for word in words:
            roll = self.rng.random()
            if roll < self.shape.perturb:
                out.append(self.rng.choices(self.words, self.weights)[0])
            elif roll < self.shape.perturb * 1.1:
                continue  # deletion
            else:
                out.append(word)
        return out or [words[0]]


def _write_lines(path: Path, lines: list[str]) -> None:
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")


def _tsf_bytes(tensors: dict[str, np.ndarray]) -> bytes:
    """TSF container: magic line, one header line per tensor, blank line, payload."""
    header = [b"TSF1\n"]
    payload = []
    for name, arr in tensors.items():
        dims = ",".join(str(d) for d in arr.shape)
        header.append(f"{name}\tf32\t{dims}\n".encode("utf-8"))
        payload.append(np.ascontiguousarray(arr, dtype="<f4").tobytes())
    header.append(b"\n")
    return b"".join(header) + b"".join(payload)


def generate(workload: Workload, seed: int, data: Path) -> None:
    """Write the workload's input files under ``data``; same seed, same bytes."""
    data.mkdir(parents=True, exist_ok=True)
    rng = random.Random(f"{workload.name}:{seed}")
    gen = TextGen(rng, workload.shape)
    m, n = workload.shape.segments, workload.shape.candidates
    if workload.kind == "mbr":
        sources = [" ".join(words) for words in gen.sentences(m)]
        columns: list[list[str]] = [[] for _ in range(n)]
        dups = round(workload.shape.dup_share * n)
        for base in gen.sentences(m):
            row = [" ".join(gen.perturb(base)) for _ in range(n)]
            for pos in rng.sample(range(1, n), dups):
                row[pos] = row[rng.randrange(pos)]
            for column, cand in zip(columns, row):
                column.append(cand)
        _write_lines(data / "src.txt", sources)
        for k, column in enumerate(columns):
            _write_lines(data / f"cand{k:02d}.txt", column)
        return

    refs = gen.sentences(m)
    hyps = [gen.perturb(ref) for ref in refs]
    sources = gen.sentences(m)
    for i in rng.sample(range(1, m), round(workload.shape.dup_share * m)):
        j = rng.randrange(i)
        refs[i], hyps[i], sources[i] = refs[j], hyps[j], sources[j]
    _write_lines(data / "ref.txt", [" ".join(w) for w in refs])
    _write_lines(data / "hyp.txt", [" ".join(w) for w in hyps])
    _write_lines(data / "src.txt", [" ".join(w) for w in sources])
    _write_lines(data / "bt.txt", [" ".join(gen.perturb(w)) for w in sources])

    turns = []
    langs = ("English", "German")
    for d in range(workload.chat_docs):
        for t, (ref, source) in enumerate(zip(gen.sentences(workload.chat_turns),
                                              gen.sentences(workload.chat_turns))):
            src_lang, tgt_lang = langs if t % 2 == 0 else langs[::-1]
            turns.append({
                "doc_id": f"doc{d}",
                "turn_index": t,
                "speaker": ("customer", "agent")[t % 2],
                "src_lang": src_lang,
                "tgt_lang": tgt_lang,
                "source": " ".join(source),
                "mt": " ".join(gen.perturb(ref)),
                "reference": " ".join(ref),
            })
    _write_lines(data / "chat.jsonl", [json.dumps(t) for t in turns])

    nrng = np.random.default_rng(rng.getrandbits(63))
    dim, rank = workload.ckpt_dim, workload.lora_rank
    names = ("enc.w", "dec.w", "emb.w", "out.w")
    for k in range(workload.ckpt_count):
        tensors = {name: nrng.normal(size=(dim, dim)).astype(np.float32) for name in names}
        (data / f"ckpt{k}.tsf").write_bytes(_tsf_bytes(tensors))
    adapter = {}
    for name in names[:2]:
        adapter[f"{name}.lora_A"] = nrng.normal(size=(rank, dim)).astype(np.float32)
        adapter[f"{name}.lora_B"] = nrng.normal(size=(dim, rank)).astype(np.float32)
    (data / "adapter.tsf").write_bytes(_tsf_bytes(adapter))


def steps(workload: Workload, data: Path, out: Path, scorer: Path) -> list[dict]:
    """The workload's CLI invocations, in order.

    Each step is ``{"argv": [...], "stdout": name or None}``; outputs go
    under ``out``.  ``scorer`` is the benchmark-owned scorer script for
    the external utility.
    """
    d, o = str(data), str(out)
    if workload.kind == "mbr":
        argv = ["mbr", "--src", f"{d}/src.txt"]
        for k in range(workload.shape.candidates):
            argv += ["--cand", f"{d}/cand{k:02d}.txt"]
        argv += ["--utility", workload.utility, "--workers", str(workload.workers),
                 "--out", f"{o}/selected.txt", "--matrix-out", f"{o}/matrix.tsv"]
        if workload.utility == "external":
            argv += ["--external-cmd", f"{sys.executable} {scorer}",
                     "--bridge-batch-size", str(workload.batch_size)]
        return [{"argv": argv, "stdout": None}]

    runs = []
    for metric, sentence in EVAL_STEPS:
        argv = ["eval", "--hyp", f"{d}/hyp.txt", "--ref", f"{d}/ref.txt",
                "--metric", metric, "--workers", str(workload.workers)]
        name = f"eval.{metric}.corpus.txt"
        if sentence:
            argv.append("--sentence-level")
            name = f"eval.{metric}.sentence.txt"
        runs.append({"argv": argv, "stdout": name})
    runs += [
        {"argv": ["build-st", "--src", f"{d}/src.txt", "--mt", f"{d}/hyp.txt",
                  "--out-prefix", f"{o}/st", "--dedup"], "stdout": None},
        {"argv": ["build-bt", "--tgt", f"{d}/ref.txt", "--bt", f"{d}/bt.txt",
                  "--out-prefix", f"{o}/bt", "--tag", "<BT>"], "stdout": None},
        {"argv": ["merge", "--inputs", f"{o}/st", f"{o}/bt",
                  "--out-prefix", f"{o}/mix", "--seed", "13"], "stdout": None},
        {"argv": ["avg", "--inputs",
                  *[f"{d}/ckpt{k}.tsf" for k in range(workload.ckpt_count)],
                  "--out", f"{o}/avg.tsf"], "stdout": None},
        {"argv": ["lora-merge", "--base", f"{o}/avg.tsf", "--adapter", f"{d}/adapter.tsf",
                  "--alpha", str(LORA_ALPHA), "--out", f"{o}/merged.tsf"], "stdout": None},
    ]
    for mode in PROMPT_MODES:
        runs.append({"argv": ["prompts", "--mode", mode, "--doc", f"{d}/chat.jsonl",
                              "--out", f"{o}/prompts.{mode}.jsonl"], "stdout": None})
    return runs
