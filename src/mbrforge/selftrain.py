"""Synthetic parallel-corpus construction.

Self-training pairs keep the monolingual text on the source side and pair
it with a forward translation (typically the winner of candidate
selection).  Back-translation pairs go the other way: the synthetic side
is the source, optionally marked with a tag token.  Both builders share
one filter: empty sides always drop the pair, token-count bounds and a
bidirectional length-ratio cap are configurable, and exact-duplicate
removal keeps the first occurrence.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

from .errors import AlignmentError, DataError
from .textio import read_segments, write_segments

PROVENANCE_TAGS = ("genuine", "self-train", "back-translate")

DEFAULT_BT_TAG = "<BT>"


@dataclass(frozen=True)
class FilterConfig:
    max_length_ratio: float = 9.0
    min_tokens: int = 1
    max_tokens: int = 250
    dedup: bool = False

    def __post_init__(self) -> None:
        if not self.max_length_ratio > 0:  # also rejects NaN
            raise DataError(f"max_length_ratio must be > 0, got {self.max_length_ratio}")
        if self.min_tokens < 0:
            raise DataError("min_tokens must be >= 0")
        if self.min_tokens > self.max_tokens:
            raise DataError("min_tokens must not exceed max_tokens")


@dataclass(frozen=True)
class ParallelCorpus:
    pairs: tuple[tuple[str, str], ...]
    provenance: tuple[str, ...]

    def __post_init__(self) -> None:
        if len(self.pairs) != len(self.provenance):
            raise DataError("every pair needs exactly one provenance tag")
        for tag in self.provenance:
            if tag not in PROVENANCE_TAGS:
                raise DataError(f"unknown provenance tag: {tag!r}")

    def __len__(self) -> int:
        return len(self.pairs)

    @property
    def sources(self) -> tuple[str, ...]:
        return tuple(src for src, _tgt in self.pairs)

    @property
    def targets(self) -> tuple[str, ...]:
        return tuple(tgt for _src, tgt in self.pairs)


def _token_count(segment: str) -> int:
    return len(segment.split())


def apply_filter(
    pairs: Iterable[tuple[str, str]], config: FilterConfig
) -> list[tuple[str, str]]:
    """Keep pairs passing every rule; idempotent by construction."""
    kept: list[tuple[str, str]] = []
    seen: set[tuple[str, str]] = set()
    for src, tgt in pairs:
        src_tokens = _token_count(src)
        tgt_tokens = _token_count(tgt)
        if src_tokens == 0 or tgt_tokens == 0:
            continue
        if src_tokens < config.min_tokens or src_tokens > config.max_tokens:
            continue
        if tgt_tokens < config.min_tokens or tgt_tokens > config.max_tokens:
            continue
        ratio = max(src_tokens / tgt_tokens, tgt_tokens / src_tokens)
        if ratio > config.max_length_ratio:
            continue
        if config.dedup:
            if (src, tgt) in seen:
                continue
            seen.add((src, tgt))
        kept.append((src, tgt))
    return kept


def build_st_corpus(
    sources: Sequence[str],
    translations: Sequence[str],
    config: FilterConfig = FilterConfig(),
) -> ParallelCorpus:
    """Pairs oriented source -> forward translation, tagged self-train.

    Feeding the chosen lines of an MbrSelection as ``translations`` turns
    the selection winners into distillation data.
    """
    if len(sources) != len(translations):
        raise AlignmentError(
            f"inputs are not aligned ({len(sources)} sources, "
            f"{len(translations)} translations)"
        )
    pairs = apply_filter(zip(sources, translations), config)
    return ParallelCorpus(tuple(pairs), ("self-train",) * len(pairs))


def build_bt_corpus(
    targets: Sequence[str],
    back_translations: Sequence[str],
    tag: str | None = None,
    config: FilterConfig = FilterConfig(),
) -> ParallelCorpus:
    """Pairs oriented back-translation -> target; synthetic side is the source.

    The filter sees the raw back-translation; the tag (plus one space) is
    prepended afterwards, so it never influences length rules and is
    stripped cleanly by removing the first token.
    """
    if len(targets) != len(back_translations):
        raise AlignmentError(
            f"inputs are not aligned ({len(targets)} targets, "
            f"{len(back_translations)} back-translations)"
        )
    if tag is not None and (tag == "" or any(ch.isspace() for ch in tag)):
        raise DataError(f"tag must be a single non-empty token, got {tag!r}")
    pairs = apply_filter(zip(back_translations, targets), config)
    if tag is not None:
        pairs = [(f"{tag} {src}", tgt) for src, tgt in pairs]
    return ParallelCorpus(tuple(pairs), ("back-translate",) * len(pairs))


def merge_corpora(
    corpora: Sequence[ParallelCorpus], shuffle_seed: int | None = None
) -> ParallelCorpus:
    """Concatenate corpora, optionally shuffling with a fixed PRNG.

    The shuffle uses Python's Mersenne-Twister ``random.Random(seed)``
    Fisher-Yates, so a given seed always yields the same order.
    """
    pairs: list[tuple[str, str]] = []
    provenance: list[str] = []
    for corpus in corpora:
        pairs.extend(corpus.pairs)
        provenance.extend(corpus.provenance)
    if shuffle_seed is not None:
        order = list(range(len(pairs)))
        random.Random(shuffle_seed).shuffle(order)
        pairs = [pairs[i] for i in order]
        provenance = [provenance[i] for i in order]
    return ParallelCorpus(tuple(pairs), tuple(provenance))


def write_corpus(
    corpus: ParallelCorpus, prefix: str | Path, write_meta: bool = True
) -> list[Path]:
    """Write <prefix>.src / <prefix>.tgt (+ optional <prefix>.meta)."""
    prefix = Path(prefix)
    src_path = prefix.with_name(prefix.name + ".src")
    tgt_path = prefix.with_name(prefix.name + ".tgt")
    write_segments(src_path, list(corpus.sources))
    write_segments(tgt_path, list(corpus.targets))
    written = [src_path, tgt_path]
    if write_meta:
        meta_path = prefix.with_name(prefix.name + ".meta")
        write_segments(meta_path, list(corpus.provenance))
        written.append(meta_path)
    return written


def read_corpus(prefix: str | Path) -> ParallelCorpus:
    """Read a corpus written by write_corpus; missing .meta means all "genuine"."""
    prefix = Path(prefix)
    sources = read_segments(prefix.with_name(prefix.name + ".src"))
    targets = read_segments(prefix.with_name(prefix.name + ".tgt"))
    if len(sources) != len(targets):
        raise AlignmentError(
            f"corpus {prefix} is not aligned ({len(sources)} source lines, "
            f"{len(targets)} target lines)"
        )
    meta_path = prefix.with_name(prefix.name + ".meta")
    if meta_path.exists():
        provenance = read_segments(meta_path)
        if len(provenance) != len(sources):
            raise AlignmentError(
                f"corpus {prefix} meta is not aligned ({len(provenance)} tags, "
                f"{len(sources)} pairs)"
            )
    else:
        provenance = ["genuine"] * len(sources)
    return ParallelCorpus(tuple(zip(sources, targets)), tuple(provenance))
