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
from pathlib import Path
from typing import Iterable, NamedTuple, Sequence

from .errors import DataError, validated
from .textio import read_aligned, require_aligned, segment_lines, staged_outputs

PROVENANCE_TAGS = ("genuine", "self-train", "back-translate")

DEFAULT_BT_TAG = "<BT>"


@validated
class FilterConfig(NamedTuple):
    max_length_ratio: float = 9.0
    min_tokens: int = 1
    max_tokens: int = 250
    dedup: bool = False

    def _check(self) -> None:
        if not self.max_length_ratio > 0:  # also rejects NaN
            raise DataError(f"max_length_ratio must be > 0, got {self.max_length_ratio}")
        if self.min_tokens < 0:
            raise DataError("min_tokens must be >= 0")
        if self.min_tokens > self.max_tokens:
            raise DataError("min_tokens must not exceed max_tokens")


class ParallelCorpus:
    """Sentence pairs with one provenance tag each; ``len()`` counts pairs.

    An immutable value with ``__slots__`` rather than a named tuple, whose
    length would be its field count.
    """

    __slots__ = ("pairs", "provenance")

    def __init__(
        self, pairs: tuple[tuple[str, str], ...], provenance: tuple[str, ...]
    ) -> None:
        require_aligned({"pairs": len(pairs), "provenance": len(provenance)})
        for index, pair in enumerate(pairs):
            sides = pair if isinstance(pair, tuple) else ()
            if len(sides) != 2 or not all(isinstance(side, str) for side in sides):
                raise DataError(f"pair {index} must be a tuple of two strings, got {pair!r}")
        for tag in provenance:
            if tag not in PROVENANCE_TAGS:
                raise DataError(f"unknown provenance tag: {tag!r}")
        object.__setattr__(self, "pairs", pairs)
        object.__setattr__(self, "provenance", provenance)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        # Copies and unpickling rebuild through the constructor, which checks them.
        return self.__class__, (self.pairs, self.provenance)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.pairs, self.provenance) == (other.pairs, other.provenance)

    def __hash__(self) -> int:
        return hash((self.pairs, self.provenance))

    def __repr__(self) -> str:
        return f"ParallelCorpus(pairs={self.pairs!r}, provenance={self.provenance!r})"

    def __len__(self) -> int:
        return len(self.pairs)

    @property
    def sources(self) -> tuple[str, ...]:
        return tuple(src for src, _tgt in self.pairs)

    @property
    def targets(self) -> tuple[str, ...]:
        return tuple(tgt for _src, tgt in self.pairs)


def apply_filter(
    pairs: Iterable[tuple[str, str]], config: FilterConfig
) -> list[tuple[str, str]]:
    """Keep pairs passing every rule; idempotent by construction."""
    kept: list[tuple[str, str]] = []
    seen: set[tuple[str, str]] = set()
    low = max(config.min_tokens, 1)  # an empty side always drops the pair
    for src, tgt in pairs:
        src_tokens = len(src.split())
        tgt_tokens = len(tgt.split())
        if not (low <= src_tokens <= config.max_tokens and low <= tgt_tokens <= config.max_tokens):
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
    require_aligned({"sources": len(sources), "translations": len(translations)})
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
    require_aligned({"targets": len(targets), "back_translations": len(back_translations)})
    if tag is not None and (tag == "" or any(ch.isspace() for ch in tag)):
        raise DataError(f"tag must be a single non-empty token, got {tag!r}")
    prefix = "" if tag is None else tag + " "
    pairs = [
        (prefix + src, tgt) for src, tgt in apply_filter(zip(back_translations, targets), config)
    ]
    return ParallelCorpus(tuple(pairs), ("back-translate",) * len(pairs))


def merge_corpora(
    corpora: Sequence[ParallelCorpus], shuffle_seed: int | None = None
) -> ParallelCorpus:
    """Concatenate corpora, optionally shuffling with a fixed PRNG.

    The shuffle uses Python's Mersenne-Twister ``random.Random(seed)``
    Fisher-Yates, so a given seed always yields the same order.  Each pair
    moves together with its provenance tag.
    """
    tagged = [item for corpus in corpora for item in zip(corpus.pairs, corpus.provenance)]
    if shuffle_seed is not None:
        random.Random(shuffle_seed).shuffle(tagged)
    return ParallelCorpus(tuple(pair for pair, _ in tagged), tuple(tag for _, tag in tagged))


def _corpus_files(prefix: str | Path) -> tuple[Path, ...]:
    """The <prefix>.src, <prefix>.tgt and <prefix>.meta files of a corpus, suffixed as given."""
    return tuple(Path(f"{prefix}{ext}") for ext in (".src", ".tgt", ".meta"))


def write_corpus(
    corpus: ParallelCorpus, prefix: str | Path, write_meta: bool = True
) -> list[Path]:
    """Write <prefix>.src / <prefix>.tgt (+ optional <prefix>.meta).

    They are replaced together, except the part-way states README lists.
    Without ``write_meta`` a stale <prefix>.meta is removed once the others
    are in place, so that ``read_corpus`` reads the new pairs as "genuine".
    """
    src_path, tgt_path, meta_path = _corpus_files(prefix)
    paths = [src_path, tgt_path, meta_path] if write_meta else [src_path, tgt_path]
    with staged_outputs(paths, remove=() if write_meta else (meta_path,)) as files:
        for out, column in zip(files, (corpus.sources, corpus.targets, corpus.provenance)):
            out.write(segment_lines(column))
    return paths


def read_corpus(prefix: str | Path) -> ParallelCorpus:
    """Read a corpus written by write_corpus; missing .meta means all "genuine"."""
    src_path, tgt_path, meta_path = _corpus_files(prefix)
    files = [src_path, tgt_path] + ([meta_path] if meta_path.exists() else [])
    sources, targets, *meta = read_aligned(*files)
    provenance = meta[0] if meta else ["genuine"] * len(sources)
    return ParallelCorpus(tuple(zip(sources, targets)), tuple(provenance))
