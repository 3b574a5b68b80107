"""Native lexical translation metrics: BLEU and chrF.

Both metrics are self-contained (no external scoring harness) and are used
two ways: as pairwise utilities during candidate selection, and as the
evaluation commands of the CLI.  Scores live on a 0..100 scale.  Their
parameters are fixed, and defined once, by the module constants below.

BLEU here is the classic recipe: clipped modified n-gram precisions of
orders 1..BLEU_ORDER combined by a uniform-weight geometric mean and an
exponential brevity penalty.  Orders for which the hypothesis has no
n-grams at all (it is shorter than the order) are dropped from the mean,
which keeps the identity property metric(x, x) = 100 for short segments.
Optional add-k smoothing (ADD_K added to numerator and denominator)
rescues zero-match orders at the sentence level.

chrF is the character n-gram F-beta score (beta = CHRF_BETA) averaged
over orders 1..CHRF_ORDER, with whitespace removed before n-gram
extraction.  Orders where neither side has any n-grams are excluded from
the average; two empty segments therefore score a vacuous 100.

Both metrics share one statistics format, ``NgramStats``: per n-gram
order, the tuple ``(hyp_total, ref_total, matched)``; corpus scores sum it
per order.  One pair loop, ``pair_stats``, builds it for single-reference
pairs: sentence chrF, corpus chrF and BLEU and both native MBR utilities
call it, and it counts each distinct string and each unordered pair once
per call.  ``bleu_stats`` is the multi-reference statistic of sentence
BLEU.  BLEU's hypothesis and reference lengths are the unigram totals.
``chrf_value`` and ``bleu_value`` turn statistics into floats; only the
four public metric functions wrap them in a ``MetricScore``, and native
MBR scores the floats alone.

One builder, ``ngram_counts``, counts the n-grams of both metrics: each
order is the order below joined with the next unit by ``map``, in C, over
characters for chrF and one-token tuples for BLEU.  It yields the same
grams as slicing position by position, so every statistic is the same
integer and every score is bit-identical.
"""

from __future__ import annotations

import math
import operator
import unicodedata
from collections import Counter
from functools import reduce
from typing import Any, Callable, NamedTuple, Sequence

from .errors import validated
from .textio import require_aligned

TokenSequence = list[str]
NgramCounts = tuple[Counter, ...]  # index k holds the (k+1)-gram counts
NgramStats = list[tuple[int, int, int]]  # (hyp_total, ref_total, matched) per order

BLEU_ORDER = 4  # word n-gram orders 1..BLEU_ORDER
ADD_K = 0.1  # added to matches and totals under add-k smoothing
CHRF_ORDER = 6  # character n-gram orders 1..CHRF_ORDER
CHRF_BETA = 2.0  # recall weight of the F-score


def tokenize(text: str, scheme: str = "punctuation-split") -> TokenSequence:
    """Split a segment into tokens.

    ``whitespace`` splits on runs of whitespace.  ``punctuation-split``
    additionally makes every punctuation character its own token.
    Deterministic; empty text yields an empty sequence.
    """
    if scheme == "whitespace":
        return text.split()
    if scheme != "punctuation-split":
        raise ValueError(f"unknown tokenize scheme: {scheme!r}")
    tokens: list[str] = []
    for word in text.split():
        if word.isalnum():  # no punctuation character is alphanumeric
            tokens.append(word)
            continue
        current: list[str] = []
        for ch in word:
            if unicodedata.category(ch).startswith("P"):
                if current:
                    tokens.append("".join(current))
                    current = []
                tokens.append(ch)
            else:
                current.append(ch)
        if current:
            tokens.append("".join(current))
    return tokens


def ngram_counts(units: Sequence, max_order: int) -> NgramCounts:
    """N-gram counts of orders 1..max_order; order k+1 is order k plus the next unit."""
    if max_order < 1:
        raise ValueError("n-gram order must be >= 1")
    counts = [Counter(units)]
    grams = units
    for k in range(1, max_order):
        grams = list(map(operator.add, grams, units[k:]))
        counts.append(Counter(grams))
    return tuple(counts)


@validated
class MetricScore(NamedTuple):
    """A 0..100 score; ``brevity_penalty`` is 1.0 for chrF."""

    value: float
    brevity_penalty: float = 1.0

    def _check(self) -> None:
        if not 0.0 <= self.value <= 100.0:
            raise ValueError(f"metric value out of range: {self.value}")


def _clipped_matches(a: Counter, b: Counter) -> int:
    """Size of the multiset intersection, ``sum((a & b).values())``.

    Walks the smaller Counter and looks each gram up in the other, so no
    intersection Counter is built.
    """
    if len(a) > len(b):
        a, b = b, a
    get = b.get
    matched = 0
    for gram, count in a.items():
        other = get(gram)
        if other:
            matched += count if count < other else other
    return matched


def word_ngram_counts(tokens: Sequence[str]) -> NgramCounts:
    """Word n-gram counts of one segment for orders 1..BLEU_ORDER.

    Built once per segment; BLEU statistics for any pairing follow from
    these counts alone.
    """
    return ngram_counts(list(zip(tokens)), BLEU_ORDER)  # one-token tuples


def ngram_totals(counts: NgramCounts) -> tuple[int, ...]:
    """Number of n-grams of each order in one segment's counts."""
    return tuple(grams.total() for grams in counts)


def ngram_matches(a: NgramCounts, b: NgramCounts) -> tuple[int, ...]:
    """Clipped n-gram matches of each order between two segments' counts.

    Symmetric: ``ngram_matches(a, b) == ngram_matches(b, a)``.  Scoring
    (b, a) after (a, b) swaps only the totals, so the matches of a pair
    can serve both orientations.
    """
    return tuple(map(_clipped_matches, a, b))


def pair_stats(
    pairs: Sequence[tuple[Any, Any]], features: Callable[[Any], NgramCounts]
) -> list[NgramStats]:
    """Per-order statistics of each ``(hyp, ref)`` pair, in pair order.

    Each distinct string's ``features`` and totals are built once per call,
    and each unordered pair's clipped matches once: the match table is keyed
    by first-occurrence indices ``(i, j)`` with ``i <= j``, and a string's
    matches against itself are its totals.  Every distinct string's counts
    are held until the call returns, so a caller passes one segment's pairs
    (MBR) or one pair (the corpus metrics), never a whole corpus.
    """
    index: dict[Any, int] = {}
    for hyp, ref in pairs:
        index.setdefault(hyp, len(index))
        index.setdefault(ref, len(index))
    counts = list(map(features, index))
    totals = list(map(ngram_totals, counts))
    matched: dict[tuple[int, int], tuple[int, ...]] = {}
    stats = []
    for hyp, ref in pairs:
        i, j = index[hyp], index[ref]
        key = (i, j) if i <= j else (j, i)
        if key not in matched:
            matched[key] = totals[i] if i == j else ngram_matches(counts[i], counts[j])
        stats.append(list(zip(totals[i], totals[j], matched[key])))
    return stats


def corpus_stats(
    hyps: Sequence, refs: Sequence, features: Callable[[Any], NgramCounts]
) -> NgramStats:
    """``pair_stats`` of aligned segment pairs, one pair at a time, summed per order."""
    require_aligned({"hyps": len(hyps), "refs": len(refs)})
    if not hyps:
        raise ValueError("corpus must contain at least one segment")
    per_pair = [pair_stats([pair], features)[0] for pair in zip(hyps, refs)]
    return [tuple(map(sum, zip(*order))) for order in zip(*per_pair)]


def bleu_stats(hyp: Sequence[str], refs: Sequence[Sequence[str]]) -> NgramStats:
    """Word n-gram statistics of one tokenized hypothesis against its references.

    ``sentence_bleu``'s statistic.  Clipping caps each hypothesis n-gram
    count at the maximum count seen in any single reference, i.e.
    ``hyp & (ref1 | ref2 | ...)``.  The ``ref_total``s are those of the
    reference whose length is closest to the hypothesis length (shorter
    wins ties).  With one reference this is ``pair_stats``'s statistic,
    which corpus BLEU runs; clipping against the union of several is not.
    """
    if not refs:
        raise ValueError("at least one reference is required")
    hyp_counts = word_ngram_counts(hyp)
    ref_counts = [word_ngram_counts(ref) for ref in refs]
    hyp_totals = ngram_totals(hyp_counts)
    ref_totals = min(
        map(ngram_totals, ref_counts),
        key=lambda totals: (abs(totals[0] - hyp_totals[0]), totals[0]),
    )
    merged = tuple(reduce(operator.or_, grams) for grams in zip(*ref_counts))
    return list(zip(hyp_totals, ref_totals, ngram_matches(hyp_counts, merged)))


def bleu_value(stats: NgramStats, smoothing: str = "none") -> tuple[float, float]:
    """The BLEU ``(value, brevity_penalty)`` of (summed) statistics.

    The lengths are the unigram entries: ``hyp_len, ref_len, _ = stats[0]``.
    With ``smoothing="none"`` any zero precision at an order the
    hypothesis actually covers forces a 0 score; ``"add-k"`` adds
    ``ADD_K`` to match and total counts instead.
    """
    if smoothing not in ("none", "add-k"):
        raise ValueError(f"unknown smoothing: {smoothing!r}")
    hyp_len, ref_len, _ = stats[0]
    if hyp_len == 0:
        # Empty hypothesis: 0 against any real reference, vacuously perfect
        # against an empty one (keeps corpus micro-averaging total).
        return (100.0 if ref_len == 0 else 0.0), 1.0
    bp = 1.0 if hyp_len >= ref_len else math.exp(1.0 - ref_len / hyp_len)
    k = ADD_K if smoothing == "add-k" else 0  # unsmoothed stays int / int
    log_sum = 0.0
    included = 0  # at least order 1, whose total is hyp_len
    for total, _ref_total, match in stats:
        if total == 0:
            continue
        p = (match + k) / (total + k)
        if p == 0.0:  # only without smoothing
            return 0.0, bp
        log_sum += math.log(p)
        included += 1
    return min(100.0 * bp * math.exp(log_sum / included), 100.0), bp


def sentence_bleu(
    hyp: Sequence[str], refs: Sequence[Sequence[str]], smoothing: str = "none"
) -> MetricScore:
    """BLEU of one tokenized hypothesis against one or more references."""
    return MetricScore(*bleu_value(bleu_stats(hyp, refs), smoothing))


def corpus_bleu(
    hyps: Sequence[Sequence[str]],
    refs: Sequence[Sequence[str]],
    smoothing: str = "none",
) -> MetricScore:
    """Micro-averaged BLEU: counts and lengths are summed over segments.

    One reference per hypothesis; use sentence_bleu for multi-reference
    scoring.
    """
    stats = corpus_stats(list(map(tuple, hyps)), list(map(tuple, refs)), word_ngram_counts)
    return MetricScore(*bleu_value(stats, smoothing))


def char_ngram_counts(segment: str) -> NgramCounts:
    """Character n-gram counts for orders 1..CHRF_ORDER, whitespace removed."""
    return ngram_counts("".join(segment.split()), CHRF_ORDER)


def chrf_value(stats: NgramStats) -> float:
    """Per-order F-beta, then the arithmetic mean over contributing orders.

    Orders where both sides have zero n-grams are excluded; if every order
    is excluded (both sides empty) the score is a vacuous 100.
    """
    beta_sq = CHRF_BETA * CHRF_BETA
    included = []
    for hyp_total, ref_total, matched in stats:
        if hyp_total == 0 and ref_total == 0:
            continue
        precision = matched / hyp_total if hyp_total > 0 else 0.0
        recall = matched / ref_total if ref_total > 0 else 0.0
        if precision + recall == 0.0:
            f = 0.0
        else:
            f = (1 + beta_sq) * precision * recall / (beta_sq * precision + recall)
        included.append(f)
    if not included:
        return 100.0
    return min(100.0 * sum(included) / len(included), 100.0)


def sentence_chrf(hyp: str, ref: str) -> MetricScore:
    """chrF of one hypothesis segment against one reference segment."""
    return MetricScore(chrf_value(pair_stats([(hyp, ref)], char_ngram_counts)[0]))


def corpus_chrf(hyps: Sequence[str], refs: Sequence[str]) -> MetricScore:
    """Micro-averaged chrF: per-order counts summed over segments first."""
    return MetricScore(chrf_value(corpus_stats(hyps, refs, char_ngram_counts)))
