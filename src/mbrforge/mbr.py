"""Minimum-Bayes-risk selection over aligned multi-system candidates.

For every source segment, each of the n candidate translations is scored
as a hypothesis against every candidate treated as a pseudo-reference,
giving an n x n utility matrix; the candidate with the highest mean
utility (lowest expected risk) wins.  Utilities are either the native
BLEU/chrF metrics or an external scorer reached through the bridge.
"""

from __future__ import annotations

import math
import signal
from contextlib import suppress
from functools import partial
from pathlib import Path
from typing import TYPE_CHECKING, Callable, NamedTuple, Sequence

from . import metrics
from .errors import DataError, located, validated
from .textio import read_aligned, require_aligned

if TYPE_CHECKING:
    from .bridge import BridgeConfig

# A batch scorer maps (src, mt, ref) triples to one float per triple.
BatchScorer = Callable[[Sequence[tuple[str, str, str]]], list[float]]

UTILITY_KINDS = ("native-bleu", "native-chrf", "external")


@validated
class CandidateSet(NamedTuple):
    """m aligned source segments by n system outputs."""

    sources: tuple[str, ...]
    systems: tuple[str, ...]
    candidates: tuple[tuple[str, ...], ...]  # candidates[segment][system]

    def _check(self) -> None:
        require_aligned({"sources": len(self.sources), "candidates": len(self.candidates)})
        n = len(self.systems)
        if n == 0:
            raise DataError("a candidate set needs at least one system")
        for i, row in enumerate(self.candidates):
            if len(row) != n:
                raise DataError(
                    f"candidate row {i} has {len(row)} entries, expected {n}"
                )

    @property
    def num_segments(self) -> int:
        return len(self.sources)

    @property
    def num_systems(self) -> int:
        return len(self.systems)


@validated
class UtilitySpec(NamedTuple):
    """Which pairwise utility to use and how.

    ``include_self`` keeps the candidate itself in its own reference set
    when averaging (the literal all-candidates loop); switch it off for
    the exclude-self variant.  ``bridge`` says how to reach the scorer
    process of an external utility.
    """

    kind: str = "native-chrf"
    include_self: bool = True
    bridge: BridgeConfig | None = None

    def _check(self) -> None:
        if self.kind not in UTILITY_KINDS:
            raise DataError(f"unknown utility kind: {self.kind!r}")
        if self.kind == "external" and self.bridge is None:
            raise DataError("external utility requires a bridge config")


class UtilityMatrix(NamedTuple):
    """Pairwise utilities for one segment.

    ``values[c][r]`` scores candidate c as hypothesis against candidate r
    as reference.  ``row_means`` averages each row over the included
    reference set; ``best_index`` is the argmax with lowest-index
    tie-break.
    """

    segment_index: int
    values: tuple[tuple[float, ...], ...]
    row_means: tuple[float, ...]
    best_index: int
    best_mean: float


class MbrSelection(NamedTuple):
    chosen: tuple[str, ...]
    indices: tuple[int, ...]
    expected_utilities: tuple[float, ...]


def load_candidates(
    candidate_paths: Sequence[str | Path], source_path: str | Path
) -> CandidateSet:
    """Assemble the candidate grid from one file per system plus the source.

    All files must have the same line count; the grid follows path order.
    """
    if len(candidate_paths) < 2:
        raise DataError(
            f"need at least 2 candidate files for selection, got {len(candidate_paths)}"
        )
    sources, *columns = read_aligned(source_path, *candidate_paths)
    return CandidateSet(
        sources=tuple(sources),
        systems=tuple(str(p) for p in candidate_paths),
        candidates=tuple(zip(*columns)),
    )


def make_scorer(spec: UtilitySpec) -> BatchScorer:
    """Build a batch scorer for a utility spec.

    Native BLEU is add-k smoothed sentence BLEU on punctuation-split
    tokens; native chrF is sentence chrF.  Both score the call's pairs
    through ``metrics.pair_stats`` with the fixed parameters of
    ``metrics``.  External scorers own a child process; call
    ``close_scorer`` when done.
    """
    if spec.kind != "external":
        if spec.kind == "native-bleu":
            features = lambda text: metrics.word_ngram_counts(metrics.tokenize(text))
            score_stats = partial(metrics.score_from_bleu_stats, smoothing="add-k")
        else:
            features, score_stats = metrics.char_ngram_counts, metrics.score_from_chrf_stats

        def score_native(triples: Sequence[tuple[str, str, str]]) -> list[float]:
            pairs = [(mt, ref) for _src, mt, ref in triples]
            return [score_stats(stats).value for stats in metrics.pair_stats(pairs, features)]

        return score_native

    from .bridge import BridgeClient, ScoreRequest  # only external utilities need it

    client = BridgeClient(spec.bridge)

    def score_external(triples: Sequence[tuple[str, str, str]]) -> list[float]:
        requests = [ScoreRequest(src, mt, ref) for src, mt, ref in triples]
        return client.score(requests)

    score_external.client = client  # type: ignore[attr-defined]
    return score_external


def close_scorer(scorer: BatchScorer) -> None:
    client = getattr(scorer, "client", None)
    if client is not None:
        client.close()


def best_index(row_means: Sequence[float]) -> int:
    """Argmax with lowest-index tie-break."""
    return max(range(len(row_means)), key=lambda i: (row_means[i], -i))


def utility_matrix(
    cset: CandidateSet,
    segment_index: int,
    spec: UtilitySpec,
    scorer: BatchScorer,
) -> UtilityMatrix:
    """Score all candidate pairs of one segment and pick the best row.

    Each distinct candidate string is scored once: ``scorer`` gets the
    segment's source with each of the d x d pairs of the d distinct strings
    (in first-occurrence order) and must return d * d finite scores, which
    are expanded back into the full n x n grid.
    """
    if not 0 <= segment_index < cset.num_segments:
        raise DataError(
            f"segment index {segment_index} out of range 0..{cset.num_segments - 1}"
        )
    row = cset.candidates[segment_index]
    src = cset.sources[segment_index]
    n = len(row)
    if not spec.include_self and n < 2:
        raise DataError("exclude-self selection needs at least 2 candidates")
    slot: dict[str, int] = {}
    for text in row:
        slot.setdefault(text, len(slot))
    distinct = list(slot)
    d = len(distinct)
    scores = scorer([(src, mt, ref) for mt in distinct for ref in distinct])
    if len(scores) != d * d:
        raise DataError(f"scorer returned {len(scores)} scores for {d * d} pairs")
    if not all(map(math.isfinite, scores)):
        raise DataError("scorer returned a score that is not a finite number")
    offsets = [slot[text] for text in row]
    values = tuple(tuple(scores[i * d + j] for j in offsets) for i in offsets)
    if spec.include_self:
        means = [sum(r) / n for r in values]
    else:
        means = [sum(r[:c] + r[c + 1 :]) / (n - 1) for c, r in enumerate(values)]
    best = best_index(means)
    return UtilityMatrix(
        segment_index=segment_index,
        values=values,
        row_means=tuple(means),
        best_index=best,
        best_mean=means[best],
    )


def _score_run(cset, spec, factory, segments: range, stopped) -> list[UtilityMatrix]:
    """Score a run of segments with one scorer, made at its first; stop once ``stopped()``."""
    matrices, scorer = [], None
    try:
        for index in segments:
            if stopped is not None and stopped():
                break
            scorer = factory() if scorer is None else scorer
            with located(f"segment {index}"):
                matrices.append(utility_matrix(cset, index, spec, scorer))
        return matrices
    finally:
        close_scorer(scorer)  # in the run, so a close-time error fails it


def _forked_run(cset, spec, factory, segments: range, inherited, end) -> None:
    """Score a run in a forked process: send its matrices, or its error, on ``end``."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # an interrupt is left to the caller
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    for caller_end in inherited:  # so the caller's close alone ends each pipe
        caller_end.close()
    try:
        result = _score_run(cset, spec, factory, segments, end.poll)  # the caller never writes
    except Exception as exc:
        result = exc
    with suppress(BrokenPipeError):  # the caller has stopped reading
        end.send(result)


def _answer(receive, process, segments: range):
    """A forked run's matrices or error; ``ChildProcessError`` if its pipe ends without one."""
    try:
        return receive.recv()
    except (EOFError, OSError):
        process.join()
        code = process.exitcode
        how = signal.strsignal(-code) if code < 0 else f"exit status {code}"
        raise ChildProcessError(
            f"segments {segments.start}..{segments.stop - 1}: "
            f"their process ended without an answer ({how})"
        ) from None


def segment_matrices(
    cset: CandidateSet,
    spec: UtilitySpec,
    workers: int = 1,
    scorer_factory: Callable[[], BatchScorer] | None = None,
) -> list[UtilityMatrix]:
    """Utility matrices for every segment, in segment order.

    The segments are split into ``min(workers, num_segments)`` contiguous
    runs, whatever the utility, and each run makes one scorer from
    ``scorer_factory`` (default ``make_scorer(spec)``) at its first segment
    and closes it.  One run is scored in the calling process.  More are
    forked from it (so no other thread may run in it), one process per run,
    which inherits its job, so only the matrices are pickled.  A duplex pipe
    made at its fork is a run's only link to the caller: the run closes the
    caller's ends it inherited, stops before its next segment once the
    caller's end closes (the caller fails, is interrupted, cannot fork or
    dies), and sends its matrices, or its error, on its own end.  Answers are
    taken in segment order, so the output never depends on the schedule, but
    a run whose process dies without one raises ``ChildProcessError`` at once.
    """
    if workers < 1:
        raise DataError(f"workers must be at least 1, got {workers}")
    factory = scorer_factory if scorer_factory is not None else (lambda: make_scorer(spec))
    m = cset.num_segments
    runs = min(workers, m)
    if runs <= 1:
        return _score_run(cset, spec, factory, range(m), None)
    import multiprocessing  # only a fan-out loads it
    from multiprocessing.connection import wait

    context = multiprocessing.get_context("fork")
    ends, started = [], []  # the caller's pipe ends; (end, process, segments) per run
    try:
        for k in range(runs):
            segments = range(m * k // runs, m * (k + 1) // runs)
            end, theirs = context.Pipe()
            ends.append(end)
            args = (cset, spec, factory, segments, ends, theirs)
            process = context.Process(target=_forked_run, args=args, daemon=True)
            with theirs:  # closed once forked, so the pipe ends when its run does
                process.start()
            started.append((end, process, segments))
        matrices, answers = [], {}
        for k in range(runs):
            while k not in answers:  # a later run that answers or dies meanwhile is read at once
                unread = {end: j for j, end in enumerate(ends) if j not in answers}
                for j in map(unread.get, wait(list(unread))):
                    answers[j] = _answer(*started[j])  # so a dead run raises here
            if isinstance(answers[k], Exception):
                raise answers[k]
            matrices += answers[k]
        return matrices
    finally:  # closing its end stops each run before its next segment
        for end in ends:
            end.close()
        for _, process, _ in started:  # joined, not terminated: each run closes its scorer first
            process.join()
            process.close()


def selection_from_matrices(
    cset: CandidateSet, matrices: Sequence[UtilityMatrix]
) -> MbrSelection:
    return MbrSelection(
        chosen=tuple(cset.candidates[m.segment_index][m.best_index] for m in matrices),
        indices=tuple(m.best_index for m in matrices),
        expected_utilities=tuple(m.best_mean for m in matrices),
    )


def mbr_decode(
    cset: CandidateSet,
    spec: UtilitySpec,
    workers: int = 1,
    scorer_factory: Callable[[], BatchScorer] | None = None,
) -> MbrSelection:
    """Select, per segment, the candidate with maximum mean utility."""
    matrices = segment_matrices(cset, spec, workers=workers, scorer_factory=scorer_factory)
    return selection_from_matrices(cset, matrices)


def format_matrix_dump(matrices: Sequence[UtilityMatrix]) -> str:
    """Tab-separated dump: segment, candidate, n utilities, row mean.

    Reals are rendered with 6 decimal places.
    """
    return "".join(
        "\t".join([str(matrix.segment_index), str(c), *(f"{v:.6f}" for v in row), f"{mean:.6f}"])
        + "\n"
        for matrix in matrices
        for c, (row, mean) in enumerate(zip(matrix.values, matrix.row_means))
    )
