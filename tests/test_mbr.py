"""Candidate-selection tests: frozen grids, oracle agreement, workers."""

from __future__ import annotations

import os
import re
import signal
import subprocess
import sys
import textwrap
import threading
import time
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mbrforge.bridge import BridgeConfig
from mbrforge import mbr, metrics
from mbrforge.errors import AlignmentError, DataError
from mbrforge.mbr import (
    CandidateSet,
    MbrSelection,
    UtilitySpec,
    best_index,
    close_scorer,
    format_matrix_dump,
    load_candidates,
    make_scorer,
    mbr_decode,
    segment_matrices,
    selection_from_matrices,
    utility_matrix,
)
from mbrforge.metrics import tokenize
from fixtures import process_group
from oracles import oracle_bleu, oracle_chrf, oracle_mbr_row

DOUBLES = str(Path(__file__).parent / "doubles.py")

segment_st = st.text(alphabet="ab c", min_size=1, max_size=6)


@st.composite
def rows_with_duplicates(draw):
    """2..6 candidates drawn from fewer distinct strings, so one repeats."""
    pool = draw(st.lists(segment_st, min_size=1, max_size=3, unique=True))
    return draw(st.lists(st.sampled_from(pool), min_size=len(pool) + 1, max_size=6))


def single_segment(*candidates: str) -> CandidateSet:
    return CandidateSet(
        sources=("src",),
        systems=tuple(f"sys{i}" for i in range(len(candidates))),
        candidates=(tuple(candidates),),
    )


def numbered_segments(m: int) -> CandidateSet:
    """m segments of three candidates; source i is "s{i}"."""
    return CandidateSet(
        sources=tuple(f"s{i}" for i in range(m)),
        systems=("a", "b", "c"),
        candidates=tuple(
            (f"seg {i} alpha", f"seg {i} beta", f"seg {i} alpha beta") for i in range(m)
        ),
    )


def recording_factory(log: Path, inner, delay: float = 0.0):
    """A scorer factory wrapping ``inner`` whose scorers record what they do in ``log``.

    Each event is one ``pid event`` line, ``created``, ``scored SRC`` or
    ``closed``, written with one ``O_APPEND`` write, so the lines of forked
    workers never interleave and the caller reads them all.  Each scorer
    call sleeps ``delay`` seconds first.
    """

    def record(event: str) -> None:
        fd = os.open(log, os.O_WRONLY | os.O_CREAT | os.O_APPEND)
        try:
            os.write(fd, f"{os.getpid()} {event}\n".encode())
        finally:
            os.close(fd)

    def factory():
        scorer = inner()
        record("created")

        def score(triples):
            time.sleep(delay)
            scores = scorer(triples)
            record(f"scored {triples[0][0]}")
            return scores

        def close():
            record("closed")
            close_scorer(scorer)

        score.client = SimpleNamespace(close=close)
        return score

    return factory


def events(log: Path) -> list[tuple[int, str]]:
    """The ``(pid, event)`` pairs in ``log``, in order; none if there is no log."""
    lines = log.read_text().splitlines() if log.exists() else []
    return [(int(pid), event) for pid, event in (line.split(" ", 1) for line in lines)]


def recorded(log: Path, event: str) -> list[int]:
    """The pid of each ``event`` in ``log``, in order."""
    return [pid for pid, logged in events(log) if logged == event]


def constant_factory():
    return lambda triples: [1.0] * len(triples)


def exact_match_factory():
    def score(triples):
        return [100.0 if mt == ref else 0.0 for _src, mt, ref in triples]

    return score


class TestExactMatchGrid:
    """Frozen expectations for the 0/100 exact-match utility."""

    def test_include_self_means(self):
        cset = single_segment("a b", "a b", "a c")
        spec = UtilitySpec()
        matrix = utility_matrix(cset, 0, spec, scorer=exact_match_factory())
        assert matrix.values == (
            (100.0, 100.0, 0.0),
            (100.0, 100.0, 0.0),
            (0.0, 0.0, 100.0),
        )
        assert matrix.row_means == pytest.approx((200 / 3, 200 / 3, 100 / 3))
        assert matrix.best_index == 0
        assert matrix.best_mean == pytest.approx(200 / 3)

    def test_exclude_self_means(self):
        cset = single_segment("a b", "a b", "a c")
        spec = UtilitySpec(include_self=False)
        matrix = utility_matrix(cset, 0, spec, scorer=exact_match_factory())
        assert matrix.row_means == pytest.approx((50.0, 50.0, 0.0))
        assert matrix.best_index == 0

    def test_exclude_self_still_rewards_duplicates(self):
        # Two copies of "x" against one "y": each copy scores 100 through
        # its twin and 0 against "y", so the copies still win.
        cset = single_segment("x", "x", "y")
        spec = UtilitySpec(include_self=False)
        matrix = utility_matrix(cset, 0, spec, scorer=exact_match_factory())
        assert matrix.row_means == pytest.approx((50.0, 50.0, 0.0))
        assert matrix.best_index == 0

    def test_exclude_self_needs_two_candidates(self):
        cset = CandidateSet(sources=("s",), systems=("only",), candidates=(("x",),))
        with pytest.raises(DataError):
            utility_matrix(cset, 0, UtilitySpec(include_self=False), scorer=exact_match_factory())


class TestNativeUtilities:
    def test_chrf_majority(self):
        cset = single_segment("x", "x", "y")
        selection = mbr_decode(cset, UtilitySpec(kind="native-chrf"))
        assert selection.chosen == ("x",)
        assert selection.indices == (0,)
        assert selection.expected_utilities[0] == pytest.approx(200 / 3)

    def test_bleu_utility_prefers_overlap(self):
        cset = single_segment("the cat sat", "the cat sat", "a dog ran")
        selection = mbr_decode(cset, UtilitySpec(kind="native-bleu"))
        assert selection.indices == (0,)

    def test_all_identical_picks_first(self):
        cset = single_segment("same", "same", "same")
        selection = mbr_decode(cset, UtilitySpec())
        assert selection.indices == (0,)
        assert selection.expected_utilities[0] == 100.0

    def test_values_orientation(self):
        # Asymmetric utility depending only on the hypothesis: every row
        # must be constant, proving values[c][r] scores candidate c.
        def hyp_len_scorer(triples):
            return [float(len(mt)) for _src, mt, _ref in triples]

        cset = single_segment("aa", "bbbb")
        matrix = utility_matrix(cset, 0, UtilitySpec(), scorer=hyp_len_scorer)
        assert matrix.values == ((2.0, 2.0), (4.0, 4.0))
        assert matrix.best_index == 1

    def test_segment_index_out_of_range(self):
        cset = single_segment("a", "b")
        with pytest.raises(DataError):
            utility_matrix(cset, 1, UtilitySpec(), exact_match_factory())


class TestSpecValidation:
    def test_unknown_kind(self):
        with pytest.raises(DataError):
            UtilitySpec(kind="native-comet")

    def test_external_requires_bridge(self):
        with pytest.raises(DataError):
            UtilitySpec(kind="external")

    def test_candidate_grid_checked(self):
        with pytest.raises(DataError):
            CandidateSet(sources=("a", "b"), systems=("s",), candidates=(("x",),))
        with pytest.raises(DataError):
            CandidateSet(sources=("a",), systems=("s", "t"), candidates=(("x",),))

    def test_candidate_set_needs_a_system(self):
        # Before, this set was accepted and selection failed in max().
        with pytest.raises(DataError, match="at least one system"):
            CandidateSet(sources=("s",), systems=(), candidates=((),))


class TestBestIndex:
    def test_tie_breaks_to_lowest(self):
        assert best_index([50.0, 50.0]) == 0
        assert best_index([1.0, 2.0, 2.0]) == 1

    @given(st.lists(st.floats(0, 100, allow_nan=False), min_size=1, max_size=8))
    def test_is_first_argmax(self, means):
        idx = best_index(means)
        top = max(means)
        assert means[idx] == top
        assert all(means[i] < top for i in range(idx))


ORACLE_UTILITIES = {
    "native-chrf": oracle_chrf,
    "native-bleu": lambda hyp, ref: oracle_bleu(
        tokenize(hyp), [tokenize(ref)], smoothing="add-k"
    ),
}


class TestOracleAgreement:
    @pytest.mark.parametrize("kind", list(ORACLE_UTILITIES))
    @settings(max_examples=100, deadline=None)
    @given(rows_with_duplicates(), st.booleans())
    def test_selection_matches_oracle(self, kind, candidates, include_self):
        cset = single_segment(*candidates)
        spec = UtilitySpec(kind=kind, include_self=include_self)
        matrix = utility_matrix(cset, 0, spec, make_scorer(spec))
        want_best, want_means = oracle_mbr_row(
            candidates, ORACLE_UTILITIES[kind], include_self=include_self
        )
        assert matrix.best_index == want_best
        assert list(matrix.row_means) == want_means


class TestDistinctScoring:
    @settings(max_examples=50, deadline=None)
    @given(rows_with_duplicates())
    def test_each_distinct_pair_is_scored_once(self, candidates):
        spec = UtilitySpec(kind="native-chrf")
        native = make_scorer(spec)
        sent = []

        def recording(triples):
            sent.extend(triples)
            return native(triples)

        matrix = utility_matrix(single_segment(*candidates), 0, spec, scorer=recording)
        distinct = list(dict.fromkeys(candidates))
        assert [(mt, ref) for _src, mt, ref in sent] == [
            (mt, ref) for mt in distinct for ref in distinct
        ]
        n = len(candidates)
        every_pair = native([("", mt, ref) for mt in candidates for ref in candidates])
        assert matrix.values == tuple(
            tuple(every_pair[c * n : (c + 1) * n]) for c in range(n)
        )


    @pytest.mark.parametrize(
        "kind,order", [("native-chrf", metrics.CHRF_ORDER), ("native-bleu", metrics.BLEU_ORDER)]
    )
    def test_each_unordered_pair_matched_once(self, monkeypatch, kind, order):
        row = ("a b c", "b c d", "a b c", "c d e , f", "b c d", "x y")
        d = len(set(row))
        spec = UtilitySpec(kind=kind)
        every_pair = make_scorer(spec)([("", mt, ref) for mt in row for ref in row])
        kernel = metrics._clipped_matches
        calls = []

        def counting(a, b):
            calls.append((a, b))
            return kernel(a, b)

        monkeypatch.setattr(metrics, "_clipped_matches", counting)
        matrix = utility_matrix(single_segment(*row), 0, spec, make_scorer(spec))
        assert len(calls) == order * d * (d - 1) // 2  # never a string against itself
        assert [v for r in matrix.values for v in r] == every_pair

    @pytest.mark.parametrize(
        "kind,name,units",
        [
            ("native-chrf", "char_ngram_counts", lambda text: text),
            ("native-bleu", "word_ngram_counts", tokenize),
        ],
        ids=["chrf", "bleu"],
    )
    def test_each_distinct_string_counted_once_per_call(self, monkeypatch, kind, name, units):
        row = ("a b c", "b c d", "a b c", "c d e , f", "b c d", "x y")
        build = getattr(metrics, name)
        calls = []

        def counting(arg):
            calls.append(arg)
            return build(arg)

        monkeypatch.setattr(metrics, name, counting)
        scorer = make_scorer(UtilitySpec(kind=kind))
        triples = [("", mt, ref) for mt in row for ref in row]
        once = [units(text) for text in dict.fromkeys(row)]
        first = scorer(triples)
        assert calls == once
        assert scorer(triples) == first
        assert calls == 2 * once  # nothing is kept from one call to the next


class TestLoadCandidates:
    def test_reads_grid(self, tmp_path):
        src = tmp_path / "src.txt"
        a = tmp_path / "a.txt"
        b = tmp_path / "b.txt"
        src.write_text("s1\ns2\n")
        a.write_text("a1\na2\n")
        b.write_text("b1\nb2\n")
        cset = load_candidates([a, b], src)
        assert cset.sources == ("s1", "s2")
        assert cset.candidates == (("a1", "b1"), ("a2", "b2"))
        assert cset.num_systems == 2

    def test_needs_two_files(self, tmp_path):
        src = tmp_path / "src.txt"
        a = tmp_path / "a.txt"
        src.write_text("s\n")
        a.write_text("x\n")
        with pytest.raises(DataError, match="at least 2"):
            load_candidates([a], src)

    def test_misalignment_names_files(self, tmp_path):
        src = tmp_path / "src.txt"
        a = tmp_path / "a.txt"
        b = tmp_path / "b.txt"
        src.write_text("s1\ns2\n")
        a.write_text("a1\na2\n")
        b.write_text("b1\n")
        with pytest.raises(AlignmentError) as exc_info:
            load_candidates([a, b], src)
        message = str(exc_info.value)
        assert str(b) in message
        assert "1" in message and "2" in message


class TestWorkers:
    def test_thread_count_does_not_change_results(self):
        sources = tuple(f"s{i}" for i in range(7))
        candidates = tuple(
            (f"seg {i} alpha", f"seg {i} beta", f"seg {i} alpha beta") for i in range(7)
        )
        cset = CandidateSet(sources=sources, systems=("a", "b", "c"), candidates=candidates)
        spec = UtilitySpec(kind="native-chrf")
        sequential = segment_matrices(cset, spec, workers=1)
        threaded = segment_matrices(cset, spec, workers=4)
        assert sequential == threaded

    def test_errors_name_the_segment(self):
        cset = CandidateSet(
            sources=("s0", "s1"),
            systems=("a", "b"),
            candidates=(("x", "y"), ("x", "y")),
        )

        def broken_factory():
            def score(triples):
                raise DataError("scorer fell over")

            return score

        with pytest.raises(DataError, match="segment 0"):
            segment_matrices(cset, UtilitySpec(), scorer_factory=broken_factory)

    @pytest.mark.parametrize("kind", ["native-chrf", "external"])
    def test_every_utility_gets_the_segment_source(self, kind, tmp_path):
        cset = numbered_segments(3)
        spec = UtilitySpec(kind=kind, bridge=BridgeConfig(command=("unused",)))
        log = tmp_path / "events"
        factory = recording_factory(log, constant_factory)
        segment_matrices(cset, spec, workers=2, scorer_factory=factory)
        scored = {event for _pid, event in events(log) if event.startswith("scored ")}
        assert scored == {f"scored {src}" for src in cset.sources}

    @pytest.mark.parametrize("kind", ["native-chrf", "external"])
    @pytest.mark.parametrize("workers", [0, -1])
    def test_workers_below_one_rejected_before_any_scorer(self, kind, workers, tmp_path):
        spec = UtilitySpec(kind=kind, bridge=BridgeConfig(command=("unused",)))
        log = tmp_path / "events"
        factory = recording_factory(log, constant_factory)
        with pytest.raises(DataError, match=f"workers must be at least 1, got {workers}"):
            segment_matrices(numbered_segments(3), spec, workers=workers, scorer_factory=factory)
        assert not log.exists()

    @pytest.mark.parametrize(
        "reply, message",
        [
            (lambda k: [float("nan")] * k, "returned a score that is not a finite number"),
            (lambda k: [1.0] * (k - 1), "returned 8 scores for 9 pairs"),
            (lambda k: [1.0] * (k + 1), "returned 10 scores for 9 pairs"),
        ],
        ids=["nan", "short", "long"],
    )
    def test_bad_scorer_reply_names_the_segment(self, reply, message):
        def factory():
            return lambda triples: reply(len(triples))

        with pytest.raises(DataError, match=f"segment 0: scorer {message}$"):
            segment_matrices(numbered_segments(2), UtilitySpec(), scorer_factory=factory)

    @staticmethod
    def assert_one_scorer_per_run(kind: str, workers: int, segments: int, log: Path) -> None:
        """``segment_matrices`` makes one scorer per run: in this process for one
        run, else each in a worker process of its own; each is closed where it
        was made, and the matrices equal those of one inline run.  Each scorer
        call sleeps 20 ms, so every worker takes a run before any run ends.
        """
        cset = numbered_segments(segments)
        config = BridgeConfig(command=(sys.executable, DOUBLES, "chrf"))
        spec = UtilitySpec(kind=kind, bridge=config)
        factory = recording_factory(log, lambda: make_scorer(spec), delay=0.02)
        matrices = segment_matrices(cset, spec, workers=workers, scorer_factory=factory)
        assert matrices == segment_matrices(cset, spec, workers=1)
        created = recorded(log, "created")
        assert sorted(recorded(log, "closed")) == sorted(created)
        runs = min(workers, segments)
        if runs == 1:
            assert created == [os.getpid()]
        else:
            assert len(set(created)) == len(created) == runs
            assert os.getpid() not in created

    @pytest.mark.parametrize("kind", ["native-chrf", "external"])
    def test_one_worker_scores_inline_with_one_scorer(self, kind, tmp_path):
        self.assert_one_scorer_per_run(kind, 1, 7, tmp_path / "events")

    def test_native_runs_one_scorer_per_worker(self, tmp_path):
        self.assert_one_scorer_per_run("native-chrf", 4, 7, tmp_path / "events")

    def test_external_runs_one_scorer_per_worker(self, tmp_path):
        self.assert_one_scorer_per_run("external", 4, 7, tmp_path / "events")

    def test_external_workers_capped_by_segments(self, tmp_path):
        self.assert_one_scorer_per_run("external", 8, 3, tmp_path / "events")

    def test_no_thread_runs_in_the_caller_while_it_forks(self, tmp_path):
        # Each run's scorer factory counts the threads of the process that
        # forked it; a thread of an earlier test may end meanwhile, none may start.
        log = tmp_path / "threads"

        def factory():
            with open(log, "a", encoding="ascii") as threads:
                threads.write(f"{len(os.listdir(f'/proc/{os.getppid()}/task'))}\n")
            return constant_factory()

        before = len(os.listdir("/proc/self/task"))
        segment_matrices(numbered_segments(2), UtilitySpec(), workers=2, scorer_factory=factory)
        counts = [int(count) for count in log.read_text().split()]
        assert len(counts) == 2 and max(counts) <= before

    def test_failure_cancels_segments_not_started(self, tmp_path):
        # Two runs of ten segments; the first fails at once on s0.
        cset = numbered_segments(20)
        spec = UtilitySpec(kind="external", bridge=BridgeConfig(command=("unused",)))

        def inner():
            def score(triples):
                if triples[0][0] == "s0":
                    raise DataError("scorer fell over")
                return [1.0] * len(triples)

            return score

        log = tmp_path / "events"
        factory = recording_factory(log, inner, delay=0.05)
        with pytest.raises(DataError, match="segment 0"):
            segment_matrices(cset, spec, workers=2, scorer_factory=factory)
        created = recorded(log, "created")
        assert len(created) == 2 and os.getpid() not in created
        assert sorted(recorded(log, "closed")) == sorted(created)
        scored = [event for _pid, event in events(log) if event.startswith("scored ")]
        assert len(scored) < cset.num_segments // 2  # the second run stopped early

    def test_a_run_that_dies_is_reported_at_once(self):
        # Two runs of ten segments: the first takes 0.3 s a segment, the
        # second SIGKILLs its own process on its first segment.  The caller,
        # waiting for the first run's answer, reports the dead run at once and
        # the first run stops before its next segment.
        def factory():
            def score(triples):
                if triples[0][0] == "s10":
                    os.kill(os.getpid(), signal.SIGKILL)
                time.sleep(0.3)
                return [1.0] * len(triples)

            return score

        start = time.monotonic()
        with pytest.raises(ChildProcessError) as raised:
            segment_matrices(numbered_segments(20), UtilitySpec(), workers=2,
                             scorer_factory=factory)
        assert time.monotonic() - start < 1.5
        assert str(raised.value) == (
            "segments 10..19: their process ended without an answer (Killed)"
        )

    def test_a_failure_waits_for_no_stopped_run_to_send(self):
        # Two runs of ten segments of 64 distinct candidates, so each
        # segment's matrix pickles to about 37 KB and a run's answer soon
        # outgrows a pipe's buffer.  Each takes 0.2 s a segment, and run 0's
        # scorer returns no scores once 1 s has passed.  The caller raises at
        # once: run 1 stops, and its send breaks on the pipe the caller closed.
        code = textwrap.dedent("""\
            import time
            from mbrforge.errors import DataError
            from mbrforge.mbr import CandidateSet, UtilitySpec, make_scorer, segment_matrices

            spec = UtilitySpec(kind="native-chrf")
            cset = CandidateSet(
                sources=tuple(f"s{i}" for i in range(20)),
                systems=tuple(f"sys{c}" for c in range(64)),
                candidates=tuple(tuple(f"segment {i} candidate {c}" for c in range(64))
                                 for i in range(20)),
            )
            start = time.monotonic()

            def factory():
                native = make_scorer(spec)

                def score(triples):
                    if int(triples[0][0][1:]) < 10 and time.monotonic() - start > 1:
                        return []
                    time.sleep(0.2)
                    return native(triples)

                return score

            try:
                segment_matrices(cset, spec, workers=2, scorer_factory=factory)
            except DataError as exc:
                print(f"{time.monotonic() - start:.2f} {exc}")
        """)
        with process_group([sys.executable, "-c", code], stdout=subprocess.PIPE,
                           text=True) as proc:
            out, _err = proc.communicate(timeout=10)
        seconds, message = out.split(" ", 1)
        assert float(seconds) < 5
        assert re.fullmatch(r"segment \d: scorer returned 0 scores for 4096 pairs\n", message)

    def test_a_stopped_run_makes_no_scorer(self):
        stop = threading.Event()
        stop.set()

        def factory():
            raise AssertionError("a stopped run made a scorer")

        assert mbr._score_run(numbered_segments(3), UtilitySpec(), factory, range(3),
                              stop.is_set) == []


class TestExternalUtility:
    def test_matches_native_chrf(self):
        cset = CandidateSet(
            sources=("s0", "s1"),
            systems=("a", "b", "c"),
            candidates=(("hello there", "hello here", "bye"), ("x y", "x z", "x y")),
        )
        native = mbr_decode(cset, UtilitySpec(kind="native-chrf"))
        config = BridgeConfig(command=(sys.executable, DOUBLES, "chrf"), batch_size=4)
        external = mbr_decode(cset, UtilitySpec(kind="external", bridge=config))
        assert external == native


class TestMatrixDump:
    def test_frozen_layout(self):
        cset = single_segment("x", "y")
        matrix = utility_matrix(cset, 0, UtilitySpec(), scorer=exact_match_factory())
        dump = format_matrix_dump([matrix])
        assert dump == (
            "0\t0\t100.000000\t0.000000\t50.000000\n"
            "0\t1\t0.000000\t100.000000\t50.000000\n"
        )


class TestSelection:
    def test_selection_shape(self):
        cset = CandidateSet(
            sources=("s0", "s1"),
            systems=("a", "b"),
            candidates=(("p q", "p r"), ("u v", "u v w")),
        )
        selection = mbr_decode(cset, UtilitySpec())
        assert isinstance(selection, MbrSelection)
        assert len(selection.chosen) == 2
        for seg, idx in enumerate(selection.indices):
            assert selection.chosen[seg] == cset.candidates[seg][idx]

    def test_scorer_close_called_for_external_factory(self):
        closed = []

        class Recorder:
            def __call__(self, triples):
                return [1.0 for _ in triples]

        def factory():
            scorer = Recorder()
            scorer.client = type("C", (), {"close": lambda self: closed.append(True)})()
            return scorer

        cset = single_segment("a", "b")
        mbr_decode(cset, UtilitySpec(), scorer_factory=factory)
        assert closed == [True]


class TestTwoSegmentResults:
    """Frozen dump and selection of two segments, the second exclude-self."""

    def matrices(self):
        def score(triples):
            return [len(mt) + len(ref) / 8 for _src, mt, ref in triples]

        cset = CandidateSet(
            sources=("s0", "s1"),
            systems=("a", "b", "c"),
            candidates=(("xx", "y", "xx"), ("p", "qqq", "rr")),
        )
        return cset, [
            utility_matrix(cset, 0, UtilitySpec(), scorer=score),
            utility_matrix(cset, 1, UtilitySpec(include_self=False), scorer=score),
        ]

    def test_frozen_dump(self):
        _cset, matrices = self.matrices()
        assert format_matrix_dump(matrices) == (
            "0\t0\t2.250000\t2.125000\t2.250000\t2.208333\n"
            "0\t1\t1.250000\t1.125000\t1.250000\t1.208333\n"
            "0\t2\t2.250000\t2.125000\t2.250000\t2.208333\n"
            "1\t0\t1.125000\t1.375000\t1.250000\t1.312500\n"
            "1\t1\t3.125000\t3.375000\t3.250000\t3.187500\n"
            "1\t2\t2.125000\t2.375000\t2.250000\t2.250000\n"
        )

    def test_frozen_selection(self):
        cset, matrices = self.matrices()
        assert selection_from_matrices(cset, matrices) == MbrSelection(
            chosen=("xx", "qqq"), indices=(0, 1), expected_utilities=(53 / 24, 3.1875)
        )

    def test_empty(self):
        cset, _matrices = self.matrices()
        assert format_matrix_dump([]) == ""
        assert selection_from_matrices(cset, []) == MbrSelection((), (), ())
