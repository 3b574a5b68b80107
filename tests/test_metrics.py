"""BLEU/chrF unit tests: frozen hand-computed values plus properties."""

from __future__ import annotations

import math
import random
import re
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mbrforge.errors import AlignmentError
from mbrforge.mbr import UtilitySpec, make_scorer
from mbrforge.metrics import (
    MetricScore,
    bleu_stats,
    char_ngram_counts,
    char_ngram_stats,
    corpus_bleu,
    corpus_chrf,
    corpus_stats,
    ngram_counts,
    pair_stats,
    score_from_bleu_stats,
    score_from_chrf_stats,
    sentence_bleu,
    sentence_chrf,
    tokenize,
    word_ngram_counts,
)
from oracles import (
    list_ngrams,
    oracle_bleu,
    oracle_chrf,
    oracle_chrf_counts,
    oracle_corpus_bleu,
    oracle_corpus_chrf,
    oracle_tokenize,
)

tokens_st = st.lists(st.sampled_from(["a", "b", "c", "d", "e"]), max_size=8)
nonempty_tokens_st = st.lists(st.sampled_from(["a", "b", "c", "d", "e"]), min_size=1, max_size=8)
segment_st = st.text(alphabet="abc d", max_size=20)
# Arbitrary Unicode, weighted towards what tokenizing and n-gram building
# treat specially: punctuation, symbols, combining marks, digits and
# every kind of whitespace, including line and paragraph separators.
unicode_text_st = st.text(
    st.one_of(
        st.characters(),
        st.characters(categories=["P", "S", "M", "N", "Z"]),
        st.sampled_from(" \t\n\r\x0b\x0c\x1c\x85\xa0\u2028\u2029\u3000,.!?¿«»—'\"-_()"),
        st.sampled_from("abcé"),
    ),
    max_size=40,
)


def slice_counts(seq, orders):
    """Counters of the order-n slices of ``seq`` for n in 1..orders."""
    return tuple(
        Counter(seq[i : i + n] for i in range(len(seq) - n + 1)) for n in range(1, orders + 1)
    )


# Two MBR rows at real length: six candidates of about 30 words, with
# repeats, attached punctuation and a non-ASCII word.
_BUDGET = (
    "The committee approved the new budget on Tuesday, but several members said the cuts "
    "to public transport in Zürich were too deep and would hurt commuters in the northern "
    "districts.",
    "The committee passed the new budget on Tuesday, though several members said that cuts "
    "to public transport in Zürich went too far and would hurt commuters in northern "
    "districts.",
    "On Tuesday the committee approved the budget, but some members warned that the cuts to "
    "public transport in Zürich were too deep and would hurt the commuters of the north!",
)
BUDGET_ROW = [_BUDGET[k] for k in (0, 1, 0, 2, 1, 0)]
_SLEEP = (
    "Researchers at the university found that sleeping less than six hours a night raises "
    "the risk of heart disease, according to a study published on Monday by Dr. Müller.",
    "Scientists at the university found that sleeping under six hours per night increases "
    "the risk of heart disease, according to a study Dr. Müller published on Monday.",
    "A study published on Monday found that people who sleep less than six hours each "
    "night face a higher risk of heart disease; Dr. Müller called the result “alarming”.",
)
SLEEP_ROW = [_SLEEP[k] for k in (0, 1, 2, 0, 1, 1)]


class TestTokenize:
    def test_whitespace(self):
        assert tokenize("Hello, world!", "whitespace") == ["Hello,", "world!"]

    def test_punctuation_split(self):
        assert tokenize("Hello, world!") == ["Hello", ",", "world", "!"]

    def test_empty(self):
        assert tokenize("") == []
        assert tokenize("   ", "whitespace") == []

    def test_unicode_punctuation(self):
        assert tokenize("¿Qué?") == ["¿", "Qué", "?"]

    def test_unknown_scheme(self):
        with pytest.raises(ValueError):
            tokenize("x", "bytes")

    @settings(max_examples=500)
    @given(unicode_text_st)
    def test_punctuation_split_equals_oracle(self, text):
        assert tokenize(text) == oracle_tokenize(text)


class TestBleuFrozen:
    def test_identity_is_100(self):
        hyp = tokenize("the cat sat on the mat")
        assert sentence_bleu(hyp, [hyp]).value == 100.0

    def test_identity_short_segment(self):
        # One token cannot fill orders 2..4; those orders must not drag
        # the geometric mean to zero.
        assert sentence_bleu(["hi"], [["hi"]]).value == 100.0

    def test_clipping(self):
        hyp = ["the", "the", "the", "the"]
        ref = ["the", "cat"]
        totals, _ref_totals, matches = zip(*bleu_stats(hyp, [ref]))
        assert matches == (1, 0, 0, 0)
        assert totals == (4, 3, 2, 1)
        assert sentence_bleu(hyp, [ref]).value == 0.0

    def test_clipping_against_best_single_reference(self):
        hyp = ["the", "the"]
        stats = bleu_stats(hyp, [["the"], ["the", "the", "cat"]])
        # Two occurrences in the second reference allow both matches.
        assert stats[0][2] == 2

    def test_zero_overlap_is_zero(self):
        assert sentence_bleu(["a", "b"], [["c", "d"]]).value == 0.0

    def test_brevity_penalty(self):
        # Perfect 2-token prefix of a 4-token reference: precisions are all
        # 1 over the populated orders, so the score is 100 * exp(1 - 4/2).
        score = sentence_bleu(["a", "b"], [["a", "b", "c", "d"]])
        assert score.brevity_penalty == pytest.approx(math.exp(-1.0), abs=1e-12)
        assert score.value == pytest.approx(100.0 * math.exp(-1.0), abs=1e-9)

    def test_no_penalty_when_longer(self):
        score = sentence_bleu(["a", "b", "c"], [["a", "b"]])
        assert score.brevity_penalty == 1.0

    def test_ref_len_tie_prefers_shorter(self):
        stats = bleu_stats(["a", "b", "c"], [["a", "b"], ["a", "b", "c", "d"]])
        assert stats[0][1] == 2

    def test_empty_vs_empty(self):
        assert sentence_bleu([], [[]]).value == 100.0

    def test_empty_vs_nonempty(self):
        assert sentence_bleu([], [["a"]]).value == 0.0

    def test_add_k_rescues_zero_orders(self):
        hyp = ["the", "the", "the", "the"]
        ref = ["the", "cat"]
        score = sentence_bleu(hyp, [ref], smoothing="add-k")
        # Hypothesis is longer than the reference, so no brevity penalty.
        expected = 100.0 * math.exp(
            (
                math.log(1.1 / 4.1)
                + math.log(0.1 / 3.1)
                + math.log(0.1 / 2.1)
                + math.log(0.1 / 1.1)
            )
            / 4
        )
        assert score.value == pytest.approx(expected, abs=1e-9)

    def test_unknown_smoothing(self):
        with pytest.raises(ValueError):
            sentence_bleu(["a"], [["a"]], smoothing="floor")

    def test_stats_are_summable(self):
        a = bleu_stats(["a", "b"], [["a", "b"]])
        b = bleu_stats(["c"], [["c", "d"]])
        total = corpus_stats(
            [["a", "b"], ["c"]], [["a", "b"], ["c", "d"]], lambda hyp, ref: bleu_stats(hyp, [ref])
        )
        assert total[0][2] == a[0][2] + b[0][2]
        assert total[0][0] == 3
        assert total[0][1] == 4


class TestChrfFrozen:
    def test_identity_is_100(self):
        assert sentence_chrf("Guten Tag", "Guten Tag").value == 100.0

    def test_cab_cat(self):
        # Order 1: 2/3 matched; order 2: 1/2; order 3: 0; orders 4..6 have
        # no n-grams on either side and drop out.  F values are 2/3, 1/2, 0.
        assert sentence_chrf("cab", "cat").value == pytest.approx(
            100.0 * (2.0 / 3.0 + 0.5 + 0.0) / 3.0, abs=1e-9
        )

    def test_whitespace_removed(self):
        assert sentence_chrf("a b c", "abc").value == 100.0

    def test_empty_vs_empty(self):
        assert sentence_chrf("", "").value == 100.0
        assert sentence_chrf("   ", "\t\n").value == 100.0

    def test_empty_vs_nonempty(self):
        assert sentence_chrf("", "abc").value == 0.0
        assert sentence_chrf("abc", "").value == 0.0

    def test_char_stats(self):
        stats = char_ngram_stats("cab", "cat")
        assert stats[0] == (3, 3, 2)
        assert stats[1] == (2, 2, 1)
        assert stats[2] == (1, 1, 0)
        assert stats[3] == (0, 0, 0)

    def test_beta_weighting(self):
        # hyp "aab" vs ref "ab": order 1 P=2/3 R=1 -> F2 = 5*(2/3)/(4*(2/3)+1).
        stats = [(3, 2, 2)]
        expected = 100.0 * (5.0 * (2.0 / 3.0) * 1.0) / (4.0 * (2.0 / 3.0) + 1.0)
        assert score_from_chrf_stats(stats).value == pytest.approx(expected, abs=1e-9)


class TestCorpus:
    def test_corpus_of_one_equals_sentence(self):
        hyp = tokenize("a b c d")
        ref = tokenize("a b d")
        assert corpus_bleu([hyp], [ref]).value == sentence_bleu(hyp, [ref]).value
        assert corpus_chrf(["abcd"], ["abd"]).value == sentence_chrf("abcd", "abd").value

    def test_misaligned_raises(self):
        with pytest.raises(AlignmentError):
            corpus_bleu([["a"]], [["a"], ["b"]])
        with pytest.raises(AlignmentError):
            corpus_chrf(["a"], ["a", "b"])

    def test_empty_corpus_raises(self):
        with pytest.raises(ValueError):
            corpus_bleu([], [])
        with pytest.raises(ValueError):
            corpus_chrf([], [])

    def test_micro_average_pools_counts(self):
        # Pooled counts are not the mean of the per-segment scores.
        hyps = [["a", "b"], ["c"]]
        refs = [["a", "b"], ["d"]]
        got = corpus_bleu(hyps, refs, smoothing="none").value
        assert got == pytest.approx(oracle_corpus_bleu(hyps, refs), abs=1e-9)

    @given(st.lists(st.tuples(segment_st, segment_st), min_size=1, max_size=5))
    def test_corpus_chrf_matches_oracle(self, pairs):
        hyps = [h for h, _ in pairs]
        refs = [r for _, r in pairs]
        got = corpus_chrf(hyps, refs).value
        assert got == pytest.approx(oracle_corpus_chrf(hyps, refs), abs=1e-9)

    @given(
        st.lists(st.tuples(tokens_st, tokens_st), min_size=1, max_size=5),
        st.sampled_from(["none", "add-k"]),
    )
    def test_corpus_bleu_matches_oracle(self, pairs, smoothing):
        hyps = [h for h, _ in pairs]
        refs = [r for _, r in pairs]
        got = corpus_bleu(hyps, refs, smoothing=smoothing).value
        assert got == pytest.approx(
            oracle_corpus_bleu(hyps, refs, smoothing=smoothing), abs=1e-9
        )

    def test_duplicating_every_segment_keeps_the_score(self):
        hyps = [["a", "b"], ["b", "c", "d"]]
        refs = [["a", "b", "c"], ["b", "d"]]
        once = corpus_bleu(hyps, refs).value
        twice = corpus_bleu(hyps * 2, refs * 2).value
        assert twice == pytest.approx(once, abs=1e-9)


class TestProperties:
    @given(nonempty_tokens_st)
    def test_bleu_identity(self, tokens):
        assert sentence_bleu(tokens, [tokens]).value == 100.0

    @given(segment_st)
    def test_chrf_identity(self, segment):
        assert sentence_chrf(segment, segment).value == 100.0

    @given(tokens_st, st.lists(tokens_st, min_size=1, max_size=3))
    def test_bleu_range(self, hyp, refs):
        assert 0.0 <= sentence_bleu(hyp, refs).value <= 100.0

    @given(segment_st, segment_st)
    def test_chrf_range(self, hyp, ref):
        assert 0.0 <= sentence_chrf(hyp, ref).value <= 100.0

    @given(tokens_st, st.lists(tokens_st, min_size=2, max_size=3))
    def test_bleu_reference_order_invariance(self, hyp, refs):
        forward = sentence_bleu(hyp, refs).value
        backward = sentence_bleu(hyp, list(reversed(refs))).value
        assert forward == pytest.approx(backward, abs=1e-9)

    @settings(max_examples=200)
    @given(tokens_st, st.lists(tokens_st, min_size=1, max_size=3), st.sampled_from(["none", "add-k"]))
    def test_bleu_matches_oracle(self, hyp, refs, smoothing):
        got = sentence_bleu(hyp, refs, smoothing=smoothing).value
        want = oracle_bleu(hyp, refs, smoothing=smoothing)
        assert got == pytest.approx(want, abs=1e-9)

    @settings(max_examples=200)
    @given(segment_st, segment_st)
    def test_chrf_matches_oracle(self, hyp, ref):
        got = sentence_chrf(hyp, ref).value
        assert got == pytest.approx(oracle_chrf(hyp, ref), abs=1e-9)

    @given(segment_st, segment_st)
    def test_chrf_ignores_spacing(self, hyp, ref):
        spaced = " ".join(hyp)
        assert sentence_chrf(spaced, ref).value == sentence_chrf(hyp, ref).value


class TestExactStatistics:
    """The n-gram statistics are integers, so they must match exactly."""

    @settings(max_examples=200)
    @given(segment_st, segment_st)
    def test_chrf_stats_equal_oracle_counts(self, hyp, ref):
        assert char_ngram_stats(hyp, ref) == oracle_chrf_counts(hyp, ref)

    @given(st.lists(st.tuples(segment_st, segment_st), max_size=6))
    def test_pair_stats_equal_oracle_counts_of_each_pair(self, pairs):
        pairs += [(ref, hyp) for hyp, ref in pairs] + pairs  # both orientations and repeats
        assert pair_stats(pairs, char_ngram_counts) == [
            oracle_chrf_counts(hyp, ref) for hyp, ref in pairs
        ]

    @settings(max_examples=200)
    @given(tokens_st, st.lists(tokens_st, min_size=1, max_size=3))
    def test_bleu_counts_equal_brute_force(self, hyp, refs):
        matches, totals = [], []
        for n in range(1, 5):
            hyp_grams = list_ngrams(hyp, n)
            totals.append(len(hyp_grams))
            matches.append(sum(
                min(hyp_grams.count(gram), max(list_ngrams(ref, n).count(gram) for ref in refs))
                for gram in set(hyp_grams)
            ))
        stats = bleu_stats(hyp, refs)
        got_totals, _ref_totals, got_matches = zip(*stats)
        assert (got_matches, got_totals, stats[0][0]) == (
            tuple(matches), tuple(totals), len(hyp)
        )

    @settings(max_examples=300)
    @given(unicode_text_st)
    def test_char_ngram_counts_equal_slices(self, text):
        assert char_ngram_counts(text) == slice_counts("".join(text.split()), 6)

    @settings(max_examples=300)
    @given(unicode_text_st)
    def test_word_ngram_counts_equal_slices(self, text):
        tokens = tuple(oracle_tokenize(text))
        assert word_ngram_counts(tokens) == slice_counts(tokens, 4)
        assert word_ngram_counts(list(tokens)) == slice_counts(tokens, 4)

    @given(st.lists(st.text(alphabet="ab c,.", max_size=16), min_size=1, max_size=5))
    @example(BUDGET_ROW)
    @example(SLEEP_ROW)
    def test_native_scorers_equal_sentence_metrics(self, segments):
        triples = [("", hyp, ref) for hyp in segments for ref in segments]
        chrf = make_scorer(UtilitySpec(kind="native-chrf"))(triples)
        bleu = make_scorer(UtilitySpec(kind="native-bleu"))(triples)
        assert chrf == [sentence_chrf(hyp, ref).value for _, hyp, ref in triples]
        assert bleu == [
            sentence_bleu(tokenize(hyp), [tokenize(ref)], smoothing="add-k").value
            for _, hyp, ref in triples
        ]


class TestExactScores:
    """Scores equal the oracles' floats exactly, not only within a tolerance.

    The oracles apply each formula in the library's operation order, so a
    refactor that reorders a sum or a division shows up here.
    """

    VOCAB = ["a", "b", "c", "d", "e", "f"]

    def random_tokens(self, rng):
        return [rng.choice(self.VOCAB) for _ in range(rng.randint(0, 12))]

    def random_text(self, rng):
        return "".join(rng.choice("abc d") for _ in range(rng.randint(0, 25)))

    def test_sentence_scores(self):
        rng = random.Random(2024)
        for trial in range(1500):
            hyp = self.random_tokens(rng)
            refs = [self.random_tokens(rng) for _ in range(rng.randint(1, 3))]
            for smoothing in ("none", "add-k"):
                got = sentence_bleu(hyp, refs, smoothing=smoothing).value
                assert got == oracle_bleu(hyp, refs, smoothing=smoothing), (trial, smoothing)
            hyp_text, ref_text = self.random_text(rng), self.random_text(rng)
            assert sentence_chrf(hyp_text, ref_text).value == oracle_chrf(hyp_text, ref_text)

    def test_corpus_scores(self):
        rng = random.Random(2025)
        for trial in range(100):
            m = rng.randint(1, 6)
            hyps = [self.random_tokens(rng) for _ in range(m)]
            refs = [self.random_tokens(rng) for _ in range(m)]
            for smoothing in ("none", "add-k"):
                got = corpus_bleu(hyps, refs, smoothing=smoothing).value
                assert got == oracle_corpus_bleu(hyps, refs, smoothing=smoothing), trial
            hyp_texts = [self.random_text(rng) for _ in range(m)]
            ref_texts = [self.random_text(rng) for _ in range(m)]
            assert corpus_chrf(hyp_texts, ref_texts).value == oracle_corpus_chrf(
                hyp_texts, ref_texts
            ), trial


class TestValidation:
    def test_metric_score_range_checked(self):
        with pytest.raises(ValueError):
            MetricScore(101.0)
        with pytest.raises(ValueError):
            MetricScore(-0.5)

    def test_metric_score_is_immutable(self):
        score = MetricScore(50.0, brevity_penalty=0.5)
        assert (score.value, score.brevity_penalty) == (50.0, 0.5)
        assert MetricScore(50.0).brevity_penalty == 1.0
        with pytest.raises(AttributeError):
            score.value = 60.0

    def test_ngram_counts_rejects_bad_order(self):
        with pytest.raises(ValueError):
            ngram_counts(["a"], 0)

    def test_bleu_stats_needs_reference(self):
        with pytest.raises(ValueError):
            bleu_stats(["a"], [])

    def test_score_from_empty_hyp_stats(self):
        stats = [(0, 3, 0), (0, 0, 0), (0, 0, 0), (0, 0, 0)]
        assert score_from_bleu_stats(stats).value == 0.0


def test_only_metrics_builds_ngram_statistics():
    # Totals, clipped matches and their statistics are built in metrics
    # alone, so a new match kernel or statistic changes one module.
    src = Path(__file__).parent.parent / "src" / "mbrforge"
    names = re.compile(r"\b(ngram_totals|ngram_matches|ngram_stats|_clipped_matches)\b")
    found = {
        f"{path.name}:{number}"
        for path in sorted(src.glob("*.py"))
        for number, line in enumerate(path.read_text().splitlines(), 1)
        if names.search(line)
    }
    assert found and all(site.startswith("metrics.py:") for site in found), sorted(found)
