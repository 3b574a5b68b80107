"""Synthetic corpus builders: orientation, tagging, filtering, merging."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from mbrforge.errors import AlignmentError, DataError
from mbrforge.selftrain import (
    DEFAULT_BT_TAG,
    FilterConfig,
    ParallelCorpus,
    apply_filter,
    build_bt_corpus,
    build_st_corpus,
    merge_corpora,
    read_corpus,
    write_corpus,
)

pair_st = st.tuples(
    st.text(alphabet="ab c", max_size=12), st.text(alphabet="xy z", max_size=12)
)


class TestSelfTrain:
    def test_orientation_source_to_translation(self):
        corpus = build_st_corpus(["src a"], ["mt a"])
        assert corpus.pairs == (("src a", "mt a"),)
        assert corpus.provenance == ("self-train",)

    def test_misaligned_inputs(self):
        with pytest.raises(AlignmentError, match="sources: 2 lines, translations: 1 lines"):
            build_st_corpus(["a", "b"], ["x"])


class TestBackTranslate:
    def test_orientation_and_tag(self):
        corpus = build_bt_corpus(["Hallo"], ["Hello"], tag=DEFAULT_BT_TAG)
        assert corpus.pairs == (("<BT> Hello", "Hallo"),)
        assert corpus.provenance == ("back-translate",)

    def test_untagged_by_default(self):
        corpus = build_bt_corpus(["Hallo"], ["Hello"])
        assert corpus.pairs == (("Hello", "Hallo"),)

    def test_tag_must_be_single_token(self):
        for bad in ("", "two words", "a\tb"):
            with pytest.raises(DataError):
                build_bt_corpus(["t"], ["b"], tag=bad)

    def test_tag_applied_after_filter(self):
        # A 3-token back-translation passes max_tokens=3 even though the
        # tagged form has 4 tokens: the filter sees the raw text.
        config = FilterConfig(max_tokens=3)
        corpus = build_bt_corpus(["ziel"], ["a b c"], tag="<BT>", config=config)
        assert corpus.pairs == (("<BT> a b c", "ziel"),)

    def test_misaligned_inputs(self):
        with pytest.raises(AlignmentError, match="targets: 1 lines, back_translations: 2 lines"):
            build_bt_corpus(["a"], ["x", "y"])


class TestFilter:
    def test_empty_side_always_dropped(self):
        config = FilterConfig(min_tokens=0)
        assert apply_filter([("", "x"), ("x", ""), ("", "")], config) == []

    def test_token_bounds(self):
        config = FilterConfig(min_tokens=2, max_tokens=3)
        pairs = [
            ("one", "two tokens"),  # source below minimum
            ("two tokens", "two tokens"),
            ("a b c d", "two tokens"),  # source above maximum
            ("two tokens", "a b c d"),  # target above maximum
        ]
        assert apply_filter(pairs, config) == [("two tokens", "two tokens")]

    def test_ratio_is_bidirectional(self):
        config = FilterConfig()
        long = " ".join(["w"] * 10)
        boundary = " ".join(["w"] * 9)
        assert apply_filter([(long, "x")], config) == []
        assert apply_filter([("x", long)], config) == []
        # Exactly at the cap is allowed.
        assert apply_filter([(boundary, "x")], config) == [(boundary, "x")]

    def test_dedup_keeps_first(self):
        pairs = [("a", "b"), ("c", "d"), ("a", "b")]
        assert apply_filter(pairs, FilterConfig(dedup=True)) == [("a", "b"), ("c", "d")]
        assert apply_filter(pairs, FilterConfig(dedup=False)) == pairs

    def test_config_validation(self):
        with pytest.raises(DataError):
            FilterConfig(max_length_ratio=0.0)
        with pytest.raises(DataError):
            FilterConfig(max_length_ratio=float("nan"))
        with pytest.raises(DataError):
            FilterConfig(min_tokens=-1)
        with pytest.raises(DataError):
            FilterConfig(min_tokens=5, max_tokens=3)

    @given(st.lists(pair_st, max_size=15), st.booleans())
    def test_idempotent(self, pairs, dedup):
        config = FilterConfig(dedup=dedup)
        once = apply_filter(pairs, config)
        assert apply_filter(once, config) == once

    @given(st.lists(pair_st, max_size=15))
    def test_keeps_a_subsequence(self, pairs):
        kept = apply_filter(pairs, FilterConfig())
        it = iter(pairs)
        assert all(pair in it for pair in kept)


def three_rule_filter(pairs, config):
    """The filter written as three separate rules: empty side, bounds, then ratio."""
    kept, seen = [], set()
    for src, tgt in pairs:
        n_src, n_tgt = len(src.split()), len(tgt.split())
        if n_src == 0 or n_tgt == 0:
            continue
        if not (config.min_tokens <= n_src <= config.max_tokens):
            continue
        if not (config.min_tokens <= n_tgt <= config.max_tokens):
            continue
        if max(n_src / n_tgt, n_tgt / n_src) > config.max_length_ratio:
            continue
        if config.dedup and (src, tgt) in seen:
            continue
        seen.add((src, tgt))
        kept.append((src, tgt))
    return kept


@st.composite
def filter_configs(draw):
    max_tokens = draw(st.integers(0, 5))
    return FilterConfig(
        max_length_ratio=draw(st.sampled_from([0.5, 1.0, 1.5, 3.0, 9.0])),
        min_tokens=draw(st.integers(0, max_tokens)),
        max_tokens=max_tokens,
        dedup=draw(st.booleans()),
    )


class TestFilterMatchesThreeRules:
    @given(st.lists(pair_st, max_size=20), filter_configs())
    def test_equals_reference_predicate(self, pairs, config):
        assert apply_filter(pairs, config) == three_rule_filter(pairs, config)

    def test_zero_bounds(self):
        pairs = [("", "x"), ("a", ""), (" ", "z"), ("a", "x"), ("a b", "x")]
        assert apply_filter(pairs, FilterConfig(min_tokens=0, max_tokens=0)) == []
        assert apply_filter(pairs, FilterConfig(min_tokens=0, max_tokens=1)) == [("a", "x")]


class TestMerge:
    def make_corpora(self):
        st_corpus = build_st_corpus(["s1", "s2"], ["t1", "t2"])
        bt_corpus = build_bt_corpus(["z1"], ["b1"], tag="<BT>")
        return st_corpus, bt_corpus

    def test_concatenates_in_order_without_seed(self):
        st_corpus, bt_corpus = self.make_corpora()
        merged = merge_corpora([st_corpus, bt_corpus])
        assert merged.pairs == st_corpus.pairs + bt_corpus.pairs
        assert merged.provenance == st_corpus.provenance + bt_corpus.provenance

    def test_shuffle_is_deterministic(self):
        st_corpus, bt_corpus = self.make_corpora()
        a = merge_corpora([st_corpus, bt_corpus], shuffle_seed=7)
        b = merge_corpora([st_corpus, bt_corpus], shuffle_seed=7)
        assert a == b

    def test_shuffle_keeps_pair_tag_binding(self):
        st_corpus, bt_corpus = self.make_corpora()
        merged = merge_corpora([st_corpus, bt_corpus], shuffle_seed=123)
        origin = {}
        for corpus in (st_corpus, bt_corpus):
            for pair, tag in zip(corpus.pairs, corpus.provenance):
                origin[pair] = tag
        assert sorted(merged.pairs) == sorted(origin)
        for pair, tag in zip(merged.pairs, merged.provenance):
            assert origin[pair] == tag

    def test_shuffle_order_is_pinned(self):
        # The order a seed gives is part of the determinism contract.
        corpora = [
            build_st_corpus(["s1", "s2", "s3"], ["t1", "t2", "t3"]),
            build_bt_corpus(["z1", "z2"], ["b1", "b2"], tag="<BT>"),
            ParallelCorpus((("g1", "h1"), ("g2", "h2"), ("g3", "h3")), ("genuine",) * 3),
        ]
        merged = merge_corpora(corpora, shuffle_seed=13)
        assert merged.pairs == (
            ("<BT> b1", "z1"), ("s1", "t1"), ("g2", "h2"), ("g3", "h3"),
            ("s2", "t2"), ("g1", "h1"), ("s3", "t3"), ("<BT> b2", "z2"),
        )
        assert merged.provenance == (
            "back-translate", "self-train", "genuine", "genuine",
            "self-train", "genuine", "self-train", "back-translate",
        )

    def test_merge_of_nothing_is_empty(self):
        assert merge_corpora([], shuffle_seed=13) == ParallelCorpus((), ())

    @given(st.integers(0, 2**31), st.lists(pair_st, max_size=10))
    def test_shuffle_is_a_permutation(self, seed, pairs):
        corpus = ParallelCorpus(tuple(pairs), ("genuine",) * len(pairs))
        merged = merge_corpora([corpus], shuffle_seed=seed)
        assert sorted(merged.pairs) == sorted(corpus.pairs)


class TestCorpusFiles:
    def test_write_read_round_trip(self, tmp_path):
        corpus = merge_corpora(
            [build_st_corpus(["s1"], ["t1"]), build_bt_corpus(["z"], ["b"], tag="<BT>")]
        )
        paths = write_corpus(corpus, tmp_path / "corp")
        assert [p.suffix for p in paths] == [".src", ".tgt", ".meta"]
        assert read_corpus(tmp_path / "corp") == corpus

    def test_missing_meta_defaults_to_genuine(self, tmp_path):
        corpus = build_st_corpus(["s"], ["t"])
        write_corpus(corpus, tmp_path / "corp", write_meta=False)
        loaded = read_corpus(tmp_path / "corp")
        assert loaded.pairs == corpus.pairs
        assert loaded.provenance == ("genuine",)

    def test_no_meta_removes_stale_meta(self, tmp_path):
        write_corpus(build_bt_corpus(["z"], ["b"]), tmp_path / "corp")
        paths = write_corpus(build_st_corpus(["s"], ["t"]), tmp_path / "corp", write_meta=False)
        assert [p.suffix for p in paths] == [".src", ".tgt"]
        assert not (tmp_path / "corp.meta").exists()
        assert read_corpus(tmp_path / "corp").provenance == ("genuine",)

    def test_misaligned_files_rejected(self, tmp_path):
        (tmp_path / "corp.src").write_text("a\nb\n")
        (tmp_path / "corp.tgt").write_text("x\n")
        with pytest.raises(AlignmentError):
            read_corpus(tmp_path / "corp")

    def test_misaligned_meta_rejected(self, tmp_path):
        (tmp_path / "corp.src").write_text("a\n")
        (tmp_path / "corp.tgt").write_text("x\n")
        (tmp_path / "corp.meta").write_text("genuine\ngenuine\n")
        with pytest.raises(AlignmentError):
            read_corpus(tmp_path / "corp")


class TestParallelCorpus:
    def test_provenance_must_align(self):
        with pytest.raises(DataError):
            ParallelCorpus((("a", "b"),), ())

    def test_provenance_values_checked(self):
        with pytest.raises(DataError):
            ParallelCorpus((("a", "b"),), ("mystery",))

    def test_column_views(self):
        corpus = ParallelCorpus((("a", "x"), ("b", "y"), ("c", "z")), ("genuine",) * 3)
        assert corpus.sources == ("a", "b", "c")
        assert corpus.targets == ("x", "y", "z")
        assert len(corpus) == 3  # pairs, not fields

    def test_equal_corpora_hash_alike(self):
        corpus = ParallelCorpus((("a", "x"),), ("genuine",))
        twin = ParallelCorpus((("a", "x"),), ("genuine",))
        assert hash(corpus) == hash(twin)
        assert len({corpus, twin}) == 1

    def test_repr_shows_both_fields(self):
        corpus = ParallelCorpus((("a", "x"),), ("self-train",))
        assert repr(corpus) == "ParallelCorpus(pairs=(('a', 'x'),), provenance=('self-train',))"

    def test_never_equals_another_type(self):
        corpus = ParallelCorpus((("a", "x"),), ("genuine",))
        assert corpus != (corpus.pairs, corpus.provenance)
        assert corpus != corpus.pairs

    @pytest.mark.parametrize(
        "bad, index",
        [((("a", "x"), (1, 2)), 1), ((("a",),), 0), ((["a", "x"],), 0), ((("a", "x", "y"),), 0)],
        ids=["not-strings", "one-side", "list", "three-sides"],
    )
    def test_pairs_must_be_tuples_of_two_strings(self, bad, index):
        with pytest.raises(DataError, match=f"pair {index} must be a tuple of two strings"):
            ParallelCorpus(bad, ("genuine",) * len(bad))
