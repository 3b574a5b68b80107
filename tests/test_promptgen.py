"""Prompt renderers: byte-exact goldens, parsers, JSONL ingestion."""

from __future__ import annotations

import json
import sys
import tracemalloc

import pytest
from hypothesis import given
from hypothesis import strategies as st

from mbrforge.errors import DataError
from mbrforge.promptgen import (
    INSTRUCTION_TEMPLATE,
    ChatDocument,
    ChatTurn,
    parse_context,
    parse_stream,
    read_chat_documents,
    render_context,
    render_fewshot,
    render_fewshot_turn,
    render_stream,
)
from fixtures import (
    TOY_DEMOS,
    TOY_QUERY,
    read_golden,
    toy_chat_doc,
    toy_chat_doc_2turn,
    write_doc_jsonl,
)

field_st = st.text(alphabet="ab c,", min_size=1, max_size=12).filter(
    lambda s: s.strip() == s and s != ""
)


def record_line(**overrides) -> str:
    """One JSONL chat record for turn 0, with fields replaced by ``overrides``."""
    record = {
        "doc_id": "d", "turn_index": 0, "speaker": "customer",
        "src_lang": "English", "tgt_lang": "German", "source": "s", "mt": "m",
    }
    return json.dumps({**record, **overrides})


def make_turn(**overrides) -> ChatTurn:
    base = dict(
        speaker="customer",
        src_lang="English",
        tgt_lang="German",
        source="src",
        mt="mt",
        reference="ref",
    )
    base.update(overrides)
    return ChatTurn(**base)


class TestGoldens:
    def test_stream_five_turn(self):
        prompt = render_stream(toy_chat_doc(), index=4, k_history=3)
        assert prompt.text == read_golden("stream_toy.txt")
        assert prompt.completion == "Klar, lassen Sie sich Zeit."

    def test_stream_two_turn(self):
        prompt = render_stream(toy_chat_doc_2turn(), index=1, k_history=1)
        assert prompt.text == read_golden("stream_mini.txt")
        assert prompt.completion == "Yes, we have three left."

    def test_context_five_turn(self):
        prompt = render_context(toy_chat_doc(), index=2, before=2, after=2)
        assert prompt.text == read_golden("context_toy.txt")
        assert prompt.completion == "Sie lautet 4711."

    def test_fewshot(self):
        prompt = render_fewshot(TOY_DEMOS, TOY_QUERY, ("English", "German"), k=5)
        assert prompt.text == read_golden("fewshot_toy.txt")
        assert prompt.completion == ""


class TestStream:
    def test_no_history_at_document_start(self):
        prompt = render_stream(toy_chat_doc(), index=0, k_history=3)
        lines = prompt.text.split("\n")
        assert len(lines) == 2
        assert lines[0].startswith("Translate the following sentence into German")
        assert lines[1].endswith("Natural German: ")

    def test_k_zero_means_no_history(self):
        prompt = render_stream(toy_chat_doc(), index=4, k_history=0)
        assert len(prompt.text.split("\n")) == 2

    def test_history_clipped_at_start(self):
        prompt = render_stream(toy_chat_doc(), index=1, k_history=99)
        assert len(prompt.text.split("\n")) == 3

    def test_missing_history_reference_rejected(self):
        doc = ChatDocument(
            doc_id="d",
            turns=(make_turn(reference=None), make_turn(src_lang="German", tgt_lang="English")),
        )
        with pytest.raises(DataError, match="turn 0"):
            render_stream(doc, index=1, k_history=1)

    def test_missing_reference_names_its_document_position(self):
        german = dict(src_lang="German", tgt_lang="English")
        turns = (make_turn(), make_turn(**german), make_turn(reference=None), make_turn(**german))
        doc = ChatDocument(doc_id="d", turns=turns)
        render_stream(doc, index=2, k_history=2)  # the query turn needs no reference
        with pytest.raises(DataError, match="turn 2 of 'd' has none"):
            render_stream(doc, index=3, k_history=3)

    def test_query_without_reference_has_empty_completion(self):
        doc = ChatDocument(doc_id="d", turns=(make_turn(reference=None),))
        assert render_stream(doc, index=0, k_history=0).completion == ""

    def test_bad_index(self):
        with pytest.raises(DataError, match="out of range 0..4"):
            render_stream(toy_chat_doc(), index=5, k_history=1)

    def test_negative_k(self):
        with pytest.raises(DataError):
            render_stream(toy_chat_doc(), index=0, k_history=-1)

    def test_parse_round_trip(self):
        doc = toy_chat_doc()
        parsed = parse_stream(render_stream(doc, index=4, k_history=3).text)
        assert parsed.instruction_lang == "German"
        assert parsed.query_source == "Sure, take your time."
        assert parsed.query_mt == "Sicher, nehmen Sie sich Zeit."
        assert len(parsed.history) == 3
        assert parsed.history[1] == (
            "English",
            "German",
            "It is 4711.",
            "Es ist 4711.",
            "Sie lautet 4711.",
        )


class TestContext:
    def test_window_clipped_at_edges(self):
        prompt = render_context(toy_chat_doc(), index=0, before=5, after=0)
        assert len(prompt.text.split("\n")) == 3  # own line, instruction, query

    def test_after_turns_included(self):
        prompt = render_context(toy_chat_doc(), index=0, before=0, after=1)
        lines = prompt.text.split("\n")
        assert len(lines) == 4
        assert "Gerne, wie lautet" in lines[1]

    def test_exclude_query_context(self):
        with_query = render_context(toy_chat_doc(), index=2, before=2, after=2)
        without = render_context(
            toy_chat_doc(), index=2, before=2, after=2, include_query_context=False
        )
        assert len(with_query.text.split("\n")) == 7
        assert len(without.text.split("\n")) == 6
        assert "Es ist 4711." not in without.text

    def test_negative_window(self):
        with pytest.raises(DataError):
            render_context(toy_chat_doc(), index=0, before=-1, after=0)

    def test_parse_round_trip(self):
        parsed = parse_context(render_context(toy_chat_doc(), index=2, before=2, after=2).text)
        assert parsed.instruction_lang == "German"
        assert parsed.query_source == "It is 4711."
        assert parsed.query_mt is None
        assert len(parsed.history) == 5
        assert parsed.history[0][2] == "Hello, I need help with my order."


class TestFewshot:
    def test_takes_first_k_in_order(self):
        prompt = render_fewshot(TOY_DEMOS, TOY_QUERY, ("English", "German"), k=2)
        assert prompt.text == (
            "English: Good morning!\nGerman: Guten Morgen!\n\n"
            "English: Where is the station?\nGerman: Wo ist der Bahnhof?\n\n"
            "English: How much does it cost?\nGerman: "
        )

    def test_k_zero_is_just_the_query(self):
        prompt = render_fewshot(TOY_DEMOS, TOY_QUERY, ("English", "German"), k=0)
        assert prompt.text == "English: How much does it cost?\nGerman: "

    def test_negative_k(self):
        with pytest.raises(DataError, match="k must be >= 0, got -1"):
            render_fewshot(TOY_DEMOS, TOY_QUERY, ("English", "German"), k=-1)

    def test_pool_too_small(self):
        with pytest.raises(DataError, match="need at least k=7 demonstrations, got 6"):
            render_fewshot(TOY_DEMOS, TOY_QUERY, ("English", "German"), k=7)

    @given(st.lists(st.tuples(field_st, field_st), min_size=1, max_size=6))
    def test_block_count(self, demos):
        k = len(demos)
        prompt = render_fewshot(demos, "query", ("A", "B"), k=k)
        assert prompt.text.count("\n\n") == k


class TestFewshotTurn:
    """The pool is the document's other referenced turns in the query's direction."""

    DOC = ChatDocument(
        doc_id="d",
        turns=(
            make_turn(source="q", reference="Q"),
            make_turn(source="a", reference="A"),
            make_turn(src_lang="German", tgt_lang="English", source="back", reference="BACK"),
            make_turn(source="unref", reference=None),
            make_turn(source="b", reference="B"),
        ),
    )

    def test_query_turn_left_out_of_its_own_pool(self):
        prompt = render_fewshot_turn(self.DOC, 0, k=2)
        assert prompt.text == (
            "English: a\nGerman: A\n\nEnglish: b\nGerman: B\n\nEnglish: q\nGerman: "
        )
        with pytest.raises(DataError, match="need at least k=3 demonstrations, got 2"):
            render_fewshot_turn(self.DOC, 0, k=3)

    def test_other_direction_left_out(self):
        with pytest.raises(DataError, match="need at least k=1 demonstrations, got 0"):
            render_fewshot_turn(self.DOC, 2, k=1)
        assert render_fewshot_turn(self.DOC, 2, k=0).text == "German: back\nEnglish: "

    def test_turns_without_reference_left_out(self):
        prompt = render_fewshot_turn(self.DOC, 3, k=3)
        assert prompt.text == (
            "English: q\nGerman: Q\n\nEnglish: a\nGerman: A\n\n"
            "English: b\nGerman: B\n\nEnglish: unref\nGerman: "
        )
        with pytest.raises(DataError, match="need at least k=4 demonstrations, got 3"):
            render_fewshot_turn(self.DOC, 3, k=4)

    @pytest.mark.parametrize(
        "k, message",
        [
            (-1, "k must be >= 0, got -1"),
            (sys.maxsize + 1, f"need at least k={sys.maxsize + 1} demonstrations, got 2"),
        ],
    )
    def test_k_out_of_islice_range(self, k, message):
        """A bound itertools.islice rejects still gets render_fewshot's own message."""
        with pytest.raises(DataError, match=f"^{message}$"):
            render_fewshot_turn(self.DOC, 0, k=k)

    @pytest.mark.parametrize("index", [-1, 5])
    def test_bad_index(self, index):
        with pytest.raises(DataError, match="out of range"):
            render_fewshot_turn(self.DOC, index, k=0)

    @pytest.mark.parametrize("index, completion", [(0, "Q"), (2, "BACK"), (3, "")])
    def test_completion_is_the_reference(self, index, completion):
        assert render_fewshot_turn(self.DOC, index, k=0).completion == completion


class TestTurnValidation:
    def test_speaker_checked(self):
        with pytest.raises(DataError, match="unknown speaker"):
            make_turn(speaker="robot")

    def test_languages_must_differ(self):
        with pytest.raises(DataError, match="both"):
            make_turn(tgt_lang="English")

    def test_source_must_be_nonempty(self):
        with pytest.raises(DataError, match="source"):
            make_turn(source="")

    @pytest.mark.parametrize(
        "field, value, type_name",
        [("speaker", 0, "int"), ("source", ["x"], "list"), ("mt", 5, "int"),
         ("reference", 7, "int"), ("src_lang", None, "NoneType")],
    )
    def test_fields_must_be_strings(self, field, value, type_name):
        with pytest.raises(DataError, match=f"field {field!r} must be a string, got {type_name}"):
            make_turn(**{field: value})

    @pytest.mark.parametrize("field", ["source", "mt", "reference", "tgt_lang"])
    def test_fields_must_be_utf8(self, field):
        with pytest.raises(DataError, match=f"field {field!r} is not valid UTF-8: surrogates"):
            make_turn(**{field: "hi \ud800 there"})

    def test_type_checked_before_the_other_rules(self):
        with pytest.raises(DataError, match="field 'mt' must be a string"):
            make_turn(speaker="robot", mt=5)

    def test_document_needs_turns(self):
        with pytest.raises(DataError, match="no turns"):
            ChatDocument(doc_id="d", turns=())

    @pytest.mark.parametrize(
        "doc_id, match",
        [(7, "must be a string, got int"), (["x"], "must be a string, got list"),
         ("d\ud800", "is not valid UTF-8")],
    )
    def test_document_id_checked(self, doc_id, match):
        with pytest.raises(DataError, match=f"field 'doc_id' {match}"):
            ChatDocument(doc_id=doc_id, turns=(make_turn(),))

    @pytest.mark.parametrize("bad", [1, None, tuple(make_turn())], ids=["int", "none", "tuple"])
    def test_document_turns_must_be_chat_turns(self, bad):
        with pytest.raises(DataError, match="turn 1 of 'd' is not a ChatTurn"):
            ChatDocument(doc_id="d", turns=(make_turn(), bad))


class TestParsers:
    def test_no_instruction_line(self):
        with pytest.raises(DataError, match="no instruction line"):
            parse_stream("just some text")

    def test_instruction_must_precede_query(self):
        text = (
            "Translate the following sentence into German with a style bias towards Natural:\n"
            "stray\n"
            "Natural English: x, Translated German: y, Natural German: "
        )
        with pytest.raises(DataError, match="exactly the query line"):
            parse_stream(text)

    @given(
        st.lists(st.tuples(field_st, field_st, field_st), min_size=0, max_size=3),
        field_st,
        field_st,
    )
    def test_stream_round_trip_property(self, history_fields, query_source, query_mt):
        turns = [
            make_turn(
                src_lang="English",
                tgt_lang="German",
                source=src,
                mt=mt,
                reference=ref,
            )
            for src, mt, ref in history_fields
        ]
        turns.append(
            make_turn(
                src_lang="German",
                tgt_lang="English",
                source=query_source,
                mt=query_mt,
                reference=None,
            )
        )
        doc = ChatDocument(doc_id="prop", turns=tuple(turns))
        index = len(turns) - 1
        parsed = parse_stream(render_stream(doc, index, k_history=len(history_fields)).text)
        assert parsed.query_source == query_source
        assert parsed.query_mt == query_mt
        assert parsed.history == tuple(tuple(turn)[1:] for turn in turns[:-1])

    @given(
        st.lists(st.tuples(field_st, field_st), min_size=1, max_size=5),
        st.integers(0, 4),
        st.integers(0, 3),
        st.integers(0, 3),
        st.booleans(),
    )
    def test_context_round_trip_property(self, fields, index, before, after, own_line):
        index %= len(fields)
        langs = ("English", "German")
        turns = tuple(
            make_turn(src_lang=langs[pos % 2], tgt_lang=langs[1 - pos % 2], source=src, mt=mt)
            for pos, (src, mt) in enumerate(fields)
        )
        doc = ChatDocument(doc_id="prop", turns=turns)
        text = render_context(doc, index, before, after, include_query_context=own_line).text
        parsed = parse_context(text)
        window = [
            (turn.src_lang, turn.tgt_lang, turn.source, turn.mt, None)
            for pos, turn in enumerate(turns)
            if index - before <= pos <= index + after and (own_line or pos != index)
        ]
        query = turns[index]
        assert parsed.history == tuple(window)
        assert parsed.instruction_lang == query.tgt_lang
        assert parsed.query_src_lang == query.src_lang
        assert parsed.query_tgt_lang == query.tgt_lang
        assert parsed.query_source == query.source
        assert parsed.query_mt is None

    @pytest.mark.parametrize(
        "parse,head,query,message",
        [
            (
                parse_stream,
                "Natural English: a, Translated German: b\n",
                "Natural English: x, Translated German: y, Natural German: ",
                "unparsable stream history line: 'Natural English: a, Translated German: b'",
            ),
            (
                parse_stream,
                "",
                "Natural English: x, Natural German: ",
                "unparsable stream query line: 'Natural English: x, Natural German: '",
            ),
            (
                parse_context,
                "Natural English: a\n",
                "Natural English: x, Natural German: ",
                "unparsable context line: 'Natural English: a'",
            ),
            (
                parse_context,
                "",
                "Natural English: x, German: ",
                "unparsable context query line: 'Natural English: x, German: '",
            ),
        ],
        ids=["stream-history", "stream-query", "context", "context-query"],
    )
    def test_garbled_line_is_named(self, parse, head, query, message):
        text = head + INSTRUCTION_TEMPLATE.format(tgt_lang="German") + "\n" + query
        with pytest.raises(DataError) as exc_info:
            parse(text)
        assert str(exc_info.value) == message


class TestJsonlReader:
    def test_round_trip(self, tmp_path):
        doc = toy_chat_doc()
        path = tmp_path / "chat.jsonl"
        write_doc_jsonl(doc, path)
        assert read_chat_documents(path) == [doc]

    def test_turns_sorted_by_index(self, tmp_path):
        doc = toy_chat_doc_2turn()
        path = tmp_path / "chat.jsonl"
        write_doc_jsonl(doc, path)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(reversed(lines)) + "\n")
        assert read_chat_documents(path) == [doc]

    def test_documents_keep_first_appearance_order(self, tmp_path):
        d1 = toy_chat_doc_2turn()
        d2 = toy_chat_doc()
        path = tmp_path / "chat.jsonl"
        write_doc_jsonl(d1, tmp_path / "a.jsonl")
        write_doc_jsonl(d2, tmp_path / "b.jsonl")
        interleaved = []
        a_lines = (tmp_path / "a.jsonl").read_text().splitlines()
        b_lines = (tmp_path / "b.jsonl").read_text().splitlines()
        interleaved.append(a_lines[0])
        interleaved.extend(b_lines)
        interleaved.extend(a_lines[1:])
        path.write_text("\n".join(interleaved) + "\n")
        assert read_chat_documents(path) == [d1, d2]

    def test_duplicate_turn_index(self, tmp_path):
        path = tmp_path / "chat.jsonl"
        line = (
            '{"doc_id": "d", "turn_index": 0, "speaker": "customer", '
            '"src_lang": "English", "tgt_lang": "German", "source": "s", "mt": "m"}'
        )
        path.write_text(line + "\n" + line + "\n")
        with pytest.raises(DataError, match="duplicate turn 0"):
            read_chat_documents(path)

    def test_invalid_json_names_the_line(self, tmp_path):
        path = tmp_path / "chat.jsonl"
        path.write_text("{broken\n")
        with pytest.raises(DataError, match=":1:"):
            read_chat_documents(path)

    def test_missing_field(self, tmp_path):
        path = tmp_path / "chat.jsonl"
        path.write_text('{"doc_id": "d", "turn_index": 0}\n')
        with pytest.raises(DataError, match="missing field"):
            read_chat_documents(path)

    @pytest.mark.parametrize(
        "line,match",
        [
            ("[1, 2]", "expected a JSON object"),
            ("[" * 100_000, "invalid JSON"),
            ("1" * 5_000, "invalid JSON"),
            (record_line(turn_index="x"), "turn_index must be an integer"),
            (record_line(turn_index=None), "turn_index must be an integer"),
            (record_line(turn_index=1.0), "turn_index must be an integer"),
            (record_line(source=["s"]), "'source' must be a string"),
            (record_line(speaker=0), "'speaker' must be a string"),
            (record_line(reference=5), "'reference' must be a string"),
            (record_line(doc_id=1.0), "'doc_id' must be a string or an integer, got float"),
            (record_line(doc_id=True), "'doc_id' must be a string or an integer, got bool"),
            (record_line(doc_id={}), "'doc_id' must be a string or an integer, got dict"),
            (record_line(source="hi \ud800 there"), "'source' is not valid UTF-8"),
            (record_line(doc_id="d\udfff"), "'doc_id' is not valid UTF-8"),
            (record_line(speaker="robot"), "unknown speaker: 'robot'"),
            (record_line(tgt_lang="English"), "src_lang and tgt_lang are both 'English'"),
            (record_line(source=""), "turn source must not be empty"),
        ],
        ids=["array", "deep-nesting", "long-integer", "index-str", "index-null",
             "index-float", "source-list", "speaker-int", "reference-int",
             "doc-float", "doc-bool", "doc-object", "source-surrogate", "doc-surrogate",
             "speaker-unknown", "same-languages", "source-empty"],
    )
    def test_bad_record(self, tmp_path, line, match):
        path = tmp_path / "chat.jsonl"
        path.write_text(record_line() + "\n" + line + "\n")
        with pytest.raises(DataError, match=f":2: .*{match}"):
            read_chat_documents(path)

    @pytest.mark.parametrize(
        "doc_id,lookalike,type_name",
        [(None, "None", "NoneType"), ([1], "[1]", "list")],
        ids=["null", "list"],
    )
    def test_doc_id_never_merges_with_its_string_form(
        self, tmp_path, doc_id, lookalike, type_name
    ):
        path = tmp_path / "chat.jsonl"
        path.write_text(
            record_line(doc_id=lookalike) + "\n" + record_line(doc_id=doc_id, turn_index=1) + "\n"
        )
        with pytest.raises(
            DataError, match=f":2: field 'doc_id' must be a string or an integer, got {type_name}"
        ):
            read_chat_documents(path)

    def test_integer_doc_id_reads_as_string(self, tmp_path):
        path = tmp_path / "chat.jsonl"
        path.write_text(record_line(doc_id=7) + "\n")
        [doc] = read_chat_documents(path)
        assert doc.doc_id == "7"

    @pytest.mark.parametrize("char", ["\x85", "\u2028", "\u2029"], ids=["nel", "ls", "ps"])
    def test_unicode_line_breaks_stay_inside_strings(self, tmp_path, char):
        # JSON allows these raw inside strings and json.dumps(ensure_ascii=False)
        # writes them raw, so records are split on LF alone.
        doc = ChatDocument(
            doc_id=f"d{char}1",
            turns=(
                make_turn(source=f"Hello{char}world", mt=f"Hallo{char}Welt"),
                make_turn(source="two", mt="zwei", reference=f"zw{char}ei"),
            ),
        )
        path = tmp_path / "chat.jsonl"
        write_doc_jsonl(doc, path)
        assert read_chat_documents(path) == [doc]

    def test_non_utf8_file(self, tmp_path):
        path = tmp_path / "chat.jsonl"
        path.write_bytes(b'{"source": "caf\xe9"}\n')
        with pytest.raises(DataError, match="chat.jsonl: not valid UTF-8"):
            read_chat_documents(path)

    def test_blank_lines_skipped(self, tmp_path):
        doc = toy_chat_doc_2turn()
        path = tmp_path / "chat.jsonl"
        write_doc_jsonl(doc, path)
        path.write_text("\n" + path.read_text() + "\n\n")
        assert read_chat_documents(path) == [doc]

    @pytest.mark.parametrize(
        "data, message",
        [(b"\n\n" + record_line().encode() + b"\n\n{broken",
          ":5: invalid JSON: Expecting property name enclosed in double quotes: "
          "line 1 column 2 (char 1)"),
         (record_line().encode() + b"\n\n" + record_line(mt="cafe").encode()[:-3] + b'\xe9"}',
          ": not valid UTF-8 at byte 254")],
        ids=["json-line", "utf8-offset"],
    )
    def test_error_names_the_line_or_byte(self, tmp_path, data, message):
        # Blank lines count, and a last line without LF is read.
        path = tmp_path / "chat.jsonl"
        path.write_bytes(data)
        with pytest.raises(DataError) as exc_info:
            read_chat_documents(path)
        assert str(exc_info.value) == f"{path}{message}"


class TestChatMemory:
    """Reading a chat file holds its text once, not also a list of its lines."""

    def test_peak_above_the_documents_under_one_and_a_half_files(self, tmp_path):
        path = tmp_path / "chat.jsonl"
        path.write_text("".join(
            record_line(doc_id=f"d{d}", turn_index=t, source=f"turn {t} of document {d}",
                        mt=f"Zug {t} von Dokument {d}", reference=f"Runde {t} im Dokument {d}")
            + "\n"
            for d in range(20)
            for t in range(250)
        ))
        tracemalloc.start()
        try:
            documents = read_chat_documents(path)
            retained, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(documents) == 20
        assert peak - retained < 1.5 * path.stat().st_size
