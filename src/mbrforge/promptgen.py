"""Prompt rendering for chat-translation SFT data and few-shot inference.

Two line-oriented layouts over bilingual chat turns:

* streaming: the history lines carry source, machine translation and the
  human reference of each previous turn, then an instruction line, then
  the current turn truncated right after the final ``Natural {lang}: ``
  label so the reference is the completion.
* context-aware: a symmetric window of neighbouring turns with their
  machine translations (no references), the instruction line, and a query
  line asking directly for the natural translation.

All renders are byte-deterministic; every colon is followed by exactly
one space (the layouts are normalized to that rule).  Each line layout is
one template; the renderers fill it in and the parsers match the pattern
built from it, so a parse recovers the fields exactly as long as segments
do not embed the label strings themselves.
"""

from __future__ import annotations

import json
import re
from pathlib import Path
from typing import NamedTuple, Sequence

from .errors import DataError, located, validated
from .textio import read_text

SPEAKERS = ("customer", "agent")

INSTRUCTION_TEMPLATE = (
    "Translate the following sentence into {tgt_lang} with a style bias towards Natural:"
)
# The other line layouts, each filled in from one ChatTurn by str.format.
_CONTEXT_LINE = "Natural {0.src_lang}: {0.source}, Translated {0.tgt_lang}: {0.mt}"
_HISTORY_LINE = _CONTEXT_LINE + ", Natural {0.tgt_lang}: {0.reference}"
_STREAM_QUERY = _CONTEXT_LINE + ", Natural {0.tgt_lang}: "
_CONTEXT_QUERY = "Natural {0.src_lang}: {0.source}, Natural {0.tgt_lang}: "


def _check_text(name: str, value: object) -> None:
    """Raise a DataError unless ``value`` is a str that encodes as UTF-8."""
    if not isinstance(value, str):
        raise DataError(f"field {name!r} must be a string, got {type(value).__name__}")
    try:
        value.encode()
    except UnicodeEncodeError as exc:  # a lone surrogate, as from a \ud800-style escape
        raise DataError(f"field {name!r} is not valid UTF-8: {exc.reason}") from None


@validated
class ChatTurn(NamedTuple):
    """One turn; every field is a UTF-8 encodable str, and ``reference`` may be None."""

    speaker: str
    src_lang: str
    tgt_lang: str
    source: str
    mt: str
    reference: str | None = None

    def _check(self) -> None:
        for name, value in zip(self._fields, self):
            if value is not None or name != "reference":
                _check_text(name, value)
        if self.speaker not in SPEAKERS:
            raise DataError(f"unknown speaker: {self.speaker!r}")
        if self.src_lang == self.tgt_lang:
            raise DataError(f"src_lang and tgt_lang are both {self.src_lang!r}")
        if self.source == "":
            raise DataError("turn source must not be empty")


TURN_FIELDS = ChatTurn._fields[:-1]  # required strings: every field but ``reference``


@validated
class ChatDocument(NamedTuple):
    doc_id: str
    turns: tuple[ChatTurn, ...]

    def _check(self) -> None:
        _check_text("doc_id", self.doc_id)
        if not self.turns:
            raise DataError(f"document {self.doc_id!r} has no turns")
        for pos, turn in enumerate(self.turns):
            if not isinstance(turn, ChatTurn):
                raise DataError(f"turn {pos} of {self.doc_id!r} is not a ChatTurn: {turn!r}")


class RenderedPrompt(NamedTuple):
    text: str
    completion: str


def _check_index(doc: ChatDocument, index: int) -> ChatTurn:
    if not 0 <= index < len(doc.turns):
        raise DataError(
            f"turn index {index} out of range 0..{len(doc.turns) - 1} "
            f"in document {doc.doc_id!r}"
        )
    return doc.turns[index]


def render_stream(doc: ChatDocument, index: int, k_history: int) -> RenderedPrompt:
    """History-only layout; previous turns must carry references."""
    query = _check_index(doc, index)
    if k_history < 0:
        raise DataError(f"k_history must be >= 0, got {k_history}")
    lines = []
    for pos in range(max(0, index - k_history), index):
        if doc.turns[pos].reference is None:
            raise DataError(
                f"stream render needs a reference on every history turn; "
                f"turn {pos} of {doc.doc_id!r} has none"
            )
        lines.append(_HISTORY_LINE.format(doc.turns[pos]))
    lines.append(INSTRUCTION_TEMPLATE.format(tgt_lang=query.tgt_lang))
    lines.append(_STREAM_QUERY.format(query))
    return RenderedPrompt("\n".join(lines), query.reference or "")


def render_context(
    doc: ChatDocument,
    index: int,
    before: int,
    after: int,
    include_query_context: bool = True,
) -> RenderedPrompt:
    """Window layout: neighbours with machine translations, then the query.

    The window is clipped at the document edges.  By default the query
    turn's own machine-translation line appears inside the window;
    ``include_query_context=False`` drops it.
    """
    query = _check_index(doc, index)
    if before < 0 or after < 0:
        raise DataError(f"window bounds must be >= 0, got before={before} after={after}")
    lines = [
        _CONTEXT_LINE.format(doc.turns[pos])
        for pos in range(max(0, index - before), min(len(doc.turns), index + after + 1))
        if include_query_context or pos != index
    ]
    lines.append(INSTRUCTION_TEMPLATE.format(tgt_lang=query.tgt_lang))
    lines.append(_CONTEXT_QUERY.format(query))
    return RenderedPrompt("\n".join(lines), query.reference or "")


def render_fewshot(
    demos: Sequence[tuple[str, str]],
    query_source: str,
    langs: tuple[str, str],
    k: int = 5,
) -> RenderedPrompt:
    """k worked (source, reference) demonstrations, then the query block.

    Demos are taken first-k in list order; permuting the input permutes
    the blocks identically.
    """
    if k < 0:
        raise DataError(f"k must be >= 0, got {k}")
    if len(demos) < k:
        raise DataError(f"need at least k={k} demonstrations, got {len(demos)}")
    src_lang, tgt_lang = langs
    blocks = [f"{src_lang}: {src}\n{tgt_lang}: {ref}\n\n" for src, ref in demos[:k]]
    blocks.append(f"{src_lang}: {query_source}\n{tgt_lang}: ")
    return RenderedPrompt("".join(blocks), "")


def render_fewshot_turn(doc: ChatDocument, index: int, k: int) -> RenderedPrompt:
    """Few-shot layout for one turn; its reference, if any, is the completion.

    The demonstrations are the first k turns in the query's direction that carry
    a reference, in document order, without the query; the scan stops at k.
    """
    query = _check_index(doc, index)
    langs = (query.src_lang, query.tgt_lang)
    pool = (
        (turn.source, turn.reference)
        for pos, turn in enumerate(doc.turns)
        if pos != index and turn.reference is not None and (turn.src_lang, turn.tgt_lang) == langs
    )
    demos = [demo for _, demo in zip(range(k), pool)]  # islice rejects k < 0 and k > maxsize
    prompt = render_fewshot(demos, query.source, langs, k=k)
    return RenderedPrompt(prompt.text, query.reference or "")


class ParsedPrompt(NamedTuple):
    """Fields recovered from a rendered prompt."""

    # One (src_lang, tgt_lang, source, mt, reference) per line, ChatTurn's field order.
    history: tuple[tuple[str, str, str, str, str | None], ...]
    instruction_lang: str
    query_src_lang: str
    query_tgt_lang: str
    query_source: str
    query_mt: str | None


def _pattern(template: str, lang: str = "[^:]+") -> str:
    """The regex for a line filled in from ``template``.

    A ``*_lang`` field matches ``lang``, any other field ``.*``, and a
    field that appears again must repeat its first value.
    """
    pieces = re.split(r"\{(?:0\.)?(\w+)\}", template)
    pattern, seen = re.escape(pieces[0]), set()
    for name, literal in zip(pieces[1::2], pieces[2::2]):
        if name in seen:
            pattern += f"(?P={name})"
        else:
            seen.add(name)
            pattern += f"(?P<{name}>{lang if name.endswith('_lang') else '.*'})"
        pattern += re.escape(literal)
    return pattern


def _fields(template: str, line: str, name: str) -> dict[str, str]:
    match = re.fullmatch(_pattern(template), line)
    if not match:
        raise DataError(f"unparsable {name} line: {line!r}")
    return match.groupdict()


def _parse(
    text: str, line_template: str, line_name: str, query_template: str, query_name: str
) -> ParsedPrompt:
    lines = text.split("\n")
    for pos, line in enumerate(lines):
        # Any language fills the instruction line; the others need one without ":".
        match = re.fullmatch(_pattern(INSTRUCTION_TEMPLATE, lang=".+"), line)
        if match:
            if pos != len(lines) - 2:
                raise DataError("instruction line is not followed by exactly the query line")
            break
    else:
        raise DataError("no instruction line found in rendered prompt")
    history = []
    for line in lines[:pos]:
        turn = _fields(line_template, line, line_name)
        history.append(tuple(map(turn.get, ChatTurn._fields[1:])))  # all but speaker
    query = _fields(query_template, lines[-1], query_name)
    return ParsedPrompt(
        history=tuple(history),
        instruction_lang=match["tgt_lang"],
        query_src_lang=query["src_lang"],
        query_tgt_lang=query["tgt_lang"],
        query_source=query["source"],
        query_mt=query.get("mt"),
    )


def parse_stream(text: str) -> ParsedPrompt:
    """Recover the fields of a streaming render."""
    return _parse(text, _HISTORY_LINE, "stream history", _STREAM_QUERY, "stream query")


def parse_context(text: str) -> ParsedPrompt:
    """Recover the fields of a context-aware render."""
    return _parse(text, _CONTEXT_LINE, "context", _CONTEXT_QUERY, "context query")


def read_chat_documents(path: str | Path) -> list[ChatDocument]:
    """Read JSONL turn records grouped into documents.

    One turn per line with fields doc_id, turn_index, speaker, src_lang,
    tgt_lang, source, mt and optional reference.  ``doc_id`` is a string,
    or an integer read as its decimal string.  Turns are ordered by
    turn_index within a document; documents keep first-appearance order.
    """
    grouped: dict[str, dict[int, ChatTurn]] = {}
    raw = read_text(path)
    for lineno, line in enumerate(raw.split("\n"), start=1):
        if not line.strip():
            continue
        with located(f"{path}:{lineno}"):
            try:
                record = json.loads(line)
            except (ValueError, RecursionError) as exc:
                raise DataError(f"invalid JSON: {exc}") from exc
            if not isinstance(record, dict):
                raise DataError(f"expected a JSON object, got {type(record).__name__}")
            try:
                doc_id = record["doc_id"]
                turn_index = record["turn_index"]
                fields = {name: record[name] for name in TURN_FIELDS}
            except KeyError as exc:
                raise DataError(f"missing field {exc}") from exc
            if type(doc_id) is int:
                doc_id = str(doc_id)
            elif not isinstance(doc_id, str):
                raise DataError(
                    f"field 'doc_id' must be a string or an integer, got {type(doc_id).__name__}"
                )
            if type(turn_index) is not int:
                raise DataError(f"turn_index must be an integer, got {type(turn_index).__name__}")
            _check_text("doc_id", doc_id)
            turn = ChatTurn(**fields, reference=record.get("reference"))
            turns = grouped.setdefault(doc_id, {})
            if turn_index in turns:
                raise DataError(f"duplicate turn {turn_index} in {doc_id!r}")
            turns[turn_index] = turn
    documents = []
    for doc_id, turns in grouped.items():
        ordered = tuple(turns[i] for i in sorted(turns))
        documents.append(ChatDocument(doc_id=doc_id, turns=ordered))
    return documents
