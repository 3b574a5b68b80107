"""Fuzz the three input parsers: each returns or raises a toolkit error.

A parser may reject input only with ``DataError`` or ``ProtocolError``;
any other exception escaping it is a bug the CLI would report as a
traceback instead of an exit code.
"""

from __future__ import annotations

import json
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from mbrforge.bridge import decode_request
from mbrforge.checkpoint import TSF_MAGIC, TensorStore
from mbrforge.errors import DataError, ProtocolError
from mbrforge.promptgen import read_chat_documents

FUZZ = settings(max_examples=100, deadline=None)

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=5), children, max_size=3),
    max_leaves=8,
)

# Records over the real field names, so that lines get past the JSON
# decoder and reach the per-field checks.
chat_records = st.dictionaries(
    st.sampled_from(
        ("doc_id", "turn_index", "speaker", "src_lang", "tgt_lang", "source", "mt", "reference")
    ),
    json_values | st.sampled_from(("customer", "agent", "English", "German", 0, 1)),
    max_size=8,
)

chat_lines = st.text(max_size=40) | json_values.map(json.dumps) | chat_records.map(json.dumps)


@st.composite
def tsf_headers(draw) -> bytes:
    lines = []
    for _ in range(draw(st.integers(0, 3))):
        name = draw(st.sampled_from(("w", "b", "", "w\tx")))
        dtype = draw(st.sampled_from(("f32", "f64")))
        dims = draw(st.lists(st.integers(-3, 4), max_size=3))
        lines.append(f"{name}\t{dtype}\t{','.join(map(str, dims))}\n".encode())
    return TSF_MAGIC + b"\n" + b"".join(lines) + b"\n"


tsf_containers = st.one_of(
    st.binary(max_size=120).map(lambda tail: TSF_MAGIC + b"\n" + tail),
    st.tuples(tsf_headers(), st.binary(max_size=64)).map(b"".join),
)


@FUZZ
@given(tsf_containers)
def test_tensor_store_parse(data):
    try:
        TensorStore.parse(data)
    except DataError:
        pass


@FUZZ
@given(st.text(max_size=200) | st.lists(chat_lines, max_size=4).map("\n".join))
def test_read_chat_documents(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "chat.jsonl"
        path.write_text(text, encoding="utf-8")
        try:
            read_chat_documents(path)
        except DataError:
            pass


@FUZZ
@given(st.text(max_size=60))
def test_decode_request(line):
    try:
        decode_request(line)
    except (DataError, ProtocolError):
        pass
