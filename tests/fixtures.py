"""Shared test data and helpers: toy chat documents, their JSONL form, a memory probe."""

from __future__ import annotations

import json
import tracemalloc
from pathlib import Path

from mbrforge.promptgen import ChatDocument, ChatTurn

GOLDEN_DIR = Path(__file__).parent / "golden"


def toy_chat_doc() -> ChatDocument:
    """Five alternating customer/agent turns, all with references."""
    return ChatDocument(
        doc_id="toy-chat",
        turns=(
            ChatTurn(
                speaker="customer",
                src_lang="English",
                tgt_lang="German",
                source="Hello, I need help with my order.",
                mt="Hallo, ich brauche Hilfe mit meiner Bestellung.",
                reference="Hallo, ich benötige Hilfe bei meiner Bestellung.",
            ),
            ChatTurn(
                speaker="agent",
                src_lang="German",
                tgt_lang="English",
                source="Gerne, wie lautet Ihre Bestellnummer?",
                mt="Gladly, what is your order number?",
                reference="Of course, what is your order number?",
            ),
            ChatTurn(
                speaker="customer",
                src_lang="English",
                tgt_lang="German",
                source="It is 4711.",
                mt="Es ist 4711.",
                reference="Sie lautet 4711.",
            ),
            ChatTurn(
                speaker="agent",
                src_lang="German",
                tgt_lang="English",
                source="Danke, einen Moment bitte.",
                mt="Thanks, one moment please.",
                reference="Thank you, one moment please.",
            ),
            ChatTurn(
                speaker="customer",
                src_lang="English",
                tgt_lang="German",
                source="Sure, take your time.",
                mt="Sicher, nehmen Sie sich Zeit.",
                reference="Klar, lassen Sie sich Zeit.",
            ),
        ),
    )


def toy_chat_doc_2turn() -> ChatDocument:
    """Minimal two-turn exchange for the smallest history render."""
    return ChatDocument(
        doc_id="toy-mini",
        turns=(
            ChatTurn(
                speaker="customer",
                src_lang="English",
                tgt_lang="German",
                source="Is the blue one in stock?",
                mt="Ist die blaue auf Lager?",
                reference="Ist das blaue Modell auf Lager?",
            ),
            ChatTurn(
                speaker="agent",
                src_lang="German",
                tgt_lang="English",
                source="Ja, wir haben noch drei Stück.",
                mt="Yes, we still have three pieces.",
                reference="Yes, we have three left.",
            ),
        ),
    )


TOY_DEMOS = (
    ("Good morning!", "Guten Morgen!"),
    ("Where is the station?", "Wo ist der Bahnhof?"),
    ("The train is late.", "Der Zug hat Verspätung."),
    ("I would like a coffee.", "Ich hätte gerne einen Kaffee."),
    ("See you tomorrow.", "Bis morgen."),
    ("Thank you very much.", "Vielen Dank."),
)

TOY_QUERY = "How much does it cost?"


def write_doc_jsonl(doc: ChatDocument, path: Path) -> None:
    lines = []
    for index, turn in enumerate(doc.turns):
        record = {
            "doc_id": doc.doc_id,
            "turn_index": index,
            "speaker": turn.speaker,
            "src_lang": turn.src_lang,
            "tgt_lang": turn.tgt_lang,
            "source": turn.source,
            "mt": turn.mt,
        }
        if turn.reference is not None:
            record["reference"] = turn.reference
        lines.append(json.dumps(record, ensure_ascii=False))
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")


def read_golden(name: str) -> str:
    return (GOLDEN_DIR / name).read_bytes().decode("utf-8")


def traced_peak(fn):
    """``fn()``'s result and the most memory it held at once, by tracemalloc."""
    tracemalloc.start()
    try:
        result = fn()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
