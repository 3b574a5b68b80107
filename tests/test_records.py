"""Every record type is an immutable value."""

from __future__ import annotations

import numpy as np
import pytest

from mbrforge.bridge import BridgeConfig, ScoreRequest
from mbrforge.checkpoint import LoraAdapter
from mbrforge.mbr import CandidateSet, MbrSelection, UtilityMatrix, UtilitySpec
from mbrforge.promptgen import ChatDocument, ChatTurn, ParsedPrompt, RenderedPrompt
from mbrforge.selftrain import FilterConfig, ParallelCorpus

TURN = ChatTurn("customer", "en", "de", "Hi", "Hallo")
RECORDS = [
    (CandidateSet(("s",), ("a", "b"), (("x", "y"),)), "sources"),
    (UtilitySpec(), "kind"),
    (UtilityMatrix(0, ((100.0,),), (100.0,), 0, 100.0), "best_index"),
    (MbrSelection(("x",), (0,), (100.0,)), "chosen"),
    (ScoreRequest("s", "m", "r"), "mt"),
    (BridgeConfig(("scorer",)), "batch_size"),
    (FilterConfig(), "max_tokens"),
    (ParallelCorpus((("a", "b"),), ("genuine",)), "pairs"),
    (TURN, "source"),
    (ChatDocument("d", (TURN,)), "turns"),
    (RenderedPrompt("text", "completion"), "completion"),
    (ParsedPrompt((), "de", "en", "de", "Hi", None), "query_source"),
    (LoraAdapter(1, 1.0, (("w", np.ones((1, 2), np.float32), np.ones((3, 1), np.float32)),)),
     "alpha"),
]


@pytest.mark.parametrize(
    "record, field", RECORDS, ids=[type(record).__name__ for record, _field in RECORDS]
)
def test_assignment_raises(record, field):
    before = getattr(record, field)
    with pytest.raises(AttributeError):
        setattr(record, field, None)
    with pytest.raises(AttributeError):
        record.extra = None
    assert getattr(record, field) is before
