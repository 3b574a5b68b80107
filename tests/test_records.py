"""Every record type is an immutable value."""

from __future__ import annotations

import importlib
import pkgutil
import re

import numpy as np
import pytest

import mbrforge
from mbrforge.bridge import BridgeConfig, ScoreRequest
from mbrforge.checkpoint import LoraAdapter
from mbrforge.errors import DataError, ValidatedRecord
from mbrforge.mbr import CandidateSet, MbrSelection, UtilityMatrix, UtilitySpec
from mbrforge.metrics import MetricScore
from mbrforge.promptgen import ChatDocument, ChatTurn, ParsedPrompt, RenderedPrompt
from mbrforge.selftrain import FilterConfig, ParallelCorpus

TURN = ChatTurn("customer", "en", "de", "Hi", "Hallo")
CANDIDATES = CandidateSet(("s",), ("a", "b"), (("x", "y"),))
ADAPTER = LoraAdapter(1, 1.0, (("w", np.ones((1, 2), np.float32), np.ones((3, 1), np.float32)),))
RECORDS = [
    (CANDIDATES, "sources"),
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
    (ADAPTER, "alpha"),
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
    with pytest.raises(AttributeError):
        delattr(record, field)
    assert getattr(record, field) is before


# Each validated record with one field changed to a value its constructor rejects.
BAD_CHANGES = [
    (MetricScore(50.0), {"value": 101.0}, ValueError),
    (CANDIDATES, {"systems": ("a",)}, DataError),
    (UtilitySpec(), {"kind": "bogus"}, DataError),
    (BridgeConfig(("scorer",)), {"batch_size": 0}, DataError),
    (FilterConfig(), {"max_length_ratio": float("nan")}, DataError),
    (TURN, {"speaker": "robot"}, DataError),
    (ChatDocument("d", (TURN,)), {"turns": ()}, DataError),
    (ADAPTER, {"alpha": float("inf")}, DataError),
]


@pytest.mark.parametrize(
    "record, changes, error",
    BAD_CHANGES,
    ids=[type(record).__name__ for record, _changes, _error in BAD_CHANGES],
)
def test_replace_validates_like_the_constructor(record, changes, error):
    with pytest.raises(error) as from_constructor:
        type(record)(**{**record._asdict(), **changes})
    with pytest.raises(error, match=re.escape(str(from_constructor.value))):
        record._replace(**changes)


def test_every_validated_record_checks_through_the_mixin():
    # A record built by the mixin's __new__ cannot skip its checks, and a new
    # record must join BAD_CHANGES above.
    for module in pkgutil.iter_modules(mbrforge.__path__):
        importlib.import_module(f"mbrforge.{module.name}")
    records = set(ValidatedRecord.__subclasses__())
    for record in records:
        assert "_check" in vars(record), record.__name__
        assert "__new__" not in vars(record), record.__name__
    assert records == {type(record) for record, _changes, _error in BAD_CHANGES}
