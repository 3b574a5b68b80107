"""Every record type is an immutable value."""

from __future__ import annotations

import copy
import importlib
import pickle
import pkgutil
import re

import numpy as np
import pytest

import mbrforge
from mbrforge.bridge import BridgeConfig, ScoreRequest
from mbrforge.checkpoint import LoraAdapter
from mbrforge.errors import DataError
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


def _unpickle(record):
    return pickle.loads(pickle.dumps(record))


@pytest.mark.parametrize("clone", [copy.copy, copy.deepcopy, _unpickle])
@pytest.mark.parametrize(
    "record", [record for record, _field in RECORDS], ids=[type(r).__name__ for r, _f in RECORDS]
)
def test_copies_keep_type_and_fields(record, clone):
    result = clone(record)
    assert type(result) is type(record)
    if isinstance(record, LoraAdapter):
        assert result[:2] == record[:2]
        for (name, a, b), (other_name, other_a, other_b) in zip(
            result.targets, record.targets, strict=True
        ):
            assert name == other_name
            assert np.array_equal(a, other_a) and np.array_equal(b, other_b)
    else:
        assert result == record


@pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
@pytest.mark.parametrize(
    "record, good, bad",
    [
        (TURN, b"customer", b"stranger"),
        (ParallelCorpus((("a", "b"),), ("genuine",)), b"genuine", b"unknown"),
    ],
    ids=["ChatTurn", "ParallelCorpus"],
)
def test_unpickling_checks_like_the_constructor(record, good, bad, protocol):
    data = pickle.dumps(record, protocol)
    assert data.count(good) == 1
    with pytest.raises(DataError, match="unknown"):
        pickle.loads(data.replace(good, bad))


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


@pytest.mark.parametrize(
    "record, changes, error",
    BAD_CHANGES,
    ids=[type(record).__name__ for record, _changes, _error in BAD_CHANGES],
)
def test_make_validates_like_the_constructor(record, changes, error):
    fields = {**record._asdict(), **changes}
    with pytest.raises(error) as from_constructor:
        type(record)(**fields)
    with pytest.raises(error, match=re.escape(str(from_constructor.value))):
        type(record)._make(fields.values())


def test_every_validated_record_checks_through_the_decorator():
    # A record built by the decorated __new__ cannot skip its checks, and a
    # new record must join BAD_CHANGES above.
    records = set()
    for info in pkgutil.iter_modules(mbrforge.__path__):
        module = importlib.import_module(f"mbrforge.{info.name}")
        for value in vars(module).values():
            if isinstance(value, type) and issubclass(value, tuple) and "_check" in vars(value):
                records.add(value)
    for record in records:
        assert hasattr(record.__new__, "__wrapped__"), record.__name__
    assert records == {type(record) for record, _changes, _error in BAD_CHANGES}
