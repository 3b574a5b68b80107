"""``errors.located``, the one rule that puts a location on a toolkit error."""

from __future__ import annotations

import pytest

from mbrforge.errors import AlignmentError, DataError, ProtocolError, located


@pytest.mark.parametrize("error", [DataError, AlignmentError, ProtocolError])
def test_located_prefixes_a_toolkit_error_and_keeps_its_type(error):
    original = error("bad field")
    with pytest.raises(error) as caught:
        with located("in.txt:3"):
            raise original
    assert type(caught.value) is error
    assert str(caught.value) == "in.txt:3: bad field"
    assert caught.value.__cause__ is original


@pytest.mark.parametrize("error", [ValueError("raw"), OSError("disk")])
def test_located_leaves_other_errors_alone(error):
    with pytest.raises(type(error)) as caught:
        with located("in.txt:3"):
            raise error
    assert caught.value is error
