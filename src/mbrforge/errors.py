"""Exception hierarchy shared by the library and the CLI, and the decorator
of the records whose checks raise it.

A ``@validated`` named tuple defines ``_check(self) -> None``, which raises
on the first bad field, in place of a ``__new__`` of its own.

Exit codes reported by the CLI: 0 ok, 2 usage error, 3 alignment/data
error, 4 bridge error, 5 I/O error.
"""

from __future__ import annotations

import functools
from typing import TypeVar

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_BRIDGE = 4
EXIT_IO = 5

_Record = TypeVar("_Record", bound=type)  # a named-tuple class


class MbrforgeError(Exception):
    """Base class for all toolkit errors; the CLI prints ``mbrforge: {label}: {message}``."""

    exit_code = 1
    label = "error"


class UsageError(MbrforgeError):
    """Flag combinations the CLI cannot act on."""

    exit_code = EXIT_USAGE


class DataError(MbrforgeError):
    """Invalid or inconsistent input data (bad shapes, bad values)."""

    exit_code = EXIT_DATA


class AlignmentError(DataError):
    """Parallel inputs disagree on segment counts."""


class InfiniteDivergenceError(DataError):
    """KL divergence is infinite because of a one-sided zero probability."""


class BridgeError(MbrforgeError):
    """Failure talking to an external scorer process."""

    exit_code = EXIT_BRIDGE
    label = "bridge error"


class ProtocolError(BridgeError):
    """The scorer replied with something that is not a number per line."""


class BridgeCrashError(BridgeError):
    """The scorer process exited before answering a batch, or could not start.

    Like every bridge error it is raised after the client has stopped the
    scorer.  The client's next call starts a new scorer, and so does a call
    after ``close()``; ``close()`` after a failed call returns at once.
    """


class BridgeTimeoutError(BridgeError):
    """The scorer did not answer within the configured timeout."""


def validated(cls: _Record) -> _Record:
    """Make the named tuple ``cls`` call ``self._check()`` on every new instance.

    The tuple is built, then checked.  ``_make`` and ``_replace``, copies
    and unpickling (under any protocol) all go through the constructor.
    """
    build = cls.__new__

    @functools.wraps(build)
    def __new__(cls, *args, **kwargs):
        self = build(cls, *args, **kwargs)
        self._check()
        return self

    cls.__new__ = staticmethod(__new__)
    cls._make = classmethod(lambda cls, iterable: cls(*iterable))
    cls.__reduce__ = lambda self: (self.__class__, tuple(self))
    return cls
