"""Exception hierarchy shared by the library and the CLI, and the mixin
of the records whose checks raise it.

A validated record lists ``ValidatedRecord`` before its named-tuple base
and defines ``_check(self) -> None``, which raises on the first bad field,
in place of a ``__new__`` of its own.

Exit codes reported by the CLI: 0 ok, 2 usage error, 3 alignment/data
error, 4 bridge error, 5 I/O error.
"""

from __future__ import annotations

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_BRIDGE = 4
EXIT_IO = 5


class MbrforgeError(Exception):
    """Base class for all toolkit errors."""

    exit_code = 1


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


class ValidatedRecord:
    """Named-tuple mixin that builds the tuple, then calls ``self._check()``.

    So the constructor, ``_make`` and ``_replace`` (through ``_make``) all validate.
    """

    __slots__ = ()
    _make = classmethod(lambda cls, iterable: cls(*iterable))

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        self._check()
        return self
