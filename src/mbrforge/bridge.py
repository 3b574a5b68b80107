"""Client for external scorer processes (e.g. a neural metric server).

Wire protocol, chosen for trivial scorer-side implementation: every
request is one line on the child's standard input with the fields
``src``, ``mt``, ``ref`` separated by a single TAB; tabs, newlines and
backslashes inside fields are escaped as ``\\t``, ``\\n``, ``\\\\``.  Any field
may be empty; a request still holds its two tabs, so only a blank line ends
a batch.  The child answers on standard output with one decimal number line
per request, in request order, then a blank line.  All is UTF-8.  A reply
line longer than MAX_REPLY_LINE (4096) bytes is a protocol error.  An error
message quotes at most 64 bytes of a reply, in at most 67 characters.

One client owns one child process and serves one caller at a time; run
one client per worker instead.
"""

from __future__ import annotations

import math
import os
import re
import select
import subprocess
import sys
import time
from typing import BinaryIO, Callable, NamedTuple, Sequence

from .errors import (
    BridgeCrashError,
    BridgeError,
    BridgeTimeoutError,
    DataError,
    ProtocolError,
    located,
    validated,
)

MAX_BATCH_SIZE = 4096
MAX_REPLY_LINE = 4096  # bytes; a float's repr takes at most 24
# poll() takes its timeout as a C int of milliseconds, so a longer wait overflows.
MAX_TIMEOUT = (2**31 - 1) / 1000

_NO_REPLY = "scorer gave no reply for request {} within {}s"
_NO_BATCH_END = (
    "scorer did not end the batch after request {} within {}s; "
    "a scorer must answer each blank line with a blank line"
)

# Each special character and its escape; the backslash comes first so that
# escape_field never escapes an escape it has just written.
_ESCAPES = {"\\": "\\\\", "\t": "\\t", "\n": "\\n"}
_UNESCAPES = {escaped: raw for raw, escaped in _ESCAPES.items()}
_ESCAPE_PATTERN = "|".join(map(re.escape, _UNESCAPES))
_ESCAPE_TABLE = str.maketrans(_ESCAPES)


def _quote(reply: bytes) -> str:
    """The literal of ``reply``'s longest prefix (at most 64 bytes) that fits 67 characters."""
    return next(quoted for n in range(64, -1, -1) if len(quoted := repr(reply[:n].rstrip())) <= 67)


def escape_field(text: str) -> str:
    """Escape backslash, TAB and LF so a field fits on one line, in one pass."""
    return text.translate(_ESCAPE_TABLE)


def unescape_field(text: str) -> str:
    """Inverse of escape_field; left-to-right, unknown escapes are literal."""
    return re.sub(_ESCAPE_PATTERN, lambda match: _UNESCAPES[match[0]], text)


class ScoreRequest(NamedTuple):
    src: str
    mt: str
    ref: str

    def encode(self) -> str:
        return "\t".join(
            (escape_field(self.src), escape_field(self.mt), escape_field(self.ref))
        )


def decode_request(line: str) -> ScoreRequest:
    parts = line.split("\t")
    if len(parts) != 3:
        raise ProtocolError(f"expected 3 tab-separated fields, got {len(parts)}")
    src, mt, ref = (unescape_field(p) for p in parts)
    return ScoreRequest(src, mt, ref)


@validated
class BridgeConfig(NamedTuple):
    """How to spawn and talk to a scorer process."""

    command: tuple[str, ...]
    batch_size: int = 32
    timeout: float = 60.0  # seconds to wait for each reply line
    restart_on_failure: bool = True

    def _check(self) -> None:
        if not self.command:
            raise DataError("bridge command must not be empty")
        if not 1 <= self.batch_size <= MAX_BATCH_SIZE:
            raise DataError(
                f"batch_size must be in 1..{MAX_BATCH_SIZE}, got {self.batch_size}"
            )
        if not 0 < self.timeout <= MAX_TIMEOUT:  # NaN fails too
            raise DataError(f"timeout must be in (0, {MAX_TIMEOUT}] seconds, got {self.timeout}")


class BridgeClient:
    """Owns one scorer process; replays unanswered requests after a crash.

    Replies are read on the calling thread, each line waited for with
    ``poll`` up to the configured timeout; the batch is written meanwhile,
    so neither pipe can fill up and stall the other.  A crashed scorer is
    restarted once per batch, and each restart writes a WARNING line to
    stderr.  Every bridge error stops the scorer before it is raised, so a
    late reply can never answer a later request; the next call starts a
    new scorer, and so does a call after ``close``, which returns at once
    after a failed call.  A batch's replies must end with a blank line, so
    a surplus reply is a protocol error before ``score`` returns; one
    written after the last batch is found by ``close``.  POSIX only.
    """

    def __init__(self, config: BridgeConfig):
        self.config = config
        self._proc: subprocess.Popen | None = None
        self._spawn()

    def _spawn(self) -> None:
        try:
            self._proc = subprocess.Popen(
                list(self.config.command), stdin=subprocess.PIPE, stdout=subprocess.PIPE
            )
        except OSError as exc:
            raise BridgeCrashError(
                f"cannot spawn scorer {self.config.command[0]!r}: {exc}"
            ) from exc
        os.set_blocking(self._proc.stdin.fileno(), False)
        self._buffer = bytearray()  # output read but not yet taken as lines
        self._unsent = memoryview(b"")  # the rest of the batch being written

    def close(self) -> None:
        """Stop the child; a reply still left once its output is drained is a ProtocolError."""
        proc = self._proc
        if proc is None:
            return
        with proc:  # on the way out Popen closes both pipes and reaps the child
            try:
                proc.stdin.close()
                proc.wait(timeout=5)
            except (OSError, subprocess.TimeoutExpired):
                proc.kill()
            try:
                line = self._read_line("scorer reply after the last request", 5.0)
            except (BridgeCrashError, BridgeTimeoutError):  # drained, or held open (a grandchild)
                return
            finally:
                self._proc = None
        raise ProtocolError(
            f"scorer sent an unrequested reply after the last request: {_quote(line)}"
        )

    def _kill(self) -> None:
        proc, self._proc = self._proc, None
        with proc:  # closes both pipes and reaps the killed child
            proc.kill()

    def __enter__(self) -> "BridgeClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def score(self, requests: Sequence[ScoreRequest]) -> list[float]:
        """Score all requests, chunked by the configured batch size."""
        scores: list[float] = []
        for start in range(0, len(requests), self.config.batch_size):
            end = min(start + self.config.batch_size, len(requests))
            restarts_left = 1 if self.config.restart_on_failure else 0
            while len(scores) < end:
                if self._proc is None:
                    self._spawn()
                try:
                    self._send_and_collect(requests[len(scores) : end], scores)
                except BridgeError as exc:
                    self._kill()
                    if not isinstance(exc, BridgeCrashError):
                        raise
                    if restarts_left == 0:
                        raise BridgeCrashError(
                            f"scorer crashed ({exc}): {end - len(scores)} of {end - start} "
                            f"requests unanswered (batch starting at {start})"
                        ) from None
                    restarts_left -= 1
                    sys.stderr.write(  # one write, so lines from workers never interleave
                        f"WARNING mbrforge: scorer crashed ({exc}); restarting it to replay "
                        f"{end - len(scores)} of {end - start} requests "
                        f"(batch starting at {start})\n"
                    )
        return scores

    def _send_and_collect(self, requests: Sequence[ScoreRequest], sink: list[float]) -> None:
        batch = "".join(req.encode() + "\n" for req in requests) + "\n"
        try:
            self._unsent = memoryview(batch.encode("utf-8"))
        except UnicodeEncodeError as exc:  # an escaped request holds no raw newline
            index = len(sink) + batch.count("\n", 0, exc.start)
            raise DataError(f"request {index} is not valid UTF-8: {exc.reason}") from None
        timeout = self.config.timeout
        for index in range(len(sink), len(sink) + len(requests)):  # after the earlier replies
            reply = f"scorer reply for request {index}"
            item = self._read_line(reply, timeout, _NO_REPLY, index)
            try:
                value = float(item)
            except ValueError:
                raise ProtocolError(f"{reply} is not a number: {_quote(item)}") from None
            if not math.isfinite(value):
                raise ProtocolError(f"{reply} is not finite: {_quote(item)}")
            sink.append(value)
        last = len(sink) - 1
        item = self._read_line(f"scorer reply after request {last}", timeout, _NO_BATCH_END, last)
        if item.strip():
            raise ProtocolError(
                f"scorer sent an unrequested reply after request {last}: {_quote(item)}"
            )

    def _read_line(self, reply: str, timeout: float, late: str = "", index: int = 0) -> bytes:
        """The child's next output line, writing the batch meanwhile; when late, raise ``late``."""
        deadline = time.monotonic() + timeout
        stdin, stdout = self._proc.stdin, self._proc.stdout.fileno()
        while (end := self._buffer.find(b"\n", 0, MAX_REPLY_LINE + 1)) < 0:
            if len(self._buffer) > MAX_REPLY_LINE:
                raise ProtocolError(f"{reply} is longer than {MAX_REPLY_LINE} bytes")
            poll = select.poll()
            poll.register(stdout, select.POLLIN)
            if self._unsent and not stdin.closed:  # close() drops what is unsent
                poll.register(stdin, select.POLLOUT)
            events = poll.poll(max(deadline - time.monotonic(), 0.0) * 1000)
            if not events:
                raise BridgeTimeoutError(late.format(index, timeout))
            for fd, _ in events:
                if fd == stdout:
                    chunk = os.read(stdout, 1 << 16)
                    if not (chunk or self._buffer):
                        raise BridgeCrashError("scorer closed its output mid-batch")
                    self._buffer += chunk or b"\n"  # ends a last line that lacks one
                else:
                    try:
                        self._unsent = self._unsent[os.write(fd, self._unsent) :]
                    except OSError as exc:
                        raise BridgeCrashError(f"scorer pipe closed while writing: {exc}") from exc
        line = bytes(self._buffer[:end])
        del self._buffer[: end + 1]
        return line


def run_scorer_loop(
    score_fn: Callable[[ScoreRequest], float],
    stdin: BinaryIO | None = None,
    stdout: BinaryIO | None = None,
) -> None:
    """Serve the wire protocol; for scorer scripts and test doubles.

    Reads UTF-8 request lines until EOF and answers each request with
    ``repr(float(score_fn(request)))``, so a numpy or torch scalar is
    written as a plain number, and each blank line with a blank line.
    Every line written is flushed at once; once the client has closed its
    end, the loop returns.  A line that is not UTF-8 raises
    ``ProtocolError`` naming its line number and byte offset.
    """
    stdin = stdin if stdin is not None else sys.stdin.buffer
    stdout = stdout if stdout is not None else sys.stdout.buffer
    for number, line in enumerate(stdin, 1):
        line = line.rstrip(b"\n")
        if line:
            with located(f"request line {number}"):
                try:
                    text = line.decode("utf-8")
                except UnicodeDecodeError as exc:
                    raise ProtocolError(
                        f"not valid UTF-8 at byte {exc.start}: {exc.reason}"
                    ) from None
                request = decode_request(text)
            line = repr(float(score_fn(request))).encode()
        try:
            stdout.write(line + b"\n")
            stdout.flush()
        except BrokenPipeError:  # the client has gone: end quietly
            with open(os.devnull, "wb") as null:  # so the exit-time flush cannot fail again
                os.dup2(null.fileno(), stdout.fileno())
            return
