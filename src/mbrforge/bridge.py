"""Client for external scorer processes (e.g. a neural metric server).

Wire protocol, chosen for trivial scorer-side implementation: every
request is one line on the child's standard input with the fields
``src``, ``mt``, ``ref`` separated by a single TAB; tabs, newlines and
backslashes inside fields are escaped as ``\\t``, ``\\n``, ``\\\\``.  A blank
line flushes a batch.  The child answers each request with exactly one
line on standard output, a decimal number, in request order.

One client owns one child process and must not be shared by concurrent
writers; run one client per worker instead.
"""

from __future__ import annotations

import math
import queue
import re
import subprocess
import sys
import threading
from typing import BinaryIO, Callable, NamedTuple, Sequence, TextIO

from .errors import (
    BridgeCrashError,
    BridgeTimeoutError,
    DataError,
    ProtocolError,
    ValidatedRecord,
)

MAX_BATCH_SIZE = 4096

_EOF = object()

# Each special character and its escape; the backslash comes first so that
# escape_field never escapes an escape it has just written.
_ESCAPES = {"\\": "\\\\", "\t": "\\t", "\n": "\\n"}
_UNESCAPES = {escaped: raw for raw, escaped in _ESCAPES.items()}
_ESCAPE_PATTERN = "|".join(map(re.escape, _UNESCAPES))


def escape_field(text: str) -> str:
    """Escape backslash, TAB and LF so a field fits on one line."""
    for raw, escaped in _ESCAPES.items():
        text = text.replace(raw, escaped)
    return text


def unescape_field(text: str) -> str:
    """Inverse of escape_field; left-to-right, unknown escapes are literal."""
    return re.sub(_ESCAPE_PATTERN, lambda match: _UNESCAPES[match[0]], text)


class _ScoreRequest(NamedTuple):
    src: str
    mt: str
    ref: str


class ScoreRequest(ValidatedRecord, _ScoreRequest):
    __slots__ = ()

    def _check(self) -> None:
        if self.mt == "":
            raise DataError("score request with empty mt field")

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


class _BridgeConfig(NamedTuple):
    command: tuple[str, ...]
    batch_size: int = 32
    timeout: float = 60.0  # seconds to wait for each reply line
    restart_on_failure: bool = True


class BridgeConfig(ValidatedRecord, _BridgeConfig):
    """How to spawn and talk to a scorer process."""

    __slots__ = ()

    def _check(self) -> None:
        if not self.command:
            raise DataError("bridge command must not be empty")
        if not 1 <= self.batch_size <= MAX_BATCH_SIZE:
            raise DataError(
                f"batch_size must be in 1..{MAX_BATCH_SIZE}, got {self.batch_size}"
            )
        if not (math.isfinite(self.timeout) and self.timeout > 0):
            raise DataError(f"timeout must be finite and positive, got {self.timeout}")


class BridgeClient:
    """Owns one scorer process; replays unanswered requests after a crash.

    A reader thread drains the child's stdout into a queue so reply waits
    can time out without blocking forever on a pipe.  After a timeout or a
    protocol error the child is killed and respawned with a fresh queue
    before the error is raised, so a late reply can never be taken as the
    answer to a later request.  A reply line that is waiting before a batch
    is written, or left over when the child exits, answers no request and
    is a protocol error too.
    """

    def __init__(self, config: BridgeConfig):
        self.config = config
        self._proc: subprocess.Popen | None = None
        self._lines: queue.Queue = queue.Queue()
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
        self._lines = queue.Queue()
        self._reader = threading.Thread(
            target=self._drain, args=(self._proc.stdout, self._lines), daemon=True
        )
        self._reader.start()

    @staticmethod
    def _drain(stream: BinaryIO, sink: queue.Queue) -> None:
        with stream:
            for line in stream:
                sink.put(line)
        sink.put(_EOF)

    def _reject_waiting_reply(self, where: str) -> None:
        """Raise ProtocolError if a reply line is queued that no request asked for."""
        try:
            item = self._lines.get_nowait()
        except queue.Empty:
            return
        if item is _EOF:  # always the last item; the read that meets it reports the crash
            self._lines.put(_EOF)
            return
        raise ProtocolError(f"scorer sent an unrequested reply {where}: {item.rstrip()!r}")

    def close(self) -> None:
        """Stop the child; a reply still left once its output is drained is a ProtocolError."""
        proc = self._proc
        if proc is None:
            return
        self._proc = None
        try:
            if proc.stdin:
                proc.stdin.close()
            proc.wait(timeout=5)
        except (OSError, subprocess.TimeoutExpired):
            proc.kill()
            proc.wait()
        self._reader.join(timeout=5)
        self._reject_waiting_reply("after the last request")

    def _respawn(self) -> None:
        proc = self._proc
        self._proc = None
        if proc is not None:
            proc.kill()
            proc.wait()
            try:
                if proc.stdin:
                    proc.stdin.close()
            except OSError:
                pass
        self._spawn()

    def __enter__(self) -> "BridgeClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def score(self, requests: Sequence[ScoreRequest]) -> list[float]:
        """Score all requests, chunked by the configured batch size."""
        scores: list[float] = []
        for start in range(0, len(requests), self.config.batch_size):
            chunk = requests[start : start + self.config.batch_size]
            scores.extend(self._score_chunk(chunk, start))
        return scores

    def _score_chunk(
        self, chunk: Sequence[ScoreRequest], base_index: int
    ) -> list[float]:
        restarts_left = 1 if self.config.restart_on_failure else 0
        answered: list[float] = []
        while True:
            pending = list(chunk)[len(answered) :]
            try:
                self._send_and_collect(pending, base_index + len(answered), answered)
                return answered
            except (BridgeTimeoutError, ProtocolError):
                self._respawn()
                raise
            except BridgeCrashError:
                # Replies received before the crash are kept; only the
                # unanswered remainder is replayed after the restart.
                if restarts_left == 0:
                    raise BridgeCrashError(
                        f"scorer exited with {len(chunk) - len(answered)} of "
                        f"{len(chunk)} requests unanswered "
                        f"(batch starting at {base_index})"
                    ) from None
                restarts_left -= 1
                self._respawn()

    def _send_and_collect(
        self,
        requests: Sequence[ScoreRequest],
        first_index: int,
        sink: list[float],
    ) -> None:
        proc = self._proc
        assert proc is not None and proc.stdin is not None
        batch = "".join(req.encode() + "\n" for req in requests) + "\n"
        try:
            data = batch.encode("utf-8")
        except UnicodeEncodeError as exc:  # an escaped request holds no raw newline
            index = first_index + batch.count("\n", 0, exc.start)
            raise DataError(f"request {index} is not valid UTF-8: {exc.reason}") from None
        self._reject_waiting_reply(f"before request {first_index}")
        try:
            proc.stdin.write(data)
            proc.stdin.flush()
        except (BrokenPipeError, OSError) as exc:
            raise BridgeCrashError(f"scorer pipe closed while writing: {exc}") from exc
        for index in range(first_index, first_index + len(requests)):
            try:
                item = self._lines.get(timeout=self.config.timeout)
            except queue.Empty:
                raise BridgeTimeoutError(
                    f"scorer gave no reply for request {index} "
                    f"within {self.config.timeout}s"
                ) from None
            if item is _EOF:
                raise BridgeCrashError("scorer closed its output mid-batch")
            try:
                value = float(item)
            except ValueError:
                raise ProtocolError(
                    f"scorer reply for request {index} is not a number: {item.rstrip()!r}"
                ) from None
            if not math.isfinite(value):
                raise ProtocolError(
                    f"scorer reply for request {index} is not finite: {item.rstrip()!r}"
                )
            sink.append(value)


def run_scorer_loop(
    score_fn: Callable[[ScoreRequest], float],
    stdin: TextIO | None = None,
    stdout: TextIO | None = None,
) -> None:
    """Serve the wire protocol; for scorer scripts and test doubles.

    Reads request lines until EOF, ignores blank flush lines, answers each
    request with ``score_fn(request)`` formatted with repr precision.
    """
    stdin = stdin if stdin is not None else sys.stdin
    stdout = stdout if stdout is not None else sys.stdout
    for line in stdin:
        line = line.rstrip("\n")
        if line == "":
            stdout.flush()
            continue
        request = decode_request(line)
        stdout.write(f"{score_fn(request)!r}\n")
        stdout.flush()
