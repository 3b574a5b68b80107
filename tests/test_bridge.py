"""Wire-protocol and subprocess-client tests with scorer doubles."""

from __future__ import annotations

import io
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from mbrforge.bridge import (
    MAX_BATCH_SIZE,
    BridgeClient,
    BridgeConfig,
    ScoreRequest,
    decode_request,
    escape_field,
    run_scorer_loop,
    unescape_field,
)
from mbrforge.errors import (
    BridgeCrashError,
    BridgeTimeoutError,
    DataError,
    ProtocolError,
)

DOUBLES = str(Path(__file__).parent / "doubles.py")


def double_config(mode: str, *args: str, **kwargs) -> BridgeConfig:
    return BridgeConfig(command=(sys.executable, DOUBLES, mode, *args), **kwargs)


class TestEscaping:
    def test_frozen_examples(self):
        assert escape_field("a\tb") == "a\\tb"
        assert escape_field("a\nb") == "a\\nb"
        assert escape_field("a\\b") == "a\\\\b"
        assert escape_field("plain") == "plain"

    def test_backslash_escaped_first(self):
        # A literal backslash-t must not round-trip into a TAB.
        assert unescape_field(escape_field("\\t")) == "\\t"

    def test_unknown_escape_stays_literal(self):
        assert unescape_field("\\x") == "\\x"
        assert unescape_field("trailing\\") == "trailing\\"

    @given(st.text())
    def test_round_trip(self, text):
        assert unescape_field(escape_field(text)) == text

    @given(st.text())
    def test_escaped_form_is_single_line(self, text):
        escaped = escape_field(text)
        assert "\t" not in escaped
        assert "\n" not in escaped


class TestScoreRequest:
    def test_encode_decode_round_trip(self):
        req = ScoreRequest(src="a\tb", mt="line1\nline2", ref="back\\slash")
        assert decode_request(req.encode()) == req

    def test_empty_mt_rejected(self):
        with pytest.raises(DataError):
            ScoreRequest(src="s", mt="", ref="r")

    def test_decode_wrong_field_count(self):
        with pytest.raises(ProtocolError):
            decode_request("only\ttwo")

    @given(st.text(), st.text(min_size=1), st.text())
    def test_round_trip_property(self, src, mt, ref):
        req = ScoreRequest(src, mt, ref)
        line = req.encode()
        assert "\n" not in line
        assert decode_request(line) == req


class TestConfigValidation:
    def test_empty_command(self):
        with pytest.raises(DataError):
            BridgeConfig(command=())

    def test_batch_size_bounds(self):
        with pytest.raises(DataError):
            BridgeConfig(command=("x",), batch_size=0)
        with pytest.raises(DataError):
            BridgeConfig(command=("x",), batch_size=MAX_BATCH_SIZE + 1)

    def test_timeout_positive(self):
        for timeout in (0.0, float("nan"), float("inf")):
            with pytest.raises(DataError):
                BridgeConfig(command=("x",), timeout=timeout)


class TestScorerLoop:
    def test_serves_protocol_in_process(self):
        requests = [ScoreRequest("s", f"{i}", "r") for i in range(3)]
        stdin = io.StringIO("".join(r.encode() + "\n" for r in requests) + "\n")
        stdout = io.StringIO()
        run_scorer_loop(lambda req: float(req.mt) * 2.0, stdin=stdin, stdout=stdout)
        assert stdout.getvalue() == "0.0\n2.0\n4.0\n"


class TestClient:
    def test_constant_scores(self):
        with BridgeClient(double_config("constant", "0.5")) as client:
            got = client.score([ScoreRequest("s", f"m{i}", "r") for i in range(5)])
        assert got == [0.5] * 5

    def test_mt_token_scorer(self):
        with BridgeClient(double_config("mt-tokens")) as client:
            got = client.score([ScoreRequest("s", "one two three", "r")])
        assert got == pytest.approx([0.3])

    @pytest.mark.parametrize("batch_size", [1, 7, 64])
    def test_order_preserved_across_batch_sizes(self, batch_size):
        requests = [ScoreRequest("s", str(i), "r") for i in range(130)]
        config = double_config("echo-mt", batch_size=batch_size)
        with BridgeClient(config) as client:
            got = client.score(requests)
        assert got == [float(i) for i in range(130)]

    def test_fields_survive_the_wire(self):
        src, mt, ref = "a\tb", "line1\nline2", "back\\slash and \t tab"
        config = double_config("check-fields", src, mt, ref)
        with BridgeClient(config) as client:
            assert client.score([ScoreRequest(src, mt, ref)]) == [1.0]

    def test_empty_request_list(self):
        with BridgeClient(double_config("constant", "1.0")) as client:
            assert client.score([]) == []

    def test_unspawnable_command(self):
        with pytest.raises(BridgeCrashError):
            BridgeClient(BridgeConfig(command=("/nonexistent/scorer",)))


class TestMisbehaviour:
    def test_garbage_reply_is_protocol_error(self):
        with BridgeClient(double_config("garbage")) as client:
            with pytest.raises(ProtocolError, match="not a number"):
                client.score([ScoreRequest("s", "m", "r")])

    def test_crash_recovery_replays_remainder(self):
        # The child dies while answering the 4th request; after one restart
        # only the unanswered requests are replayed, so a scorer that dies
        # every 3 answers still finishes a batch of 6.
        requests = [ScoreRequest("s", str(i), "r") for i in range(6)]
        config = double_config("crash-after", "3", batch_size=8)
        with BridgeClient(config) as client:
            got = client.score(requests)
        assert got == [float(i) for i in range(6)]

    def test_crash_without_restart_raises(self):
        requests = [ScoreRequest("s", str(i), "r") for i in range(6)]
        config = double_config("crash-after", "3", batch_size=8, restart_on_failure=False)
        with BridgeClient(config) as client:
            with pytest.raises(BridgeCrashError, match="unanswered"):
                client.score(requests)

    def test_second_crash_is_fatal(self):
        requests = [ScoreRequest("s", str(i), "r") for i in range(6)]
        config = double_config("crash-after", "1", batch_size=8)
        with BridgeClient(config) as client:
            with pytest.raises(BridgeCrashError):
                client.score(requests)

    def test_immediate_exit_is_crash(self):
        config = double_config("exit-now")
        with BridgeClient(config) as client:
            with pytest.raises(BridgeCrashError):
                client.score([ScoreRequest("s", "m", "r")])

    def test_timeout_names_the_request(self):
        config = double_config("slow", "1.0", timeout=0.2)
        with BridgeClient(config) as client:
            with pytest.raises(BridgeTimeoutError, match="request 0"):
                client.score([ScoreRequest("s", "m", "r")])

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_reply_is_protocol_error(self, value):
        with BridgeClient(double_config("constant", value)) as client:
            with pytest.raises(ProtocolError, match="not finite"):
                client.score([ScoreRequest("s", "m", "r")])

    @pytest.mark.parametrize(
        "first_call, error",
        [
            # The reply to mt="1" arrives after the client gave up on it.
            ([ScoreRequest("1.5", "1", "r")], BridgeTimeoutError),
            # The reply to mt="1" is still queued behind the rejected NaN.
            ([ScoreRequest("0", "nan", "r"), ScoreRequest("0", "1", "r")], ProtocolError),
        ],
        ids=["timeout", "protocol-error"],
    )
    def test_abandoned_reply_never_reaches_the_next_call(self, first_call, error):
        config = double_config("delayed-echo", timeout=1.0)
        with BridgeClient(config) as client:
            # Warm up, so the child's start-up does not count against the delay.
            assert client.score([ScoreRequest("0", "0", "r")]) == [0.0]
            with pytest.raises(error):
                client.score(first_call)
            assert client.score([ScoreRequest("0", "2", "r")]) == [2.0]


class TestRepliesAsBytes:
    """A reply that is not UTF-8, or that answers no request, fails at once."""

    def test_undecodable_reply_is_protocol_error(self):
        config = double_config("bad-bytes", timeout=30.0)
        with BridgeClient(config) as client:
            start = time.monotonic()
            with pytest.raises(ProtocolError, match=r"request 0 is not a number: b'\\xff"):
                client.score([ScoreRequest("s", "m", "r")])
            assert time.monotonic() - start < 5.0

    @pytest.mark.parametrize(
        "batch_size, where",
        # With batches of 2 the surplus reply is normally waiting when the
        # second batch is about to be written (if the reader thread is late,
        # close finds it); with one batch it is always left for close.
        [(2, "unrequested reply"), (8, "unrequested reply after the last request")],
        ids=["next-batch", "close"],
    )
    def test_unrequested_reply_is_protocol_error(self, batch_size, where):
        requests = [ScoreRequest("s", "x" * (i + 1), "r") for i in range(6)]
        config = double_config("extra-reply", batch_size=batch_size, timeout=30.0)
        start = time.monotonic()
        with pytest.raises(ProtocolError, match=where):
            with BridgeClient(config) as client:
                client.score(requests)
        assert time.monotonic() - start < 5.0

    def test_end_of_stream_survives_the_pre_batch_check(self):
        # The child closes its output but keeps reading; the end-of-stream
        # marker is queued before the batch, and the read after the write
        # must still see it rather than wait out the timeout.
        code = "import os, sys; os.close(1); sys.stdin.read()"
        config = BridgeConfig(
            command=(sys.executable, "-c", code), timeout=30.0, restart_on_failure=False
        )
        with BridgeClient(config) as client:
            client._reader.join(timeout=5.0)
            assert not client._reader.is_alive()
            start = time.monotonic()
            with pytest.raises(BridgeCrashError):
                client.score([ScoreRequest("s", "m", "r")])
            assert time.monotonic() - start < 5.0

    def test_unencodable_field_is_data_error(self):
        with BridgeClient(double_config("constant", "0.5")) as client:
            with pytest.raises(DataError, match="request 1 is not valid UTF-8"):
                client.score([ScoreRequest("s", "m", "r"), ScoreRequest("s", "\ud800", "r")])
            assert client.score([ScoreRequest("s", "m", "r")]) == [0.5]
