"""Wire-protocol and subprocess-client tests with scorer doubles."""

from __future__ import annotations

import glob
import io
import math
import os
import runpy
import signal
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from mbrforge.bridge import (
    MAX_BATCH_SIZE,
    MAX_REPLY_LINE,
    MAX_TIMEOUT,
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
from mbrforge.mbr import UtilitySpec, make_scorer

DOUBLES = str(Path(__file__).parent / "doubles.py")
REPO = Path(__file__).parent.parent
CHRF_SCORER = str(REPO / "scripts" / "chrf_scorer.py")
PERFBENCH_SCORER = str(REPO / "perfbench" / "scorer.py")
PERFBENCH_UTILITY = runpy.run_path(PERFBENCH_SCORER)["utility"]


def double_config(mode: str, *args: str, **kwargs) -> BridgeConfig:
    return BridgeConfig(command=(sys.executable, DOUBLES, mode, *args), **kwargs)


def child_pids() -> set[str]:
    """Live and unreaped children of this process, from every thread."""
    pids: set[str] = set()
    for path in glob.glob("/proc/self/task/*/children"):
        with open(path) as f:
            pids.update(f.read().split())
    return pids


@pytest.fixture(autouse=True)
def no_child_left_behind():
    before = child_pids()
    yield
    left = child_pids() - before
    assert not left, f"scorer processes left running or unreaped: {sorted(left)}"


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

    def test_decode_wrong_field_count(self):
        with pytest.raises(ProtocolError):
            decode_request("only\ttwo")

    @given(st.text(), st.text(), st.text())
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

    def test_timeout_fits_poll(self):
        # poll() waits at most 2**31 - 1 ms; a longer timeout overflowed it mid-call.
        with pytest.raises(DataError, match="timeout must be in"):
            BridgeConfig(command=("x",), timeout=3_000_000.0)
        with pytest.raises(DataError):
            BridgeConfig(command=("x",), timeout=math.nextafter(MAX_TIMEOUT, math.inf))
        with BridgeClient(double_config("echo-mt", timeout=MAX_TIMEOUT)) as client:
            assert client.score([ScoreRequest("s", "7", "r")]) == [7.0]


def encode_batch(requests: list[ScoreRequest]) -> bytes:
    return ("".join(r.encode() + "\n" for r in requests) + "\n").encode("utf-8")


class TestScorerLoop:
    def test_serves_protocol_in_process(self):
        # Two batches: each batch's replies are followed by one blank line.
        requests = [ScoreRequest("s", f"{i}", "r") for i in range(5)]
        stdin = io.BytesIO(encode_batch(requests[:3]) + encode_batch(requests[3:]))
        stdout = io.BytesIO()
        run_scorer_loop(lambda req: float(req.mt) * 2.0, stdin=stdin, stdout=stdout)
        assert stdout.getvalue() == b"0.0\n2.0\n4.0\n\n6.0\n8.0\n\n"

    def test_requests_are_utf8(self):
        requests = [ScoreRequest("s", mt, "r") for mt in ("Grüße", "\r€\u2028")]
        stdout = io.BytesIO()
        run_scorer_loop(
            lambda req: float(len(req.mt)), io.BytesIO(encode_batch(requests)), stdout
        )
        assert stdout.getvalue() == b"5.0\n3.0\n\n"

    def test_numpy_scalar_is_written_as_a_float(self):
        stdin = io.BytesIO(encode_batch([ScoreRequest("s", "m", "r")]))
        stdout = io.BytesIO()
        run_scorer_loop(lambda req: np.float32(0.1), stdin, stdout)
        assert stdout.getvalue() == b"0.10000000149011612\n\n"

    def test_non_utf8_request_is_protocol_error(self):
        # Replies already written stay written; the bad line names its number and byte.
        stdin = io.BytesIO(encode_batch([ScoreRequest("s", "m", "r")]) + b"a\xff\tb\tc\n")
        stdout = io.BytesIO()
        with pytest.raises(ProtocolError, match=r"^request line 3: not valid UTF-8 at byte 1: "):
            run_scorer_loop(lambda req: 1.0, stdin, stdout)
        assert stdout.getvalue() == b"1.0\n\n"

    def test_short_request_names_its_line(self):
        stdin = io.BytesIO(b"ok\tok\tok\na\tb\n")
        stdout = io.BytesIO()
        with pytest.raises(
            ProtocolError, match=r"^request line 2: expected 3 tab-separated fields, got 2$"
        ):
            run_scorer_loop(lambda req: 1.0, stdin, stdout)
        assert stdout.getvalue() == b"1.0\n"


class TestRepoScorers:
    """Every scorer in the repo ends each batch's replies with a blank line."""

    SCORERS = {  # id: (script and arguments, expected scores of a request list)
        "chrf_scorer-chrf": (
            [CHRF_SCORER, "--metric", "chrf"], make_scorer(UtilitySpec(kind="native-chrf"))
        ),
        "chrf_scorer-bleu": (
            [CHRF_SCORER, "--metric", "bleu"], make_scorer(UtilitySpec(kind="native-bleu"))
        ),
        "perfbench": (
            [PERFBENCH_SCORER],
            lambda requests: [PERFBENCH_UTILITY(req.mt, req.ref) for req in requests],
        ),
        "echo-mt": ([DOUBLES, "echo-mt"], lambda requests: [float(req.mt) for req in requests]),
    }

    @pytest.mark.parametrize("batch_size", [1, 3, 7])
    @pytest.mark.parametrize("scorer", sorted(SCORERS))
    def test_scores_seven_requests(self, scorer, batch_size):
        argv, expected = self.SCORERS[scorer]
        # Numeric mt fields for echo-mt, and refs that differ, so scores do.
        requests = [ScoreRequest("s", f"{i}{i}", f"{i}{i}, {i}" + " x" * i) for i in range(7)]
        config = BridgeConfig(
            command=(sys.executable, *argv), batch_size=batch_size, timeout=10.0
        )
        with BridgeClient(config) as client:
            got = client.score(requests)
        assert got == expected(requests)
        assert len(set(got)) > 1


class TestClient:
    def test_constant_scores(self):
        with BridgeClient(double_config("constant", "0.5")) as client:
            got = client.score([ScoreRequest("s", f"m{i}", "r") for i in range(5)])
        assert got == [0.5] * 5

    def test_numpy_scorer(self):
        with BridgeClient(double_config("numpy")) as client:
            got = client.score([ScoreRequest("s", mt, "r") for mt in ("abc", "", "de")])
        assert got == [3.0, 0.0, 2.0]

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

    def test_batch_whose_replies_fill_the_pipe(self):
        # 4095 replies of 24 bytes (98 KB) overfill a 64 KiB pipe long before
        # the 2 MB of requests are written, so the client must read while it
        # writes; the alarm turns a deadlock into a failure.
        requests = [
            ScoreRequest("s" * 250, f"{i}.2345678901234567e+100", "r" * 250)
            for i in range(1, 10)
        ] * (MAX_BATCH_SIZE // 9)

        def give_up(signum, frame):
            raise AssertionError("client and scorer blocked on each other's pipes")

        previous = signal.signal(signal.SIGALRM, give_up)
        signal.alarm(60)
        try:
            config = double_config("echo-mt", batch_size=MAX_BATCH_SIZE, timeout=30.0)
            with BridgeClient(config) as client:
                got = client.score(requests)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        assert got == [float(req.mt) for req in requests]


    def test_close_kills_a_scorer_that_outlives_its_input(self):
        client = BridgeClient(double_config("outlive-input"))
        assert client.score([ScoreRequest("s", "3", "r")]) == [3.0]
        started = time.monotonic()
        client.close()  # waits 5 s for the scorer to exit, then kills it
        assert time.monotonic() - started < 6.5
        client.close()


class TestNothingOutlivesTheClient:
    """The client reads on the calling thread and closes every pipe it opens;
    a failed call stops its scorer and the next call starts a new one."""

    def test_no_thread_and_no_open_pipe(self):
        threads = threading.active_count()
        fds = len(os.listdir("/proc/self/fd"))
        requests = [ScoreRequest("s", str(i), "r") for i in range(6)]
        for _ in range(5):
            with BridgeClient(double_config("crash-after", "3", batch_size=8)) as client:
                assert threading.active_count() == threads
                assert client.score(requests) == [float(i) for i in range(6)]
                assert threading.active_count() == threads  # crashed and respawned
            assert threading.active_count() == threads
        assert len(os.listdir("/proc/self/fd")) == fds

    @pytest.mark.parametrize(
        "double, first_call, error",
        [
            # The reply comes 1.5 s after the request, past the 1 s timeout.
            (("delayed-echo",), [ScoreRequest("1.5", "1", "r")], BridgeTimeoutError),
            (("delayed-echo",), [ScoreRequest("0", "nan", "r")], ProtocolError),
            # Each scorer answers once, so the batch crashes after its restart.
            (("crash-after", "1"), [ScoreRequest("0", str(i), "r") for i in range(3)],
             BridgeCrashError),
        ],
        ids=["timeout", "protocol-error", "fatal-crash"],
    )
    def test_failed_call_leaves_no_scorer(self, double, first_call, error):
        fds, children = len(os.listdir("/proc/self/fd")), child_pids()
        with BridgeClient(double_config(*double, timeout=1.0)) as client:
            with pytest.raises(error):
                client.score(first_call)
            assert len(os.listdir("/proc/self/fd")) == fds  # no pipe of the stopped scorer
            assert child_pids() == children
            assert client.score([ScoreRequest("0", "2", "r")]) == [2.0]
        assert len(os.listdir("/proc/self/fd")) == fds


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

    def test_restart_writes_one_warning_line(self, capfd):
        requests = [ScoreRequest("s", str(i), "r") for i in range(6)]
        with BridgeClient(double_config("crash-after", "3", batch_size=8)) as client:
            assert client.score(requests) == [float(i) for i in range(6)]
        assert capfd.readouterr().err.splitlines() == [
            "WARNING mbrforge: scorer crashed (scorer closed its output mid-batch); "
            "restarting it to replay 3 of 6 requests (batch starting at 0)"
        ]

    def test_call_without_a_crash_writes_nothing_to_stderr(self, capfd):
        requests = [ScoreRequest("s", str(i), "r") for i in range(6)]
        with BridgeClient(double_config("echo-mt", batch_size=4)) as client:
            assert client.score(requests) == [float(i) for i in range(6)]
        assert capfd.readouterr().err == ""

    def test_crash_without_restart_raises(self, capfd):
        requests = [ScoreRequest("s", str(i), "r") for i in range(6)]
        config = double_config("crash-after", "3", batch_size=8, restart_on_failure=False)
        with BridgeClient(config) as client:
            with pytest.raises(BridgeCrashError, match="unanswered"):
                client.score(requests)
        assert capfd.readouterr().err == ""  # no restart, so no WARNING line

    def test_second_crash_is_fatal(self):
        requests = [ScoreRequest("s", str(i), "r") for i in range(6)]
        config = double_config("crash-after", "1", batch_size=8)
        with BridgeClient(config) as client:
            with pytest.raises(BridgeCrashError):
                client.score(requests)

    def test_closed_input_is_crash_naming_the_pipe(self):
        # The child closes its input but keeps running, so only the write
        # of the batch can tell that the scorer is gone.
        code = "import os, time; os.close(0); time.sleep(30)"
        config = BridgeConfig(
            command=(sys.executable, "-c", code), timeout=30.0, restart_on_failure=False
        )
        with BridgeClient(config) as client:
            time.sleep(1.0)
            start = time.monotonic()
            with pytest.raises(
                BridgeCrashError,
                match=r"scorer crashed \(scorer pipe closed while writing: .*Broken pipe\): "
                r"1 of 1 requests unanswered \(batch starting at 0\)",
            ):
                client.score([ScoreRequest("s", "m", "r")])
            assert time.monotonic() - start < 5.0

    def test_replies_to_a_cut_short_batch_never_answer_the_next_call(self, tmp_path):
        # Each of the first two scorers replies once and closes its input
        # while the 2 MB batch is still being written, so the call fails
        # after its one restart.  The reply read just before that failure
        # must not answer the next call, whose restarted scorer works.
        config = double_config(
            "close-input-twice", str(tmp_path / "started"), batch_size=MAX_BATCH_SIZE
        )
        with BridgeClient(config) as client:
            with pytest.raises(BridgeCrashError, match="pipe closed while writing"):
                client.score([ScoreRequest("s" * 250, "0", "r" * 250)] * MAX_BATCH_SIZE)
            requests = [ScoreRequest("s", "1", "r"), ScoreRequest("s", "2", "r")]
            assert client.score(requests) == [1.0, 2.0]

    def test_fatal_crash_is_not_hidden_by_the_dead_scorers_output(self):
        # The scorer closes its input while the 2 MB batch is being written,
        # then writes a reply nobody asked for; with no restart the crash
        # must reach the caller, not a complaint about that reply.
        config = double_config(
            "close-input-then-reply", batch_size=MAX_BATCH_SIZE, restart_on_failure=False
        )
        start = time.monotonic()
        with pytest.raises(BridgeCrashError, match="pipe closed while writing"):
            with BridgeClient(config) as client:
                client.score([ScoreRequest("s" * 250, "0", "r" * 250)] * MAX_BATCH_SIZE)
        assert time.monotonic() - start < 5.0

    def test_failed_respawn_raises_until_the_scorer_can_start(self, tmp_path):
        # The scorer's interpreter is removed after the first spawn, so the
        # restart after a crash fails, and so does every later call's spawn.
        python = tmp_path / "python"
        python.symlink_to(sys.executable)
        config = BridgeConfig(command=(str(python), DOUBLES, "crash-after", "3"), batch_size=8)
        requests = [ScoreRequest("s", str(i), "r") for i in range(6)]
        with BridgeClient(config) as client:
            python.unlink()
            for _ in range(3):
                with pytest.raises(BridgeCrashError, match="cannot spawn scorer"):
                    client.score(requests)
            python.symlink_to(sys.executable)
            assert client.score(requests) == [float(i) for i in range(6)]

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

    @pytest.mark.parametrize(
        "mode, sources, message",
        [
            # The third request is the first of the second batch and answers late.
            ("delayed-echo", ["0", "0", "1.0"],
             "scorer gave no reply for request 2 within 0.3s"),
            ("no-batch-end", ["0", "0", "0"],
             "scorer did not end the batch after request 1 within 0.3s; "
             "a scorer must answer each blank line with a blank line"),
        ],
        ids=["no-reply", "no-batch-end"],
    )
    def test_timeout_messages_in_full(self, mode, sources, message):
        requests = [ScoreRequest(src, str(i), "r") for i, src in enumerate(sources)]
        with BridgeClient(double_config(mode, timeout=0.3, batch_size=2)) as client:
            with pytest.raises(BridgeTimeoutError) as exc_info:
                client.score(requests)
        assert str(exc_info.value) == message

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
    """A reply that is not UTF-8, answers no request, or never comes fails fast."""

    def test_undecodable_reply_is_protocol_error(self):
        config = double_config("bad-bytes", timeout=30.0)
        with BridgeClient(config) as client:
            start = time.monotonic()
            with pytest.raises(ProtocolError, match=r"request 0 is not a number: b'\\xff"):
                client.score([ScoreRequest("s", "m", "r")])
            assert time.monotonic() - start < 5.0

    @pytest.mark.parametrize("batch_size", [2, 8])
    def test_surplus_reply_inside_a_batch_is_protocol_error(self, batch_size):
        # The first request is answered twice, so the last reply of the
        # first batch stands where its closing blank line belongs.
        requests = [ScoreRequest("s", "x" * (i + 1), "r") for i in range(6)]
        last = min(batch_size, len(requests))
        config = double_config("extra-reply", batch_size=batch_size, timeout=30.0)
        start = time.monotonic()
        with BridgeClient(config) as client:
            with pytest.raises(
                ProtocolError,
                match=f"unrequested reply after request {last - 1}: b'{float(last)}'",
            ):
                client.score(requests)
        assert time.monotonic() - start < 5.0

    @pytest.mark.parametrize(
        "batch_size, where",
        # The surplus follows the first batch's closing blank line.  With
        # batches of 2 the next batch reads it and fails; with one batch
        # every score is right and close finds it.
        [(2, "unrequested reply after request 1: b'4.0'"),
         (8, "unrequested reply after the last request: b'1.0'")],
        ids=["next-batch", "close"],
    )
    def test_unrequested_reply_is_protocol_error(self, batch_size, where):
        requests = [ScoreRequest("s", "x" * (i + 1), "r") for i in range(6)]
        first, rest = requests[:batch_size], requests[batch_size:]
        config = double_config("late-extra-reply", batch_size=batch_size, timeout=30.0)
        start = time.monotonic()
        with pytest.raises(ProtocolError, match=where):
            with BridgeClient(config) as client:
                assert client.score(first) == [float(len(req.mt)) for req in first]
                client.score(rest)
        assert time.monotonic() - start < 5.0

    def test_missing_batch_end_is_timeout(self):
        requests = [ScoreRequest("s", str(i), "r") for i in range(3)]
        config = double_config("no-batch-end", timeout=1.0)
        with BridgeClient(config) as client:
            start = time.monotonic()
            with pytest.raises(
                BridgeTimeoutError,
                match="did not end the batch after request 2 within 1.0s; "
                "a scorer must answer each blank line with a blank line",
            ):
                client.score(requests)
            assert time.monotonic() - start < 5.0

    def test_closed_output_is_crash_without_waiting(self):
        # The child closes its output but keeps reading; the first reply
        # read must see the end of output rather than wait out the timeout.
        code = "import os, sys; os.close(1); sys.stdin.read()"
        config = BridgeConfig(
            command=(sys.executable, "-c", code), timeout=30.0, restart_on_failure=False
        )
        with BridgeClient(config) as client:
            start = time.monotonic()
            with pytest.raises(BridgeCrashError):
                client.score([ScoreRequest("s", "m", "r")])
            assert time.monotonic() - start < 5.0

    def test_unencodable_field_is_data_error(self):
        with BridgeClient(double_config("constant", "0.5")) as client:
            with pytest.raises(DataError, match="request 1 is not valid UTF-8"):
                client.score([ScoreRequest("s", "m", "r"), ScoreRequest("s", "\ud800", "r")])
            assert client.score([ScoreRequest("s", "m", "r")]) == [0.5]


def reply_config(head: str, digits: int, tail: str = "") -> BridgeConfig:
    """A scorer that reads one request and its batch end, then writes ``head``,
    ``digits`` ones and ``tail``, and exits."""
    write = f"sys.stdout.write({head!r} + '1' * {digits} + {tail!r})"
    code = f"import sys; sys.stdin.readline(); sys.stdin.readline(); {write}"
    return BridgeConfig(command=(sys.executable, "-c", code), timeout=30.0)


class TestReplyLineLimit:
    """A reply line is at most MAX_REPLY_LINE bytes, and a message quotes at most 64 of them."""

    def test_megabyte_without_newline_is_protocol_error(self):
        # The scorer blocks on the full pipe; the client stops reading at the limit.
        with BridgeClient(reply_config("", 2**20)) as client:
            proc = client._proc
            with pytest.raises(ProtocolError) as raised:
                client.score([ScoreRequest("s", "m", "r")])
            assert str(raised.value) == "scorer reply for request 0 is longer than 4096 bytes"
            assert len(str(raised.value)) < 200
            assert proc.returncode is not None  # killed and reaped

    @pytest.mark.parametrize(
        "length, message",
        [
            # 4096 digits parse as a float too large to be finite.
            (MAX_REPLY_LINE, "scorer reply for request 0 is not finite: b'" + "1" * 64 + "'"),
            (MAX_REPLY_LINE + 1, "scorer reply for request 0 is longer than 4096 bytes"),
        ],
    )
    def test_limit_is_exact(self, length, message):
        with BridgeClient(reply_config("", length, "\n\n")) as client:
            with pytest.raises(ProtocolError) as raised:
                client.score([ScoreRequest("s", "m", "r")])
        assert str(raised.value) == message

    def test_unprintable_reply_is_quoted_in_67_characters(self):
        # Each byte 0x01 takes four characters, so 16 of them fill the quote.
        write = "sys.stdout.buffer.write(b'\\x01' * 100 + b'\\n')"
        code = f"import sys; sys.stdin.readline(); sys.stdin.readline(); {write}"
        with BridgeClient(BridgeConfig(command=(sys.executable, "-c", code))) as client:
            with pytest.raises(ProtocolError) as raised:
                client.score([ScoreRequest("s", "m", "r")])
        quote = "b'" + "\\x01" * 16 + "'"
        assert str(raised.value) == f"scorer reply for request 0 is not a number: {quote}"

    def test_long_surplus_reply_is_quoted_in_part(self):
        with BridgeClient(reply_config("1.0\n", 1000, "\n")) as client:
            with pytest.raises(ProtocolError) as raised:
                client.score([ScoreRequest("s", "m", "r")])
        assert str(raised.value) == (
            "scorer sent an unrequested reply after request 0: b'" + "1" * 64 + "'"
        )

    def test_close_drains_through_the_limit(self):
        client = BridgeClient(reply_config("1.0\n\n", MAX_REPLY_LINE + 1))
        assert client.score([ScoreRequest("s", "m", "r")]) == [1.0]
        with pytest.raises(
            ProtocolError, match="^scorer reply after the last request is longer than 4096 bytes$"
        ):
            client.close()
