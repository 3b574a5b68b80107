"""Scorer child processes for bridge tests, selected by argv[1].

Run as ``python3 doubles.py [record-pid FILE] MODE [ARGS...]``.  Well-behaved
modes serve the line protocol via run_scorer_loop; the rest misbehave on
purpose.
"""

from __future__ import annotations

import os
import sys
import time
from pathlib import Path

from mbrforge.bridge import decode_request, run_scorer_loop
from mbrforge.metrics import sentence_chrf


def main() -> None:
    if sys.argv[1] == "record-pid":
        # Append "pid parent-pid" to the file named next, then run the mode after it.
        with open(sys.argv[2], "a", encoding="ascii") as pids:
            pids.write(f"{os.getpid()} {os.getppid()}\n")
        del sys.argv[1:3]
    mode = sys.argv[1]

    if mode == "constant":
        value = float(sys.argv[2])
        run_scorer_loop(lambda req: value)
    elif mode == "mt-tokens":
        run_scorer_loop(lambda req: len(req.mt.split()) * 0.1)
    elif mode == "echo-mt":
        # The mt field carries a number; reply with it to expose ordering.
        run_scorer_loop(lambda req: float(req.mt))
    elif mode == "delayed-echo":
        # Sleep for the number of seconds in src, then echo the mt number,
        # so a test can make one chosen request answer late.
        def delayed_echo(req):
            time.sleep(float(req.src))
            return float(req.mt)

        run_scorer_loop(delayed_echo)
    elif mode == "check-fields":
        expected = (sys.argv[2], sys.argv[3], sys.argv[4])

        def check(req):
            return 1.0 if (req.src, req.mt, req.ref) == expected else 0.0

        run_scorer_loop(check)
    elif mode == "crash-after":
        limit = int(sys.argv[2])
        answered = 0

        def count_then_die(req):
            nonlocal answered
            answered += 1
            if answered > limit:
                os._exit(1)
            return float(req.mt)

        run_scorer_loop(count_then_die)
    elif mode == "outlive-input":
        # Echo the mt number, then keep running after the end of input.
        run_scorer_loop(lambda req: float(req.mt))
        time.sleep(30)
    elif mode == "numpy":
        # Reply with a numpy scalar, as neural metrics commonly do.
        import numpy

        run_scorer_loop(lambda req: numpy.float64(len(req.mt)))
    elif mode == "chrf":
        run_scorer_loop(lambda req: sentence_chrf(req.mt, req.ref).value)
    elif mode == "garbage":
        for line in sys.stdin:
            if line.rstrip("\n") == "":
                continue
            sys.stdout.write("not-a-number\n")
            sys.stdout.flush()
    elif mode == "bad-bytes":
        # Every reply starts with bytes that are not UTF-8.
        for line in sys.stdin:
            if line.rstrip("\n") == "":
                continue
            sys.stdout.buffer.write(b"\xff\xfe1.0\n")
            sys.stdout.buffer.flush()
    elif mode in ("extra-reply", "late-extra-reply"):
        # Answer with the length of the mt field, and the first request a
        # second time: in the same write as its reply (extra-reply), or
        # after the first batch's closing blank line (late-extra-reply).
        repeat, held = True, ""
        for line in sys.stdin:
            line = line.rstrip("\n")
            if line:
                reply = f"{float(len(decode_request(line).mt))!r}\n"
                if repeat and mode == "extra-reply":
                    reply *= 2
                elif repeat:
                    held = reply
                repeat = False
            else:
                reply, held = "\n" + held, ""
            sys.stdout.write(reply)
            sys.stdout.flush()
    elif mode == "no-batch-end":
        # Echo the mt number for every request but never answer a blank
        # line, as scorers written before batches ended with one did.
        for line in sys.stdin:
            line = line.rstrip("\n")
            if line:
                sys.stdout.write(f"{float(decode_request(line).mt)!r}\n")
                sys.stdout.flush()
    elif mode == "exit-now":
        sys.exit(1)
    elif mode == "close-input-twice":
        # The first two processes started with this counter file wait for
        # the client to fill their input pipe, reply once, close their
        # input and keep running; later ones echo the mt number.
        counter = Path(sys.argv[2])
        started = int(counter.read_text()) if counter.exists() else 0
        counter.write_text(str(started + 1))
        if started < 2:
            time.sleep(0.3)
            os.write(1, b"99.0\n")
            os.close(0)
            time.sleep(30)
        run_scorer_loop(lambda req: float(req.mt))
    elif mode == "close-input-then-reply":
        # Wait for the client to fill the input pipe and close it; reply
        # only once the client has had time to see the closed pipe, then
        # keep running.
        time.sleep(0.3)
        os.close(0)
        time.sleep(0.5)
        os.write(1, b"99.0\n")
        time.sleep(30)
    elif mode == "slow":
        delay = float(sys.argv[2])
        for line in sys.stdin:
            if line.rstrip("\n") == "":
                continue
            time.sleep(delay)
            sys.stdout.write("0.0\n")
            sys.stdout.flush()
    else:
        sys.exit(f"unknown double mode: {mode}")


if __name__ == "__main__":
    main()
