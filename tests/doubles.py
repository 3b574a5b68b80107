"""Scorer child processes for bridge tests, selected by argv[1].

Run as ``python3 doubles.py MODE [ARGS...]``.  Well-behaved modes serve
the line protocol via run_scorer_loop; the rest misbehave on purpose.
"""

from __future__ import annotations

import os
import sys
import time

from mbrforge.bridge import decode_request, run_scorer_loop
from mbrforge.metrics import sentence_chrf


def main() -> None:
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
    elif mode == "extra-reply":
        # Answer with the length of the mt field, the first request twice
        # in one write.
        copies = 2
        for line in sys.stdin:
            if line.rstrip("\n") == "":
                continue
            value = float(len(decode_request(line.rstrip("\n")).mt))
            sys.stdout.write(f"{value!r}\n" * copies)
            sys.stdout.flush()
            copies = 1
    elif mode == "exit-now":
        sys.exit(1)
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
