"""Benchmark-owned scorer child for ``mbr --utility external``.

Its reply is a cheap deterministic function of both ``mt`` and ``ref``,
so the harness can recompute every matrix cell and catch a score that
was attributed to the wrong request.  A constant scorer cannot catch
that.  The cost per request is O(1) in the number of requests.

    python3 perfbench/scorer.py    # serves the bridge line protocol
"""

from __future__ import annotations

import zlib


def utility(mt: str, ref: str) -> float:
    """A value in [0, 100) that changes when either field changes."""
    return zlib.crc32(f"{mt}\t{ref}".encode("utf-8")) % 1_000_003 / 10_000.0


if __name__ == "__main__":
    from mbrforge.bridge import run_scorer_loop

    run_scorer_loop(lambda req: utility(req.mt, req.ref))
