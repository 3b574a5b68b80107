#!/usr/bin/env python3
"""Reference external scorer for the bridge protocol.

Reads tab-separated (source, hypothesis, reference) requests on stdin
and answers one score per line.  Plug it into selection with:

    mbrforge mbr --utility external \
        --external-cmd "python3 scripts/chrf_scorer.py" ...

Swap --metric to bleu to score with BLEU instead.  Either way it scores
with the native utility's own scorer, so selection through it matches
``--utility chrf`` or ``--utility bleu`` byte for byte.  The point of
this file is to be copied: replace `score` with any function of the
three fields and the pipeline picks it up unchanged.
"""

from __future__ import annotations

import argparse

from mbrforge.bridge import ScoreRequest, run_scorer_loop
from mbrforge.mbr import UtilitySpec, make_scorer


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--metric", choices=("chrf", "bleu"), default="chrf")
    args = parser.parse_args()
    native = make_scorer(UtilitySpec(kind=f"native-{args.metric}"))

    def score(request: ScoreRequest) -> float:
        return native([request])[0]

    run_scorer_loop(score)


if __name__ == "__main__":
    main()
