"""Self-test of the output checks: corrupted outputs must raise fail_ratio.

    python3 perfbench/selftest.py    # from the root of a source checkout

Each case runs one workload twice through the benchmark's own Runner,
applying a corruption to the program's outputs after every invocation
and before the check.  The clean case must report fail_ratio 0 and every
corrupted case fail_ratio 1.  Exits 1 if any corruption goes unnoticed.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
from pathlib import Path

INVOCATIONS = 2


def _edit_line(path: Path, index: int, edit) -> None:
    lines = path.read_text(encoding="utf-8").split("\n")
    lines[index] = edit(lines[index])
    path.write_text("\n".join(lines), encoding="utf-8")


def rotate_row(index: int):
    """Permute the utility cells of one matrix row (mean left in place)."""
    def corrupt(out: Path) -> None:
        def rotate(line: str) -> str:
            cells = line.split("\t")
            utilities = cells[2:-1]
            return "\t".join(cells[:2] + utilities[1:] + utilities[:1] + cells[-1:])
        _edit_line(out / "matrix.tsv", index, rotate)
    return corrupt


def main() -> int:
    root = Path.cwd()
    sys.path[:0] = [str(root / "src"), str(root / "tests")]
    os.environ["PYTHONPATH"] = str(root / "src")
    import run
    from workloads import WORKLOADS

    chrf, bridge, evalb = (WORKLOADS[n] for n in ("mbr-chrf-dup", "mbr-bridge", "eval-build"))
    mid_bridge_row = 20 * bridge.shape.candidates + 1  # segment 20 of the 40-segment probe
    unsampled_chrf_row = chrf.shape.candidates + 1  # segment 1, outside check.py's sample
    cases = [
        ("clean mbr output", chrf, 3, None, 0.0),
        ("selected line altered", chrf, 3, lambda out: _edit_line(
            out / "selected.txt", 0, lambda s: s + " x"), 1.0),
        ("matrix row 1 permuted", chrf, 3, rotate_row(1), 1.0),
        ("bridge matrix row permuted mid-file", bridge, 40, rotate_row(mid_bridge_row), 1.0),
        ("unsampled segment permuted, default-seed digest", chrf, None,
         rotate_row(unsampled_chrf_row), 1.0),
        ("clean eval-build output", evalb, 50, None, 0.0),
        ("corpus chrF score altered", evalb, 50, lambda out: _edit_line(
            out / "eval.chrf.corpus.txt", 0, lambda s: f"{float(s) + 0.01:.2f}"), 1.0),
        ("prompt record dropped", evalb, 50, lambda out: _edit_line(
            out / "prompts.fewshot.jsonl", 3, lambda s: ""), 1.0),
    ]
    work_root = root / ".perfbench" / f"selftest-{os.getpid()}"
    bad = 0
    try:
        for k, (label, workload, segments, corrupt, want) in enumerate(cases):
            if segments is not None:
                workload = workload.probe(segments)
            seed = run.DEFAULT_SEED if segments is None else 7
            expected = json.loads(run.DIGESTS.read_text())[workload.name] if segments is None else None
            runner = run.Runner(workload, seed, work_root / str(k), expected)
            runner.corrupt = corrupt
            for _ in range(INVOCATIONS):
                runner.invoke()
            ratio = runner.failed / runner.attempted
            ok = ratio == want
            bad += not ok
            first = runner.errors[0] if runner.errors else "no error"
            print(f"{'ok  ' if ok else 'FAIL'} {label:50s} fail_ratio {ratio:.2f}  ({first[:70]})")
    finally:
        shutil.rmtree(work_root, ignore_errors=True)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
