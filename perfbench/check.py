"""Output correctness checks against the independent oracles in tests/oracles.py.

``check(workload, data, out)`` returns a list of error strings, empty when
the outputs are right.  It reads only the files the program wrote and the
generated inputs; scores are recomputed by the oracles, never by the
library under test.  Generated text is space-separated words and
punctuation tokens, so ``str.split`` is the BLEU tokenization here.

``digest(out)`` is the sha256 of every output file, by sorted name.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

import scorer
from oracles import (
    oracle_average,
    oracle_bleu,
    oracle_chrf,
    oracle_corpus_bleu,
    oracle_corpus_chrf,
    oracle_lora_delta,
    oracle_mbr_row,
)
from workloads import EVAL_STEPS, LORA_ALPHA, PROMPT_MODES, Workload

CELL_TOL = 1e-6  # matrix cells and row means are printed with 6 decimals
SCORE_TOL = 0.0051  # eval scores are printed with 2 decimals
SAMPLE_SEGMENTS = 3  # native-metric segments recomputed per mbr output
SAMPLE_LINES = 8  # sentence-level eval lines recomputed per metric
SAMPLE_ELEMENTS = 64  # checkpoint elements recomputed per tensor
SAMPLE_ROWS = 2  # lora-merge rows recomputed per adapted tensor


def digest(out: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(out.iterdir()):
        h.update(path.name.encode("utf-8") + b"\0")
        h.update(path.read_bytes())
        h.update(b"\0")
    return h.hexdigest()


def _lines(path: Path) -> list[str]:
    return path.read_text(encoding="utf-8").splitlines()


def _spread(count: int, k: int) -> list[int]:
    """k evenly spaced indices in 0..count-1, always including both ends."""
    if count <= k:
        return list(range(count))
    return sorted({round(i * (count - 1) / (k - 1)) for i in range(k)})


def check(workload: Workload, data: Path, out: Path) -> list[str]:
    try:
        if workload.kind == "mbr":
            return _check_mbr(workload, data, out)
        return _check_eval_build(workload, data, out)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        return [f"unreadable output: {type(exc).__name__}: {exc}"]


def _utility(workload: Workload):
    if workload.utility == "chrf":
        return oracle_chrf
    if workload.utility == "bleu":
        return lambda mt, ref: oracle_bleu(mt.split(), [ref.split()], smoothing="add-k")
    return scorer.utility


def _check_mbr(workload: Workload, data: Path, out: Path) -> list[str]:
    m, n = workload.shape.segments, workload.shape.candidates
    columns = [_lines(data / f"cand{k:02d}.txt") for k in range(n)]
    rows = [tuple(col[i] for col in columns) for i in range(m)]
    selected = _lines(out / "selected.txt")
    matrix = [line.split("\t") for line in _lines(out / "matrix.tsv")]
    errors = []
    if len(selected) != m:
        errors.append(f"selected.txt has {len(selected)} lines, expected {m}")
    if len(matrix) != m * n or any(len(cells) != n + 3 for cells in matrix):
        return errors + [f"matrix.tsv is not {m * n} rows of {n + 3} cells"]
    for i in range(m):
        block = matrix[i * n : (i + 1) * n]
        if any(cells[:2] != [str(i), str(c)] for c, cells in enumerate(block)):
            errors.append(f"segment {i}: matrix rows out of order")
            continue
        means = [float(cells[-1]) for cells in block]
        if i >= len(selected):
            continue
        if selected[i] not in rows[i]:
            errors.append(f"segment {i}: selected line is not one of the candidates")
        elif means[rows[i].index(selected[i])] != max(means):
            errors.append(f"segment {i}: selected line does not have the best row mean")
    # Native metrics are recomputed on a fixed sample; the external scorer
    # is O(1), so every cell of every segment is recomputed.
    utility = _utility(workload)
    sample = range(m) if workload.utility == "external" else _spread(m, SAMPLE_SEGMENTS)
    for i in sample:
        cands = rows[i]
        best, means = oracle_mbr_row(cands, utility)
        for c in range(n):
            cells = [float(v) for v in matrix[i * n + c][2:]]
            for r in range(n):
                if abs(cells[r] - utility(cands[c], cands[r])) > CELL_TOL:
                    errors.append(f"segment {i}: cell ({c},{r}) is {cells[r]}")
            if abs(cells[-1] - means[c]) > CELL_TOL:
                errors.append(f"segment {i}: row mean {c} is {cells[-1]}, oracle {means[c]}")
        if i < len(selected) and selected[i] != cands[best]:
            errors.append(f"segment {i}: selected candidate differs from the oracle's {best}")
    return errors


def _close(printed: str, want: float) -> bool:
    return abs(float(printed) - want) <= SCORE_TOL


def _filtered(pairs, dedup: bool) -> list[tuple[str, str]]:
    """The documented build-st/build-bt filter at its default limits."""
    kept, seen = [], set()
    for src, tgt in pairs:
        a, b = len(src.split()), len(tgt.split())
        if not (1 <= a <= 250 and 1 <= b <= 250) or max(a / b, b / a) > 9.0:
            continue
        if dedup and (src, tgt) in seen:
            continue
        seen.add((src, tgt))
        kept.append((src, tgt))
    return kept


def _read_tsf(path: Path) -> dict[str, np.ndarray]:
    raw = path.read_bytes()
    end = raw.index(b"\n\n")
    tensors, offset, body = {}, 0, raw[end + 2 :]
    for line in raw[5:end].decode("utf-8").split("\n"):
        name, _dtype, dims = line.split("\t")
        shape = tuple(int(d) for d in dims.split(","))
        count = int(np.prod(shape))
        tensors[name] = np.frombuffer(body, "<f4", count, offset).reshape(shape)
        offset += 4 * count
    return tensors


def _check_eval_build(workload: Workload, data: Path, out: Path) -> list[str]:
    errors = []
    hyps, refs = _lines(data / "hyp.txt"), _lines(data / "ref.txt")
    srcs, bts = _lines(data / "src.txt"), _lines(data / "bt.txt")
    hyp_tok, ref_tok = [h.split() for h in hyps], [r.split() for r in refs]
    corpus = {"bleu": lambda: oracle_corpus_bleu(hyp_tok, ref_tok),
              "chrf": lambda: oracle_corpus_chrf(hyps, refs)}
    sentence = {"bleu": lambda i: oracle_bleu(hyp_tok[i], [ref_tok[i]], smoothing="add-k"),
                "chrf": lambda i: oracle_chrf(hyps[i], refs[i])}
    for metric, sentence_level in EVAL_STEPS:
        kind = "sentence" if sentence_level else "corpus"
        printed = _lines(out / f"eval.{metric}.{kind}.txt")
        if not sentence_level:
            if len(printed) != 1 or not _close(printed[0], corpus[metric]()):
                errors.append(f"corpus {metric} printed {printed}")
            continue
        if len(printed) != len(hyps):
            errors.append(f"sentence {metric}: {len(printed)} lines for {len(hyps)} pairs")
            continue
        for i in _spread(len(hyps), SAMPLE_LINES):
            if not _close(printed[i], sentence[metric](i)):
                errors.append(f"sentence {metric} line {i}: {printed[i]}")

    st = _filtered(zip(srcs, hyps), dedup=True)
    bt = [(f"<BT> {s}", t) for s, t in _filtered(zip(bts, refs), dedup=False)]
    for prefix, pairs, tag in (("st", st, "self-train"), ("bt", bt, "back-translate")):
        got = list(zip(_lines(out / f"{prefix}.src"), _lines(out / f"{prefix}.tgt")))
        if got != pairs or _lines(out / f"{prefix}.meta") != [tag] * len(pairs):
            errors.append(f"{prefix} corpus differs from the filtered input pairs")
    mix = list(zip(_lines(out / "mix.src"), _lines(out / "mix.tgt"), _lines(out / "mix.meta")))
    want = [(s, t, "self-train") for s, t in st] + [(s, t, "back-translate") for s, t in bt]
    if sorted(mix) != sorted(want):
        errors.append("merged corpus is not the union of st and bt")

    ckpts = [_read_tsf(data / f"ckpt{k}.tsf") for k in range(workload.ckpt_count)]
    avg = _read_tsf(out / "avg.tsf")
    if list(avg) != list(ckpts[0]):
        return errors + [f"avg.tsf has tensors {list(avg)}"]
    sample = oracle_average(
        [{name: arr.ravel()[:SAMPLE_ELEMENTS].tolist() for name, arr in c.items()} for c in ckpts]
    )
    for name, values in sample.items():
        if not np.array_equal(avg[name].ravel()[:SAMPLE_ELEMENTS], np.float32(values)):
            errors.append(f"avg.tsf tensor {name} differs from the oracle mean")
    adapter = _read_tsf(data / "adapter.tsf")
    merged = _read_tsf(out / "merged.tsf")
    rank = workload.lora_rank
    for name, base in avg.items():
        if f"{name}.lora_A" not in adapter:
            if not np.array_equal(merged[name], base):
                errors.append(f"merged.tsf changed untargeted tensor {name}")
            continue
        a = adapter[f"{name}.lora_A"].tolist()
        b = adapter[f"{name}.lora_B"][:SAMPLE_ROWS].tolist()
        delta = np.array(oracle_lora_delta(a, b, LORA_ALPHA, rank))
        want_rows = (base[:SAMPLE_ROWS].astype(np.float64) + delta).astype(np.float32)
        if not np.allclose(merged[name][:SAMPLE_ROWS], want_rows, rtol=1e-5, atol=1e-5):
            errors.append(f"merged.tsf tensor {name} differs from W + (alpha/r) B A")

    turns = [json.loads(line) for line in _lines(data / "chat.jsonl")]
    for mode in PROMPT_MODES:
        records = [json.loads(line) for line in _lines(out / f"prompts.{mode}.jsonl")]
        if len(records) != len(turns):
            errors.append(f"prompts {mode}: {len(records)} records for {len(turns)} turns")
            continue
        for turn, rec in zip(turns, records):
            sl, tl, src = turn["src_lang"], turn["tgt_lang"], turn["source"]
            tail = {
                "stream": f"Natural {sl}: {src}, Translated {tl}: {turn['mt']}, Natural {tl}: ",
                "context": f"Natural {sl}: {src}, Natural {tl}: ",
                "fewshot": f"{sl}: {src}\n{tl}: ",
            }[mode]
            if ((rec["doc_id"], rec["turn_index"]) != (turn["doc_id"], turn["turn_index"])
                    or rec["completion"] != turn["reference"]
                    or not rec["text"].endswith(tail)):
                errors.append(f"prompts {mode}: bad record for {turn['doc_id']}#{turn['turn_index']}")
                break
    return errors
