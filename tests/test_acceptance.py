"""Acceptance gate: one test per shipping criterion.

Every test here is independent of the unit suite and checks one
user-visible guarantee end to end, at a pinned tolerance.  The terminal
summary prints one PASS/FAIL line per criterion (see conftest).
"""

from __future__ import annotations

import random
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from mbrforge import cli
from mbrforge.bridge import BridgeClient, BridgeConfig, ScoreRequest
from mbrforge.checkpoint import (
    LoraAdapter,
    TensorStore,
    average_checkpoints,
    lora_merge,
    rdrop_penalty,
)
from mbrforge.errors import BridgeCrashError, ProtocolError
from mbrforge.mbr import CandidateSet, UtilitySpec, best_index, make_scorer, utility_matrix
from mbrforge.metrics import sentence_bleu, sentence_chrf
from mbrforge.promptgen import render_context, render_fewshot, render_stream
from mbrforge.textio import read_segments
from fixtures import GOLDEN_DIR, TOY_DEMOS, TOY_QUERY, toy_chat_doc
from oracles import (
    oracle_average,
    oracle_bleu,
    oracle_chrf,
    oracle_lora_delta,
    oracle_mbr_row,
    oracle_rdrop,
)

DOUBLES = str(Path(__file__).parent / "doubles.py")

VOCAB = ["the", "cat", "dog", "a", "sat", "ran", "mat", "on"]


def random_segment(rng: random.Random, max_tokens: int = 8) -> str:
    return " ".join(rng.choice(VOCAB) for _ in range(rng.randint(0, max_tokens)))


def test_c01_native_metrics_only_with_external_escape_hatch():
    """No neural metric is shipped or faked: the native metrics are BLEU
    and chrF, and anything heavier must go through the scorer bridge."""
    parser = cli.build_parser()
    sub = parser._subparsers._group_actions[0].choices

    def choices_of(command: str, flag: str):
        for action in sub[command]._actions:
            if flag in action.option_strings:
                return list(action.choices)
        raise AssertionError(f"{command} has no {flag} flag")

    assert choices_of("eval", "--metric") == ["bleu", "chrf"]
    assert choices_of("mbr", "--utility") == ["bleu", "chrf", "external"]

    import mbrforge
    import pkgutil

    modules = {m.name for m in pkgutil.iter_modules(mbrforge.__path__)}
    assert modules == {
        "bridge",
        "checkpoint",
        "cli",
        "errors",
        "mbr",
        "metrics",
        "promptgen",
        "selftrain",
        "textio",
    }


def test_c02_selection_matches_brute_force_oracle():
    """1000 random selection instances (2..5 candidates, segments up to 8
    tokens, chrF utility, both self-inclusion modes): the chosen index
    must equal a brute-force recomputation of every pairwise utility and
    row mean, exactly, in under 30 seconds."""
    rng = random.Random(20240817)
    started = time.monotonic()
    for trial in range(1000):
        n = rng.randint(2, 5)
        candidates = [random_segment(rng) for _ in range(n)]
        include_self = rng.random() < 0.5
        cset = CandidateSet(
            sources=("s",),
            systems=tuple(f"sys{i}" for i in range(n)),
            candidates=(tuple(candidates),),
        )
        spec = UtilitySpec(kind="native-chrf", include_self=include_self)
        matrix = utility_matrix(cset, 0, spec, make_scorer(spec))
        want_best, want_means = oracle_mbr_row(
            candidates, oracle_chrf, include_self=include_self
        )
        assert matrix.best_index == want_best, (
            f"trial {trial}: library chose {matrix.best_index}, "
            f"oracle chose {want_best} for {candidates!r}"
        )
        assert list(matrix.row_means) == want_means, f"trial {trial}: means differ"
    elapsed = time.monotonic() - started
    assert elapsed < 30.0, f"selection oracle sweep took {elapsed:.1f}s"


def test_c03_metrics_match_enumeration_oracle():
    """500 random segment pairs: sentence BLEU (both smoothing modes) and
    sentence chrF agree with naive enumeration oracles within 1e-9, in
    under 10 seconds."""
    rng = random.Random(97)
    started = time.monotonic()
    for trial in range(500):
        hyp = [rng.choice(VOCAB) for _ in range(rng.randint(0, 10))]
        refs = [
            [rng.choice(VOCAB) for _ in range(rng.randint(0, 10))]
            for _ in range(rng.randint(1, 3))
        ]
        smoothing = "add-k" if trial % 2 else "none"
        got = sentence_bleu(hyp, refs, smoothing=smoothing).value
        want = oracle_bleu(hyp, refs, smoothing=smoothing)
        assert got == pytest.approx(want, abs=1e-9), f"BLEU trial {trial}"

        hyp_text = random_segment(rng)
        ref_text = random_segment(rng)
        got = sentence_chrf(hyp_text, ref_text).value
        want = oracle_chrf(hyp_text, ref_text)
        assert got == pytest.approx(want, abs=1e-9), f"chrF trial {trial}"
    elapsed = time.monotonic() - started
    assert elapsed < 10.0, f"metric oracle sweep took {elapsed:.1f}s"


def test_c04_argmax_invariant_under_affine_utility():
    """200 random utility matrices: scaling and shifting every utility by
    a > 0 and any b never changes which candidate wins."""
    rng = random.Random(4242)
    for _ in range(200):
        n = rng.randint(2, 6)
        values = [[rng.random() * 100.0 for _ in range(n)] for _ in range(n)]
        means = [sum(row) / n for row in values]
        baseline = best_index(means)
        for a in (0.5, 2.0, 10.0):
            for b in (-1.0, 0.0, 3.0):
                transformed = [[a * v + b for v in row] for row in values]
                t_means = [sum(row) / n for row in transformed]
                assert best_index(t_means) == baseline


def test_c05_checkpoint_average_algebra():
    """Averaging five random checkpoints matches the elementwise oracle
    within 1e-6; averaging copies of one checkpoint is bitwise identity;
    the tensor container round-trips byte-exactly."""
    rng = np.random.default_rng(512)
    shapes = {"enc.w": (3, 4), "dec.w": (2, 5), "bias": (7,)}
    stores = []
    for _ in range(5):
        store = TensorStore()
        for name, shape in shapes.items():
            store.add(name, rng.normal(size=shape).astype(np.float32))
        stores.append(store)

    averaged = average_checkpoints(stores)
    flat = [
        {name: [float(v) for v in store[name].ravel()] for name in shapes}
        for store in stores
    ]
    want = oracle_average(flat)
    for name in shapes:
        np.testing.assert_allclose(
            averaged[name].ravel(), want[name], atol=1e-6, err_msg=name
        )

    one = stores[0]
    for k in (1, 2, 5):
        assert average_checkpoints([one] * k).serialize() == one.serialize()

    data = averaged.serialize()
    parsed = TensorStore.parse(data)
    assert parsed == averaged
    assert parsed.serialize() == data


def test_c06_lora_merge_algebra():
    """Merging a zero-B adapter returns the base weights byte-exactly;
    a random (d=4, k=3, rank=2) merge matches a triple-loop oracle
    within 1e-6."""
    base = TensorStore(
        {
            "w": np.array(
                [[0.25, -1.5, 3.75], [7.0, 0.125, -2.0], [1.0, 2.0, 3.0], [0.5, 4.5, -9.0]],
                dtype=np.float32,
            )
        }
    )
    zero_adapter = LoraAdapter(
        rank=2,
        alpha=16.0,
        targets=(
            ("w", np.ones((2, 3), dtype=np.float32), np.zeros((4, 2), dtype=np.float32)),
        ),
    )
    assert lora_merge(base, zero_adapter).serialize() == base.serialize()

    rng = np.random.default_rng(77)
    d, k, r = 4, 3, 2
    w = rng.normal(size=(d, k)).astype(np.float32)
    a = rng.normal(size=(r, k)).astype(np.float32)
    b = rng.normal(size=(d, r)).astype(np.float32)
    alpha = 8.0
    merged = lora_merge(
        TensorStore({"w": w}), LoraAdapter(rank=r, alpha=alpha, targets=(("w", a, b),))
    )
    delta = oracle_lora_delta(a.tolist(), b.tolist(), alpha, r)
    want = [[float(w[i, j]) + delta[i][j] for j in range(k)] for i in range(d)]
    np.testing.assert_allclose(merged["w"], want, atol=1e-6)


def test_c07_rdrop_penalty_properties():
    """The consistency penalty is zero exactly when the distributions are
    equal (1e-9), symmetric in its arguments, and agrees with the direct
    symmetric-KL formula within 1e-12 on 100 random pairs."""
    rng = random.Random(31337)

    def random_dist(n: int) -> list[float]:
        raw = [rng.random() + 1e-3 for _ in range(n)]
        total = sum(raw)
        return [v / total for v in raw]

    for _ in range(100):
        n = rng.randint(2, 10)
        p = random_dist(n)
        q = random_dist(n)
        assert abs(rdrop_penalty(p, p)) <= 1e-9
        assert rdrop_penalty(p, q) == rdrop_penalty(q, p)
        value = rdrop_penalty(p, q)
        assert value >= 0.0
        assert value == pytest.approx(oracle_rdrop(p, q), abs=1e-12)
        if p != q:
            assert value > 0.0


def test_c08_prompt_renders_match_goldens():
    """Stream, context and 5-shot renders of the fixed toy chat data are
    byte-identical to the frozen goldens."""
    doc = toy_chat_doc()
    cases = [
        ("stream_toy.txt", render_stream(doc, index=4, k_history=3)),
        ("context_toy.txt", render_context(doc, index=2, before=2, after=2)),
        (
            "fewshot_toy.txt",
            render_fewshot(TOY_DEMOS, TOY_QUERY, ("English", "German"), k=5),
        ),
    ]
    for name, prompt in cases:
        golden = (GOLDEN_DIR / name).read_bytes()
        assert prompt.text.encode("utf-8") == golden, f"{name} differs"


def test_c09_bridge_protocol_robustness():
    """Fields containing TAB, LF and backslash survive the wire; reply
    order matches request order for batch sizes 1, 7 and 64; a
    non-numeric reply raises a protocol error; a crashing scorer is
    restarted once and only the unanswered requests are replayed."""
    nasty = ("a\tb", "line1\nline2", "c:\\path\\t")
    config = BridgeConfig(
        command=(sys.executable, DOUBLES, "check-fields", *nasty)
    )
    with BridgeClient(config) as client:
        assert client.score([ScoreRequest(*nasty)]) == [1.0]

    requests = [ScoreRequest("s", str(i), "r") for i in range(130)]
    for batch_size in (1, 7, 64):
        config = BridgeConfig(
            command=(sys.executable, DOUBLES, "echo-mt"), batch_size=batch_size
        )
        with BridgeClient(config) as client:
            assert client.score(requests) == [float(i) for i in range(130)]

    with BridgeClient(
        BridgeConfig(command=(sys.executable, DOUBLES, "garbage"))
    ) as client:
        with pytest.raises(ProtocolError):
            client.score([ScoreRequest("s", "m", "r")])

    six = [ScoreRequest("s", str(i), "r") for i in range(6)]
    with BridgeClient(
        BridgeConfig(command=(sys.executable, DOUBLES, "crash-after", "3"), batch_size=8)
    ) as client:
        assert client.score(six) == [float(i) for i in range(6)]

    with BridgeClient(
        BridgeConfig(
            command=(sys.executable, DOUBLES, "crash-after", "3"),
            batch_size=8,
            restart_on_failure=False,
        )
    ) as client:
        with pytest.raises(BridgeCrashError):
            client.score(six)


def test_c10_pipeline_end_to_end(tmp_path):
    """Three 20-line candidate files go through selection and then the
    self-training builder: both commands exit 0, the corpus has at most
    20 aligned pairs, every target is verbatim one of that line's
    candidates, and 8 workers produce byte-identical outputs to 1."""
    rng = random.Random(6)
    n_lines = 20
    sources = [f"source {i}" for i in range(n_lines)]
    columns = [[], [], []]
    for i in range(n_lines):
        agreeing = f"item {i} alpha beta"
        lone = f"item {i} gamma"
        variants = [agreeing, agreeing, lone]
        rng.shuffle(variants)
        for col, variant in zip(columns, variants):
            col.append(variant)

    src = tmp_path / "src.txt"
    src.write_text("".join(s + "\n" for s in sources))
    cand_paths = []
    for k, column in enumerate(columns):
        path = tmp_path / f"cand{k}.txt"
        path.write_text("".join(c + "\n" for c in column))
        cand_paths.append(path)

    def run_selection(out: Path, matrix: Path, workers: int) -> int:
        argv = ["mbr", "--src", str(src)]
        for path in cand_paths:
            argv += ["--cand", str(path)]
        argv += [
            "--out", str(out),
            "--matrix-out", str(matrix),
            "--workers", str(workers),
        ]
        return cli.main(argv)

    out1 = tmp_path / "mbr.w1.txt"
    out8 = tmp_path / "mbr.w8.txt"
    assert run_selection(out1, tmp_path / "m1.tsv", 1) == 0
    assert run_selection(out8, tmp_path / "m8.tsv", 8) == 0
    assert out8.read_bytes() == out1.read_bytes()
    assert (tmp_path / "m8.tsv").read_bytes() == (tmp_path / "m1.tsv").read_bytes()

    chosen = read_segments(out1)
    assert len(chosen) == n_lines
    for i, line in enumerate(chosen):
        assert line in {col[i] for col in columns}, f"line {i} not verbatim"

    rc = cli.main(
        [
            "build-st",
            "--src", str(src),
            "--mt", str(out1),
            "--out-prefix", str(tmp_path / "st"),
        ]
    )
    assert rc == 0
    pairs_src = read_segments(tmp_path / "st.src")
    pairs_tgt = read_segments(tmp_path / "st.tgt")
    assert len(pairs_src) == len(pairs_tgt) <= n_lines
    for src_line, tgt_line in zip(pairs_src, pairs_tgt):
        i = sources.index(src_line)
        assert tgt_line == chosen[i]

    meta = read_segments(tmp_path / "st.meta")
    assert set(meta) == {"self-train"}
