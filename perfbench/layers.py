"""Per-layer metrics: span analysis for traced runs, and direct layer sweeps.

``span_metrics(spans)`` turns the spans of one traced run into layer
metrics.  A group of metrics is present only when the spans reach that
layer; the harness fills the gaps from probe runs.

The sweeps call one layer directly on pairs drawn from the workload's
generator: metric kernels by segment length, the bridge by batch size,
and the ``segment_matrices`` executor at one and two workers.
"""

from __future__ import annotations

import math
import random
import statistics
import sys
import time
from collections import defaultdict
from dataclasses import replace
from pathlib import Path

import scorer
from workloads import TextGen, Workload

SCORER = Path(scorer.__file__).resolve()
KERNEL_LENGTHS = (25, 50, 100)
KERNEL_PAIRS = {"chrf": {25: 64, 50: 64, 100: 64}, "bleu": {25: 64, 50: 32, 100: 16}}
KERNEL_REPEATS = 5
TOKENIZE_SEGMENTS = 200
BRIDGE_SPAWNS = 3
BRIDGE_BATCH_SIZES = (1, 32, 256)
BRIDGE_REQUESTS = 512


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p / 100 * len(ordered)) - 1)]


def _dur(span: dict) -> float:
    return span["end"] - span["start"]


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of intervals."""
    total, reach = 0.0, -math.inf
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def self_times(spans: list[dict]) -> dict[str, float]:
    """Per layer: span durations minus the part their children cover."""
    children = defaultdict(list)
    for s in spans:
        children[s["parent"]].append(s)
    out: dict[str, float] = defaultdict(float)
    for s in spans:
        kids = [(max(k["start"], s["start"]), min(k["end"], s["end"])) for k in children[s["id"]]]
        out[s["name"].split(".")[0]] += _dur(s) - _covered([k for k in kids if k[0] < k[1]])
    return out


def span_metrics(spans: list[dict]) -> dict[str, tuple[float, str]]:
    by_name = defaultdict(list)
    for s in spans:
        by_name[s["name"]].append(s)

    def total(*names: str) -> float:
        return sum(_dur(s) for n in names for s in by_name[n])

    def outer(prefix: str) -> float:
        ids = {s["id"] for s in spans if s["name"].startswith(prefix)}
        return sum(_dur(s) for s in spans if s["name"].startswith(prefix) and s["parent"] not in ids)

    m: dict[str, tuple[float, str]] = {}
    scorer_spans = by_name["metrics.scorer"] + by_name["bridge.scorer"]
    if by_name["mbr.segment_matrices"]:
        matrices = total("mbr.segment_matrices")
        covered = sum(
            _covered([(x["start"], x["end"]) for x in scorer_spans
                      if sm["start"] <= x["start"] <= sm["end"]])
            for sm in by_name["mbr.segment_matrices"]
        )
        segment_ms = [_dur(s) * 1e3 for s in by_name["mbr.utility_matrix"]]
        requested = sum(s["requested"] for s in scorer_spans)
        distinct = sum(s["distinct"] for s in scorer_spans)
        capacity = sum(s["workers"] * _dur(s) for s in by_name["mbr.segment_matrices"])
        m.update({
            "mbr.load_s": (total("mbr.load_candidates"), "s"),
            "mbr.matrices_s": (matrices, "s"),
            "mbr.self_s": (matrices - covered, "s"),
            "mbr.segment_ms_p50": (percentile(segment_ms, 50), "ms"),
            "mbr.segment_ms_p99": (percentile(segment_ms, 99), "ms"),
            "mbr.select_s": (total("mbr.selection_from_matrices"), "s"),
            "mbr.dump_s": (total("mbr.format_matrix_dump"), "s"),
            "mbr.pairs_requested": (requested, "count"),
            "mbr.pairs_distinct": (distinct, "count"),
            "mbr.distinct_ratio": (distinct / requested, "ratio"),
            "mbr.workers_busy_ratio": (sum(_dur(s) for s in scorer_spans) / capacity, "ratio"),
        })
    if by_name["metrics.scorer"]:
        m["metrics.scorer_s"] = (total("metrics.scorer"), "s")
    if by_name["metrics.corpus_bleu"] or by_name["metrics.corpus_chrf"]:
        m["metrics.corpus_s"] = (total("metrics.corpus_bleu", "metrics.corpus_chrf"), "s")
    if by_name["bridge.score"]:
        trips, per_trip_ms, requests = 0, [], 0
        for s in by_name["bridge.score"]:
            chunks = max(1, math.ceil(s["requests"] / s["batch_size"]))
            trips += chunks
            requests += s["requests"]
            per_trip_ms += [_dur(s) * 1e3 / chunks] * chunks
        m.update({
            "bridge.roundtrips": (trips, "count"),
            "bridge.requests_per_roundtrip": (requests / trips, "count"),
            "bridge.roundtrip_ms_p50": (percentile(per_trip_ms, 50), "ms"),
            "bridge.roundtrip_ms_p99": (percentile(per_trip_ms, 99), "ms"),
        })
    if any(s["name"].startswith("textio.") for s in spans):
        m["textio.read_s"] = (outer("textio.read"), "s")
        m["textio.write_s"] = (outer("textio.write"), "s")
    if by_name["cli.cmd_eval"]:
        m["cli.eval_s"] = (total("cli.cmd_eval"), "s")
    if by_name["selftrain.build"]:
        builds = by_name["selftrain.build"]
        m.update({
            "selftrain.build_s": (total("selftrain.build"), "s"),
            "selftrain.merge_s": (total("selftrain.merge_corpora"), "s"),
            "selftrain.kept_ratio": (sum(s["kept"] for s in builds)
                                     / sum(s["input"] for s in builds), "ratio"),
        })
    if by_name["checkpoint.load"]:
        m.update({
            "checkpoint.load_s": (total("checkpoint.load"), "s"),
            "checkpoint.average_s": (total("checkpoint.average_checkpoints"), "s"),
            "checkpoint.lora_merge_s": (total("checkpoint.lora_merge"), "s"),
            "checkpoint.save_s": (total("checkpoint.save"), "s"),
        })
    if by_name["promptgen.read"]:
        m["promptgen.read_s"] = (total("promptgen.read"), "s")
        # Rendering, the few-shot pool and record formatting: the prompts
        # step minus its reading and writing.
        io_children = defaultdict(float)
        for s in spans:
            if s["name"] == "promptgen.read" or s["name"].startswith("textio."):
                io_children[s["parent"]] += _dur(s)
        for s in by_name["cli.cmd_prompts"]:
            m[f"promptgen.render_{s['mode']}_s"] = (_dur(s) - io_children[s["id"]], "s")
    for layer, seconds in self_times(spans).items():
        m[f"self_s.{layer}"] = (seconds, "s")
    return m


def _pairs(workload: Workload, seed: int, length: int, count: int) -> list[tuple[str, str, str]]:
    shape = replace(workload.shape, length=length, length_jitter=0)
    gen = TextGen(random.Random(f"sweep:{workload.name}:{seed}:{length}"), shape)
    return [("", " ".join(gen.perturb(base)), " ".join(gen.perturb(base)))
            for base in gen.sentences(count)]


def _median_time(fn, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def kernel_sweep(workload: Workload, seed: int) -> dict[str, tuple[float, str]]:
    """µs per pair through the native MBR scorers, by segment length."""
    from mbrforge import mbr, metrics

    m = {}
    for length in KERNEL_LENGTHS:
        for kind, counts in KERNEL_PAIRS.items():
            triples = _pairs(workload, seed, length, counts[length])
            score = mbr.make_scorer(mbr.UtilitySpec(kind=f"native-{kind}"))
            seconds = _median_time(lambda: score(triples), KERNEL_REPEATS)
            m[f"metrics.{kind}_us_per_pair.L{length}"] = (seconds / len(triples) * 1e6, "us")
    segments = [mt for _src, mt, _ref in
                _pairs(workload, seed, workload.shape.length, TOKENIZE_SEGMENTS)]
    seconds = _median_time(lambda: [metrics.tokenize(s) for s in segments], KERNEL_REPEATS)
    m["metrics.tokenize_us_per_segment"] = (seconds / len(segments) * 1e6, "us")
    return m


def bridge_sweep(workload: Workload, seed: int) -> tuple[dict[str, tuple[float, str]], list[str]]:
    """Spawn/close cost and pairs/s by batch size from direct BridgeClient calls."""
    from mbrforge.bridge import BridgeClient, BridgeConfig, ScoreRequest

    command = (sys.executable, str(SCORER))
    requests = [ScoreRequest(*t) for t in _pairs(workload, seed, 25, BRIDGE_REQUESTS)]
    want = [scorer.utility(r.mt, r.ref) for r in requests]
    errors = []
    spawn, close = [], []
    for _ in range(BRIDGE_SPAWNS):
        start = time.perf_counter()
        with BridgeClient(BridgeConfig(command=command)) as client:
            spawn.append(time.perf_counter() - start)
            client.score(requests[:1])  # child is up, so close measures shutdown only
            start = time.perf_counter()
            client.close()
            close.append(time.perf_counter() - start)
    m = {"bridge.spawn_ms": (statistics.median(spawn) * 1e3, "ms"),
         "bridge.close_ms": (statistics.median(close) * 1e3, "ms")}
    for batch_size in BRIDGE_BATCH_SIZES:
        with BridgeClient(BridgeConfig(command=command, batch_size=batch_size)) as client:
            client.score(requests[:1])
            start = time.perf_counter()
            got = client.score(requests)
            seconds = time.perf_counter() - start
        if got != want:
            errors.append(f"bridge sweep at batch size {batch_size}: replies misattributed")
        m[f"bridge.pairs_per_s_bs{batch_size}"] = (len(requests) / seconds, "1/s")
    return m, errors


def executor_sweep(workload: Workload, data: Path) -> tuple[dict[str, tuple[float, str]], list[str]]:
    """segment_matrices time at 1 worker over its time at 2, same inputs."""
    from mbrforge import mbr
    from mbrforge.bridge import BridgeConfig

    cset = mbr.load_candidates(
        [data / f"cand{k:02d}.txt" for k in range(workload.shape.candidates)], data / "src.txt"
    )
    if workload.utility == "external":
        spec = mbr.UtilitySpec(kind="external", bridge=BridgeConfig(
            command=(sys.executable, str(SCORER)), batch_size=workload.batch_size))
    else:
        spec = mbr.UtilitySpec(kind=f"native-{workload.utility}")
    results, seconds = {}, {}
    for workers in (1, 2):
        start = time.perf_counter()
        results[workers] = mbr.segment_matrices(cset, spec, workers=workers)
        seconds[workers] = time.perf_counter() - start
    errors = [] if results[1] == results[2] else ["segment_matrices differs between 1 and 2 workers"]
    return {"mbr.speedup_w2": (seconds[1] / seconds[2], "ratio")}, errors
