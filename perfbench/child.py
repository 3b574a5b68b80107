"""Child processes the harness times: set-up, and one traced CLI step.

    python3 perfbench/child.py setup WORKLOAD DATA_DIR
        import mbrforge.cli and load the workload's inputs through the
        public readers (for the external utility, also spawn and close
        the scorer), then exit.  Its wall time is ``setup_s``.

    python3 perfbench/child.py trace SPANS_OUT RUN_ID LABEL -- CLI_ARGV...
        wrap the public functions of every layer with spans, run
        ``mbrforge.cli.main(CLI_ARGV)`` in this process, and write the
        spans to SPANS_OUT as JSON when it returns.

Spans live only in this file: the program itself is not modified.  Each
span records name, start, end, parent, thread, run id and any counts
taken at that boundary.  A worker thread with no open span of its own
takes the main thread's innermost open span as parent, which is the
``segment_matrices`` or ``cmd_eval`` call that started the pool.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import sys
import threading
import time
from contextlib import contextmanager
from pathlib import Path

from workloads import WORKLOADS

SCORER = Path(__file__).with_name("scorer.py")


class Tracer:
    def __init__(self, run_id: str, label: str):
        self.run_id = run_id
        self.label = label
        self.spans: list[dict] = []
        self._ids = itertools.count()
        self._main = threading.get_ident()
        self._stacks: dict[int, list[str]] = {}

    @contextmanager
    def span(self, name: str, **attrs):
        thread = threading.get_ident()
        stack = self._stacks.setdefault(thread, [])
        main = self._stacks.get(self._main) or [None]
        parent = stack[-1] if stack else main[-1]
        span_id = f"{os.getpid()}.{next(self._ids)}"
        stack.append(span_id)
        start = time.perf_counter()
        try:
            yield attrs
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append({
                "id": span_id, "parent": parent, "name": name, "start": start,
                "end": end, "thread": thread, "run": self.run_id,
                "label": self.label, **attrs,
            })

    def wrap(self, owner, attr: str, name: str, counts=None) -> None:
        """Replace ``owner.attr`` with a version that records a span.

        ``counts(attrs, args, result)`` may add counts to the span.
        """
        original = getattr(owner, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            with self.span(name) as attrs:
                result = original(*args, **kwargs)
                if counts is not None:
                    counts(attrs, args, result)
                return result

        setattr(owner, attr, traced)


def install(tracer: Tracer) -> None:
    """Wrap the public functions of every layer."""
    from mbrforge import bridge, checkpoint, cli, mbr, metrics, promptgen, selftrain, textio

    for mod in (textio, cli, mbr, selftrain, checkpoint):
        for fn, name in (("read_segments", "textio.read"), ("write_segments", "textio.write"),
                         ("atomic_write_text", "textio.write"),
                         ("atomic_write_bytes", "textio.write")):
            if hasattr(mod, fn):
                tracer.wrap(mod, fn, name)

    def mode(attrs, args, result):
        attrs["mode"] = args[0].mode

    for fn in ("cmd_mbr", "cmd_eval", "cmd_build_st", "cmd_build_bt", "cmd_merge",
               "cmd_avg", "cmd_lora_merge", "cmd_prompts"):
        tracer.wrap(cli, fn, f"cli.{fn}", mode if fn == "cmd_prompts" else None)

    for fn in ("tokenize", "sentence_bleu", "sentence_chrf", "corpus_bleu", "corpus_chrf"):
        tracer.wrap(metrics, fn, f"metrics.{fn}")

    for fn in ("load_candidates", "utility_matrix", "selection_from_matrices",
               "format_matrix_dump", "make_scorer"):
        tracer.wrap(mbr, fn, f"mbr.{fn}")
    segment_matrices = mbr.segment_matrices

    def traced_segment_matrices(cset, spec, workers=1, scorer_factory=None):
        factory = scorer_factory or (lambda: mbr.make_scorer(spec))
        name = "bridge.scorer" if spec.kind == "external" else "metrics.scorer"

        def traced_factory():
            inner = factory()

            def scorer(triples):
                with tracer.span(name) as attrs:
                    attrs["requested"] = len(triples)
                    attrs["distinct"] = len({(mt, ref) for _src, mt, ref in triples})
                    return inner(triples)

            if hasattr(inner, "client"):
                scorer.client = inner.client  # keeps close_scorer working
            return scorer

        with tracer.span("mbr.segment_matrices", workers=workers):
            return segment_matrices(cset, spec, workers=workers, scorer_factory=traced_factory)

    mbr.segment_matrices = traced_segment_matrices

    def requests(attrs, args, result):
        attrs["requests"] = len(args[1])
        attrs["batch_size"] = args[0].config.batch_size

    tracer.wrap(bridge.BridgeClient, "__init__", "bridge.spawn")
    tracer.wrap(bridge.BridgeClient, "close", "bridge.close")
    tracer.wrap(bridge.BridgeClient, "score", "bridge.score", requests)

    def kept(attrs, args, result):
        attrs["input"] = len(args[0])
        attrs["kept"] = len(result)

    tracer.wrap(selftrain, "build_st_corpus", "selftrain.build", kept)
    tracer.wrap(selftrain, "build_bt_corpus", "selftrain.build", kept)
    for fn in ("merge_corpora", "write_corpus", "read_corpus"):
        tracer.wrap(selftrain, fn, f"selftrain.{fn}")

    tracer.wrap(checkpoint.TensorStore, "load", "checkpoint.load")
    tracer.wrap(checkpoint.TensorStore, "save", "checkpoint.save")
    for fn in ("average_checkpoints", "adapter_from_store", "lora_merge"):
        tracer.wrap(checkpoint, fn, f"checkpoint.{fn}")

    tracer.wrap(promptgen, "read_chat_documents", "promptgen.read")
    for fn in ("render_stream", "render_context", "render_fewshot"):
        tracer.wrap(promptgen, fn, f"promptgen.{fn}")


def setup(workload_name: str, data: Path) -> None:
    import mbrforge.cli  # noqa: F401  (the import is part of set-up)
    from mbrforge import bridge, checkpoint, mbr, promptgen, textio

    workload = WORKLOADS[workload_name]
    if workload.kind == "mbr":
        cands = [data / f"cand{k:02d}.txt" for k in range(workload.shape.candidates)]
        mbr.load_candidates(cands, data / "src.txt")
        if workload.utility == "external":
            config = bridge.BridgeConfig(command=(sys.executable, str(SCORER)))
            bridge.BridgeClient(config).close()
        return
    for name in ("hyp.txt", "ref.txt", "src.txt", "bt.txt"):
        textio.read_segments(data / name)
    promptgen.read_chat_documents(data / "chat.jsonl")
    for path in sorted(data.glob("*.tsf")):
        checkpoint.TensorStore.load(path)


def trace(spans_out: Path, run_id: str, label: str, argv: list[str]) -> int:
    from mbrforge import cli

    tracer = Tracer(run_id, label)
    install(tracer)
    with tracer.span("cli.main", step=argv[0]):
        code = cli.main(argv)
    spans_out.write_text(json.dumps(tracer.spans), encoding="utf-8")
    return code


if __name__ == "__main__":
    if sys.argv[1] == "setup":
        setup(sys.argv[2], Path(sys.argv[3]))
    elif sys.argv[1] == "trace" and sys.argv[5] == "--":
        sys.exit(trace(Path(sys.argv[2]), sys.argv[3], sys.argv[4], sys.argv[6:]))
    else:
        sys.exit(f"usage: {__doc__}")
