"""Command-line surface: one binary, one subcommand per pipeline step.

The pipeline is invoked stepwise (candidates -> mbr -> build-st ->
retrain externally -> repeat), so each subcommand reads files, does one
thing, and writes files atomically; a nonzero exit never leaves a
truncated output behind.

Exit codes: 0 ok, 2 usage error, 3 alignment/data error, 4 bridge error,
5 I/O error.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import TYPE_CHECKING, Callable

from .errors import EXIT_IO, EXIT_OK, DataError, MbrforgeError, UsageError
from .textio import check_outputs, names_file, read_aligned, segment_lines, staged_outputs

if TYPE_CHECKING:
    from . import selftrain

def _info(args: argparse.Namespace, message: str) -> None:
    """Write ``INFO mbrforge: <message>`` to stderr when -v is given."""
    if args.verbose:
        print(f"INFO mbrforge: {message}", file=sys.stderr)


def _bounded(kind: type, low: float, high: float = float("inf"), *, above: bool = False):
    """Argparse type for a ``kind`` number from ``low`` (excluded if ``above``) to ``high``."""
    bound = ("above " if above else "at least ") + str(low)
    if high < float("inf"):
        bound += f" and at most {high}"

    def parse(text: str):
        try:
            value = kind(text)
        except ValueError:
            noun = "an integer" if kind is int else "a number"
            raise argparse.ArgumentTypeError(f"not {noun}: {text!r}") from None
        if not (low < value if above else low <= value) or value > high:  # NaN fails too
            raise argparse.ArgumentTypeError(f"must be {bound}, got {value}")
        return value

    return parse


_count = _bounded(int, 0)
_positive = _bounded(float, 0, above=True)


def _utf8_text(text: str) -> str:
    """Argparse type for text that is written out: argv may hold non-UTF-8 bytes."""
    try:
        text.encode("utf-8")
    except UnicodeEncodeError:
        raise argparse.ArgumentTypeError(f"not valid UTF-8: {text!r}") from None
    return text


def _corpus_prefix(text: str) -> str:
    """Argparse type for a corpus prefix, whose last component must name a file."""
    if not names_file(text):
        raise argparse.ArgumentTypeError(f"names no file: {text!r}")
    return text


def _add_workers_flag(parser: argparse.ArgumentParser, help_text: str) -> None:
    parser.add_argument("--workers", type=_bounded(int, 1), default=1, help=help_text)


class _HelpFormatter(argparse.ArgumentDefaultsHelpFormatter):
    """Shows each option's default except None and a switch's, which reads as the value it sets."""

    def _get_help_string(self, action: argparse.Action) -> str | None:
        if action.nargs == 0 or action.default is None:
            return action.help
        return super()._get_help_string(action)

    def _format_action(self, action: argparse.Action) -> str:
        if action.help is None and self._get_help_string(action):  # a bare option's default
            import copy

            action = copy.copy(action)
            action.help = self._get_help_string(action).strip()
        return super()._format_action(action)


def _add_command(
    sub,
    name: str,
    handler: Callable[[argparse.Namespace], None],
    help_text: str,
    outputs: Callable[[argparse.Namespace], tuple[list, list]] = lambda args: ([], []),
) -> argparse.ArgumentParser:
    """Register one subcommand: its help line, formatter, handler and the outputs main checks."""
    parser = sub.add_parser(name, help=help_text, formatter_class=_HelpFormatter)
    parser.set_defaults(func=handler, outputs=outputs)
    return parser


def _out(args: argparse.Namespace) -> tuple[list, list]:
    return [args.out], []


def _corpus_outputs(args: argparse.Namespace) -> tuple[list, list]:
    from . import selftrain

    return selftrain.corpus_outputs(args.out_prefix, args.write_meta)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mbrforge",
        description="MBR candidate selection and chat-translation pipeline tools",
    )
    parser.add_argument(
        "-v",
        "--verbose",
        action="store_true",
        help="report progress on stderr",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = _add_command(
        sub,
        "mbr",
        cmd_mbr,
        "select the minimum-risk candidate per segment",
        lambda args: ([path for path in (args.out, args.matrix_out) if path is not None], []),
    )
    p.add_argument("--src", required=True, help="source text file")
    p.add_argument(
        "--cand",
        action="append",
        required=True,
        metavar="FILE",
        help="candidate file, one per system (repeat; at least 2)",
    )
    p.add_argument(
        "--utility",
        choices=["bleu", "chrf", "external"],
        default="chrf",
        help="pairwise utility",
    )
    p.add_argument(
        "--external-cmd",
        default=None,
        help="scorer command line for --utility external",
    )
    p.add_argument(
        "--include-self",
        dest="include_self",
        action="store_true",
        default=True,
        help="keep each candidate in its own reference set (default)",
    )
    p.add_argument(
        "--exclude-self",
        dest="include_self",
        action="store_false",
        help="drop the diagonal from the row means",
    )
    p.add_argument("--out", required=True, help="output file for the selected lines")
    p.add_argument(
        "--matrix-out",
        default=None,
        help="optional TSV dump of all utility matrices",
    )
    # The bounds are bridge.MAX_BATCH_SIZE and bridge.MAX_TIMEOUT; parsing leaves bridge unloaded.
    p.add_argument(
        "--bridge-batch-size",
        type=_bounded(int, 1, 4096),
        default=32,
        help="requests per batch, 1..4096",
    )
    p.add_argument(
        "--bridge-timeout",
        type=_bounded(float, 0, (2**31 - 1) / 1000, above=True),
        default=60.0,
        help="seconds to wait for each reply line",
    )
    p.add_argument(
        "--no-bridge-restart",
        dest="bridge_restart",
        action="store_false",
        default=True,
        help="fail immediately if the scorer process crashes",
    )
    _add_workers_flag(
        p, "processes that score contiguous runs of segments, for every utility; 1 scores inline"
    )

    p = _add_command(
        sub, "eval", cmd_eval, "score hypotheses against references with BLEU or chrF"
    )
    p.add_argument("--hyp", required=True, help="hypothesis file")
    p.add_argument("--ref", required=True, help="reference file")
    p.add_argument("--metric", choices=["bleu", "chrf"], default="chrf")
    p.add_argument(
        "--sentence-level",
        action="store_true",
        help="emit one score per line instead of the corpus score",
    )
    p.add_argument(
        "--smoothing",
        choices=["none", "add-k"],
        default=None,
        help="BLEU smoothing (default: none for corpus, add-k per sentence)",
    )
    p.add_argument(
        "--tokenize",
        choices=["whitespace", "punctuation-split"],
        default="punctuation-split",
        help="tokenization for BLEU",
    )
    _add_workers_flag(p, "accepted for compatibility; has no effect on eval")

    p = _add_command(
        sub,
        "build-st",
        cmd_build_st,
        "build a self-training corpus from sources and translations",
        _corpus_outputs,
    )
    p.add_argument("--src", required=True, help="monolingual source file")
    p.add_argument("--mt", required=True, help="forward translations (e.g. mbr output)")
    p.add_argument("--out-prefix", type=_corpus_prefix, required=True)
    _add_filter_flags(p)

    p = _add_command(
        sub,
        "build-bt",
        cmd_build_bt,
        "build a back-translation corpus from targets and their back-translations",
        _corpus_outputs,
    )
    p.add_argument("--tgt", required=True, help="monolingual target file")
    p.add_argument("--bt", required=True, help="back-translations of the target file")
    p.add_argument(
        "--tag",
        type=_utf8_text,
        default=None,
        help="optional token prepended to every synthetic source (e.g. '<BT>')",
    )
    p.add_argument("--out-prefix", type=_corpus_prefix, required=True)
    _add_filter_flags(p)

    p = _add_command(
        sub,
        "merge",
        cmd_merge,
        "concatenate corpora, optionally shuffling deterministically",
        _corpus_outputs,
    )
    p.add_argument(
        "--inputs",
        nargs="+",
        type=_corpus_prefix,
        required=True,
        metavar="PREFIX",
        help="corpus prefixes (reads PREFIX.src/.tgt and PREFIX.meta if present)",
    )
    p.add_argument("--out-prefix", type=_corpus_prefix, required=True)
    p.add_argument("--seed", type=int, default=None, help="shuffle seed")
    p.set_defaults(write_meta=True)

    p = _add_command(sub, "avg", cmd_avg, "average checkpoint tensors elementwise", _out)
    p.add_argument(
        "--inputs",
        nargs="+",
        required=True,
        metavar="TSF",
        help="checkpoint files (typically the 5 best on the dev set, "
        "or the last 5 epochs)",
    )
    p.add_argument("--out", required=True)

    p = _add_command(
        sub, "lora-merge", cmd_lora_merge, "fold a low-rank adapter into base weights", _out
    )
    p.add_argument("--base", required=True, help="base checkpoint (TSF)")
    p.add_argument(
        "--adapter",
        required=True,
        help="adapter TSF holding <name>.lora_A / <name>.lora_B pairs",
    )
    p.add_argument(
        "--alpha",
        type=_bounded(float, 0, sys.float_info.max, above=True),  # finite too
        required=True,
        help="adapter scaling alpha",
    )
    p.add_argument("--out", required=True)

    p = _add_command(
        sub, "prompts", cmd_prompts, "render chat documents into prompt/completion records", _out
    )
    p.add_argument("--mode", choices=["stream", "context", "fewshot"], required=True)
    p.add_argument("--doc", required=True, help="chat document file (JSONL turns)")
    p.add_argument("--k", type=_count, default=5, help="history turns (stream) or shots (fewshot)")
    p.add_argument("--before", type=_count, default=2, help="context turns before the query")
    p.add_argument("--after", type=_count, default=2, help="context turns after the query")
    p.add_argument(
        "--exclude-query-context",
        action="store_true",
        help="drop the query turn's own line from the context window",
    )
    p.add_argument("--out", required=True)
    p.add_argument("--format", choices=["jsonl", "text"], default="jsonl")
    p.add_argument(
        "--separator",
        type=_utf8_text,
        default="----",
        help="record separator line for --format text",
    )

    return parser


def _add_filter_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--max-ratio", type=_positive, default=9.0, help="token length ratio cap")
    parser.add_argument("--min-tokens", type=_count, default=1)
    parser.add_argument("--max-tokens", type=_count, default=250)
    parser.add_argument("--dedup", action="store_true", help="drop exact duplicate pairs")
    parser.add_argument(
        "--no-meta",
        dest="write_meta",
        action="store_false",
        default=True,
        help="skip the .meta provenance file and remove a stale one",
    )


def _filter_config(args: argparse.Namespace) -> selftrain.FilterConfig:
    from . import selftrain

    return selftrain.FilterConfig(
        max_length_ratio=args.max_ratio,
        min_tokens=args.min_tokens,
        max_tokens=args.max_tokens,
        dedup=args.dedup,
    )


def cmd_mbr(args: argparse.Namespace) -> None:
    from . import mbr  # each command imports the layers it runs, so start-up is cheap

    bridge = None
    if args.utility == "external":
        import shlex

        from .bridge import BridgeConfig

        try:
            command = tuple(shlex.split(args.external_cmd or ""))
        except ValueError as exc:
            raise UsageError(f"cannot split --external-cmd: {exc}") from None
        if not command:
            raise UsageError("--utility external requires --external-cmd")
        bridge = BridgeConfig(
            command=command,
            batch_size=args.bridge_batch_size,
            timeout=args.bridge_timeout,
            restart_on_failure=args.bridge_restart,
        )
    kind = "external" if bridge is not None else f"native-{args.utility}"
    spec = mbr.UtilitySpec(kind=kind, include_self=args.include_self, bridge=bridge)
    cset = mbr.load_candidates(args.cand, args.src)
    _info(args, f"selecting over {cset.num_segments} segments x {cset.num_systems} systems")
    matrices = mbr.segment_matrices(cset, spec, workers=args.workers)
    selection = mbr.selection_from_matrices(cset, matrices)
    with staged_outputs(*args.outputs(args)) as files:
        files[0].write(segment_lines(selection.chosen))
        if args.matrix_out is not None:
            files[1].writelines(mbr.format_matrix_dump([m]).encode("utf-8") for m in matrices)


def cmd_eval(args: argparse.Namespace) -> None:
    from . import metrics

    hyps, refs = read_aligned(args.hyp, args.ref)
    if not hyps:
        raise DataError("cannot score an empty corpus")
    if args.metric == "bleu":
        smoothing = args.smoothing or ("add-k" if args.sentence_level else "none")
        hyps = [metrics.tokenize(h, args.tokenize) for h in hyps]
        refs = [metrics.tokenize(r, args.tokenize) for r in refs]
        sentence, corpus = (
            lambda hyp, ref: metrics.sentence_bleu(hyp, [ref], smoothing=smoothing),
            lambda hyps, refs: metrics.corpus_bleu(hyps, refs, smoothing=smoothing),
        )
    else:
        sentence, corpus = metrics.sentence_chrf, metrics.corpus_chrf
    if args.sentence_level:
        values = [sentence(hyp, ref).value for hyp, ref in zip(hyps, refs)]
    else:
        values = [corpus(hyps, refs).value]
    if sys.stdout is None:  # fd 1 was closed, and print would drop the scores
        raise OSError("standard output is closed")
    for value in values:
        print(f"{value:.2f}")


def cmd_build_st(args: argparse.Namespace) -> None:
    from . import selftrain

    sources, translations = read_aligned(args.src, args.mt)
    corpus = selftrain.build_st_corpus(sources, translations, _filter_config(args))
    selftrain.write_corpus(corpus, args.out_prefix, write_meta=args.write_meta)
    _info(args, f"kept {len(corpus)} of {len(sources)} pairs")


def cmd_build_bt(args: argparse.Namespace) -> None:
    from . import selftrain

    targets, back = read_aligned(args.tgt, args.bt)
    corpus = selftrain.build_bt_corpus(targets, back, tag=args.tag, config=_filter_config(args))
    selftrain.write_corpus(corpus, args.out_prefix, write_meta=args.write_meta)
    _info(args, f"kept {len(corpus)} of {len(targets)} pairs")


def cmd_merge(args: argparse.Namespace) -> None:
    from . import selftrain

    corpora = [selftrain.read_corpus(prefix) for prefix in args.inputs]
    merged = selftrain.merge_corpora(corpora, shuffle_seed=args.seed)
    selftrain.write_corpus(merged, args.out_prefix, write_meta=args.write_meta)


def _checkpoint_layer():
    """Import ``checkpoint`` with numpy's OpenBLAS on one thread.

    OpenBLAS starts a worker per CPU as numpy loads, and neither checkpoint
    command gains from it.  A value the user set wins.  Once numpy is loaded
    the variable has no effect, so it is not set into the caller's environment.
    """
    if "numpy" not in sys.modules:
        os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    from . import checkpoint

    return checkpoint


def cmd_avg(args: argparse.Namespace) -> None:
    checkpoint = _checkpoint_layer()  # numpy loads only for the commands that need it
    checkpoint.average_checkpoints(map(checkpoint.TensorStore.load, args.inputs)).save(args.out)


def cmd_lora_merge(args: argparse.Namespace) -> None:
    checkpoint = _checkpoint_layer()
    base = checkpoint.TensorStore.load(args.base)
    adapter = checkpoint.adapter_from_store(
        checkpoint.TensorStore.load(args.adapter), alpha=args.alpha
    )
    checkpoint.lora_merge(base, adapter).save(args.out)


def cmd_prompts(args: argparse.Namespace) -> None:
    import json

    from . import promptgen

    documents = promptgen.read_chat_documents(args.doc)
    if not documents:
        raise DataError(f"no chat turns found in {args.doc}")
    render = {
        "stream": lambda doc, i: promptgen.render_stream(doc, i, args.k),
        "context": lambda doc, i: promptgen.render_context(
            doc, i, args.before, args.after, include_query_context=not args.exclude_query_context
        ),
        "fewshot": lambda doc, i: promptgen.render_fewshot_turn(doc, i, args.k),
    }[args.mode]
    formatter = {
        "jsonl": lambda doc, i, prompt: json.dumps(
            dict(doc_id=doc.doc_id, turn_index=i, text=prompt.text, completion=prompt.completion),
            ensure_ascii=False,
        ),
        "text": lambda _doc, _i, prompt: prompt.text + prompt.completion + "\n" + args.separator,
    }[args.format]
    with staged_outputs([args.out]) as (out,):
        for doc in documents:
            for i in range(len(doc.turns)):
                out.write((formatter(doc, i, render(doc, i)) + "\n").encode("utf-8"))


def _flush_stdout() -> None:
    """Flush stdout; on failure point fd 1 at /dev/null, so the exit flush cannot fail again."""
    if sys.stdout is None:  # fd 1 was closed, so nothing was written
        return
    try:
        sys.stdout.flush()
    except OSError:
        with open(os.devnull, "wb") as null:
            os.dup2(null.fileno(), sys.stdout.fileno())
        raise


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        check_outputs(*args.outputs(args))  # a bad output fails before any input is read
        args.func(args)
        _flush_stdout()  # a stdout that cannot be written is an i/o error, not exit 120
        return EXIT_OK
    except MbrforgeError as exc:
        print(f"mbrforge: {exc.label}: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        print(f"mbrforge: i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
