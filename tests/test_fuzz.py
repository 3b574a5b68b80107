"""Fuzz the input parsers and the scorer loop, and sweep the CLI's exit contract.

A parser may reject input only with ``DataError`` or ``ProtocolError``;
any other exception escaping it is a bug the CLI would report as a
traceback instead of an exit code.  The CLI sweep drives every command
that reads or writes files with argv drawn from its real flags and a small
set of hostile values, and checks the exit code, stderr and the files.
"""

from __future__ import annotations

import ast
import glob
import io
import json
import math
import os
import re
import stat
import sys
import tempfile
from contextlib import contextmanager, redirect_stderr, redirect_stdout
from pathlib import Path
from typing import Iterator

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from fixtures import toy_chat_doc, write_doc_jsonl
from mbrforge import cli
from mbrforge.bridge import (
    MAX_REPLY_LINE,
    BridgeClient,
    BridgeConfig,
    ScoreRequest,
    decode_request,
    run_scorer_loop,
)
from mbrforge.checkpoint import TSF_MAGIC, TensorStore
from mbrforge.errors import (
    EXIT_BRIDGE,
    EXIT_DATA,
    EXIT_IO,
    EXIT_OK,
    EXIT_USAGE,
    BridgeError,
    DataError,
    MbrforgeError,
    ProtocolError,
)
from mbrforge.promptgen import read_chat_documents
from mbrforge.textio import check_outputs

FUZZ = settings(max_examples=100, deadline=None)

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=5), children, max_size=3),
    max_leaves=8,
)

# Records over the real field names, so that lines get past the JSON
# decoder and reach the per-field checks.
chat_records = st.dictionaries(
    st.sampled_from(
        ("doc_id", "turn_index", "speaker", "src_lang", "tgt_lang", "source", "mt", "reference")
    ),
    json_values | st.sampled_from(("customer", "agent", "English", "German", 0, 1)),
    max_size=8,
)

chat_lines = st.text(max_size=40) | json_values.map(json.dumps) | chat_records.map(json.dumps)


@st.composite
def tsf_headers(draw) -> bytes:
    lines = []
    for _ in range(draw(st.integers(0, 3))):
        name = draw(st.sampled_from(("w", "b", "", "w\tx")))
        dtype = draw(st.sampled_from(("f32", "f64")))
        dims = draw(st.lists(st.integers(-3, 4), max_size=3))
        lines.append(f"{name}\t{dtype}\t{','.join(map(str, dims))}\n".encode())
    return TSF_MAGIC + b"\n" + b"".join(lines) + b"\n"


tsf_containers = st.one_of(
    st.binary(max_size=120).map(lambda tail: TSF_MAGIC + b"\n" + tail),
    st.tuples(tsf_headers(), st.binary(max_size=64)).map(b"".join),
)


@FUZZ
@given(tsf_containers)
def test_tensor_store_parse(data):
    try:
        TensorStore.parse(data)
    except DataError:
        pass


@FUZZ
@given(st.text(max_size=200) | st.lists(chat_lines, max_size=4).map("\n".join))
def test_read_chat_documents(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "chat.jsonl"
        path.write_text(text, encoding="utf-8")
        try:
            read_chat_documents(path)
        except DataError:
            pass


@FUZZ
@given(st.text(max_size=60))
def test_decode_request(line):
    try:
        decode_request(line)
    except (DataError, ProtocolError):
        pass


# Request lines: raw bytes, and pieces that make tabs, escapes and broken
# UTF-8 sequences likely, so that some lines reach decode_request.
request_lines = st.binary(max_size=30) | st.lists(
    st.sampled_from([b"\t", b"\\", b"\\t", b"a", b"\xc3\xa9", b"\xc3", b"\xff", b"\xed\xa0\x80"]),
    max_size=8,
).map(b"".join)


@FUZZ
@given(st.lists(request_lines, max_size=4))
def test_run_scorer_loop(lines):
    try:
        run_scorer_loop(lambda req: 0.5, io.BytesIO(b"\n".join(lines)), io.BytesIO())
    except ProtocolError:
        pass


# --- The bridge client against a scripted scorer -------------------------

DOUBLES = str(Path(__file__).parent / "doubles.py")

# Pieces of a reply stream: numbers and pieces of numbers, non-finite
# values, blank lines, raw bytes (often not UTF-8), lines at and past
# MAX_REPLY_LINE, and a pause longer than the client's timeout.
reply_steps = st.one_of(
    st.integers(-99, 99).map(lambda v: f"{v / 4}\n".encode()),
    st.text("0123456789.-e \n", max_size=4).map(str.encode),
    st.sampled_from([b"nan\n", b"inf\n", b"-inf\n", b"\n"]),
    st.binary(max_size=80),
    st.sampled_from([b"0" * (MAX_REPLY_LINE - 1), b"1" * (MAX_REPLY_LINE + 1)]),
    st.just("sleep"),
)


@st.composite
def reply_scripts(draw) -> tuple[int, int, list, str]:
    """Requests, batch size, the scorer's steps and how it ends ("eof" or "exit").

    The steps are a correct reply stream with other steps put in at one
    place, then cut short; the simplest script is the correct stream.
    """
    requests, batch_size = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    good: list = []
    for start in range(0, requests, batch_size):
        size = min(batch_size, requests - start)
        good += [f"{v / 8}\n".encode() for v in draw(st.lists(st.integers(-99, 99),
                                                             min_size=size, max_size=size))]
        good.append(b"\n")
    at = draw(st.integers(0, len(good)))
    steps = good[:at] + draw(st.lists(reply_steps, max_size=3)) + good[at:]
    steps = steps[: len(steps) - draw(st.integers(0, len(steps)))]
    return requests, batch_size, steps, draw(st.sampled_from(["eof", "exit"]))


def scripted_scores(data: bytes, requests: int, batch_size: int) -> list[float] | None:
    """The scores a reply stream ``data`` answers by the wire protocol, or None."""
    lines = data.split(b"\n")
    lines = iter(lines if lines[-1] else lines[:-1])  # a scorer's exit ends its last line
    scores: list[float] = []
    for start in range(0, requests, batch_size):
        for _ in range(min(batch_size, requests - start)):
            line = next(lines, None)
            try:
                scores.append(float(line))
            except (TypeError, ValueError):
                return None
            if len(line) > MAX_REPLY_LINE or not math.isfinite(scores[-1]):
                return None
        if next(lines, b"x").strip():  # a batch ends with a blank line
            return None
    return scores


def open_fds() -> int:
    return len(os.listdir("/proc/self/fd"))


def live_children() -> set[str]:
    pids: set[str] = set()
    for path in glob.glob("/proc/self/task/*/children"):
        with open(path, encoding="ascii") as children:
            pids.update(children.read().split())
    return pids


@settings(max_examples=50, deadline=None, derandomize=True, database=None)
@given(reply_scripts())
def test_bridge_client_against_a_reply_script(script):
    """``score`` returns the scripted scores in request order or raises a
    BridgeError; ``close`` leaves no process and no descriptor behind; a
    message stays under 200 characters and quotes at most 64 bytes of a reply."""
    requests, batch_size, steps, end = script
    data = b"".join(step for step in steps if step != "sleep")
    command = [sys.executable, DOUBLES, "script", end,
               *(step if step == "sleep" else step.hex() for step in steps)]
    config = BridgeConfig(command=tuple(command), batch_size=batch_size, timeout=0.5,
                          restart_on_failure=False)
    fds, children = open_fds(), live_children()
    errors: list[BridgeError] = []
    client = BridgeClient(config)
    try:
        try:
            scores = client.score([ScoreRequest("s", str(i), "r") for i in range(requests)])
        except BridgeError as exc:
            errors.append(exc)
        else:
            assert scores == scripted_scores(data, requests, batch_size)
    finally:
        try:
            client.close()
        except BridgeError as exc:
            errors.append(exc)
    assert open_fds() == fds
    assert live_children() == children
    for exc in errors:  # a quoted reply ends its message, after the first ": b"
        assert len(str(exc)) < 200, str(exc)
        _message, quoted, quote = str(exc).partition(": b")
        assert not quoted or len(ast.literal_eval("b" + quote)) <= 64, quote


# --- The CLI sweep -------------------------------------------------------

def _tsf(**tensors) -> bytes:
    return TensorStore({k: np.asarray(v, dtype=np.float32) for k, v in tensors.items()}).serialize()


# The working directory of every run: text files of each hostile kind, a
# corpus, checkpoints, a chat document, a directory, a symbolic link to it
# and a FIFO.  Each run gets a fresh copy.
FILES = {
    "a.txt": b"a b\nc d\n",
    "b.txt": b"a c\nd d\n",
    "empty.txt": b"",
    "latin1.txt": b"caf\xe9\nx\n",
    "crlf.txt": b"a b\r\nc\r\n",
    "nonl.txt": b"a b\nc",
    "short.txt": b"a b\n",
    "c.src": b"a b\nc\n",
    "c.tgt": b"x y\nz\n",
    "c.meta": b"genuine\nself-train\n",
    "m.src": b"a b\nc\n",
    "m.tgt": b"x y\n",
    "w1.tsf": _tsf(w=[[1.0, 2.0]], b=[-0.0]),
    "w2.tsf": _tsf(w=[[3.0, 4.0]], b=[1.0]),
    "w3.tsf": _tsf(w=[[1.0, 2.0, 3.0]], b=[1.0]),
    "adapter.tsf": _tsf(**{"w.lora_A": [[1.0, 2.0]], "w.lora_B": [[0.5]]}),
}

# Path forms that are wrong for every flag: missing, a directory (three
# spellings), the working directory and its parent, an existing file with
# "/" or "/." appended, and a symbolic link to a directory.
BAD_PATHS = ["missing", "d", "d/", "d/.", ".", "..", "", "a.txt/", "a.txt/.", "linkdir", "linkdir/"]


def _mostly(good: list[str], hostile: list[str]) -> st.SearchStrategy[str]:
    """A good value half the time, so that some runs get past every check."""
    return st.sampled_from(good) | st.sampled_from(good + hostile)


TEXT_IN = _mostly(["a.txt", "b.txt"], ["empty.txt", "latin1.txt", "crlf.txt", "nonl.txt",
                                       "short.txt", *BAD_PATHS])
# A FIFO is drawn as an output only: as an input it would block the read.
OUT = _mostly(["out", "d/out", "linkdir/out", "a.txt"], ["fifo", "nodir/out", "out/", "out/.",
                                                         *BAD_PATHS])
PREFIX_IN = _mostly(["c", "m"], ["a", *BAD_PATHS])
PREFIX_OUT = _mostly(["new", "c", "linkdir/new", "a.txt"], ["e/.", *BAD_PATHS])
TSF_IN = _mostly(["w1.tsf", "w2.tsf"], ["w3.tsf", "adapter.tsf", "a.txt", "empty.txt", *BAD_PATHS])
ADAPTER_IN = _mostly(["adapter.tsf"], ["w1.tsf", "a.txt", "empty.txt", *BAD_PATHS])
CHAT_IN = _mostly(["chat.jsonl"], ["a.txt", "empty.txt", "latin1.txt", *BAD_PATHS])
ARGV_TEXT = ["<BT>", "", "\udcff"]  # "\udcff": a non-UTF-8 byte as argv decodes it
COUNTS = ["0", "1", "250", "-1"]  # each bound, and just past it
FILTER_FLAGS = [("--max-ratio", ["9", "5e-324", "inf", "0", "nan"]), ("--min-tokens", COUNTS),
                ("--max-tokens", COUNTS), ("--dedup", None), ("--no-meta", None)]


def _flags(draw, *flags) -> list[str]:
    """Each (flag, values) pair drawn in a quarter of the time; None values make a switch.

    Hypothesis starts from the first choice of each draw, so a flag starts
    out left out and a value list starts with a good value.
    """
    argv = []
    for flag, values in flags:
        if draw(st.integers(0, 3)) == 3:
            argv.append(flag)
            if values is not None:
                argv.append(draw(st.sampled_from(values)))
    return argv


def _corpus(prefix: str, write_meta: bool) -> tuple[list[str], list[str]]:
    """The files a corpus write at ``prefix`` writes, and the one it removes."""
    files = [prefix + ext for ext in (".src", ".tgt", ".meta")]
    return (files, []) if write_meta else (files[:2], files[2:])


@st.composite
def cli_runs(draw) -> tuple[list[str], list[str], list[str]]:
    """argv, the outputs a clean run writes, and the paths it removes."""
    command = draw(st.sampled_from(
        ["mbr", "eval", "build-st", "build-bt", "merge", "avg", "lora-merge", "prompts"]))
    argv = [command]
    if command == "mbr":
        out = draw(OUT)
        matrix = draw(st.none() | OUT | st.just(out))
        argv += ["--src", draw(TEXT_IN), "--out", out]
        for _ in range(draw(st.sampled_from([2, 3, 1]))):  # mbr needs two systems
            argv += ["--cand", draw(TEXT_IN)]
        argv += ["--utility", draw(_mostly(["bleu", "chrf"], ["external"]))]
        argv += [] if matrix is None else ["--matrix-out", matrix]
        argv += _flags(draw, ("--exclude-self", None), ("--include-self", None),
                       ("--bridge-batch-size", ["1", "4096", "0", "4097"]),
                       ("--bridge-timeout", ["1e-9", "2147483.647", "0", "2147483.648", "nan"]),
                       ("--no-bridge-restart", None), ("--workers", ["1", "0"]))
        return argv, [out] + ([matrix] if matrix is not None else []), []
    if command == "eval":
        argv += ["--hyp", draw(TEXT_IN), "--ref", draw(TEXT_IN)]
        argv += _flags(draw, ("--metric", ["bleu", "chrf"]), ("--sentence-level", None),
                       ("--smoothing", ["none", "add-k"]),
                       ("--tokenize", ["whitespace", "punctuation-split"]),
                       ("--workers", ["1", "0"]))
        return argv, [], []
    if command in ("build-st", "build-bt"):
        prefix = draw(PREFIX_OUT)
        inputs = ("--src", "--mt") if command == "build-st" else ("--tgt", "--bt")
        argv += [inputs[0], draw(TEXT_IN), inputs[1], draw(TEXT_IN), "--out-prefix", prefix]
        tag = [("--tag", ARGV_TEXT)] if command == "build-bt" else []
        argv += _flags(draw, *FILTER_FLAGS, *tag)
        return (argv, *_corpus(prefix, "--no-meta" not in argv))
    if command == "merge":
        prefix = draw(PREFIX_OUT)
        argv += ["--inputs", *draw(st.lists(PREFIX_IN, min_size=1, max_size=2))]
        argv += ["--out-prefix", prefix]
        argv += _flags(draw, ("--seed", ["0", "-1", str(2**64), "x"]))
        return (argv, *_corpus(prefix, True))
    out = draw(OUT)
    if command == "avg":
        argv += ["--inputs", *draw(st.lists(TSF_IN, min_size=1, max_size=3)), "--out", out]
    elif command == "lora-merge":
        alpha = draw(_mostly(["2"], ["0", "5e-324", repr(sys.float_info.max), "inf", "nan"]))
        argv += ["--base", draw(TSF_IN), "--adapter", draw(ADAPTER_IN), "--alpha", alpha,
                 "--out", out]
    else:
        argv += ["--mode", draw(st.sampled_from(["stream", "context", "fewshot"])),
                 "--doc", draw(CHAT_IN), "--out", out]
        counts = [*COUNTS, str(2**64)]  # past sys.maxsize, where itertools.islice raises
        argv += _flags(draw, ("--k", counts), ("--before", counts), ("--after", counts),
                       ("--exclude-query-context", None), ("--format", ["jsonl", "text"]),
                       ("--separator", ARGV_TEXT))
    return argv, [out], []


def _snapshot(root: Path) -> dict[str, object]:
    """Every path under ``root``: a file's bytes, a link's target, or its kind."""
    state: dict[str, object] = {}
    for top, dirs, files in os.walk(root):
        for name in dirs + files:
            path = os.path.join(top, name)
            mode = os.lstat(path).st_mode
            state[os.path.relpath(path, root)] = (
                Path(path).read_bytes() if stat.S_ISREG(mode)
                else os.readlink(path) if stat.S_ISLNK(mode)
                else stat.S_IFMT(mode)
            )
    return state


@contextmanager
def _workspace() -> Iterator[Path]:
    """A fresh copy of the working directory, entered; yields the snapshot root."""
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(os.path.realpath(tmp))
        work = root / "work"  # so ".." is inside the snapshot too
        work.mkdir()
        for name, data in FILES.items():
            (work / name).write_bytes(data)
        write_doc_jsonl(toy_chat_doc(), work / "chat.jsonl")
        (work / "d").mkdir()
        (work / "linkdir").symlink_to("d")
        os.mkfifo(work / "fifo")
        cwd = os.getcwd()
        os.chdir(work)
        try:
            yield root
        finally:
            os.chdir(cwd)


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(cli_runs())
def test_cli_exit_contract(run):
    """Every run exits with a documented code and changes only what its outputs name.

    A failed run names its error in one stderr line and changes nothing; a
    run that argparse accepts and whose outputs ``check_outputs`` refuses
    names that error, whatever its inputs.  A clean run leaves each output
    a regular file at the path as given, so an output that ends in "/" or
    "/." must fail.
    """
    argv, written, removed = run
    with _workspace() as root:
        before = _snapshot(root)
        try:
            check_outputs(written, removed)
            bad_output = None
        except (MbrforgeError, OSError) as exc:
            bad_output = f"mbrforge: {getattr(exc, 'label', 'i/o error')}: {exc}"
        stderr = io.StringIO()
        with redirect_stdout(io.StringIO()), redirect_stderr(stderr):
            try:
                code = cli.main(argv)
            except SystemExit as exc:  # argparse rejected argv
                code, bad_output = exc.code, None
        err = stderr.getvalue()
        after = _snapshot(root)
        assert code in (EXIT_OK, EXIT_USAGE, EXIT_DATA, EXIT_BRIDGE, EXIT_IO), (code, err)
        assert not [p for p in after if re.fullmatch(r"\..*\.tmp", os.path.basename(p))]
        errors = [line for line in err.splitlines() if "error:" in line]
        changed = {p for p in before.keys() | after.keys() if before.get(p) != after.get(p)}
        if bad_output is not None:
            assert err.splitlines() == [bad_output], err
        if code != EXIT_OK:
            assert len(errors) == 1, err
            assert not changed, sorted(changed)
            return
        assert not errors, err
        assert all(os.path.isfile(path) for path in written), written
        assert not any(os.path.lexists(path) for path in removed), removed
        named = {os.path.relpath(os.path.realpath(path), root) for path in written + removed}
        assert changed <= named, sorted(changed)
