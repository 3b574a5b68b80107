"""Subcommand behaviour, exit codes, and file outputs of the CLI."""

from __future__ import annotations

import argparse
import errno
import gc
import json
import math
import os
import re
import shlex
import shutil
import signal
import stat
import subprocess
import sys
import textwrap
import threading
import time
import warnings
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from mbrforge import cli, mbr, metrics
from mbrforge.bridge import MAX_BATCH_SIZE, MAX_TIMEOUT, BridgeConfig
from mbrforge.checkpoint import TensorStore
from mbrforge.errors import EXIT_OK, DataError
from mbrforge.promptgen import ChatDocument, ChatTurn
from mbrforge.selftrain import FilterConfig
from mbrforge.textio import read_segments
from fixtures import (
    GOLDEN_DIR,
    TOY_DEMOS,
    alive,
    process_group,
    read_golden,
    toy_chat_doc,
    toy_chat_doc_2turn,
    write_doc_jsonl,
)

DOUBLES = str(Path(__file__).parent / "doubles.py")
SCRIPTS = Path(__file__).parent.parent / "scripts"
SRC = Path(__file__).parent.parent / "src"


def write_lines(path: Path, lines: list[str]) -> Path:
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    return path


@pytest.fixture
def cand_files(tmp_path):
    src = write_lines(tmp_path / "src.txt", ["s1", "s2"])
    a = write_lines(tmp_path / "a.txt", ["the cat", "x"])
    b = write_lines(tmp_path / "b.txt", ["the cat", "y y"])
    c = write_lines(tmp_path / "c.txt", ["a dog", "y y"])
    return src, a, b, c


def run_mbr(tmp_path, src, cands, *extra) -> tuple[int, Path]:
    out = tmp_path / "out.txt"
    argv = ["mbr", "--src", str(src)]
    for cand in cands:
        argv += ["--cand", str(cand)]
    argv += ["--out", str(out), *extra]
    return cli.main(argv), out


class TestMbrCommand:
    def test_selects_majority_candidates(self, tmp_path, cand_files):
        src, a, b, c = cand_files
        rc, out = run_mbr(tmp_path, src, [a, b, c])
        assert rc == EXIT_OK
        assert read_segments(out) == ["the cat", "y y"]

    def test_matrix_dump(self, tmp_path, cand_files):
        src, a, b, c = cand_files
        matrix_out = tmp_path / "matrix.tsv"
        rc, _out = run_mbr(
            tmp_path, src, [a, b, c], "--matrix-out", str(matrix_out)
        )
        assert rc == EXIT_OK
        rows = matrix_out.read_text().splitlines()
        assert len(rows) == 2 * 3  # segments x candidates
        first = rows[0].split("\t")
        assert first[0] == "0" and first[1] == "0"
        assert first[2] == "100.000000"  # self-similarity of candidate 0
        assert len(first) == 2 + 3 + 1

    def test_exclude_self_changes_the_means(self, tmp_path, cand_files):
        src, a, b, c = cand_files
        inc = tmp_path / "inc.tsv"
        exc = tmp_path / "exc.tsv"
        run_mbr(tmp_path, src, [a, b, c], "--matrix-out", str(inc))
        run_mbr(tmp_path, src, [a, b, c], "--exclude-self", "--matrix-out", str(exc))
        inc_means = [line.split("\t")[-1] for line in inc.read_text().splitlines()]
        exc_means = [line.split("\t")[-1] for line in exc.read_text().splitlines()]
        assert inc_means != exc_means

    def test_bleu_utility(self, tmp_path, cand_files):
        src, a, b, c = cand_files
        rc, out = run_mbr(tmp_path, src, [a, b, c], "--utility", "bleu")
        assert rc == EXIT_OK
        assert read_segments(out) == ["the cat", "y y"]

    def test_closed_stdout_is_no_error(self, tmp_path, cand_files, capsys, monkeypatch):
        # With fd 1 closed at start-up sys.stdout is None; mbr prints nothing.
        src, a, b, c = cand_files
        monkeypatch.setattr(sys, "stdout", None)
        rc, out = run_mbr(tmp_path, src, [a, b, c])
        assert rc == EXIT_OK
        assert read_segments(out) == ["the cat", "y y"]
        assert capsys.readouterr().err == ""

    def test_external_utility_matches_native(self, tmp_path, cand_files):
        src, a, b, c = cand_files
        rc_native, native_out = run_mbr(tmp_path, src, [a, b, c])
        external = tmp_path / "ext.txt"
        rc_ext = cli.main(
            [
                "mbr",
                "--src", str(src),
                "--cand", str(a),
                "--cand", str(b),
                "--cand", str(c),
                "--utility", "external",
                "--external-cmd", f"{sys.executable} {DOUBLES} chrf",
                "--out", str(external),
            ]
        )
        assert rc_native == rc_ext == EXIT_OK
        assert external.read_bytes() == native_out.read_bytes()

    def test_workers_do_not_change_output(self, tmp_path, cand_files):
        src, a, b, c = cand_files
        _rc, out1 = run_mbr(tmp_path, src, [a, b, c], "--workers", "1")
        bytes1 = out1.read_bytes()
        _rc, out3 = run_mbr(tmp_path, src, [a, b, c], "--workers", "3")
        assert out3.read_bytes() == bytes1

    @pytest.mark.parametrize(
        "utility",
        [["chrf"], ["chrf", "--exclude-self"], ["bleu"], ["bleu", "--exclude-self"],
         ["external", "--external-cmd", f"{sys.executable} {DOUBLES} chrf"]],
        ids=["chrf", "chrf-exclude-self", "bleu", "bleu-exclude-self", "external"],
    )
    def test_workers_do_not_change_any_output(self, tmp_path, utility):
        # Five segments, four of them with repeated candidates, in 1, 2 and 3 runs.
        src = write_lines(tmp_path / "src.txt", [f"s{i}" for i in range(5)])
        cands = [write_lines(tmp_path / f"c{k}.txt", lines) for k, lines in enumerate([
            ["the cat sat", "x y z", "hello world", "", "same"],
            ["the cat sat", "x y", "hello, world!", "a", "same"],
            ["a cat sat", "x y z", "hello world", "", "same"],
            ["the dog", "x y z", "world", "a b", "same"],
        ])]
        outputs = set()
        for workers in ("1", "2", "3"):
            matrix = tmp_path / f"matrix{workers}.tsv"
            rc, out = run_mbr(tmp_path, src, cands, "--utility", *utility,
                              "--matrix-out", str(matrix), "--workers", workers)
            assert rc == EXIT_OK
            outputs.add((out.read_bytes(), matrix.read_bytes()))
        assert len(outputs) == 1

    @pytest.mark.parametrize(
        "double, flags",
        [(["exit-now"], ["--no-bridge-restart"]),
         (["slow", "1.0"], ["--bridge-timeout", "0.2"]),
         (["late-extra-reply"], ["--bridge-timeout", "30"])],
        ids=["crash", "timeout", "surplus-at-close"],
    )
    def test_scorer_failure_reads_the_same_at_two_workers(self, tmp_path, double, flags):
        # One segment per worker, so the surplus reply shows only as its
        # scorer closes.  Run in dev mode with resource warnings as errors;
        # after the run no scorer and no pool worker may be left.
        code = textwrap.dedent("""\
            import json, os, sys
            from mbrforge import cli

            def alive(pid):
                try:
                    os.kill(pid, 0)
                except ProcessLookupError:
                    return False
                return True

            rc = cli.main(sys.argv[2:])
            with open(sys.argv[1], encoding="ascii") as lines:
                pids = [[int(pid) for pid in line.split()] for line in lines]
            left = [pid for pair in pids for pid in pair if pid != os.getpid() and alive(pid)]
            print(json.dumps({"self": os.getpid(), "pids": pids, "left": left}))
            sys.exit(rc)
        """)
        errors = {}
        for workers in (1, 2):
            run = tmp_path / f"w{workers}"
            run.mkdir()
            pid_file = run / "pids"
            scorer = [sys.executable, DOUBLES, "record-pid", str(pid_file), *double]
            argv = ["mbr", "--src", str(write_lines(run / "src.txt", ["s1", "s2"][:workers])),
                    "--out", str(run / "out.txt"), "--utility", "external",
                    "--external-cmd", shlex.join(scorer), "--workers", str(workers), *flags]
            for name, lines in (("a", ["the cat", "x"]), ("b", ["the cat", "y y"])):
                argv += ["--cand", str(write_lines(run / f"{name}.txt", lines[:workers]))]
            result = subprocess.run(
                [sys.executable, "-X", "dev", "-W", "error::ResourceWarning", "-c", code,
                 str(pid_file), *argv],
                capture_output=True,
                text=True,
                timeout=60,
            )
            assert result.returncode == 4, result.stderr
            report = json.loads(result.stdout)
            assert report["pids"] and report["left"] == []
            parents = {parent for _pid, parent in report["pids"]}
            if workers == 1:
                assert parents == {report["self"]}
            else:  # each scorer was started by a pool worker
                assert report["self"] not in parents
            assert not (run / "out.txt").exists()
            # A crash is found as a closed output or, rarely, as a broken pipe.
            errors[workers] = re.sub(r"crashed \([^)]*\)", "crashed (...)", result.stderr)
        assert errors[1] == errors[2]
        assert errors[1].startswith("mbrforge: bridge error: ")
        assert errors[1].count("\n") == 1

    def test_interrupt_at_two_workers_stops_the_runs(self, tmp_path):
        # Ctrl-C reaches the whole process group.  The pool workers leave it
        # to mbr, which stops their runs and waits for them to close their
        # scorers: the run ends, writes nothing and leaves no process behind.
        # Each of the 4 requests of a segment takes its source's 0.2 seconds.
        pid_file, out = tmp_path / "pids", tmp_path / "out.txt"
        scorer = [sys.executable, DOUBLES, "record-pid", str(pid_file), "delayed-echo"]
        argv = [sys.executable, "-m", "mbrforge.cli", "mbr", "--out", str(out),
                "--src", str(write_lines(tmp_path / "src.txt", ["0.2", "0.2"])),
                "--utility", "external", "--external-cmd", shlex.join(scorer), "--workers", "2"]
        for name, lines in (("a", ["1", "3"]), ("b", ["2", "4"])):
            argv += ["--cand", str(write_lines(tmp_path / f"{name}.txt", lines))]
        proc = subprocess.Popen(argv, start_new_session=True, stderr=subprocess.DEVNULL)
        try:
            deadline = time.monotonic() + 30
            while time.monotonic() < deadline and (
                not pid_file.exists() or pid_file.read_text().count("\n") < 2
            ):
                time.sleep(0.05)
            os.killpg(proc.pid, signal.SIGINT)
            assert proc.wait(timeout=30) != 0
        finally:
            if proc.poll() is None:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
        assert not out.exists()
        pids = [int(pid) for line in pid_file.read_text().splitlines() for pid in line.split()]
        assert len(pids) == 4  # two scorers and the two pool workers that started them
        for pid in pids:
            with pytest.raises(ProcessLookupError):
                os.kill(pid, 0)

    @staticmethod
    def two_worker_argv(tmp_path: Path, sources: list[str], *scorer: str) -> list[str]:
        """``mbr --workers 2`` over an external scorer and two segments, one per run."""
        argv = [sys.executable, "-m", "mbrforge.cli", "mbr", "--out", str(tmp_path / "out.txt"),
                "--src", str(write_lines(tmp_path / "src.txt", sources)),
                "--utility", "external", "--external-cmd", shlex.join(scorer), "--workers", "2"]
        for name, lines in (("a", ["1", "3"]), ("b", ["2", "4"])):
            argv += ["--cand", str(write_lines(tmp_path / f"{name}.txt", lines))]
        return argv

    @pytest.mark.parametrize("run", [0, 1])
    def test_killed_worker_is_an_error_not_a_hang(self, tmp_path, run):
        # The scorer of one run SIGKILLs the worker that started it, as an
        # OOM kill would.  mbr reads that run's pipe as ended without an
        # answer, stops the other run and leaves no process behind.
        pid_file = tmp_path / "pids"
        argv = self.two_worker_argv(tmp_path, ["s0", "s1"], sys.executable, DOUBLES,
                                    "record-pid", str(pid_file), "kill-parent", f"s{run}")
        start = time.monotonic()
        result = subprocess.run(argv, capture_output=True, text=True, timeout=60,
                                env={**os.environ, "PYTHONPATH": str(SRC)})
        assert time.monotonic() - start < 20
        assert result.returncode == 5
        assert result.stderr == (
            f"mbrforge: i/o error: segments {run}..{run}: "
            "their process ended without an answer (Killed)\n"
        )
        assert not (tmp_path / "out.txt").exists()
        pids = [int(pid) for line in pid_file.read_text().splitlines() for pid in line.split()]
        assert len(pids) == 4  # two scorers and the two workers that started them
        assert not [pid for pid in pids if alive(pid)]

    def test_sigterm_at_two_workers_ends_in_one_line(self, tmp_path):
        # A batch scheduler's time limit signals mbr alone.  mbr stops its
        # runs, waits for them to close their scorers, writes nothing, says
        # so in one line and exits 128 + 15.  Each of the 4 requests of a
        # segment takes its source's 0.2 seconds.
        pid_file = tmp_path / "pids"
        argv = self.two_worker_argv(tmp_path, ["0.2", "0.2"], sys.executable, DOUBLES,
                                    "record-pid", str(pid_file), "delayed-echo")
        proc = subprocess.Popen(argv, start_new_session=True, stderr=subprocess.PIPE, text=True,
                                env={**os.environ, "PYTHONPATH": str(SRC)})
        try:
            deadline = time.monotonic() + 30
            while time.monotonic() < deadline and (
                not pid_file.exists() or pid_file.read_text().count("\n") < 2
            ):
                time.sleep(0.05)
            proc.send_signal(signal.SIGTERM)
            _out, err = proc.communicate(timeout=30)
        finally:
            if proc.poll() is None:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.communicate()
        assert proc.returncode == 128 + signal.SIGTERM
        assert err == "mbrforge: interrupted (SIGTERM)\n"
        assert not (tmp_path / "out.txt").exists()
        pids = [int(pid) for line in pid_file.read_text().splitlines() for pid in line.split()]
        assert len(pids) == 4
        assert not [pid for pid in pids if alive(pid)]

    def test_sigterm_stops_runs_whose_answers_outgrow_a_pipe(self, tmp_path):
        # 200 segments of 64 distinct candidates under native chrF, so each
        # segment's matrix pickles to about 37 KB.  Each scored segment
        # appends its worker's pid to a log, and SIGTERM reaches mbr alone
        # once each run has scored ten, so each holds more than its pipe can
        # buffer.  The runs stop, their sends break, and mbr exits 143.
        log = tmp_path / "scored"
        code = textwrap.dedent("""\
            import os, sys
            from mbrforge import cli, mbr

            make_scorer = mbr.make_scorer

            def logged_scorer(spec):
                scorer = make_scorer(spec)

                def score(triples):
                    scores = scorer(triples)
                    fd = os.open(sys.argv[1], os.O_WRONLY | os.O_CREAT | os.O_APPEND)
                    os.write(fd, f"{os.getpid()}\\n".encode())
                    os.close(fd)
                    return scores

                return score

            mbr.make_scorer = logged_scorer
            sys.exit(cli.main(sys.argv[2:]))
        """)
        segments = range(200)
        argv = [sys.executable, "-c", code, str(log), "mbr", "--out", str(tmp_path / "out.txt"),
                "--src", str(write_lines(tmp_path / "src.txt", [f"s{i}" for i in segments])),
                "--workers", "2"]
        for c in range(64):
            lines = [f"segment {i} candidate {c}" for i in segments]
            argv += ["--cand", str(write_lines(tmp_path / f"c{c}.txt", lines))]
        with process_group(argv, stderr=subprocess.PIPE, text=True) as proc:
            deadline = time.monotonic() + 30
            while time.monotonic() < deadline:
                counts = Counter(log.read_text().split()) if log.exists() else Counter()
                if len(counts) == 2 and min(counts.values()) >= 10:
                    break
                time.sleep(0.02)
            assert len(counts) == 2 and min(counts.values()) >= 10
            proc.send_signal(signal.SIGTERM)
            _out, err = proc.communicate(timeout=10)
        assert proc.returncode == 128 + signal.SIGTERM
        assert err == "mbrforge: interrupted (SIGTERM)\n"
        assert not (tmp_path / "out.txt").exists()
        assert not [pid for pid in map(int, counts) if alive(pid)]

    def test_workers_stop_when_mbr_is_killed(self, tmp_path):
        # SIGKILL cannot be caught, but it closes mbr's pipe ends, so each run
        # stops before its next segment and closes its scorer.  Ten segments a
        # run, each 4 requests of 0.25 s: each run has about 9 s of segments
        # left when mbr dies.
        pid_file = tmp_path / "pids"
        scorer = [sys.executable, DOUBLES, "record-pid", str(pid_file), "delayed-echo"]
        argv = [sys.executable, "-m", "mbrforge.cli", "mbr", "--out", str(tmp_path / "out.txt"),
                "--src", str(write_lines(tmp_path / "src.txt", ["0.25"] * 20)),
                "--utility", "external", "--external-cmd", shlex.join(scorer), "--workers", "2"]
        for name, number in (("a", "1"), ("b", "2")):
            argv += ["--cand", str(write_lines(tmp_path / f"{name}.txt", [number] * 20))]
        with process_group(argv, stderr=subprocess.DEVNULL) as proc:
            deadline = time.monotonic() + 30
            while time.monotonic() < deadline and (
                not pid_file.exists() or pid_file.read_text().count("\n") < 2
            ):
                time.sleep(0.02)
            proc.kill()
            pids = [int(pid) for line in pid_file.read_text().splitlines() for pid in line.split()]
            deadline = time.monotonic() + 5
            while time.monotonic() < deadline and [pid for pid in pids if alive(pid)]:
                time.sleep(0.05)
            assert len(pids) == 4  # two scorers and the two workers that started them
            assert not [pid for pid in pids if alive(pid)]

    def test_a_second_sigterm_ends_mbr_at_once(self, tmp_path):
        # The first SIGTERM stops the runs, which would finish the segment at
        # hand, 4 requests of 3 s each, before closing their scorers; the
        # second ends mbr at once, and its exit ends the runs.  Each scorer
        # then finds its client gone at its next reply and ends quietly, so
        # the stderr they share with mbr holds mbr's one line.
        pid_file = tmp_path / "pids"
        argv = self.two_worker_argv(tmp_path, ["3", "3"], sys.executable, DOUBLES,
                                    "record-pid", str(pid_file), "delayed-echo")
        with process_group(argv, stderr=subprocess.PIPE, text=True,
                           env={**os.environ, "PYTHONPATH": str(SRC)}) as proc:
            deadline = time.monotonic() + 30
            while time.monotonic() < deadline and (
                not pid_file.exists() or pid_file.read_text().count("\n") < 2
            ):
                time.sleep(0.02)
            proc.send_signal(signal.SIGTERM)
            time.sleep(0.5)  # two signals close together may run the handler once
            proc.send_signal(signal.SIGTERM)
            start = time.monotonic()
            assert proc.wait(timeout=10) == 128 + signal.SIGTERM
            assert time.monotonic() - start < 2
            scorers = [int(line.split()[0]) for line in pid_file.read_text().splitlines()]
            deadline = time.monotonic() + 10
            while time.monotonic() < deadline and [pid for pid in scorers if alive(pid)]:
                time.sleep(0.05)
            assert len(scorers) == 2 and not [pid for pid in scorers if alive(pid)]
            _out, err = proc.communicate(timeout=10)
        assert err == "mbrforge: interrupted (SIGTERM)\n"
        assert not (tmp_path / "out.txt").exists()

    @pytest.mark.parametrize("failing", [1, 2], ids=["first-fork", "second-fork"])
    def test_a_failed_fork_is_an_io_error_in_one_line(self, tmp_path, monkeypatch, capsys,
                                                      failing):
        # The kernel refuses a fork, as it does when out of process ids or
        # memory: for the first run, or for the second once the first runs.
        # mbr stops and reaps the run it started and writes nothing.
        forked, real_fork = [], os.fork

        def fork():
            if len(forked) + 1 == failing:
                raise BlockingIOError(errno.EAGAIN, os.strerror(errno.EAGAIN))
            forked.append(real_fork())
            return forked[-1]

        monkeypatch.setattr(os, "fork", fork)
        src = write_lines(tmp_path / "src.txt", ["s0", "s1"])
        cands = [write_lines(tmp_path / f"{name}.txt", ["x y", "y z"]) for name in "ab"]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc, _out = run_mbr(tmp_path, src, cands, "--workers", "2")
            gc.collect()
        assert rc == 5
        assert capsys.readouterr().err == (
            f"mbrforge: i/o error: [Errno {errno.EAGAIN}] {os.strerror(errno.EAGAIN)}\n"
        )
        assert sorted(path.name for path in tmp_path.iterdir()) == ["a.txt", "b.txt", "src.txt"]
        assert not [w for w in caught if issubclass(w.category, ResourceWarning)]
        assert len(forked) == failing - 1
        for pid in forked:
            with pytest.raises(ChildProcessError):  # reaped already
                os.waitpid(pid, os.WNOHANG)

    def test_single_candidate_file_is_data_error(self, tmp_path, cand_files, capsys):
        src, a, _b, _c = cand_files
        rc, _out = run_mbr(tmp_path, src, [a])
        assert rc == 3
        assert "at least 2" in capsys.readouterr().err

    def test_misaligned_candidates(self, tmp_path, cand_files, capsys):
        src, a, b, _c = cand_files
        short = write_lines(tmp_path / "short.txt", ["only one"])
        rc, _out = run_mbr(tmp_path, src, [a, b, short])
        assert rc == 3
        err = capsys.readouterr().err
        assert "short.txt" in err

    def test_external_needs_command(self, tmp_path, cand_files, capsys):
        # Missing, blank and unsplittable commands are all usage errors.
        src, a, b, _c = cand_files
        for extra in ([], ["--external-cmd", "  \t "], ["--external-cmd", 'python3 "x']):
            rc, out = run_mbr(tmp_path, src, [a, b], "--utility", "external", *extra)
            assert rc == 2
            assert "--external-cmd" in capsys.readouterr().err
            assert not out.exists()

    def test_missing_input_is_io_error(self, tmp_path, capsys):
        rc, _out = run_mbr(
            tmp_path, tmp_path / "absent.txt", [tmp_path / "a", tmp_path / "b"]
        )
        assert rc == 5
        assert "i/o error" in capsys.readouterr().err

    def test_crashing_scorer_is_bridge_error(self, tmp_path, cand_files, capsys):
        src, a, b, _c = cand_files
        rc = cli.main(
            [
                "mbr",
                "--src", str(src),
                "--cand", str(a),
                "--cand", str(b),
                "--utility", "external",
                "--external-cmd", f"{sys.executable} {DOUBLES} exit-now",
                "--out", str(tmp_path / "out.txt"),
            ]
        )
        assert rc == 4
        assert "bridge error" in capsys.readouterr().err

    @pytest.mark.parametrize("mode", ["bad-bytes", "extra-reply"])
    def test_misbehaving_scorer_fails_fast(self, tmp_path, cand_files, mode):
        # Run as a child process, so that a traceback printed by any thread
        # would show on its stderr.
        src, a, b, c = cand_files
        out, matrix = tmp_path / "out.txt", tmp_path / "matrix.tsv"
        argv = ["mbr", "--src", str(src), "--cand", str(a), "--cand", str(b),
                "--cand", str(c), "--utility", "external", "--bridge-timeout", "30",
                "--external-cmd", f"{sys.executable} {DOUBLES} {mode}",
                "--out", str(out), "--matrix-out", str(matrix)]
        start = time.monotonic()
        result = subprocess.run(
            [sys.executable, "-m", "mbrforge.cli", *argv], capture_output=True, text=True
        )
        assert time.monotonic() - start < 5.0
        assert result.returncode == 4
        assert result.stderr.startswith("mbrforge: bridge error: ")
        assert result.stderr.count("\n") == 1
        assert not out.exists() and not matrix.exists()

    @staticmethod
    def assert_scorer_matches_native(tmp_path, metric, columns, *extra) -> None:
        """`scripts/chrf_scorer.py` gives the native utility's --out and --matrix-out bytes."""
        src = write_lines(tmp_path / "src.txt", [f"s{i}" for i in range(len(columns[0]))])
        cands = [write_lines(tmp_path / f"c{k}.txt", lines) for k, lines in enumerate(columns)]
        scorer = f"{sys.executable} {SCRIPTS / 'chrf_scorer.py'} --metric {metric}"
        outputs = {}
        for utility, args in ((metric, []), ("external", ["--external-cmd", scorer, *extra])):
            matrix = tmp_path / f"{utility}.tsv"
            rc, out = run_mbr(tmp_path, src, cands, "--utility", utility,
                              "--matrix-out", str(matrix), *args)
            assert rc == EXIT_OK
            outputs[utility] = (out.read_bytes(), matrix.read_bytes())
        assert outputs["external"] == outputs[metric]

    @pytest.mark.parametrize("metric", ["chrf", "bleu"])
    def test_reference_scorer_matches_native(self, tmp_path, metric):
        # Punctuation and repeated words, so tokenizing and clipping matter.
        self.assert_scorer_matches_native(tmp_path, metric, [
            ["the cat sat, then left.", "x y", "Hello, world!"],
            ["the cat sat then left", "y y y", "hello world"],
            ["a cat, a cat.", "x y", "Hello world!!"],
        ])

    @pytest.mark.parametrize("workers", ["1", "2"])
    @pytest.mark.parametrize("metric", ["chrf", "bleu"])
    def test_reference_scorer_matches_native_on_empty_candidates(
        self, tmp_path, metric, workers
    ):
        # Model outputs hold empty lines; the last segment has no text at all.
        self.assert_scorer_matches_native(tmp_path, metric, [
            ["", "x y", "", "a b"],
            ["the cat", "", "", "a b"],
            ["the cat", "x y", "", ""],
        ], "--workers", workers)

    @pytest.mark.parametrize("batch_size, workers", [(1, 1), (7, 2)])
    def test_reference_scorer_reads_utf8_whatever_the_locale(
        self, tmp_path, monkeypatch, batch_size, workers
    ):
        # The scorer child inherits the variable; it must not decode requests with it.
        monkeypatch.setenv("PYTHONIOENCODING", "latin-1")
        self.assert_scorer_matches_native(
            tmp_path,
            "chrf",
            [
                ["Grüße aus München", "naïve café"],
                ["Grüße nach München", "naive cafe"],
                ["Gruesse aus Muenchen", "naïve café, très"],
            ],
            "--bridge-batch-size", str(batch_size), "--workers", str(workers),
        )

    @pytest.mark.parametrize(
        "scorer", [[str(SCRIPTS / "chrf_scorer.py")], [DOUBLES, "echo-mt"]],
        ids=["chrf_scorer", "echo-mt"],
    )
    def test_scorer_ends_quietly_when_its_client_goes(self, scorer):
        # The client has closed its end of the replies, as a stopped mbr
        # has, and sends a batch: the scorer exits 0 and prints nothing.
        read_end, write_end = os.pipe()
        with subprocess.Popen([sys.executable, "-X", "dev", *scorer], stdin=subprocess.PIPE,
                              stdout=write_end, stderr=subprocess.PIPE,
                              env={**os.environ, "PYTHONPATH": str(SRC)}) as proc:
            os.close(write_end)
            os.close(read_end)
            _out, err = proc.communicate(b"s\t1\tr\n" * 50 + b"\n", timeout=30)
        assert proc.returncode == 0
        assert err == b""


class TestEvalCommand:
    def test_corpus_chrf_identity(self, tmp_path, capsys):
        hyp = write_lines(tmp_path / "hyp.txt", ["guten tag", "wie geht es"])
        rc = cli.main(["eval", "--hyp", str(hyp), "--ref", str(hyp)])
        assert rc == EXIT_OK
        assert capsys.readouterr().out == "100.00\n"

    def test_corpus_bleu(self, tmp_path, capsys):
        hyp = write_lines(tmp_path / "hyp.txt", ["a b c d"])
        ref = write_lines(tmp_path / "ref.txt", ["a b c d"])
        rc = cli.main(["eval", "--hyp", str(hyp), "--ref", str(ref), "--metric", "bleu"])
        assert rc == EXIT_OK
        assert capsys.readouterr().out == "100.00\n"

    def test_sentence_level_emits_one_line_per_segment(self, tmp_path, capsys):
        hyp = write_lines(tmp_path / "hyp.txt", ["a b", "c d", "e f"])
        ref = write_lines(tmp_path / "ref.txt", ["a b", "c x", "e f"])
        rc = cli.main(
            ["eval", "--hyp", str(hyp), "--ref", str(ref), "--sentence-level"]
        )
        assert rc == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 3
        for line in lines:
            assert 0.0 <= float(line) <= 100.0

    def test_sentence_bleu_defaults_to_smoothing(self, tmp_path, capsys):
        # A segment with no 2-gram overlap scores zero unsmoothed; the
        # sentence-level default must rescue it.
        hyp = write_lines(tmp_path / "hyp.txt", ["a x b y"])
        ref = write_lines(tmp_path / "ref.txt", ["a b c d"])
        rc = cli.main(
            [
                "eval",
                "--hyp", str(hyp),
                "--ref", str(ref),
                "--metric", "bleu",
                "--sentence-level",
            ]
        )
        assert rc == EXIT_OK
        assert float(capsys.readouterr().out.strip()) > 0.0

    def test_corpus_bleu_defaults_to_no_smoothing(self, tmp_path, capsys):
        hyp = write_lines(tmp_path / "hyp.txt", ["a x b y"])
        ref = write_lines(tmp_path / "ref.txt", ["a b c d"])
        rc = cli.main(["eval", "--hyp", str(hyp), "--ref", str(ref), "--metric", "bleu"])
        assert rc == EXIT_OK
        assert capsys.readouterr().out == "0.00\n"

    def test_misaligned_inputs(self, tmp_path, capsys):
        hyp = write_lines(tmp_path / "hyp.txt", ["a", "b"])
        ref = write_lines(tmp_path / "ref.txt", ["a"])
        rc = cli.main(["eval", "--hyp", str(hyp), "--ref", str(ref)])
        assert rc == 3
        err = capsys.readouterr().err
        assert "2 lines" in err and "1 lines" in err

    def test_empty_corpus(self, tmp_path, capsys):
        empty = tmp_path / "empty.txt"
        empty.write_text("")
        rc = cli.main(["eval", "--hyp", str(empty), "--ref", str(empty)])
        assert rc == 3
        assert "empty" in capsys.readouterr().err

    def test_non_utf8_input_is_data_error(self, tmp_path, capsys):
        hyp = tmp_path / "latin1.txt"
        hyp.write_bytes(b"caf\xe9\n")
        ref = write_lines(tmp_path / "ref.txt", ["cafe"])
        rc = cli.main(["eval", "--hyp", str(hyp), "--ref", str(ref)])
        assert rc == 3
        err = capsys.readouterr().err
        assert str(hyp) in err and "UTF-8" in err


    def test_closed_stdout_is_io_error(self, tmp_path, capsys, monkeypatch):
        # With fd 1 closed at start-up sys.stdout is None, and print would drop the score.
        hyp = write_lines(tmp_path / "hyp.txt", ["a b"])
        monkeypatch.setattr(sys, "stdout", None)
        assert cli.main(["eval", "--hyp", str(hyp), "--ref", str(hyp)]) == 5
        assert capsys.readouterr().err == "mbrforge: i/o error: standard output is closed\n"

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    def test_stdout_that_cannot_be_written_is_io_error(self, tmp_path):
        # Buffered stdout: without the flush in main, the failure would come
        # from the interpreter's exit flush, as exit 120.
        hyp = write_lines(tmp_path / "hyp.txt", ["a b", "c"])
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        env["PYTHONPATH"] = str(SRC)
        with open("/dev/full", "w") as full:
            result = subprocess.run(
                [sys.executable, "-m", "mbrforge.cli", "eval", "--hyp", str(hyp), "--ref",
                 str(hyp), "--sentence-level"],
                stdout=full,
                stderr=subprocess.PIPE,
                text=True,
                env=env,
            )
        assert result.returncode == 5
        assert result.stderr == "mbrforge: i/o error: [Errno 28] No space left on device\n"


class TestEvalFlags:
    # Line 1 has punctuation and no 2-gram overlap, so both flags change BLEU.
    HYPS = ["a, x b.", "the cat sat on the mat!"]
    REFS = ["a b, c.", "the cat sat on the mat."]

    @pytest.mark.parametrize("tokenize", ["whitespace", "punctuation-split"])
    @pytest.mark.parametrize("smoothing", ["none", "add-k"])
    @pytest.mark.parametrize("level", ["corpus", "sentence"])
    @pytest.mark.parametrize("metric", ["bleu", "chrf"])
    def test_output_is_the_metric_call(self, tmp_path, capsys, metric, level, smoothing, tokenize):
        hyp = write_lines(tmp_path / "hyp.txt", self.HYPS)
        ref = write_lines(tmp_path / "ref.txt", self.REFS)
        argv = ["eval", "--hyp", str(hyp), "--ref", str(ref), "--metric", metric,
                "--smoothing", smoothing, "--tokenize", tokenize]
        assert cli.main(argv + (["--sentence-level"] if level == "sentence" else [])) == EXIT_OK
        if metric == "bleu":
            hyps = [metrics.tokenize(h, tokenize) for h in self.HYPS]
            refs = [metrics.tokenize(r, tokenize) for r in self.REFS]
            if level == "sentence":
                scores = [metrics.sentence_bleu(h, [r], smoothing=smoothing)
                          for h, r in zip(hyps, refs)]
            else:
                scores = [metrics.corpus_bleu(hyps, refs, smoothing=smoothing)]
        elif level == "sentence":
            scores = [metrics.sentence_chrf(h, r) for h, r in zip(self.HYPS, self.REFS)]
        else:
            scores = [metrics.corpus_chrf(self.HYPS, self.REFS)]
        assert capsys.readouterr().out == "".join(f"{s.value:.2f}\n" for s in scores)


class TestCorpusCommands:
    def test_build_st(self, tmp_path):
        src = write_lines(tmp_path / "mono.txt", ["s one", "s two"])
        mt = write_lines(tmp_path / "mt.txt", ["t one", "t two"])
        rc = cli.main(
            ["build-st", "--src", str(src), "--mt", str(mt), "--out-prefix", str(tmp_path / "st")]
        )
        assert rc == EXIT_OK
        assert read_segments(tmp_path / "st.src") == ["s one", "s two"]
        assert read_segments(tmp_path / "st.tgt") == ["t one", "t two"]
        assert read_segments(tmp_path / "st.meta") == ["self-train", "self-train"]

    def test_build_st_no_meta(self, tmp_path):
        # --no-meta also removes the .meta an earlier run left at the prefix.
        mono = write_lines(tmp_path / "mono.txt", ["s one", "s two"])
        mt = write_lines(tmp_path / "mt.txt", ["t one", "t two"])
        prefix = str(tmp_path / "st")
        cli.main(["build-bt", "--tgt", str(mono), "--bt", str(mt), "--out-prefix", prefix])
        assert (tmp_path / "st.meta").exists()
        cli.main(["build-st", "--src", str(mono), "--mt", str(mt), "--out-prefix", prefix,
                  "--no-meta"])
        assert not (tmp_path / "st.meta").exists()
        rc = cli.main(["merge", "--inputs", prefix, "--out-prefix", str(tmp_path / "all")])
        assert rc == EXIT_OK
        assert read_segments(tmp_path / "all.meta") == ["genuine", "genuine"]

    def test_build_st_filter_flags(self, tmp_path):
        src = write_lines(tmp_path / "mono.txt", ["one", "two tokens here"])
        mt = write_lines(tmp_path / "mt.txt", ["a b c", "x y z"])
        cli.main(
            [
                "build-st",
                "--src", str(src),
                "--mt", str(mt),
                "--out-prefix", str(tmp_path / "st"),
                "--min-tokens", "2",
            ]
        )
        assert read_segments(tmp_path / "st.src") == ["two tokens here"]

    def test_build_bt_with_tag(self, tmp_path):
        tgt = write_lines(tmp_path / "tgt.txt", ["Hallo"])
        bt = write_lines(tmp_path / "bt.txt", ["Hello"])
        rc = cli.main(
            [
                "build-bt",
                "--tgt", str(tgt),
                "--bt", str(bt),
                "--tag", "<BT>",
                "--out-prefix", str(tmp_path / "bt"),
            ]
        )
        assert rc == EXIT_OK
        assert read_segments(tmp_path / "bt.src") == ["<BT> Hello"]
        assert read_segments(tmp_path / "bt.tgt") == ["Hallo"]
        assert read_segments(tmp_path / "bt.meta") == ["back-translate"]

    def test_build_bt_bad_tag(self, tmp_path, capsys):
        tgt = write_lines(tmp_path / "tgt.txt", ["Hallo"])
        bt = write_lines(tmp_path / "bt.txt", ["Hello"])
        rc = cli.main(
            [
                "build-bt",
                "--tgt", str(tgt),
                "--bt", str(bt),
                "--tag", "two words",
                "--out-prefix", str(tmp_path / "bt"),
            ]
        )
        assert rc == 3
        assert "single" in capsys.readouterr().err

    def test_build_bt_tag_not_utf8(self, tmp_path, capsys):
        # Python decodes a non-UTF-8 argv byte to a lone surrogate.
        tgt = write_lines(tmp_path / "tgt.txt", ["Hallo"])
        bt = write_lines(tmp_path / "bt.txt", ["Hello"])
        with pytest.raises(SystemExit) as exc_info:
            cli.main(["build-bt", "--tgt", str(tgt), "--bt", str(bt), "--tag", "\udcff",
                      "--out-prefix", str(tmp_path / "bt")])
        assert exc_info.value.code == 2
        assert "--tag" in capsys.readouterr().err
        assert sorted(path.name for path in tmp_path.iterdir()) == ["bt.txt", "tgt.txt"]

    def test_merge_names_the_meta_with_a_bad_tag(self, tmp_path, capsys):
        for name in ("a", "b"):
            write_lines(tmp_path / f"{name}.src", ["s"])
            write_lines(tmp_path / f"{name}.tgt", ["t"])
        write_lines(tmp_path / "b.meta", ["bogus"])
        rc = cli.main(["merge", "--inputs", str(tmp_path / "a"), str(tmp_path / "b"),
                       "--out-prefix", str(tmp_path / "all")])
        assert rc == 3
        assert capsys.readouterr().err == (
            f"mbrforge: error: {tmp_path / 'b.meta'}: unknown provenance tag: 'bogus'\n"
        )
        assert not (tmp_path / "all.src").exists()

    def test_merge_concatenates_and_shuffles(self, tmp_path):
        cli.main(
            [
                "build-st",
                "--src", str(write_lines(tmp_path / "s.txt", ["s1", "s2"])),
                "--mt", str(write_lines(tmp_path / "m.txt", ["t1", "t2"])),
                "--out-prefix", str(tmp_path / "st"),
            ]
        )
        cli.main(
            [
                "build-bt",
                "--tgt", str(write_lines(tmp_path / "t.txt", ["z1"])),
                "--bt", str(write_lines(tmp_path / "b.txt", ["b1"])),
                "--tag", "<BT>",
                "--out-prefix", str(tmp_path / "bt"),
            ]
        )
        rc = cli.main(
            [
                "merge",
                "--inputs", str(tmp_path / "st"), str(tmp_path / "bt"),
                "--out-prefix", str(tmp_path / "all"),
                "--seed", "13",
            ]
        )
        assert rc == EXIT_OK
        merged_src = read_segments(tmp_path / "all.src")
        assert sorted(merged_src) == sorted(["s1", "s2", "<BT> b1"])
        rc = cli.main(
            [
                "merge",
                "--inputs", str(tmp_path / "st"), str(tmp_path / "bt"),
                "--out-prefix", str(tmp_path / "again"),
                "--seed", "13",
            ]
        )
        assert rc == EXIT_OK
        assert (tmp_path / "again.src").read_bytes() == (tmp_path / "all.src").read_bytes()
        assert (tmp_path / "again.meta").read_bytes() == (tmp_path / "all.meta").read_bytes()


def files_in(directory: Path) -> dict[str, bytes | None]:
    """Every path under ``directory`` with its bytes (None for a directory)."""
    return {
        str(path.relative_to(directory)): None if path.is_dir() else path.read_bytes()
        for path in sorted(directory.rglob("*"))
    }


class TestOutputsTogether:
    """A failed output leaves every target of the command as it was, and no temp file."""

    @staticmethod
    def assert_nothing_changed(tmp_path, argv, capsys):
        before = files_in(tmp_path)
        assert cli.main(argv) == 5
        assert capsys.readouterr().err.startswith("mbrforge: i/o error: ")
        assert files_in(tmp_path) == before

    @staticmethod
    def old_corpus(prefix: Path, *extensions: str) -> None:
        for ext in extensions:
            prefix.with_name(prefix.name + ext).write_bytes(f"old {ext}\n".encode())

    def test_mbr_matrix_out_in_a_missing_directory(self, tmp_path, cand_files, capsys):
        src, a, b, c = cand_files
        (tmp_path / "out.txt").write_bytes(b"old selection\n")
        argv = ["mbr", "--src", str(src), "--cand", str(a), "--cand", str(b), "--cand", str(c),
                "--out", str(tmp_path / "out.txt"),
                "--matrix-out", str(tmp_path / "missing" / "m.tsv")]
        self.assert_nothing_changed(tmp_path, argv, capsys)

    @pytest.mark.parametrize("link", [False, True], ids=["same-name", "symlink"])
    def test_mbr_out_and_matrix_out_are_one_file(self, tmp_path, cand_files, capsys, link):
        src, a, b, c = cand_files
        out = tmp_path / "o"
        out.write_bytes(b"old selection\n")
        matrix = tmp_path / "o2" if link else out
        if link:
            matrix.symlink_to(out)
        before = files_in(tmp_path)
        argv = ["mbr", "--src", str(src), "--cand", str(a), "--cand", str(b), "--cand", str(c),
                "--out", str(out), "--matrix-out", str(matrix)]
        assert cli.main(argv) == 2
        assert capsys.readouterr().err == (
            f"mbrforge: error: outputs {out} and {matrix} are the same file\n"
        )
        assert files_in(tmp_path) == before

    def test_mbr_out_is_a_fifo(self, tmp_path, cand_files, capsys):
        src, a, b, c = cand_files
        fifo = tmp_path / "fifo"
        os.mkfifo(fifo)
        argv = ["mbr", "--src", str(src), "--cand", str(a), "--cand", str(b), "--cand", str(c),
                "--out", str(fifo)]
        assert cli.main(argv) == 5
        assert capsys.readouterr().err == f"mbrforge: i/o error: {fifo}: not a regular file\n"
        assert stat.S_ISFIFO(os.lstat(fifo).st_mode)
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "a.txt", "b.txt", "c.txt", "fifo", "src.txt"
        ]

    @pytest.mark.parametrize("command", ["build-st", "build-bt"])
    def test_build_meta_is_a_directory(self, tmp_path, capsys, command):
        mono = write_lines(tmp_path / "mono.txt", ["s one", "s two"])
        mt = write_lines(tmp_path / "mt.txt", ["t one", "t two"])
        self.old_corpus(tmp_path / "c", ".src", ".tgt")
        (tmp_path / "c.meta").mkdir()
        inputs = ["--src", str(mono), "--mt", str(mt)] if command == "build-st" else [
            "--tgt", str(mono), "--bt", str(mt)]
        argv = [command, *inputs, "--out-prefix", str(tmp_path / "c")]
        self.assert_nothing_changed(tmp_path, argv, capsys)

    def test_merge_meta_is_a_directory(self, tmp_path, capsys):
        write_lines(tmp_path / "in.src", ["s1", "s2"])
        write_lines(tmp_path / "in.tgt", ["t1", "t2"])
        self.old_corpus(tmp_path / "all", ".src", ".tgt")
        (tmp_path / "all.meta").mkdir()
        argv = ["merge", "--inputs", str(tmp_path / "in"), "--out-prefix", str(tmp_path / "all")]
        self.assert_nothing_changed(tmp_path, argv, capsys)

    def test_no_meta_run_with_a_meta_directory(self, tmp_path, capsys):
        mono = write_lines(tmp_path / "mono.txt", ["s one", "s two"])
        self.old_corpus(tmp_path / "c", ".src", ".tgt")
        (tmp_path / "c.meta").mkdir()
        argv = ["build-st", "--src", str(mono), "--mt", str(mono), "--out-prefix",
                str(tmp_path / "c"), "--no-meta"]
        self.assert_nothing_changed(tmp_path, argv, capsys)

    def test_failed_no_meta_run_keeps_the_stale_meta(self, tmp_path, capsys):
        mono = write_lines(tmp_path / "mono.txt", ["s one", "s two"])
        mt = write_lines(tmp_path / "mt.txt", ["t one", "t two"])
        self.old_corpus(tmp_path / "c", ".src", ".meta")
        (tmp_path / "c.tgt").mkdir()
        argv = ["build-st", "--src", str(mono), "--mt", str(mt), "--out-prefix",
                str(tmp_path / "c"), "--no-meta"]
        self.assert_nothing_changed(tmp_path, argv, capsys)


# Runs mbrforge with argv[2:] and sends the process the signal named in
# argv[1] as the command commits its outputs: every staged file exists
# and none has been renamed yet.
SIGNAL_AT_COMMIT = textwrap.dedent("""\
    import os, signal, sys
    from mbrforge import cli

    rename = os.replace

    def replace(src, dst):
        os.kill(os.getpid(), signal.Signals[sys.argv[1]])
        rename(src, dst)

    os.replace = replace
    sys.exit(cli.main(sys.argv[2:]))
""")


def interrupted_argvs(tmp_path: Path) -> dict[str, tuple[list[str], list[str]]]:
    """Each writing command's argv over small inputs in ``tmp_path``, and its outputs."""
    src = write_lines(tmp_path / "src.txt", ["s1", "s2"])
    a = write_lines(tmp_path / "a.txt", ["the cat", "x"])
    b = write_lines(tmp_path / "b.txt", ["the cat", "y y"])
    write_lines(tmp_path / "in.src", ["s1", "s2"])
    write_lines(tmp_path / "in.tgt", ["t1", "t2"])
    write_doc_jsonl(toy_chat_doc(), tmp_path / "chat.jsonl")
    avg, lora_merge = checkpoint_argvs(tmp_path)
    lora_merge[lora_merge.index("--base") + 1] = str(tmp_path / "a.tsf")
    corpus = [str(tmp_path / f"c{ext}") for ext in (".src", ".tgt", ".meta")]
    return {
        "mbr": (["mbr", "--src", str(src), "--cand", str(a), "--cand", str(b), "--out",
                 str(tmp_path / "out.txt"), "--matrix-out", str(tmp_path / "m.tsv")],
                [str(tmp_path / "out.txt"), str(tmp_path / "m.tsv")]),
        "build-st": (["build-st", "--src", str(a), "--mt", str(b),
                      "--out-prefix", str(tmp_path / "c")], corpus),
        "build-bt": (["build-bt", "--tgt", str(a), "--bt", str(b),
                      "--out-prefix", str(tmp_path / "c")], corpus),
        "merge": (["merge", "--inputs", str(tmp_path / "in"),
                   "--out-prefix", str(tmp_path / "c")], corpus),
        "avg": (avg, [avg[-1]]),
        "lora-merge": (lora_merge, [lora_merge[-1]]),
        "prompts": (["prompts", "--mode", "stream", "--doc", str(tmp_path / "chat.jsonl"),
                     "--out", str(tmp_path / "p.jsonl")], [str(tmp_path / "p.jsonl")]),
    }


class TestInterrupts:
    """SIGTERM unwinds as SIGINT does: no temp file is left, each output is
    old or absent, and stderr holds one line."""

    @pytest.mark.parametrize(
        "command", ["mbr", "build-st", "build-bt", "merge", "avg", "lora-merge", "prompts"]
    )
    @pytest.mark.parametrize(
        "signum, old", [(signal.SIGTERM, True), (signal.SIGINT, False)],
        ids=["SIGTERM-old-outputs", "SIGINT-no-outputs"],
    )
    def test_signal_at_commit_changes_no_output(self, tmp_path, command, signum, old):
        argv, outputs = interrupted_argvs(tmp_path)[command]
        for output in outputs if old else ():
            Path(output).write_bytes(b"old\n")
        before = files_in(tmp_path)
        result = subprocess.run(
            [sys.executable, "-X", "dev", "-W", "error::ResourceWarning", "-c",
             SIGNAL_AT_COMMIT, signum.name, *argv],
            capture_output=True,
            text=True,
            timeout=60,
            env={**os.environ, "PYTHONPATH": str(SRC)},
        )
        assert result.stderr == f"mbrforge: interrupted ({signum.name})\n"
        assert result.returncode == 128 + signum
        assert files_in(tmp_path) == before

    def test_main_restores_the_sigterm_handler(self, tmp_path, cand_files):
        previous = signal.getsignal(signal.SIGTERM)
        src, *cands = cand_files
        rc, _out = run_mbr(tmp_path, src, cands)
        assert rc == EXIT_OK
        assert signal.getsignal(signal.SIGTERM) is previous

    def test_main_runs_off_the_main_thread(self, tmp_path, cand_files):
        src, *cands = cand_files
        results = []
        worker = threading.Thread(target=lambda: results.append(run_mbr(tmp_path, src, cands)))
        worker.start()
        worker.join(timeout=60)
        assert not worker.is_alive()
        assert [rc for rc, _out in results] == [EXIT_OK]


class TestMbrChecksOutputsFirst:
    """``mbr`` refuses an output it cannot write before it reads or scores anything."""

    @pytest.fixture(autouse=True)
    def no_loading(self, monkeypatch):
        def load_candidates(*args):
            raise AssertionError("mbr read its inputs before checking its outputs")

        monkeypatch.setattr(mbr, "load_candidates", load_candidates)

    @staticmethod
    def run(cand_files, out, *extra) -> int:
        src, a, b, c = cand_files
        return cli.main(["mbr", "--src", str(src), "--cand", str(a), "--cand", str(b),
                         "--cand", str(c), "--out", str(out), *extra])

    def test_out_and_matrix_out_are_one_file(self, tmp_path, cand_files, capsys):
        out = tmp_path / "o"
        assert self.run(cand_files, out, "--matrix-out", str(out)) == 2
        assert capsys.readouterr().err == (
            f"mbrforge: error: outputs {out} and {out} are the same file\n"
        )

    def test_out_is_a_fifo(self, tmp_path, cand_files, capsys):
        fifo = tmp_path / "fifo"
        os.mkfifo(fifo)
        assert self.run(cand_files, fifo) == 5
        assert capsys.readouterr().err == f"mbrforge: i/o error: {fifo}: not a regular file\n"

    def test_matrix_out_in_a_missing_directory(self, tmp_path, cand_files, capsys):
        missing = tmp_path / "missing"
        out = tmp_path / "out.txt"
        assert self.run(cand_files, out, "--matrix-out", str(missing / "m.tsv")) == 5
        err = capsys.readouterr().err
        assert err == f"mbrforge: i/o error: {missing}: no such directory\n"
        assert ".tmp" not in err
        assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["mbr", "--src", "s", "--cand", "a", "--cand", "b", "--out", "missing/o",
         "--matrix-out", "missing/m"],
        ["build-st", "--src", "s", "--mt", "t", "--out-prefix", "missing/c"],
        ["build-bt", "--tgt", "t", "--bt", "b", "--out-prefix", "missing/c"],
        ["merge", "--inputs", "a", "b", "--out-prefix", "missing/c"],
        ["avg", "--inputs", "a.tsf", "b.tsf", "--out", "missing/o.tsf"],
        ["lora-merge", "--base", "a.tsf", "--adapter", "b.tsf", "--alpha", "1",
         "--out", "missing/o.tsf"],
        ["prompts", "--mode", "stream", "--doc", "c.jsonl", "--out", "missing/p"],
    ],
    ids=lambda argv: argv[0],
)
def test_writing_command_checks_its_outputs_before_its_inputs(argv, tmp_path, monkeypatch, capsys):
    # Every input is missing too, so a command that read one first would name it instead.
    monkeypatch.chdir(tmp_path)
    assert cli.main(argv) == 5
    missing = Path.cwd() / "missing"
    assert capsys.readouterr().err == f"mbrforge: i/o error: {missing}: no such directory\n"
    assert list(tmp_path.iterdir()) == []


BLAS_THREADS_ENV = "OPENBLAS_NUM_THREADS"


def checkpoint_argvs(tmp_path: Path) -> list[list[str]]:
    """argv of an avg and of a lora-merge over small stores in ``tmp_path``."""
    TensorStore({"w": np.array([[1.0]], dtype=np.float32)}).save(tmp_path / "a.tsf")
    TensorStore({"w": np.array([[3.0]], dtype=np.float32)}).save(tmp_path / "b.tsf")
    TensorStore(
        {
            "w.lora_A": np.array([[2.0]], dtype=np.float32),
            "w.lora_B": np.array([[3.0]], dtype=np.float32),
        }
    ).save(tmp_path / "adapter.tsf")
    return [
        ["avg", "--inputs", str(tmp_path / "a.tsf"), str(tmp_path / "b.tsf"),
         "--out", str(tmp_path / "avg.tsf")],
        ["lora-merge", "--base", str(tmp_path / "avg.tsf"), "--adapter",
         str(tmp_path / "adapter.tsf"), "--alpha", "1.0", "--out", str(tmp_path / "merged.tsf")],
    ]


class TestCheckpointCommands:
    def test_avg(self, tmp_path):
        a = tmp_path / "a.tsf"
        b = tmp_path / "b.tsf"
        TensorStore({"w": np.array([1.0, 2.0], dtype=np.float32)}).save(a)
        TensorStore({"w": np.array([3.0, 4.0], dtype=np.float32)}).save(b)
        out = tmp_path / "avg.tsf"
        rc = cli.main(["avg", "--inputs", str(a), str(b), "--out", str(out)])
        assert rc == EXIT_OK
        np.testing.assert_array_equal(
            TensorStore.load(out)["w"], np.array([2.0, 3.0], dtype=np.float32)
        )

    def test_avg_name_mismatch(self, tmp_path, capsys):
        a = tmp_path / "a.tsf"
        b = tmp_path / "b.tsf"
        TensorStore({"w": np.array([1.0], dtype=np.float32)}).save(a)
        TensorStore({"v": np.array([1.0], dtype=np.float32)}).save(b)
        rc = cli.main(["avg", "--inputs", str(a), str(b), "--out", str(tmp_path / "o.tsf")])
        assert rc == 3
        assert "store 2" in capsys.readouterr().err

    def test_avg_names_the_corrupt_input(self, tmp_path, capsys):
        a = tmp_path / "a.tsf"
        bad = tmp_path / "bad.tsf"
        TensorStore({"w": np.array([1.0], dtype=np.float32)}).save(a)
        bad.write_bytes(b"XSF1\n\n")
        rc = cli.main(["avg", "--inputs", str(a), str(bad), "--out", str(tmp_path / "o.tsf")])
        assert rc == 3
        assert f"{bad}: not a TSF container (bad magic)" in capsys.readouterr().err

    def test_avg_names_a_dimension_too_long_for_int(self, tmp_path, capsys):
        bad = tmp_path / "bad.tsf"
        bad.write_bytes(b"TSF1\nw\tf32\t" + b"9" * 5000 + b"\n\n")
        rc = cli.main(["avg", "--inputs", str(bad), "--out", str(tmp_path / "o.tsf")])
        assert rc == 3
        assert f"mbrforge: error: {bad}: bad shape in TSF header: 'w" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "inputs,err",
        [
            (["a", "a", "names"], "store 3 does not match store 1 on tensor 'b'"),
            (["a", "shape"], "tensor 'w' shape mismatch: store 1 has (2,), store 2 has (1, 2)"),
            # A store is checked before the next one loads, so a bad store 2 is
            # reported ahead of a missing store 3.
            (["a", "shape", "missing"],
             "tensor 'w' shape mismatch: store 1 has (2,), store 2 has (1, 2)"),
        ],
        ids=["names-at-store-3", "shape", "shape-before-missing"],
    )
    def test_avg_reports_the_first_bad_store(self, tmp_path, capsys, inputs, err):
        stores = {
            "a": {"w": np.ones(2, np.float32), "b": np.ones(1, np.float32)},
            "names": {"w": np.ones(2, np.float32), "v": np.ones(1, np.float32)},
            "shape": {"w": np.ones((1, 2), np.float32), "b": np.ones(1, np.float32)},
        }
        for name, tensors in stores.items():
            TensorStore(tensors).save(tmp_path / f"{name}.tsf")
        out = tmp_path / "o.tsf"
        rc = cli.main(["avg", "--inputs", *(str(tmp_path / f"{i}.tsf") for i in inputs),
                       "--out", str(out)])
        assert rc == 3
        assert capsys.readouterr().err == f"mbrforge: error: {err}\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["avg", "lora-merge"])
    def test_out_in_a_missing_directory_fails_before_any_input_is_read(
        self, tmp_path, capsys, command
    ):
        bad = tmp_path / "bad.tsf"
        bad.write_bytes(b"XSF1\n\n")
        missing = tmp_path / "missing"
        argv = {
            "avg": ["avg", "--inputs", str(bad)],
            "lora-merge": ["lora-merge", "--base", str(bad), "--adapter", str(bad),
                           "--alpha", "1.0"],
        }[command]
        assert cli.main([*argv, "--out", str(missing / "x.tsf")]) == 5
        assert capsys.readouterr().err == f"mbrforge: i/o error: {missing}: no such directory\n"

    def test_avg_out_may_name_an_input(self, tmp_path):
        a = tmp_path / "a.tsf"
        b = tmp_path / "b.tsf"
        TensorStore({"w": np.array([1.0, -0.0], dtype=np.float32)}).save(a)
        TensorStore({"w": np.array([3.0, -0.0], dtype=np.float32)}).save(b)
        assert cli.main(["avg", "--inputs", str(a), str(b), "--out", str(a)]) == EXIT_OK
        assert TensorStore.load(a).serialize() == TensorStore(
            {"w": np.array([2.0, -0.0], dtype=np.float32)}
        ).serialize()

    def test_lora_merge(self, tmp_path):
        base = tmp_path / "base.tsf"
        adapter = tmp_path / "adapter.tsf"
        out = tmp_path / "merged.tsf"
        TensorStore({"w": np.array([[1.0]], dtype=np.float32)}).save(base)
        TensorStore(
            {
                "w.lora_A": np.array([[2.0]], dtype=np.float32),
                "w.lora_B": np.array([[3.0]], dtype=np.float32),
            }
        ).save(adapter)
        rc = cli.main(
            [
                "lora-merge",
                "--base", str(base),
                "--adapter", str(adapter),
                "--alpha", "1.0",
                "--out", str(out),
            ]
        )
        assert rc == EXIT_OK
        np.testing.assert_array_equal(
            TensorStore.load(out)["w"], np.array([[7.0]], dtype=np.float32)
        )

    def test_in_process_run_leaves_environment_alone(self, tmp_path, monkeypatch):
        # numpy is already loaded here, so a BLAS setting could only leak.
        monkeypatch.delenv(BLAS_THREADS_ENV, raising=False)
        assert "numpy" in sys.modules
        before = dict(os.environ)
        for argv in checkpoint_argvs(tmp_path):
            assert cli.main(argv) == EXIT_OK
        assert dict(os.environ) == before

    @pytest.mark.parametrize("preset", [None, "2"], ids=["unset", "preset"])
    def test_child_runs_blas_on_one_thread(self, tmp_path, preset):
        env = {k: v for k, v in os.environ.items() if k != BLAS_THREADS_ENV}
        env["PYTHONPATH"] = str(SRC)
        if preset is not None:
            env[BLAS_THREADS_ENV] = preset
        code = (
            "import json, os, sys; from mbrforge import cli; "
            "rcs = [cli.main(argv) for argv in json.loads(sys.argv[1])]; "
            "task = '/proc/self/task'; "
            "tasks = len(os.listdir(task)) if os.path.isdir(task) else None; "
            f"print(json.dumps([rcs, os.environ.get({BLAS_THREADS_ENV!r}), tasks]))"
        )
        result = subprocess.run(
            [sys.executable, "-c", code, json.dumps(checkpoint_argvs(tmp_path))],
            capture_output=True,
            text=True,
            env=env,
        )
        assert result.returncode == 0, result.stderr
        rcs, value, tasks = json.loads(result.stdout)
        assert rcs == [EXIT_OK, EXIT_OK]
        assert value == (preset or "1")
        if preset is None and tasks is not None and os.cpu_count() >= 2:
            assert tasks == 1  # no OpenBLAS worker beside the main thread

    def test_lora_merge_requires_alpha(self, tmp_path):
        with pytest.raises(SystemExit) as exc_info:
            cli.main(
                ["lora-merge", "--base", "x", "--adapter", "y", "--out", "z"]
            )
        assert exc_info.value.code == 2


def fewshot_doc() -> ChatDocument:
    turns = tuple(
        ChatTurn(
            speaker="customer",
            src_lang="English",
            tgt_lang="German",
            source=src,
            mt=ref,
            reference=ref,
        )
        for src, ref in TOY_DEMOS
    )
    return ChatDocument(doc_id="toy-shots", turns=turns)


class TestPromptsCommand:
    def test_stream_jsonl_matches_golden(self, tmp_path):
        doc_path = tmp_path / "chat.jsonl"
        write_doc_jsonl(toy_chat_doc(), doc_path)
        out = tmp_path / "prompts.jsonl"
        rc = cli.main(
            [
                "prompts",
                "--mode", "stream",
                "--doc", str(doc_path),
                "--k", "3",
                "--out", str(out),
            ]
        )
        assert rc == EXIT_OK
        records = [json.loads(line) for line in out.read_text().splitlines()]
        assert [r["turn_index"] for r in records] == [0, 1, 2, 3, 4]
        last = records[4]
        assert last["doc_id"] == "toy-chat"
        assert last["text"] == read_golden("stream_toy.txt")
        assert last["completion"] == "Klar, lassen Sie sich Zeit."

    def test_context_text_format(self, tmp_path):
        doc_path = tmp_path / "chat.jsonl"
        write_doc_jsonl(toy_chat_doc(), doc_path)
        out = tmp_path / "prompts.txt"
        rc = cli.main(
            [
                "prompts",
                "--mode", "context",
                "--doc", str(doc_path),
                "--out", str(out),
                "--format", "text",
                "--separator", "====",
            ]
        )
        assert rc == EXIT_OK
        text = out.read_text()
        assert text.count("\n====\n") == 5
        golden = read_golden("context_toy.txt")
        assert golden + "Sie lautet 4711.\n====\n" in text

    def test_fewshot_pool_excludes_the_query_turn(self, tmp_path):
        doc_path = tmp_path / "chat.jsonl"
        write_doc_jsonl(fewshot_doc(), doc_path)
        out = tmp_path / "prompts.jsonl"
        rc = cli.main(
            ["prompts", "--mode", "fewshot", "--doc", str(doc_path), "--out", str(out)]
        )
        assert rc == EXIT_OK
        records = [json.loads(line) for line in out.read_text().splitlines()]
        assert len(records) == 6
        first = records[0]
        # The query's own demonstration must not appear among its shots.
        assert "English: Good morning!\nGerman: Guten Morgen!" not in first["text"]
        assert first["text"].endswith("English: Good morning!\nGerman: ")
        assert first["completion"] == "Guten Morgen!"

    def test_fewshot_pool_too_small(self, tmp_path, capsys):
        doc_path = tmp_path / "chat.jsonl"
        write_doc_jsonl(fewshot_doc(), doc_path)
        rc = cli.main(
            [
                "prompts",
                "--mode", "fewshot",
                "--doc", str(doc_path),
                "--k", "7",
                "--out", str(tmp_path / "p.jsonl"),
            ]
        )
        assert rc == 3
        assert "need at least k=7" in capsys.readouterr().err

    def test_stream_missing_reference(self, tmp_path, capsys):
        doc = ChatDocument(
            doc_id="d",
            turns=(
                ChatTurn(
                    speaker="customer",
                    src_lang="English",
                    tgt_lang="German",
                    source="hi",
                    mt="hallo",
                ),
                ChatTurn(
                    speaker="agent",
                    src_lang="German",
                    tgt_lang="English",
                    source="hallo",
                    mt="hi",
                ),
            ),
        )
        doc_path = tmp_path / "chat.jsonl"
        write_doc_jsonl(doc, doc_path)
        rc = cli.main(
            [
                "prompts",
                "--mode", "stream",
                "--doc", str(doc_path),
                "--out", str(tmp_path / "p.jsonl"),
            ]
        )
        assert rc == 3
        assert "reference" in capsys.readouterr().err

    @pytest.mark.parametrize("fmt", ["jsonl", "text"])
    def test_lone_surrogate_is_a_data_error(self, tmp_path, capsys, fmt):
        # JSON's "\ud800" escape decodes to a code point UTF-8 cannot encode.
        doc_path = tmp_path / "chat.jsonl"
        doc_path.write_text(
            '{"doc_id": "d", "turn_index": 0, "speaker": "customer", "src_lang": "en", '
            '"tgt_lang": "de", "source": "hi \\ud800 there", "mt": "hallo"}\n'
        )
        out = tmp_path / "p.out"
        rc = cli.main(
            ["prompts", "--mode", "context", "--doc", str(doc_path), "--out", str(out),
             "--format", fmt]
        )
        assert rc == 3
        assert "field 'source' is not valid UTF-8" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "doc_text,flags,message",
        [
            ("\n  \n\n", ["--mode", "stream"], "no chat turns found in {doc}"),
            (
                '{"doc_id": "d", "turn_index": 0, "speaker": "robot", "src_lang": "en", '
                '"tgt_lang": "de", "source": "hi", "mt": "hallo"}\n',
                ["--mode", "context"],
                "{doc}:1: unknown speaker: 'robot'",
            ),
        ],
        ids=["blank-lines", "unknown-speaker"],
    )
    def test_data_error_writes_nothing(self, tmp_path, capsys, doc_text, flags, message):
        doc_path = tmp_path / "chat.jsonl"
        if doc_text is None:
            write_doc_jsonl(fewshot_doc(), doc_path)
        else:
            doc_path.write_text(doc_text)
        out = tmp_path / "p.jsonl"
        rc = cli.main(["prompts", "--doc", str(doc_path), "--out", str(out), *flags])
        assert rc == 3
        assert message.format(doc=doc_path) in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "flag", ["--k", "--before", "--after"],
        ids=["negative-k", "negative-before", "negative-after"],
    )
    def test_usage_error_writes_nothing(self, tmp_path, capsys, flag):
        doc_path = tmp_path / "chat.jsonl"
        write_doc_jsonl(fewshot_doc(), doc_path)
        out = tmp_path / "p.jsonl"
        with pytest.raises(SystemExit) as exc_info:
            cli.main(["prompts", "--mode", "fewshot", "--doc", str(doc_path), "--out", str(out),
                      flag, "-1"])
        assert exc_info.value.code == 2
        assert f"argument {flag}: must be at least 0, got -1" in capsys.readouterr().err
        assert not out.exists()

    def test_separator_not_utf8(self, tmp_path, capsys):
        # Python decodes a non-UTF-8 argv byte to a lone surrogate.
        doc_path = tmp_path / "chat.jsonl"
        write_doc_jsonl(toy_chat_doc(), doc_path)
        out = tmp_path / "p.txt"
        with pytest.raises(SystemExit) as exc_info:
            cli.main(["prompts", "--mode", "context", "--doc", str(doc_path), "--out", str(out),
                      "--format", "text", "--separator", "\udcff"])
        assert exc_info.value.code == 2
        assert "--separator" in capsys.readouterr().err
        assert not out.exists()


class TestPromptsBytes:
    """Whole outputs of `prompts`, frozen byte for byte in tests/golden/prompts_*."""

    @pytest.mark.parametrize(
        "golden, docs, flags",
        [
            ("prompts_stream.txt", "toy", ["--mode", "stream", "--k", "3"]),
            ("prompts_context.txt", "toy", ["--mode", "context", "--before", "1"]),
            ("prompts_fewshot.txt", "shots", ["--mode", "fewshot", "--k", "3"]),
            ("prompts_context_excluded.jsonl", "toy",
             ["--mode", "context", "--exclude-query-context", "--format", "jsonl"]),
        ],
        ids=["stream-text", "context-text", "fewshot-text", "context-excluded-jsonl"],
    )
    def test_output_bytes(self, tmp_path, golden, docs, flags):
        # Two documents in one file, so the records of the second follow the first.
        if docs == "toy":
            pair = (toy_chat_doc(), toy_chat_doc_2turn())
        else:
            pair = (fewshot_doc(), fewshot_doc()._replace(doc_id="toy-shots-2"))
        for k, doc in enumerate(pair):
            write_doc_jsonl(doc, tmp_path / f"{k}.jsonl")
        doc_path = tmp_path / "chat.jsonl"
        doc_path.write_bytes(b"".join((tmp_path / f"{k}.jsonl").read_bytes() for k in range(2)))
        if "--format" not in flags:
            flags = [*flags, "--format", "text", "--separator", "===="]
        out = tmp_path / "prompts.out"
        assert cli.main(["prompts", "--doc", str(doc_path), "--out", str(out), *flags]) == EXIT_OK
        assert out.read_bytes() == (GOLDEN_DIR / golden).read_bytes()


class TestWorkersDefault:
    def test_default_is_one(self):
        parser = cli.build_parser()
        for argv in (
            ["mbr", "--src", "s", "--cand", "a", "--cand", "b", "--out", "o"],
            ["eval", "--hyp", "h", "--ref", "r"],
        ):
            assert parser.parse_args(argv).workers == 1

    @pytest.mark.parametrize("value", ["0", "-5", "two"])
    @pytest.mark.parametrize(
        "argv",
        [
            ["mbr", "--src", "s", "--cand", "a", "--cand", "b", "--out", "o"],
            ["eval", "--hyp", "h", "--ref", "r"],
        ],
    )
    def test_workers_below_one_is_usage_error(self, argv, value, capsys):
        with pytest.raises(SystemExit) as exc_info:
            cli.main([*argv, "--workers", value])
        assert exc_info.value.code == 2
        assert "--workers" in capsys.readouterr().err


class TestBridgeFlags:
    MBR = ["mbr", "--src", "s", "--cand", "a", "--cand", "b", "--out", "o"]

    @pytest.mark.parametrize(
        "field, values",
        [
            ("batch_size", [-1, 0, 1, MAX_BATCH_SIZE, MAX_BATCH_SIZE + 1]),
            (
                "timeout",
                [-1.0, 0.0, 5e-324, 60.0, MAX_TIMEOUT, math.nextafter(MAX_TIMEOUT, math.inf),
                 3e6, math.inf, math.nan],
            ),
        ],
    )
    def test_cli_and_config_agree_on_the_bounds(self, field, values, capsys):
        parser = cli.build_parser()
        flag = f"--bridge-{field.replace('_', '-')}"
        for value in values:
            try:
                BridgeConfig(command=("x",), **{field: value})
            except DataError:
                with pytest.raises(SystemExit) as exc_info:
                    parser.parse_args([*self.MBR, flag, repr(value)])
                assert exc_info.value.code == 2
                assert flag in capsys.readouterr().err
            else:
                args = parser.parse_args([*self.MBR, flag, repr(value)])
                assert getattr(args, f"bridge_{field}") == value

    @pytest.mark.parametrize("utility", ["chrf", "bleu", "external"])
    @pytest.mark.parametrize(
        "flags", [["--bridge-batch-size", "0"], ["--bridge-timeout", "3000000"]]
    )
    def test_bad_bridge_flag_is_usage_error_for_every_utility(
        self, tmp_path, cand_files, capsys, utility, flags
    ):
        src, a, b, c = cand_files
        scorer = f"{sys.executable} {SCRIPTS / 'chrf_scorer.py'}"
        with pytest.raises(SystemExit) as exc_info:
            run_mbr(tmp_path, src, [a, b, c], "--utility", utility, "--external-cmd", scorer,
                    *flags)
        assert exc_info.value.code == 2
        err = capsys.readouterr().err
        assert flags[0] in err and "Traceback" not in err
        assert not (tmp_path / "out.txt").exists()


class TestNumericFlags:
    # The input files do not exist: a bad value must stop the run before any is read.
    REQUIRED = {
        "prompts": ["--mode", "context", "--doc", "d", "--out", "o"],
        "build-st": ["--src", "s", "--mt", "m", "--out-prefix", "p"],
        "build-bt": ["--tgt", "t", "--bt", "b", "--out-prefix", "p"],
        "lora-merge": ["--base", "b", "--adapter", "a", "--out", "o"],
    }

    @pytest.mark.parametrize(
        "command, flag, value",
        [
            ("prompts", "--k", "-1"),
            ("prompts", "--before", "-2"),
            ("prompts", "--after", "x"),
            ("build-st", "--min-tokens", "-1"),
            ("build-st", "--max-tokens", "-1"),
            ("build-bt", "--max-ratio", "0"),
            ("build-bt", "--max-ratio", "nan"),
            ("lora-merge", "--alpha", "0"),
            ("lora-merge", "--alpha", "-1"),
            ("lora-merge", "--alpha", "inf"),
            ("lora-merge", "--alpha", "nan"),
        ],
    )
    def test_bad_value_is_usage_error(self, tmp_path, monkeypatch, capsys, command, flag, value):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc_info:
            cli.main([command, *self.REQUIRED[command], flag, value])
        assert exc_info.value.code == 2
        assert f"argument {flag}: " in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_min_tokens_above_max_tokens_is_data_error(self, tmp_path, capsys):
        # The rule spans two flags, so FilterConfig keeps it.
        mono = write_lines(tmp_path / "mono.txt", ["s"])
        rc = cli.main(["build-st", "--src", str(mono), "--mt", str(mono), "--out-prefix",
                       str(tmp_path / "st"), "--min-tokens", "3", "--max-tokens", "2"])
        assert rc == 3
        assert "min_tokens must not exceed max_tokens" in capsys.readouterr().err


class TestCorpusPrefixes:
    """A corpus prefix must end in a file name; one that does not reads and writes nothing."""

    @pytest.fixture
    def workdir(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        for name in ("s.txt", "t.txt", "c.src", "c.tgt"):
            write_lines(tmp_path / name, ["a b", "c"])
        return tmp_path

    @pytest.mark.parametrize("value", ["", ".", "/", ".."])
    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["build-st", "--src", "s.txt", "--mt", "t.txt"], "--out-prefix"),
            (["build-bt", "--tgt", "t.txt", "--bt", "s.txt"], "--out-prefix"),
            (["merge", "--inputs", "c"], "--out-prefix"),
            (["merge", "--out-prefix", "m", "--inputs", "c"], "--inputs"),
        ],
        ids=["build-st", "build-bt", "merge-out", "merge-inputs"],
    )
    def test_prefix_that_names_no_file_is_usage_error(self, workdir, capsys, argv, flag, value):
        before = files_in(workdir)
        with pytest.raises(SystemExit) as exc_info:
            cli.main([*argv, flag, value])
        assert exc_info.value.code == 2
        named = [line for line in capsys.readouterr().err.splitlines() if repr(value) in line]
        assert named == [f"mbrforge {argv[0]}: error: argument {flag}: names no file: {value!r}"]
        assert files_in(workdir) == before

    def test_empty_matrix_out_is_io_error(self, workdir, capsys):
        before = files_in(workdir)
        argv = ["mbr", "--src", "s.txt", "--cand", "s.txt", "--cand", "t.txt", "--out", "o.txt",
                "--matrix-out", ""]
        assert cli.main(argv) == 5
        assert capsys.readouterr().err == f"mbrforge: i/o error: {Path.cwd()}: is a directory\n"
        assert files_in(workdir) == before

    @pytest.mark.parametrize("value", ["out/", "out/.", "s.txt/", "s.txt/."])
    @pytest.mark.parametrize("flag", ["--out", "--matrix-out"])
    def test_output_that_names_no_file_is_io_error(self, workdir, capsys, flag, value):
        # Dropping the "/" would name out or the input s.txt, which must stay as it is.
        before = files_in(workdir)
        outputs = ["--out", value] if flag == "--out" else ["--out", "o.txt", flag, value]
        assert cli.main(["mbr", "--src", "s.txt", "--cand", "s.txt", "--cand", "t.txt",
                         *outputs]) == 5
        assert capsys.readouterr().err == f"mbrforge: i/o error: {value}: names no file\n"
        assert files_in(workdir) == before


class TestDefaultsMatchTheLibrary:
    """The parser spells the library's defaults and bounds out a second time.

    It does so on purpose: parsing leaves bridge, mbr and selftrain
    unloaded.  These checks tie the two copies together.
    """

    @staticmethod
    def actions(command: str) -> dict[str, argparse.Action]:
        parser = cli.build_parser()
        (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        return {action.dest: action for action in commands.choices[command]._actions}

    def test_bridge_flags(self):
        actions = self.actions("mbr")
        dests = {"batch_size": "bridge_batch_size", "timeout": "bridge_timeout",
                 "restart_on_failure": "bridge_restart"}
        assert {field: actions[dest].default for field, dest in dests.items()} == (
            BridgeConfig._field_defaults
        )
        batch_size, timeout = actions["bridge_batch_size"].type, actions["bridge_timeout"].type
        assert batch_size(str(MAX_BATCH_SIZE)) == MAX_BATCH_SIZE
        assert timeout(repr(MAX_TIMEOUT)) == MAX_TIMEOUT
        with pytest.raises(argparse.ArgumentTypeError):
            batch_size(str(MAX_BATCH_SIZE + 1))
        with pytest.raises(argparse.ArgumentTypeError):
            timeout(repr(math.nextafter(MAX_TIMEOUT, math.inf)))

    def test_utility_spec(self):
        actions = self.actions("mbr")
        spec = mbr.UtilitySpec(
            kind=f"native-{actions['utility'].default}",
            include_self=actions["include_self"].default,
        )
        assert spec == mbr.UtilitySpec()

    @pytest.mark.parametrize("command", ["build-st", "build-bt"])
    def test_filter_config(self, command):
        actions = self.actions(command)
        config = FilterConfig(
            max_length_ratio=actions["max_ratio"].default,
            min_tokens=actions["min_tokens"].default,
            max_tokens=actions["max_tokens"].default,
            dedup=actions["dedup"].default,
        )
        assert config == FilterConfig()


class TestHelp:
    def test_mbr_help_shows_only_defaults_that_hold(self, capsys):
        with pytest.raises(SystemExit) as exc_info:
            cli.main(["mbr", "--help"])
        assert exc_info.value.code == 0
        text = " ".join(capsys.readouterr().out.split())  # wrapping aside
        assert (
            "--bridge-batch-size BRIDGE_BATCH_SIZE requests per batch, 1..4096 "
            "(default: 32) --bridge-timeout"
        ) in text
        assert (
            "--bridge-timeout BRIDGE_TIMEOUT seconds to wait for each reply line "
            "(default: 60.0) --no-bridge-restart"
        ) in text
        # A switch shows no default: it would read as the value the switch sets.
        assert (
            "--include-self keep each candidate in its own reference set (default) "
            "--exclude-self drop the diagonal from the row means --out"
        ) in text
        assert (
            "--no-bridge-restart fail immediately if the scorer process crashes --workers"
        ) in text

    def test_eval_help_shows_one_default_per_option(self, capsys):
        with pytest.raises(SystemExit) as exc_info:
            cli.main(["eval", "--help"])
        assert exc_info.value.code == 0
        text = " ".join(capsys.readouterr().out.split())
        assert "--hyp HYP hypothesis file --ref REF reference file --metric" in text
        assert (
            "--smoothing {none,add-k} BLEU smoothing (default: none for corpus, add-k per "
            "sentence) --tokenize"
        ) in text
        assert "tokenization for BLEU (default: punctuation-split)" in text

    @pytest.mark.parametrize(
        "command", ["mbr", "eval", "build-st", "build-bt", "merge", "avg", "lora-merge", "prompts"]
    )
    def test_no_help_shows_a_default_of_none(self, command, capsys):
        with pytest.raises(SystemExit):
            cli.main([command, "--help"])
        assert "(default: None)" not in capsys.readouterr().out


    def test_every_numeric_option_is_bounded_and_shows_its_default(self):
        parser = cli.build_parser()
        (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        checked = 0
        for name, sub in commands.choices.items():
            text = " ".join(sub.format_help().split())
            for action in sub._actions:
                if action.nargs == 0 or not action.option_strings:
                    continue  # a switch, or -h
                if action.default is not None:
                    assert f"(default: {action.default})" in text, (name, action.dest)
                numeric = action.type in (int, float) or getattr(
                    action.type, "__qualname__", ""
                ).startswith("_bounded.")
                if numeric and (name, action.dest) != ("merge", "seed"):  # every int seeds
                    assert action.type.__qualname__.startswith("_bounded."), (name, action.dest)
                    checked += 1
        assert checked == 14

    def test_bare_options_show_their_default(self, capsys):
        for argv, shown in [
            (["eval", "--help"], "--metric {bleu,chrf} (default: chrf)"),
            (["build-st", "--help"], "--min-tokens MIN_TOKENS (default: 1)"),
            (["build-st", "--help"], "--max-tokens MAX_TOKENS (default: 250)"),
        ]:
            with pytest.raises(SystemExit):
                cli.main(argv)
            assert shown in " ".join(capsys.readouterr().out.split())


class TestVerbose:
    # Run in a child process, so stderr is exactly what a user sees.
    @pytest.mark.parametrize(
        "flags, step, expected",
        [
            (["-v"], "mbr", b"INFO mbrforge: selecting over 2 segments x 2 systems\n"),
            ([], "mbr", b""),
            (["-vv"], "build-st", b"INFO mbrforge: kept 3 of 3 pairs\n"),
            ([], "build-st", b""),
        ],
    )
    def test_stderr_bytes(self, tmp_path, cand_files, flags, step, expected):
        src, a, b, _c = cand_files
        mono = write_lines(tmp_path / "mono.txt", ["s one", "s two", "s three"])
        mt = write_lines(tmp_path / "mt.txt", ["t one", "t two", "t three"])
        argv = {
            "mbr": ["mbr", "--src", str(src), "--cand", str(a), "--cand", str(b),
                    "--out", str(tmp_path / "out.txt")],
            "build-st": ["build-st", "--src", str(mono), "--mt", str(mt),
                         "--out-prefix", str(tmp_path / "st")],
        }[step]
        result = subprocess.run(
            [sys.executable, "-m", "mbrforge.cli", *flags, *argv],
            capture_output=True,
            env={**os.environ, "PYTHONPATH": str(SRC)},
        )
        assert result.returncode == 0, result.stderr
        assert result.stderr == expected


class TestReadme:
    def test_command_lines_parse(self):
        # A renamed or removed flag fails here instead of leaving stale docs.
        readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
        section = readme.split("\n## Command line\n", 1)[1]
        block = section.split("```bash\n", 1)[1].split("```", 1)[0]
        lines = [line for line in block.replace("\\\n", " ").splitlines()
                 if line.startswith("mbrforge ")]
        assert len(lines) >= 8
        parser = cli.build_parser()
        for line in lines:
            args = parser.parse_args(shlex.split(line)[1:])
            assert callable(args.func), line


class TestEntryPoints:
    def test_console_script_exists(self):
        exe = shutil.which("mbrforge")
        assert exe is not None
        result = subprocess.run([exe, "--help"], capture_output=True, text=True)
        assert result.returncode == 0
        assert "mbr" in result.stdout

    def test_module_invocation(self):
        result = subprocess.run(
            [sys.executable, "-m", "mbrforge.cli", "--help"],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0

    def test_demo_pipeline_runs(self, tmp_path):
        # Covers scripts/chrf_scorer.py too: the demo's last step selects
        # through it over the bridge and checks it matches native chrF.
        result = subprocess.run(
            [sys.executable, str(SCRIPTS / "demo_pipeline.py"), "--workdir", str(tmp_path)],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert result.returncode == 0, result.stderr
        assert "byte for byte" in result.stdout

    def test_cli_import_leaves_numpy_unloaded(self):
        # Each command imports the layers it runs (only avg and lora-merge
        # need checkpoint and numpy, only eval and mbr need metrics), so
        # start-up pays for none of them; records are named tuples and -v
        # prints directly, so no command loads dataclasses or logging.
        unloaded = {
            "numpy", "mbrforge.checkpoint", "mbrforge.mbr", "mbrforge.bridge",
            "mbrforge.metrics", "mbrforge.promptgen", "mbrforge.selftrain",
            "subprocess", "concurrent.futures", "dataclasses", "json", "logging",
            "shlex", "unicodedata",
        }
        result = subprocess.run(
            [
                sys.executable,
                "-c",
                f"import mbrforge.cli, sys; print(sorted({unloaded!r} & sys.modules.keys()))",
            ],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": str(SRC)},
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "[]"

    def test_native_mbr_leaves_bridge_unloaded(self, tmp_path, cand_files):
        src, a, b, c = cand_files
        code = (
            "import sys; from mbrforge import cli; rc = cli.main(sys.argv[1:]); "
            "print(rc, sorted({'mbrforge.bridge', 'subprocess', 'concurrent.futures',"
            " 'dataclasses', 'logging'} & sys.modules.keys()))"
        )
        argv = ["mbr", "--src", str(src), "--cand", str(a), "--cand", str(b),
                "--cand", str(c), "--out", str(tmp_path / "out.txt")]
        result = subprocess.run(
            [sys.executable, "-c", code, *argv],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": str(SRC)},
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "0 []"

    @pytest.mark.parametrize(
        "utility, workers, segments",
        [(utility, workers, segments) for utility in ("chrf", "external")
         for workers, segments in (("1", 2), ("2", 1), ("2", 2))],
    )
    def test_mbr_loads_multiprocessing_only_to_fan_out(
        self, tmp_path, utility, workers, segments
    ):
        # No run loads logging, concurrent.futures or dataclasses; only a
        # fan-out over two or more runs loads multiprocessing.
        src = write_lines(tmp_path / "src.txt", ["s1", "s2"][:segments])
        cands = [write_lines(tmp_path / f"{name}.txt", lines[:segments]) for name, lines in
                 (("a", ["the cat", "x"]), ("b", ["the cat", "y y"]), ("c", ["a dog", "y y"]))]
        code = (
            "import sys; from mbrforge import cli; rc = cli.main(sys.argv[1:]); "
            "print(rc, sorted({'concurrent.futures', 'dataclasses', 'logging', "
            "'multiprocessing'} & sys.modules.keys()))"
        )
        argv = ["mbr", "--src", str(src), "--out", str(tmp_path / "out.txt"),
                "--utility", utility, "--workers", workers]
        for cand in cands:
            argv += ["--cand", str(cand)]
        if utility == "external":
            scorer = shlex.join([sys.executable, str(SCRIPTS / "chrf_scorer.py")])
            argv += ["--external-cmd", scorer]
        result = subprocess.run(
            [sys.executable, "-c", code, *argv],
            capture_output=True,
            text=True,
            timeout=120,
            env={**os.environ, "PYTHONPATH": str(SRC)},
        )
        assert result.returncode == 0, result.stderr
        fans_out = workers == "2" and segments == 2
        assert result.stdout == f"0 {['multiprocessing'] if fans_out else []}\n"
        assert read_segments(tmp_path / "out.txt") == ["the cat", "y y"][:segments]

    def test_importing_mbr_loads_no_multiprocessing(self):
        code = "import sys, mbrforge.mbr; print('multiprocessing' in sys.modules)"
        result = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": str(SRC)},
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout == "False\n"

    def test_no_module_loads_dataclasses_or_logging(self):
        modules = sorted(f"mbrforge.{p.stem}" for p in (SRC / "mbrforge").glob("*.py"))
        assert "mbrforge.selftrain" in modules
        code = (
            f"import sys, {', '.join(modules)}; "
            "print(sorted({'dataclasses', 'logging'} & sys.modules.keys()))"
        )
        result = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": str(SRC)},
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "[]"

    def test_missing_subcommand_is_usage_error(self):
        with pytest.raises(SystemExit) as exc_info:
            cli.main([])
        assert exc_info.value.code == 2
