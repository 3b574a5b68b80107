"""Layered benchmark for mbrforge.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program under test is
``src/mbrforge`` of that checkout and the oracles are ``tests/oracles.py``.
Inputs are generated from ``--seed`` (see workloads.py); the program sees
only the generated files.

Each workload runs as a closed loop: one CLI invocation at a time, each a
fresh ``python`` process calling ``mbrforge.cli.main(argv)``, until
``--seconds`` would be exceeded (at least MIN_INVOCATIONS).  Wall time,
user+sys CPU and peak RSS come from ``wait4`` and include reaped scorer
children.  Every output is checked against the oracles (check.py); the
default seed's outputs must also match the digest in digests.json, and
every invocation must reproduce the first one's bytes.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` repeats the
untraced loop, then runs the workload once more with spans around every
layer's public functions (child.py), runs every other workload cut down
to a probe so that each layer is reached, and sweeps the metric kernels,
the bridge and the executor directly (layers.py).  It reports the
per-layer metrics.  The last line of stdout is one JSON object.

``--workload all`` runs every workload in turn and prints each one's
table.  ``--record-digests`` stores the default seed's output digests.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
import uuid
from pathlib import Path

HERE = Path(__file__).resolve().parent
DEFAULT_SEED = 1
MIN_INVOCATIONS = 3
SETUP_REPEATS = 5
STEP_TIMEOUT = 120  # seconds before a hung child is killed and counted as failed
CLI = "import sys; from mbrforge.cli import main; sys.exit(main(sys.argv[1:]))"
DIGESTS = HERE / "digests.json"
UNAVAILABLE = {
    "bridge.restarts": "the program exposes no restart counter",
    "bridge.timeouts": "the program exposes no timeout counter",
}


def _fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


class Runner:
    """Runs one workload's steps as child processes and checks the outputs."""

    def __init__(self, workload, seed: int, work: Path, expected_digest: str | None):
        from workloads import generate, steps

        self.workload = workload
        self.data, self.out = work / "data", work / "out"
        self.stderr = work / "stderr.txt"
        self.spans_dir = work / "spans"
        generate(workload, seed, self.data)
        self.steps = steps(workload, self.data, self.out, HERE / "scorer.py")
        self.expected_digest = expected_digest
        self.verified: dict[str, list[str]] = {}  # digest -> check errors
        self.first_digest: str | None = None
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.corrupt = None  # selftest.py: damages the outputs before they are checked

    def spawn(self, cmd: list[str], stdout_name: str | None) -> tuple[int, float, float, float]:
        """(exit code, wall s, user+sys s, max RSS MB) of one child."""
        stdout = open(self.out / stdout_name, "wb") if stdout_name else subprocess.DEVNULL
        try:
            with open(self.stderr, "ab") as err:
                start = time.perf_counter()
                proc = subprocess.Popen(cmd, stdout=stdout, stderr=err)
                watchdog = threading.Timer(STEP_TIMEOUT, proc.kill)
                watchdog.start()
                try:
                    _pid, status, usage = os.wait4(proc.pid, 0)
                    wall = time.perf_counter() - start
                except BaseException:  # interrupted: leave no child behind
                    proc.kill()
                    proc.wait()
                    raise
                finally:
                    watchdog.cancel()
            proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            if stdout_name:
                stdout.close()
        return proc.returncode, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024

    def invoke(self, traced: str | None = None) -> dict:
        """One invocation of every step; ``traced`` is the run id for spans."""
        if self.out.exists():
            shutil.rmtree(self.out)
        self.out.mkdir(parents=True)
        self.attempted += 1
        sample = {"wall": 0.0, "steps": [], "ok": True}  # steps: (wall s, cpu s, RSS MB)
        for k, step in enumerate(self.steps):
            if traced:
                self.spans_dir.mkdir(exist_ok=True)
                spans = self.spans_dir / f"{len(list(self.spans_dir.iterdir())):04d}.json"
                cmd = [sys.executable, str(HERE / "child.py"), "trace", str(spans), traced,
                       self.workload.name, "--", *step["argv"]]
            else:
                cmd = [sys.executable, "-c", CLI, *step["argv"]]
            code, wall, cpu, rss = self.spawn(cmd, step["stdout"])
            sample["wall"] += wall
            sample["steps"].append((wall, cpu, rss))
            if code != 0:
                tail = self.stderr.read_text(errors="replace").strip().splitlines()[-1:]
                self.errors.append(f"step {k} ({step['argv'][0]}) exited with {code}: {tail}")
                sample["ok"] = False
                break
        else:
            if self.corrupt is not None:
                self.corrupt(self.out)
            sample["ok"] = self.verify()
        self.failed += not sample["ok"]
        return sample

    def verify(self) -> bool:
        from check import check, digest

        got = digest(self.out)
        if got not in self.verified:
            errors = check(self.workload, self.data, self.out)
            if self.expected_digest is not None and got != self.expected_digest:
                errors.append(f"output digest {got} differs from the recorded {self.expected_digest}")
            self.verified[got] = errors
            self.errors += errors
        if self.first_digest is None:
            self.first_digest = got
        elif got != self.first_digest:
            self.errors.append("output differs from the first invocation's")
            return False
        return not self.verified[got]

    def loop(self, seconds: float) -> list[dict]:
        """Closed loop: invoke until the next invocation would overrun ``seconds``."""
        samples: list[dict] = []
        start = time.perf_counter()
        while len(samples) < MIN_INVOCATIONS or (
            time.perf_counter() - start + statistics.median(s["wall"] for s in samples) <= seconds
        ):
            samples.append(self.invoke())
        return samples

    def spans(self) -> list[dict]:
        spans = []
        for path in sorted(self.spans_dir.iterdir()):
            spans += json.loads(path.read_text(encoding="utf-8"))
        return spans


def setup_seconds(runner: Runner) -> list[float]:
    cmd = [sys.executable, str(HERE / "child.py"), "setup", runner.workload.name, str(runner.data)]
    times = []
    for _ in range(SETUP_REPEATS):
        code, wall, _cpu, _rss = runner.spawn(cmd, None)
        if code != 0:
            runner.errors.append(f"set-up child exited with {code}")
        times.append(wall)
    return times


def end_to_end(runner: Runner, samples: list[dict], setup: list[float]) -> dict:
    """Each step's median over the invocations, summed (RSS: maxed) over the steps.

    For a one-step workload this is the plain median.  For eval-build's
    twelve steps it keeps a stall in one step of one invocation from
    moving the result.
    """
    medians = []
    for k in range(len(runner.steps)):
        runs = [s["steps"][k] for s in samples if len(s["steps"]) > k]
        if runs:
            medians.append([statistics.median(column) for column in zip(*runs)])
    wall = sum(m[0] for m in medians)
    eval_wall = sum(m[0] for m, step in zip(medians, runner.steps) if step["argv"][0] == "eval")
    timed = wall if runner.workload.kind == "mbr" else eval_wall
    return {
        "wall_s": (wall, "s"),
        "cpu_s": (sum(m[1] for m in medians), "s"),
        "pairs_per_s": (runner.workload.pairs_per_invocation() / timed, "1/s"),
        "peak_rss_mb": (max(m[2] for m in medians), "MB"),
        "setup_s": (statistics.median(setup), "s"),
    }


def per_layer(runner: Runner, samples: list[dict], seed: int, work: Path) -> dict:
    import layers
    from workloads import WORKLOADS

    run_id = uuid.uuid4().hex
    traced = runner.invoke(traced=run_id)
    all_spans = runner.spans()
    sources = [layers.span_metrics(all_spans)]
    executor_data = runner.data if runner.workload.kind == "mbr" else None
    executor_workload = runner.workload
    for name, other in WORKLOADS.items():
        if name == runner.workload.name:
            continue
        probe = Runner(other.probe(max(2, other.shape.segments // 8)), seed,
                       work / f"probe-{name}", None)
        probe.invoke(traced=run_id)
        runner.attempted += probe.attempted
        runner.failed += probe.failed
        runner.errors += [f"probe {name}: {e}" for e in probe.errors]
        probe_spans = probe.spans()
        sources.append(layers.span_metrics(probe_spans))
        all_spans = all_spans + probe_spans
        if executor_data is None and other.kind == "mbr":
            executor_data, executor_workload = probe.data, probe.workload
    merged: dict = {}
    for source in reversed(sources):  # the workload's own spans win
        merged.update(source)
    merged.update(layers.kernel_sweep(runner.workload, seed))
    bridge, errors = layers.bridge_sweep(runner.workload, seed)
    executor, more = layers.executor_sweep(executor_workload, executor_data)
    runner.errors += errors + more
    merged.update(bridge)
    merged.update(executor)
    untraced = statistics.median(s["wall"] for s in samples)
    merged["trace.overhead_ratio"] = (traced["wall"] / untraced, "ratio")
    spans_out = work.parent / f"spans-{runner.workload.name}-{seed}.json"
    spans_out.write_text(json.dumps(all_spans), encoding="utf-8")
    return merged


def run_workload(workload, seed: int, seconds: float, trace: bool, work: Path,
                 recording: bool) -> dict:
    recorded = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
    expected = None
    if seed == DEFAULT_SEED and not recording:
        expected = recorded.get(workload.name, "(none recorded)")
    runner = Runner(workload, seed, work, expected)
    setup = [] if trace else setup_seconds(runner)
    samples = runner.loop(seconds)
    if trace:
        metrics = per_layer(runner, samples, seed, work)
    else:
        metrics = end_to_end(runner, samples, setup)
    return {
        "workload": workload.name,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "errors": runner.errors,
        "metrics": metrics,
        "samples": len(samples),
        "digest": runner.first_digest,
    }


def report(result: dict, trace: bool, order: list[str]) -> None:
    source = ("one traced invocation, probes and sweeps" if trace else
              f"medians of {result['samples']} invocations; setup_s of {SETUP_REPEATS}")
    print(f"== {result['workload']}  (closed loop, 1 client; {source})")
    rank = {name: k for k, name in enumerate(order)}
    for name, (value, unit) in sorted(result["metrics"].items(), key=lambda m: rank.get(m[0], -1)):
        print(f"  {name:36s} {value:14.6g} {unit}")
    ratio = result["failed"] / result["attempted"]
    print(f"  {'fail_ratio':36s} {ratio:14.6g} ratio ({result['failed']} of "
          f"{result['attempted']} invocations)")
    if trace:
        for name, reason in UNAVAILABLE.items():
            print(f"  {name:36s} {'unavailable':>14s} ({reason})")
    for error in result["errors"][:20]:
        print(f"  ERROR {error}")


def main(argv: list[str] | None = None) -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-digests", action="store_true",
                        help="store the default seed's output digests in digests.json")
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))  # run the cleanup below
    if args.record_digests and (args.seed != DEFAULT_SEED or args.trace):
        return _fail("--record-digests needs the default seed and --trace 0")

    root = Path.cwd()
    if not (root / "src" / "mbrforge" / "cli.py").is_file():
        return _fail("run from a source checkout: src/mbrforge/cli.py not found")
    if not (root / "tests" / "oracles.py").is_file():
        return _fail("run from a source checkout: tests/oracles.py not found")
    declared = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    sys.path[:0] = [str(root / "src"), str(root / "tests")]
    os.environ["PYTHONPATH"] = str(root / "src")
    os.environ.pop("MBRFORGE_WORKERS", None)

    import numpy

    print(f"machine: nproc {os.cpu_count()}, Python {platform.python_version()}, "
          f"numpy {numpy.__version__}, {platform.machine()} {platform.system()} {platform.release()}")
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    wanted = [m["name"] for m in declared["per_layer" if args.trace else "end_to_end"]]
    work_root = root / ".perfbench"
    results = []
    for name in names:
        work = work_root / f"{name}-{args.seed}-{os.getpid()}"
        try:
            results.append(run_workload(WORKLOADS[name], args.seed, args.seconds,
                                        bool(args.trace), work, args.record_digests))
        finally:
            shutil.rmtree(work, ignore_errors=True)
        report(results[-1], bool(args.trace), wanted)

    for result in results:
        if sorted(result["metrics"]) != sorted(wanted):
            missing = sorted(set(wanted) ^ set(result["metrics"]))
            return _fail(f"{result['workload']}: metrics differ from BENCHMARK.json: {missing}")

    if args.record_digests:
        if any(r["errors"] for r in results):
            return _fail("outputs failed their checks; digests not recorded")
        recorded = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
        recorded.update({r["workload"]: r["digest"] for r in results})
        DIGESTS.write_text(json.dumps(recorded, indent=2, sort_keys=True) + "\n")

    metrics = {}
    for result in results:
        prefix = "" if len(results) == 1 else f"{result['workload']}."
        for name, (value, unit) in result["metrics"].items():
            metrics[prefix + name] = {"value": value, "unit": unit}
    failed = sum(r["failed"] for r in results)
    print(json.dumps({
        "correct": failed == 0 and not any(r["errors"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
