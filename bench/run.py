"""End-to-end and per-layer benchmark of the power-forge command line.

Usage, from the root of a checkout:

    python3 bench/run.py --workload scan-lowdeg --seed 1 --seconds 24 --trace 0

Each workload is a fixed list of CLI commands (see ``workloads.py``) run
in-process through ``power_forge.cli.main(argv)`` with ``--workers 1``.
A pass runs every command once; passes repeat until ``--seconds`` is
used up.  The reference kernel (``kernel.py``) runs immediately before
and after each timed step, and each step's time is divided by the mean
of the two, so drift in CPU speed cancels.  Every output is checked
against ``checks.py`` in a forked child process, so the checkers' memory
stays out of ``peak_rss_mb``; the checks are self-tested on corrupted
copies of the first pass's outputs before any timing.  A wrong exit code
counts as a wrong answer, except the exit code of a named fault.

--trace 0 prints the end-to-end metrics: ``setup_s`` (fresh interpreter:
import ``power_forge.cli`` and build the inputs), ``pass_ref`` (one pass
in reference-kernel units, median over passes) and ``peak_rss_mb``.
--trace 1 alternates untraced and traced passes and prints the per-layer
metrics of ``layers.py`` plus ``trace.overhead``.  The last line of
standard output is the JSON result; human-readable figures, raw seconds
included, go to standard error.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from contextlib import redirect_stderr, redirect_stdout
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

import checks  # noqa: E402
import workloads  # noqa: E402
from kernel import timed_kernel  # noqa: E402
from layers import Tracer, layer_unit  # noqa: E402

SETUP_PROBES = 7  # measured fresh interpreters per run, after one that fills __pycache__
# setup_s is given in seconds at the speed where the reference kernel takes this long
KERNEL_NOMINAL_S = 0.005


def log(message: str) -> None:
    print(message, file=sys.stderr)


class Bench:
    """Runs passes over one workload's steps and checks every output."""

    def __init__(self, cli, steps) -> None:
        self.cli = cli
        self.steps = steps
        self.ops = [op for step in steps for op in step]
        self.attempted = 0
        self.failed = 0
        self.incorrect = 0
        self.failures: dict[str, str] = {}
        self._verdicts: dict[tuple, tuple[bool, bool, str]] = {}

    def _invoke(self, op):
        out, err = io.StringIO(), io.StringIO()
        try:
            with redirect_stdout(out), redirect_stderr(err):
                code = self.cli.main(list(op.argv))
        except Exception as exc:  # an internal error fails the operation, not the run
            code = f"{type(exc).__name__}: {exc}"
        return code, out.getvalue(), err.getvalue()

    def run_pass(self, self_test: bool = False) -> dict:
        """One pass; returns raw and calibrated time per step, then checks the outputs."""
        for op in self.ops:
            if op.out and os.path.exists(op.out):
                os.remove(op.out)
        results, raw, ref, kernels = [], [], [], []
        k_prev = timed_kernel()
        for step in self.steps:
            t0 = perf_counter()
            outs = [self._invoke(op) for op in step]
            dt = perf_counter() - t0
            k_next = timed_kernel()
            raw.append(dt)
            ref.append(dt / ((k_prev + k_next) / 2))
            kernels.append(k_next)
            k_prev = k_next
            results.extend(outs)
        self._tally(results, self_test)
        return {"raw": raw, "ref": ref, "kernel": kernels}

    def _tally(self, results, self_test: bool) -> None:
        """Judge each outcome, in a child process for outputs not judged before.

        The child parses and checks the documents, so the checkers' memory
        stays out of this process's ``ru_maxrss``; only a digest of each
        output is kept here.
        """
        keys = [(i, code, _digest(op, out))
                for i, (op, (code, out, _)) in enumerate(zip(self.ops, results))]
        todo = [(i, results[i]) for i, key in enumerate(keys) if key not in self._verdicts]
        if todo or self_test:
            report = in_child(lambda: _judge_all(self.ops, todo, self_test))
            for i, failed, incorrect, why in report["verdicts"]:
                self._verdicts[keys[i]] = (failed, incorrect, why)
            if not report["self_test_ok"]:
                raise SelfTestFailed
        for op, key in zip(self.ops, keys):
            failed, incorrect, why = self._verdicts[key]
            self.attempted += 1
            self.failed += failed
            self.incorrect += incorrect
            if failed:
                self.failures[op.name] = why


class SelfTestFailed(Exception):
    """A checker accepted a corrupted output."""


def _digest(op, out: str) -> bytes:
    """SHA-1 of the operation's document, streamed from its file if it has one."""
    sha = hashlib.sha1()
    if not op.out:
        sha.update(out.encode())
        return sha.digest()
    try:
        with open(op.out, "rb") as fh:
            for chunk in iter(lambda: fh.read(1 << 20), b""):
                sha.update(chunk)
    except OSError:
        sha.update(b"no file")
    return sha.digest()


def _document(op, out: str) -> dict:
    if op.out:
        with open(op.out, "rb") as fh:
            return json.loads(fh.read())
    return json.loads(out)


def _judge(op, code, out: str, err: str) -> tuple[bool, bool, str]:
    """(failed, incorrect, why) for one outcome.

    A wrong exit code is a wrong answer too (a verify that finds an extra
    power exits 1, a power query answered wrongly swaps 0 and 1), unless
    it is the exit code of the operation's named fault.
    """
    try:
        op.check(_document(op, out))
        problem = None
    except Exception as exc:  # a malformed document fails its check
        problem = f"{type(exc).__name__}: {exc}"
    if code == op.expect:
        return problem is not None, problem is not None, f"check failed: {problem}"
    why = f"exit {code}, expected {op.expect}: {err.strip()[:300]}"
    if code == op.known_fault:
        return True, False, why
    return True, True, f"{why}; check: {problem or 'passed'}"


def _judge_all(ops, todo, self_test: bool) -> dict:
    verdicts = []
    ok, tried, judged = True, 0, 0
    for i, (code, out, err) in todo:
        op = ops[i]
        failed, incorrect, why = _judge(op, code, out, err)
        verdicts.append((i, failed, incorrect, why))
        if self_test and not failed:
            judged += 1
            for bad in checks.corrupted(_document(op, out)):
                tried += 1
                if not checks.rejects(op.check, bad):
                    log(f"self-test: the check of {op.name!r} accepted a corrupted output")
                    ok = False
    if self_test:
        log(f"self-test: {tried} corrupted copies of {judged} outputs that passed "
            f"their checks, {'all rejected' if ok else 'SOME ACCEPTED'}")
    return {"verdicts": verdicts, "self_test_ok": ok}


def in_child(fn):
    """fn() in a forked child process; its result must be JSON-serialisable."""
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        status = 1
        try:
            os.close(read_fd)
            with os.fdopen(write_fd, "wb") as fh:
                fh.write(json.dumps(fn()).encode())
            status = 0
        except BaseException:
            traceback.print_exc()
        finally:
            os._exit(status)
    os.close(write_fd)
    with os.fdopen(read_fd, "rb") as fh:
        data = fh.read()
    _, status = os.waitpid(pid, 0)
    if os.waitstatus_to_exitcode(status) != 0:
        raise RuntimeError("the child process that checks the outputs failed")
    return json.loads(data)


def timed_passes(run_one, seconds: float) -> list:
    """Repeat whole passes while the next one still fits in the time budget."""
    results, durations = [], []
    start = perf_counter()
    while True:
        t0 = perf_counter()
        results.append(run_one())
        durations.append(perf_counter() - t0)
        if perf_counter() - start + statistics.median(durations) > seconds:
            return results


def probe_setup(args, workdir: str) -> list[dict]:
    cmd = [sys.executable, os.path.join(HERE, "setup_probe.py"),
           args.workload, str(args.seed), workdir]
    samples = []
    for i in range(SETUP_PROBES + 1):
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"setup probe failed: {proc.stderr.strip()[-500:]}")
        if i:
            samples.append(json.loads(proc.stdout.splitlines()[-1]))
    return samples


def summarize(bench: Bench, passes: list[dict], label: str) -> None:
    log(f"{label}: {len(passes)} passes")
    for s, step in enumerate(bench.steps):
        name = step[0].name if len(step) == 1 else f"{len(step)} x {step[0].name.split()[0]}"
        raw = statistics.median(p["raw"][s] for p in passes)
        ref = statistics.median(p["ref"][s] for p in passes)
        log(f"  {raw * 1e3:9.1f} ms {ref:9.2f} ref  {name}")
    kern = statistics.median(k for p in passes for k in p["kernel"])
    log(f"  pass: {statistics.median(sum(p['raw']) for p in passes):.4f} s raw, "
        f"{statistics.median(sum(p['ref']) for p in passes):.3f} ref; "
        f"reference kernel {kern * 1e3:.3f} ms")


def end_to_end(args, bench: Bench, setup: list[dict]) -> dict:
    passes = timed_passes(bench.run_pass, args.seconds)
    summarize(bench, passes, "untraced")
    setup_raw = statistics.median(s["raw_s"] for s in setup)
    setup_s = statistics.median(s["raw_s"] / s["kernel_s"] for s in setup) * KERNEL_NOMINAL_S
    log(f"  setup: {setup_raw:.4f} s raw, {setup_s:.4f} s at nominal kernel speed "
        f"(median of {len(setup)} fresh interpreters)")
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return {
        "setup_s": {"value": setup_s, "unit": "s"},
        "pass_ref": {"value": statistics.median(sum(p["ref"]) for p in passes), "unit": "ref"},
        "peak_rss_mb": {"value": rss, "unit": "MB"},
    }


def per_layer(args, bench: Bench) -> dict:
    tracer = Tracer()
    plain, traced, layers = [], [], []

    def pair():
        plain.append(bench.run_pass())
        tracer.reset()
        tracer.install()
        try:
            traced.append(bench.run_pass())
        finally:
            tracer.remove()
        layers.append(tracer.pass_metrics())

    timed_passes(pair, args.seconds)
    summarize(bench, traced, "traced")
    metrics = {}
    for name in layers[0]:
        values = [m[name] for m in layers]
        if name.endswith("_s"):
            value = statistics.median(values)
        else:  # counts, and ratios of counts, repeat exactly from pass to pass
            value = values[0]
            if len(set(values)) != 1:
                log(f"  warning: {name} differs between passes: {sorted(set(values))[:4]}")
        metrics[name] = {"value": value, "unit": layer_unit(name)}
    overhead = (statistics.median(sum(p["ref"]) for p in traced)
                / statistics.median(sum(p["ref"]) for p in plain))
    log(f"  tracing overhead: traced pass / untraced pass = {overhead:.3f}")
    metrics["trace.overhead"] = {"value": overhead, "unit": layer_unit("trace.overhead")}
    return metrics


def measure(args, workdir: str) -> int:
    setup = [] if args.trace else probe_setup(args, workdir)
    sys.path.insert(0, SRC)
    import power_forge.cli as cli

    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        log(f"bench: power_forge was imported from {cli.__file__}, not from {SRC}")
        return 1
    bench = Bench(cli, workloads.build(args.workload, args.seed, workdir))
    try:  # warm-up: fills lazy caches; its outputs feed the checkers' self-test
        bench.run_pass(self_test=True)
    except SelfTestFailed:
        return 3
    metrics = per_layer(args, bench) if args.trace else end_to_end(args, bench, setup)
    for name, why in sorted(bench.failures.items()):
        log(f"  FAILED {name}: {why}")
    print(json.dumps({
        "correct": bench.incorrect == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": metrics,
    }))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=24)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "power_forge", "cli.py")):
        log(f"bench: no power_forge sources under {SRC}; run from the root of a checkout")
        return 1
    workdir = os.path.join(HERE, "_work", f"run-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        return measure(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
