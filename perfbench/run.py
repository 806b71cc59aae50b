"""Benchmark of the greenseq command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

With --trace 0 each CLI call of the workload runs in a fresh process that
imports greenseq from this checkout's src/; rounds of the calls repeat
until S seconds of calls have been measured, and at least twice unless a
round makes some call twice, so that every run compares a repeat.  With
--trace 1 one round runs in this process under the tracer (tracing.py),
and the spans go to perfbench/out/.  Every output is checked.  The last
line of stdout is one JSON object: correct, attempted, failed and
metrics.  Exit code 0 when the run completed, 2 when it could not start
(no greenseq source here, or greenseq imported from elsewhere).
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
from contextlib import redirect_stdout
from pathlib import Path

from checks import chain_count, check_lattice_size
from workloads import WORKLOADS, Call, Workload, build, check_output

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
# Set-up is probed in whole rounds over the workload's (algebra, field)
# pairs: at least SETUP_ROUNDS rounds, and more until the probes have run
# for SETUP_SECONDS, so that cheap set-ups get enough samples for a
# steady median.
SETUP_ROUNDS = 3
SETUP_SECONDS = 2.0
SETUP_TIMEOUT = 60.0

# Set-up as every command does it: import, load the algebra file, build
# ModuleCategory and GreenEngine.  Prints greenseq's location and the
# set-up's CPU time: set-up is single-threaded computation, and its wall
# time on a shared machine also counts the time other tenants hold the CPU.
SETUP_PROBE = """
import json, sys, time
start = time.process_time()
import greenseq
from greenseq import cli
cat = greenseq.ModuleCategory(cli.load_algebra(sys.argv[1]), exact=sys.argv[2] == "1")
greenseq.GreenEngine(cat)
print(json.dumps({"file": greenseq.__file__,
                  "seconds": time.process_time() - start}))
"""


class Abort(Exception):
    """The run cannot measure this checkout's greenseq."""


def _inside_src(path: str) -> bool:
    return Path(path).resolve().is_relative_to(SRC.resolve())


def import_greenseq():
    """Import greenseq from this checkout's src/, or abort."""
    if not (SRC / "greenseq" / "__init__.py").is_file():
        raise Abort(f"no greenseq source under {SRC}")
    sys.path.insert(0, str(SRC))
    import greenseq

    if not _inside_src(greenseq.__file__):
        raise Abort(f"greenseq imported from {greenseq.__file__}, outside {SRC}")
    return greenseq


def lattice_oracle(greenseq, wl: Workload) -> tuple[dict[str, int], list[str]]:
    """Sequence counts from the benchmark's own chain count over each
    oracle algebra's torsion lattice, and any problems with the lattice."""
    sequences, problems = {}, []
    for name in wl.oracle:
        alg = wl.algebra(name)
        cat = greenseq.ModuleCategory(greenseq.AlgebraSpec.from_dict(alg.spec))
        lattice = cat.torsion_lattice()
        problems += check_lattice_size(len(lattice.classes), alg.n)
        sequences[name] = chain_count(lattice.covers, lattice.top, lattice.bottom)
    return sequences, problems


def run_child(argv: list[str], cwd: Path, timeout: float):
    """Run `python argv` with greenseq on the path; return (exit code or
    None on timeout, stdout bytes, wall seconds, resource usage)."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out_path = cwd / "stdout"
    with open(out_path, "wb") as out, open(cwd / "stderr", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *argv], stdout=out,
                                stderr=err, cwd=cwd, env=env)
        killed = threading.Event()
        timer = threading.Timer(timeout, lambda: (killed.set(), proc.kill()))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # interrupted: leave no child running
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
    return (None if killed.is_set() else proc.returncode,
            out_path.read_bytes(), wall, usage)


class Judge:
    """Checks each call's output and keeps the tallies of one run."""

    def __init__(self, wl: Workload, sequences: dict[str, int]):
        self.wl = wl
        self.sequences = sequences
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.digests: dict[str, str] = {}

    def fail(self, what: str, problems: list[str], wrong: bool) -> None:
        self.failed += 1
        self.correct = self.correct and not wrong
        print(f"FAILED {what}: {'; '.join(problems)}", file=sys.stderr)

    def call(self, call: Call, code, stdout: bytes, earlier: dict,
             raw: dict) -> None:
        """Judge one call; `earlier` and `raw` hold this round's parsed
        reports and stdout bytes by call label, and are updated."""
        self.attempted += 1
        if code != 0:
            self.fail(call.label, [f"exit code {code}" if code is not None
                                   else "timed out"], wrong=False)
            return
        try:
            out = json.loads(stdout)
        except ValueError as exc:
            self.fail(call.label, [f"stdout is not JSON: {exc}"], wrong=True)
            return
        problems = check_output(call, self.wl.algebra(call.algebra), out,
                                earlier, self.sequences)
        if problems is None:
            self.fail(call.label, ["an earlier call of this round failed, so "
                                   "there is nothing to compare with"], wrong=False)
            return
        digest = hashlib.sha256(stdout).hexdigest()
        if self.digests.setdefault(call.label, digest) != digest:
            problems.append("stdout differs from an earlier identical call")
        # --exact must not change any report
        plain = Call(call.algebra, call.command, call.options).label
        if call.flags == ("--exact",) and raw.get(plain, stdout) != stdout:
            problems.append("--exact output differs from the default output")
        earlier[call.label] = out
        raw[call.label] = stdout
        if problems:
            self.fail(call.label, problems, wrong=True)


def measure_setup(wl: Workload, run_dir: Path, judge: Judge) -> float:
    """Sum over the workload's (algebra, field) pairs of the median of
    their fresh-process set-up times."""
    times: dict[tuple[str, bool], list[float]] = {s: [] for s in wl.setups}
    rounds, spent = 0, 0.0
    while rounds < SETUP_ROUNDS or spent < SETUP_SECONDS:
        rounds += 1
        for name, exact in wl.setups:
            judge.attempted += 1
            code, stdout, wall, _ = run_child(
                ["-c", SETUP_PROBE, str(run_dir / f"{name}.json"),
                 "1" if exact else "0"], run_dir, SETUP_TIMEOUT)
            spent += wall
            if code != 0:
                judge.fail(f"set-up {name}", [f"exit code {code}"], wrong=False)
                continue
            probe = json.loads(stdout)
            if not _inside_src(probe["file"]):
                raise Abort(f"child imported greenseq from {probe['file']}")
            times[(name, exact)].append(probe["seconds"])
    return sum(statistics.median(t) for t in times.values() if t)


def measure(wl: Workload, judge: Judge, run_dir: Path, seconds: float) -> dict:
    setup_s = measure_setup(wl, run_dir, judge)
    walls, cpus, rsss = [], [], []
    # every run compares some call with a repeat of it
    rounds = 1 if wl.repeats_a_call else 2
    while len(walls) < rounds or sum(walls) < seconds:
        earlier, raw = {}, {}
        wall = cpu = rss = 0.0
        for call in wl.calls:
            argv = ["-m", "greenseq", *call.argv(str(run_dir / f"{call.algebra}.json"))]
            code, stdout, t, usage = run_child(argv, run_dir, call.timeout)
            wall += t
            cpu += usage.ru_utime + usage.ru_stime
            rss = max(rss, usage.ru_maxrss / 1024)  # ru_maxrss is in KiB
            judge.call(call, code, stdout, earlier, raw)
        walls.append(wall)
        cpus.append(cpu)
        rsss.append(rss)
    return {
        "wall_s": (statistics.median(walls), "s"),
        "cpu_s": (statistics.median(cpus), "s"),
        "peak_rss_mb": (statistics.median(rsss), "MB"),
        "setup_s": (setup_s, "s"),
    }


def traced(greenseq, wl: Workload, judge: Judge, run_dir: Path,
           trace_path: Path) -> dict:
    """One round in this process under the tracer; spans to trace_path."""
    from greenseq import cli

    from tracing import Tracer

    tracer = Tracer()
    tracer.install()
    for name, exact in wl.setups:
        span = tracer.open("setup")
        cat = greenseq.ModuleCategory(
            cli.load_algebra(str(run_dir / f"{name}.json")), exact=exact)
        greenseq.GreenEngine(cat)
        tracer.close(span)
    earlier, raw = {}, {}
    for call in wl.calls:
        buf = io.StringIO()
        try:
            with redirect_stdout(buf):
                code = cli.main(call.argv(str(run_dir / f"{call.algebra}.json")))
        except Exception:  # a crash is one failed call, not a lost run
            traceback.print_exc()
            code = 1
        stdout = buf.getvalue().encode()
        tracer.counts["cli.stdout_bytes"] += len(stdout)
        judge.call(call, code, stdout, earlier, raw)
    trace_path.write_text(json.dumps({"spans": tracer.spans}, indent=1) + "\n")
    return tracer.layer_metrics()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    wl = build(args.workload, args.seed)
    run_dir = OUT / f"run-{args.workload}-{args.seed}-{os.getpid()}"
    try:
        greenseq = import_greenseq()
        run_dir.mkdir(parents=True)
        for alg in wl.algebras:
            (run_dir / f"{alg.name}.json").write_text(json.dumps(alg.spec) + "\n")
        sequences, problems = lattice_oracle(greenseq, wl)
        judge = Judge(wl, sequences)
        if problems:
            judge.correct = False
            print(f"lattice oracle: {'; '.join(problems)}", file=sys.stderr)
        if args.trace:
            trace_path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
            metrics = traced(greenseq, wl, judge, run_dir, trace_path)
        else:
            metrics = measure(wl, judge, run_dir, args.seconds)
    except Abort as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    print(json.dumps({
        "correct": judge.correct,
        "attempted": judge.attempted,
        "failed": judge.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
