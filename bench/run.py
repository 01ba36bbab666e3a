"""Run one benchmark workload and print its metrics.

    python3 bench/run.py --workload ladder --seed 1 --seconds 36 --trace 0

Run from the root of a source checkout; the program is imported from
./src and nothing needs installing.  Inputs are generated from --seed
into bench/_work/ and removed afterwards.

A run repeats rounds of the workload's job list for --seconds (at
least one round; no round is started that would end past the limit)
and reports medians over rounds.  With --trace 0 each round runs every
job as a fresh CLI process, one at a time (closed loop, one client),
with four set-up probes spread between them, then the same argument
lists in this process through qlprob.cli.main with tracing off; it
reports the end-to-end metrics.  With --trace 1 each round runs the
in-process job list with every call into a qlprob module timed; it
reports the per-layer metrics.  A job's first output is checked against
computations made apart from the program; every later output of that
job, from a fresh process or from this one, must repeat it byte for
byte.  The last line of standard
output is one JSON object: correct, attempted, failed, metrics.  Per-job
times are written to bench/_results/.

Every timed process is started by bench/launch.py, which this script
starts before it loads numpy and qlprob, so that a job's peak resident
set is its own.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
SETUP_PROBES = 4          # interpreter start + `import qlprob.cli`, per round,
                          # spread evenly through the round's CLI jobs


def fail(message):
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


class Launcher:
    """The process that starts every timed command (see launch.py)."""

    def __init__(self):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(SRC)
        self.proc = subprocess.Popen([sys.executable, str(BENCH / "launch.py")], env=env,
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def run(self, argv, cwd):
        """Run argv to completion; returns (seconds, exit code, stdout, peak RSS in MB)."""
        out = cwd / "stdout.txt"
        self.proc.stdin.write(json.dumps({"argv": argv, "cwd": str(cwd), "out": str(out)}) + "\n")
        self.proc.stdin.flush()
        reply = json.loads(self.proc.stdout.readline())
        return reply["seconds"], reply["code"], out.read_text(), reply["rss_mb"]

    def close(self):
        self.proc.stdin.close()
        self.proc.wait()


def setup_seconds(launcher, cwd):
    elapsed, code, _, _ = launcher.run([sys.executable, "-c", "import qlprob.cli"], cwd)
    if code != 0:
        fail("cannot import qlprob.cli")
    return elapsed


class Outcomes:
    """Counts operations and checks outputs: in full the first time a
    job's output is seen, by byte equality with that output afterwards,
    whether it came from a fresh process or from this one."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.first = {}

    def record(self, path, job, code, text):
        key = f"{path} {job.label}"
        self.attempted += 1
        if code != job.want_code:
            self.failed += 1
            print(f"bench: {key}: exit code {code}, expected {job.want_code}", file=sys.stderr)
            return
        if job.label in self.first:
            errors = [] if self.first[job.label] == (code, text) else ["output differs from its first run"]
        else:
            self.first[job.label] = (code, text)
            errors = job.check(code, text)
        if errors:
            self.wrong += 1
            print(f"bench: {key}: {'; '.join(errors)}", file=sys.stderr)

    def crashed(self, key, err):
        self.attempted += 1
        self.failed += 1
        print(f"bench: {key}: {type(err).__name__}: {err}", file=sys.stderr)


def lib_pass(jobs, outcomes, workdir, path):
    """The job list in this process; returns per-job seconds."""
    import pipelines

    times = {}
    for job in jobs:
        start = time.perf_counter()
        try:
            code, text = pipelines.run_in_process(job.argv, job.script, workdir)
        except (Exception, SystemExit) as err:  # a failed operation, not a stop
            outcomes.crashed(f"{path} {job.label}", err)
            continue
        times[job.label] = time.perf_counter() - start
        outcomes.record(path, job, code, text)
    return times


def cli_pass(jobs, outcomes, launcher, workdir):
    """Every job as a fresh process, with the set-up probes between them;
    returns per-job seconds, set-up seconds and peak RSS."""
    times, setup, peak = {}, [], 0.0
    probe_before = {len(jobs) * k // SETUP_PROBES for k in range(SETUP_PROBES)}
    for i, job in enumerate(jobs):
        if i in probe_before:
            setup.append(setup_seconds(launcher, workdir))
        argv = [sys.executable] + (job.argv if job.script else ["-m", "qlprob"] + job.argv)
        elapsed, code, text, rss = launcher.run(argv, workdir)
        times[job.label] = elapsed
        peak = max(peak, rss)
        outcomes.record("cli", job, code, text)
    return times, setup, peak


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    launcher = Launcher()
    workdir = BENCH / "_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        try:
            import workloads  # loads numpy and qlprob, so only once the launcher runs
        except ImportError as err:
            fail(f"cannot import the program from {SRC}: {err}")
        if args.workload not in workloads.WORKLOADS:
            fail(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
        jobs = workloads.prepare(args.workload, args.seed, workdir)
        result, detail = measure(args, jobs, launcher, workdir)
    finally:
        launcher.close()
        shutil.rmtree(workdir, ignore_errors=True)
    results = BENCH / "_results"
    results.mkdir(exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({**result, "rounds": detail}, indent=1) + "\n")
    print(f"{'attempted':24s} {result['attempted']}\n{'failed':24s} {result['failed']}")
    for name, metric in result["metrics"].items():
        print(f"{name:24s} {metric['value']:.6g} {metric['unit']}")
    print(json.dumps(result))


def measure(args, jobs, launcher, workdir):
    import pipelines

    outcomes = Outcomes()
    rounds = []
    start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        if args.trace:
            with pipelines.TRACE.installed() as tracer:
                times = lib_pass(jobs, outcomes, workdir, "traced")
            rounds.append({"traced_s": sum(times.values()),
                           "busy": dict(tracer.busy), "counts": dict(tracer.counts)})
        else:
            cli_times, setup, peak = cli_pass(jobs, outcomes, launcher, workdir)
            lib_times = lib_pass(jobs, outcomes, workdir, "lib")
            rounds.append({"setup_s": setup, "peak_rss_mb": peak,
                           "cli": cli_times, "lib": lib_times})
        now = time.perf_counter()
        if now + (now - round_start) > start + args.seconds:
            break

    med = statistics.median
    if args.trace:
        metrics = {layer: {"value": med([r["busy"].get(layer, 0.0) for r in rounds]), "unit": "s"}
                   for layer in pipelines.LAYERS}
        metrics.update({name: {"value": med([r["counts"].get(name, 0) for r in rounds]),
                               "unit": "count"} for name in pipelines.COUNTS})
        metrics["lib.traced_s"] = {"value": med([r["traced_s"] for r in rounds]), "unit": "s"}
    else:
        def job_list_seconds(passes):
            """The job list's time, each job at its median over the passes."""
            return sum(med([p[job.label] for p in passes if job.label in p]) for job in jobs
                       if any(job.label in p for p in passes))

        metrics = {
            "wall_s": {"value": job_list_seconds([r["cli"] for r in rounds]), "unit": "s"},
            "lib_s": {"value": job_list_seconds([r["lib"] for r in rounds]), "unit": "s"},
            "setup_s": {"value": med([s for r in rounds for s in r["setup_s"]]), "unit": "s"},
            "peak_rss_mb": {"value": max(r["peak_rss_mb"] for r in rounds), "unit": "MB"},
        }
    result = {"correct": outcomes.wrong == 0, "attempted": outcomes.attempted,
              "failed": outcomes.failed, "metrics": metrics}
    return result, rounds


if __name__ == "__main__":
    main()
