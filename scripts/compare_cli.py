"""Run the same CLI jobs under two source trees and list every difference.

    python3 scripts/compare_cli.py OLD_TREE NEW_TREE JOBS

JOBS is a text file with one job per line, split as a POSIX shell
would; blank lines and lines starting with # are skipped.  A job is the
argument list of `python3 -m qlprob`, or, when its first word ends in
.py, a script path inside the tree followed by its arguments.  Each job
runs from the current directory, once under each tree, with PYTHONPATH
set to that tree's src/.  Every job whose standard output or exit code
differs is printed; the exit code is 1 if any job differs, else 0.

An argument that holds a / and is not a pure: vector names a file: a
script inside the new tree, any other from the current directory.  If
one names no file, each such argument is printed and the exit code is 2,
before any job runs: a job whose input is missing fails alike under both
trees and would pass as unchanged.

The project's job list is scripts/cli_jobs.txt; its header says how to
write the generated inputs it reads and where to run it from.
"""

from __future__ import annotations

import os
import shlex
import subprocess
import sys
from pathlib import Path


def run(tree: Path, args: list[str]) -> tuple[int, bytes]:
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    if args[0].endswith(".py"):
        command = [sys.executable, str(tree / args[0]), *args[1:]]
    else:
        command = [sys.executable, "-m", "qlprob", *args]
    done = subprocess.run(command, env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL)
    return done.returncode, done.stdout


def missing_files(jobs: list[str], tree: Path) -> list[str]:
    missing = []
    for args in map(shlex.split, jobs):
        for k, arg in enumerate(args):
            path = tree / arg if k == 0 and arg.endswith(".py") else Path(arg)
            if "/" in arg and not arg.startswith("pure:") and not path.exists() and arg not in missing:
                missing.append(arg)
    return missing


def main(argv: list[str]) -> int:
    if len(argv) != 3:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    old, new = Path(argv[0]).resolve(), Path(argv[1]).resolve()
    jobs = [line.strip() for line in Path(argv[2]).read_text().splitlines()]
    jobs = [job for job in jobs if job and not job.startswith("#")]
    if missing := missing_files(jobs, new):
        print("\n".join(f"no such file: {arg}" for arg in missing), file=sys.stderr)
        return 2
    differing = 0
    for job in jobs:
        args = shlex.split(job)
        (old_code, old_out), (new_code, new_out) = run(old, args), run(new, args)
        if old_code != new_code or old_out != new_out:
            differing += 1
            what = [f"exit {old_code} -> {new_code}"] if old_code != new_code else []
            what += ["stdout differs"] if old_out != new_out else []
            print(f"DIFFERS: {job} ({', '.join(what)})")
    print(f"{len(jobs)} jobs, {differing} differ")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
