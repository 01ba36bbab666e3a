"""Every command but `hilbert` starts and runs without numpy: only
`hilbert` imports the module that loads it.  `hilbert` and `cox` map
their modules' exceptions to exit codes themselves, so the codes are
pinned here."""

import json
import os
import subprocess
import sys
from pathlib import Path

from qlprob import hilbert
from qlprob.cli import main
from tests.conftest import DATA

SRC = Path(__file__).resolve().parent.parent / "src"

EXACT_JOBS = [
    ["classify", "l12"],
    ["states", "l12", "relations"],
    ["states", "l12", "extremes"],
    ["states", "l12", "find"],
    ["check", "l12", str(DATA / "l12_quarter.val")],
]


def numpy_modules_after(jobs) -> str:
    """The numpy modules loaded after running the jobs, each expected to
    exit 0, through qlprob.cli.main in a fresh interpreter."""
    script = "\n".join([
        "import contextlib, io, sys",
        "from qlprob.cli import main",
        f"for argv in {jobs!r}:",
        "    with contextlib.redirect_stdout(io.StringIO()):",
        "        assert main(argv) == 0, argv",
        "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'numpy'))",
    ])
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(SRC)), timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout.strip()


def test_exact_commands_leave_numpy_unloaded():
    assert numpy_modules_after(EXACT_JOBS) == "[]"


def test_cox_commands_leave_numpy_unloaded(tmp_path):
    unary = tmp_path / "one-minus.csv"
    unary.write_text("".join(f"{k / 8},{1 - k / 8}\n" for k in range(9)))
    binary = tmp_path / "sumprod.csv"
    grid = [k / 8 for k in range(9)]
    binary.write_text("".join(f"{x},{y},{x + y + x * y}\n" for x in grid for y in grid))
    jobs = [["cox", "sumprod", "assoc"], ["cox", "sumprod", "regraduate"],
            ["cox", "one-minus", "involution"], ["cox", str(unary), "involution"],
            ["cox", str(binary), "regraduate"]]
    assert numpy_modules_after(jobs) == "[]"


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    return code, json.loads(capsys.readouterr().out)


def test_dimension_mismatch_exits_2(capsys, tmp_path):
    seeds = tmp_path / "mixed.json"
    seeds.write_text("[[1, 0], [0, 1, 0]]")
    code, doc = run(capsys, "hilbert", seeds)
    assert (code, doc["kind"]) == (2, "DimensionMismatch")


def test_numerical_breakdown_exits_1(capsys, tmp_path, monkeypatch):
    def breakdown(seeds, cap):
        raise hilbert.NumericalBreakdown("subspace inclusion order is not transitive")

    monkeypatch.setattr(hilbert, "generate_sublattice", breakdown)
    seeds = tmp_path / "d2.json"
    seeds.write_text("[[1, 0], [0, 1]]")
    code, doc = run(capsys, "hilbert", seeds)
    assert (code, doc["kind"]) == (1, "NumericalBreakdown")
    assert doc["error"] == "subspace inclusion order is not transitive"


def test_domain_escape_exits_1(capsys, tmp_path):
    rule = tmp_path / "double.csv"
    rule.write_text("0,0\n0.5,1\n1,2\n")  # x -> 2x leaves [0, 1]
    code, doc = run(capsys, "cox", rule, "involution")
    assert (code, doc["kind"]) == (1, "DomainEscape")


def test_too_many_skips_exits_1(capsys, tmp_path):
    rule = tmp_path / "sum.csv"
    grid = [k / 4 for k in range(5)]
    rule.write_text("".join(f"{x},{y},{x + y}\n" for x in grid for y in grid))
    code, doc = run(capsys, "cox", rule, "assoc")
    assert (code, doc["kind"]) == (1, "TooManySkips")
