"""The exact commands start without numpy: only `hilbert` and `cox` import
the modules that load it.  Those two commands map their modules'
exceptions to exit codes themselves, so the codes are pinned here."""

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


def test_exact_commands_leave_numpy_unloaded():
    script = "\n".join([
        "import contextlib, io, sys",
        "from qlprob.cli import main",
        f"for argv in {EXACT_JOBS!r}:",
        "    with contextlib.redirect_stdout(io.StringIO()):",
        "        assert main(argv) == 0, argv",
        "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'numpy'))",
    ])
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(SRC)), timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


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
