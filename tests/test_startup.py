"""What each command loads: `import qlprob.cli` loads no command's
modules, `hilbert` alone loads numpy and loads qlprob's own modules
first, and no command loads `dataclasses`.  main maps the commands'
exceptions to exit codes by family, core.Refusal to 1 and malformed
input to 2, so the families and the codes are pinned here."""

import json
import os
import subprocess
import sys
from pathlib import Path

from qlprob import funceq, hilbert, states
from qlprob.cli import main
from qlprob.core import CapExceeded, LatticeError, Refusal
from tests.conftest import DATA

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WATCHED = ("qlprob.states", "qlprob.classify", "qlprob.builders", "dataclasses", "numpy")

EXACT_JOBS = [
    ["classify", "l12"],
    ["states", "l12", "relations"],
    ["states", "l12", "extremes"],
    ["states", "l12", "find"],
    ["check", "l12", str(DATA / "l12_quarter.val")],
]


def modules_after(jobs) -> list[str]:
    """The WATCHED modules loaded, in the order they were first
    imported, after running the jobs, each expected to exit 0, through
    qlprob.cli.main in a fresh interpreter."""
    script = "\n".join([
        "import contextlib, io, json, sys",
        "from qlprob.cli import main",
        f"for argv in {jobs!r}:",
        "    with contextlib.redirect_stdout(io.StringIO()):",
        "        assert main(argv) == 0, argv",
        f"print(json.dumps([m for m in sys.modules if m in {WATCHED!r}]))",
    ])
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(SRC)), timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def test_cli_import_loads_no_command_module():
    assert modules_after([]) == []


def test_exact_commands_leave_numpy_unloaded():
    loaded = modules_after(EXACT_JOBS)
    assert "numpy" not in loaded and "dataclasses" not in loaded


def test_classify_leaves_states_unloaded():
    loaded = modules_after([["classify", "l12"], ["classify", str(DATA / "o6.lat"), "--dot"]])
    assert "qlprob.states" not in loaded and "dataclasses" not in loaded


def test_hilbert_loads_qlprob_modules_before_numpy(tmp_path):
    """qlprob modules compiled after numpy raise the peak resident set."""
    seeds = tmp_path / "d2.json"
    seeds.write_text("[[1, 0], [0.6, 0.8]]")
    loaded = modules_after([["hilbert", str(seeds), "--rho", "random", "--scan", "subadd"]])
    assert loaded.index("qlprob.states") < loaded.index("numpy")
    assert loaded.index("qlprob.classify") < loaded.index("numpy")


def test_cox_commands_leave_numpy_unloaded(tmp_path):
    unary = tmp_path / "one-minus.csv"
    unary.write_text("".join(f"{k / 8},{1 - k / 8}\n" for k in range(9)))
    binary = tmp_path / "sumprod.csv"
    grid = [k / 8 for k in range(9)]
    binary.write_text("".join(f"{x},{y},{x + y + x * y}\n" for x in grid for y in grid))
    jobs = [["cox", "sumprod", "assoc"], ["cox", "sumprod", "regraduate"],
            ["cox", "one-minus", "involution"], ["cox", str(unary), "involution"],
            ["cox", str(binary), "regraduate"]]
    assert modules_after(jobs) == []


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


def test_valuation_missing_an_element_exits_2(capsys):
    code, doc = run(capsys, "check", "l12", ROOT / "scripts" / "cli_jobs" / "l12-missing.val")
    assert (code, doc["kind"]) == (2, "DomainMismatch")
    assert doc["error"] == "missing ['n']"


def test_infeasible_exits_1(capsys, monkeypatch):
    def infeasible(ortho):
        raise states.Infeasible("state polytope is empty")

    monkeypatch.setattr(states, "find_state", infeasible)
    code, doc = run(capsys, "states", "l12", "find")
    assert (code, doc["kind"]) == (1, "Infeasible")
    assert doc["error"] == "state polytope is empty"


def test_not_a_state_exits_1(capsys, tmp_path, monkeypatch):
    def not_a_state(ortho, valuation, tolerance):
        raise states.NotAState(states.is_state(ortho, valuation, tolerance))

    monkeypatch.setattr(states, "subadditivity_scan", not_a_state)
    seeds = tmp_path / "d2.json"
    seeds.write_text("[[1, 0], [0, 1]]")
    code, doc = run(capsys, "hilbert", seeds, "--scan", "subadd")
    assert (code, doc["kind"]) == (1, "NotAState")
    assert doc["error"] == "valuation fails the state constraints"


def test_exit_1_exceptions_are_refusals_and_exit_2_ones_value_errors():
    refusals = (CapExceeded, states.Infeasible, states.NotAState, hilbert.NumericalBreakdown,
                funceq.DomainEscape, funceq.TooManySkips)
    assert all(issubclass(cls, Refusal) for cls in refusals)
    assert issubclass(CapExceeded, LatticeError)
    assert all(issubclass(cls, ValueError) and not issubclass(cls, Refusal)
               for cls in (states.DomainMismatch, hilbert.DimensionMismatch))
    assert not issubclass(funceq.NotRegraduable, Refusal)  # cox reports it as a verdict


def test_main_maps_any_refusal_to_1(capsys, monkeypatch):
    class Unanswerable(Refusal):
        pass

    def refuse(ortho):
        raise Unanswerable("no answer")

    monkeypatch.setattr(states, "find_state", refuse)
    code, doc = run(capsys, "states", "l12", "find")
    assert (code, doc) == (1, {"schema": 1, "error": "no answer", "kind": "Unanswerable"})
