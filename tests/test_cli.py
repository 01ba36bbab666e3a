"""End-to-end command tests driven through main() with captured stdout;
exit codes and the JSON envelope are part of the public contract."""

import argparse
import json
import math
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from qlprob import cli, states
from qlprob.cli import main
from tests.conftest import DATA, greechie_text, petersen_blocks

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_classify_builtin(capsys):
    code, doc = run(capsys, "classify", "l12")
    assert code == 0
    assert list(doc)[0] == "schema" and doc["schema"] == 1
    assert doc["is_orthomodular"] and not doc["is_distributive"]
    assert len(doc["blocks"]) == 2


def test_classify_file(capsys):
    code, doc = run(capsys, "classify", str(DATA / "o6.lat"))
    assert code == 0
    assert doc["source"] == "o6"
    assert doc["is_ortholattice"] and doc["is_orthomodular"] is False
    assert "orthomodular" in doc["witnesses"]


def test_classify_petersen_lists_every_block(capsys):
    text = (DATA / "petersen.lat").read_text()
    body = "".join(line for line in text.splitlines(True) if not line.startswith("#"))
    assert body == greechie_text(petersen_blocks(), "petersen")
    code, doc = run(capsys, "classify", str(DATA / "petersen.lat"))
    assert code == 0
    assert len(doc["elements"]) == 32 and doc["is_orthomodular"]
    assert len(doc["blocks"]) == 10
    assert "blocks_truncated" not in doc


def test_classify_block_cap_keeps_the_report(capsys):
    """Past the block cap the ladder flags are still reported, with the
    block list cut and marked; the cap makes the exit code 1."""
    code, doc = run(capsys, "classify", "mo:65")
    assert code == 1
    ladder = {"is_lattice": True, "is_ortholattice": True, "is_distributive": False,
              "is_modular": True, "is_orthomodular": True, "is_boolean": False,
              "is_atomic": True, "is_atomistic": True}
    assert {key: doc[key] for key in ladder} == ladder
    assert "distributive" in doc["witnesses"]
    assert len(doc["blocks"]) == 64
    keys = list(doc)
    assert keys[keys.index("blocks") + 1] == "blocks_truncated"
    assert doc["blocks_truncated"] is True


def test_classify_unknown_source(capsys):
    code, doc = run(capsys, "classify", "mystery")
    assert code == 2
    assert "error" in doc


@pytest.mark.parametrize("spec, error", [
    ("powerset:x", "bad builder argument in 'powerset:x': invalid literal for int() with base 10: 'x'"),
    ("mo:2.5", "bad builder argument in 'mo:2.5': invalid literal for int() with base 10: '2.5'"),
    ("l12:3", "unknown lattice source 'l12:3'; expected powerset:<n>, mo:<n>, l12, n5, o6, "
     "or a .lat file"),
])
def test_classify_refuses_a_bad_builder_spec(capsys, spec, error):
    code, doc = run(capsys, "classify", spec)
    assert code == 2
    assert doc == {"schema": 1, "error": error, "kind": "SourceError"}


@pytest.mark.parametrize("spec, same_as", [("powerset:", "powerset:3"), ("mo:", "mo:2"),
                                           ("l12:", "l12")])
def test_builder_spec_without_an_argument_takes_the_default(capsys, spec, same_as):
    code, doc = run(capsys, "classify", spec)
    assert code == 0 and doc["source"] == spec
    assert run(capsys, "classify", same_as)[1] == {**doc, "source": same_as}


def test_classify_reports_an_unreadable_lattice_file(capsys, tmp_path):
    path = tmp_path / "folder.lat"
    path.mkdir()
    code, doc = run(capsys, "classify", str(path))
    assert code == 2 and doc["kind"] == "SourceError"
    assert doc["error"].startswith(f"cannot read {path}: ")


def test_every_job_fixture_exists():
    """Each path a job of scripts/cli_jobs.txt names, apart from the
    generated inputs-7/, is in the repository: a missing fixture prints
    the same "cannot read" document under every tree and would hide."""
    root = SCRIPTS.parent
    jobs = [line for line in (SCRIPTS / "cli_jobs.txt").read_text().splitlines()
            if line.strip() and not line.startswith("#")]
    paths = [token for job in jobs for token in shlex.split(job)
             if "/" in token and not token.startswith("inputs-7/")]
    assert len(paths) > 30
    assert [path for path in paths if not (root / path).exists()] == []


def test_compare_cli_refuses_a_job_whose_input_is_missing(tmp_path):
    """A job whose input file is missing fails alike under both trees and
    would pass as unchanged, so compare_cli names each missing argument and
    exits 2 before any job runs; a pure: vector holding a / names no file."""
    root, jobs = SCRIPTS.parent, tmp_path / "jobs.txt"
    (tmp_path / "seeds").mkdir()
    (tmp_path / "seeds" / "d2.json").write_text("[[1, 0], [0.6, 0.8]]")

    def compare(*lines):
        jobs.write_text("\n".join(lines))
        return subprocess.run([sys.executable, str(SCRIPTS / "compare_cli.py"), str(root), str(root), str(jobs)],
                              cwd=tmp_path, capture_output=True, text=True, timeout=120)

    done = compare("hilbert seeds/d2.json --rho pure:(1/2,1)", "states mo:3 find")
    assert (done.returncode, done.stdout) == (0, "2 jobs, 0 differ\n")
    done = compare("classify inputs-7/ladder/bool6.lat", "states mo:3 find", "check l12 inputs-7/ladder/bool6.lat")
    assert (done.returncode, done.stdout, done.stderr) == (2, "", "no such file: inputs-7/ladder/bool6.lat\n")


def test_classify_reports_a_poset_without_a_join(capsys):
    """a and b are orthogonal but have two minimal upper bounds, so the
    document is refused as not a lattice, naming both bounds."""
    code, doc = run(capsys, "classify", str(SCRIPTS / "cli_jobs" / "nojoin.lat"))
    assert code == 2
    assert doc["kind"] == "NotALattice"
    assert "['u', 'v']" in doc["error"]


def test_classify_dot_flag(capsys):
    code, doc = run(capsys, "classify", "mo:2", "--dot")
    assert code == 0
    assert doc["dot"].startswith("digraph")


def test_classify_lantern_covers(capsys, tmp_path):
    """0 and 1 with 128 complement pairs between them: 0 < 1 has 256
    two-step paths, which a uint8 path count wraps to 0, so it must
    still not be read as a cover."""
    middle = [f"{side}{i}" for i in range(128) for side in "ab"]
    lines = ["lattice lantern", "element 0", *(f"element {x}" for x in middle), "element 1",
             *(f"cover 0 {x}" for x in middle), *(f"cover {x} 1" for x in middle),
             "ortho 0 1", *(f"ortho a{i} b{i}" for i in range(128))]
    path = tmp_path / "lantern.lat"
    path.write_text("\n".join(lines) + "\n")
    code, doc = run(capsys, "classify", str(path), "--dot")
    assert code == 1  # 128 blocks, past the block cap
    edges = [line for line in doc["dot"].splitlines() if "->" in line]
    assert len(edges) == 512
    assert '  "0" -> "1";' not in edges
    assert doc["is_modular"] and not doc["is_distributive"]


def test_states_relations(capsys):
    code, doc = run(capsys, "states", "l12", "relations")
    assert code == 0
    displays = [r["display"] for r in doc["relations"]]
    assert "l + r - f - b = 0" in displays
    assert "f + b + n = 1" in displays


def test_states_extremes(capsys):
    code, doc = run(capsys, "states", "mo:2", "extremes")
    assert code == 0
    assert doc["count"] == 4
    for vertex in doc["vertices"]:
        assert vertex["1"] == "1" and vertex["0"] == "0"


def test_states_powerset7_extremes(capsys):
    code, doc = run(capsys, "states", "powerset:7", "extremes")
    assert code == 0
    assert doc["count"] == 7
    atoms = [[vertex[f"{{{k}}}"] for k in range(1, 8)] for vertex in doc["vertices"]]
    assert sorted(atoms, reverse=True) == [["1" if j == k else "0" for j in range(7)]
                                           for k in range(7)]


def test_states_relations_past_the_block_cap(capsys):
    """mo:65 has more blocks than classify lists; states uses them all."""
    code, doc = run(capsys, "states", "mo:65", "relations")
    assert code == 0
    assert len(doc["relations"]) == 65


def test_states_find_uniform(capsys):
    code, doc = run(capsys, "states", "powerset:2", "find")
    assert code == 0
    assert doc["verified"] is True
    assert doc["valuation"]["{1}"] == "1/2"


def test_states_on_non_orthomodular_source(capsys):
    code, doc = run(capsys, "states", "o6", "find")
    assert code == 2
    assert doc["kind"] == "NotOrthomodular"
    assert "'a'" in doc["error"] and "'b'" in doc["error"]
    assert "Witness(" not in doc["error"]


@pytest.mark.parametrize("argv", [("states", "n5", "find"),
                                  ("check", "n5", str(DATA / "l12_quarter.val"))])
def test_state_commands_need_an_orthocomplement(capsys, argv):
    code, doc = run(capsys, *argv)
    assert code == 2
    assert doc == {"schema": 1, "source": "n5", "error": "source has no orthocomplement"}


def test_states_find_falls_back_to_simplex(capsys):
    """On mo:11 (2,048 vertices) the vertex search keeps more rays than
    its budget, so find returns the simplex vertex."""
    code, doc = run(capsys, "states", "mo:11", "find")
    assert code == 0
    assert doc["verified"] is True
    valuation = doc["valuation"]
    assert len(valuation) == 24
    assert valuation["0"] == "0" and valuation["1"] == "1"
    for k in range(1, 12):
        assert valuation[f"a{k}"] == "0"
        assert valuation[f"~a{k}"] == "1"


def test_check_passes(capsys):
    code, doc = run(capsys, "check", "l12", str(DATA / "l12_quarter.val"))
    assert code == 0
    assert doc["passed"] is True


def test_check_wrong_lattice_name(capsys, tmp_path):
    bad = tmp_path / "wrong.val"
    bad.write_text("valuation for mo2\na1 = 1/2\n")
    code, doc = run(capsys, "check", "l12", str(bad))
    assert code == 2


def test_check_failing_valuation(capsys, tmp_path):
    lines = ["valuation for l12", "0 = 0", "1 = 1", "n = 1/2", "~n = 1/2"]
    for a in ("l", "r"):
        lines += [f"{a} = 1/2", f"~{a} = 1/2"]
    for a in ("f", "b"):
        lines += [f"{a} = 1/4", f"~{a} = 3/4"]
    bad = tmp_path / "bad.val"
    bad.write_text("\n".join(lines) + "\n")
    code, doc = run(capsys, "check", "l12", str(bad))
    assert code == 1
    assert doc["passed"] is False
    assert len(doc["violations"]) == 3


def test_check_malformed_valuation(capsys, tmp_path):
    bad = tmp_path / "garbage.val"
    bad.write_text("this is not a valuation\n")
    code, doc = run(capsys, "check", "l12", str(bad))
    assert code == 2


@pytest.fixture()
def d2_seeds(tmp_path):
    r = 1 / math.sqrt(2)
    path = tmp_path / "seeds.json"
    path.write_text(json.dumps([[[1.0, 0.0], [0.0, 0.0]], [[r, 0.0], [r, 0.0]]]))
    return str(path)


def test_hilbert_pipeline(capsys, d2_seeds):
    code, doc = run(capsys, "hilbert", d2_seeds, "--rho", "pure:(0,1)",
                    "--scan", "subadd")
    assert code == 0
    assert doc["elements"] == 6
    assert doc["state_check"]["passed"] is True
    assert doc["lattice"].startswith("lattice generated")
    pairs = {tuple(hit["pair"]): hit["defect"] for hit in doc["scan"]["pairs"]}
    assert len(pairs) == 2
    assert all(d == pytest.approx(0.5) for d in pairs.values())


@pytest.mark.parametrize("scan", [["--scan", "ie"], ["--scan", "subadd"], []], ids=["ie", "subadd", "none"])
def test_hilbert_checks_the_state_once(capsys, d2_seeds, monkeypatch, scan):
    """A scan checks the state itself and raises NotAState unless the check
    passed, so the command adds no second check; without a scan the command
    checks once."""
    is_state, reports = states.is_state, []

    def counted(*args):
        reports.append(is_state(*args))
        return reports[-1]

    monkeypatch.setattr(states, "is_state", counted)
    code, doc = run(capsys, "hilbert", d2_seeds, "--rho", "random", *scan)
    assert code == 0 and len(reports) == 1 and reports[0].passed
    assert doc["state_check"] == {"passed": True, "violations": 0}
    assert ("scan" in doc) == bool(scan)


def test_hilbert_without_a_scan_prints_its_state_check(capsys, d2_seeds, monkeypatch):
    failing = states.StateCheckReport(passed=False, violations=(states.Violation("top", ("1",), 0.5),),
                                      complement_residual=0.0)
    monkeypatch.setattr(states, "is_state", lambda *args: failing)
    code, doc = run(capsys, "hilbert", d2_seeds)
    assert code == 0 and doc["state_check"] == {"passed": False, "violations": 1}


def test_hilbert_cap(capsys, tmp_path):
    vecs = [[[1, 0], [0, 0], [0, 0]], [[0, 0], [1, 0], [0, 0]],
            [[0, 0], [0, 0], [1, 0]],
            [[1 / math.sqrt(2), 0], [1 / math.sqrt(2), 0], [0, 0]]]
    path = tmp_path / "d3.json"
    path.write_text(json.dumps(vecs))
    code, doc = run(capsys, "hilbert", str(path), "--cap", "9")
    assert code == 1
    assert doc["kind"] == "CapExceeded"
    assert doc["error"] == "hilbert closure reached 10 subspaces, cap 9"


@pytest.mark.parametrize("cap", ["0", "-1"])
@pytest.mark.parametrize("command", ["states", "hilbert", "classify"])
def test_cap_below_one_rejected(capsys, d2_seeds, command, cap):
    """states and hilbert read --cap and reject a cap below 1 with an
    error document; classify has no --cap, so there it is a usage error."""
    argv = {"states": ["states", "mo:2", "extremes"],
            "hilbert": ["hilbert", d2_seeds],
            "classify": ["classify", "l12"]}[command]
    if command == "classify":
        with pytest.raises(SystemExit) as err:
            main([*argv, "--cap", cap])
        assert err.value.code == 2 and capsys.readouterr().out == ""
        return
    code, doc = run(capsys, *argv, "--cap", cap)
    assert code == 2
    assert doc["kind"] == "ValueError"
    assert doc["error"] == f"--cap must be at least 1, not {cap}"


@pytest.fixture()
def tolerance_jobs(tmp_path, d2_seeds):
    """One job per subcommand that reads --tolerance.  The check job's
    valuation, 0.5 everywhere on l12, is not a state, so a bound that
    passed it would be visible."""
    path = tmp_path / "half.val"
    path.write_text("valuation for l12\n" + "".join(f"{e} = 0.5\n" for e in
                    ("0", "l", "r", "f", "b", "n", "~l", "~r", "~f", "~b", "~n", "1")))
    return {"check": ["check", "l12", str(path)], "hilbert": ["hilbert", d2_seeds],
            "cox": ["cox", "one-minus", "involution"]}


@pytest.mark.parametrize("tolerance", ["nan", "inf", "-inf", "-0.5"])
@pytest.mark.parametrize("command", ["check", "hilbert", "cox"])
def test_tolerance_that_bounds_nothing_rejected(capsys, tolerance_jobs, command, tolerance):
    """A NaN bound passes every comparison, a negative one fails values in
    range, and an infinite one passes everything: each exits 2 with one
    error document, as a cap below 1 does."""
    code, doc = run(capsys, *tolerance_jobs[command], f"--tolerance={tolerance}")
    assert code == 2
    assert doc == {"schema": 1, "kind": "ValueError",
                   "error": f"--tolerance must be a finite number at least 0, not {float(tolerance)}"}


@pytest.mark.parametrize("command", ["check", "hilbert", "cox"])
def test_tolerance_zero_accepted(capsys, tolerance_jobs, command):
    code, doc = run(capsys, *tolerance_jobs[command], "--tolerance", "0")
    assert "kind" not in doc and code == (1 if command == "check" else 0)


def test_hilbert_malformed_seeds(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("[[1, 2,")
    code, doc = run(capsys, "hilbert", str(path))
    assert code == 2


def test_hilbert_rho_from_a_matrix_file(capsys, d2_seeds, tmp_path):
    """A density matrix read from JSON, entries as numbers or [re, im]
    pairs, gives the report --rho maxmixed gives, apart from its name."""
    path = tmp_path / "rho.json"
    path.write_text("[[0.5, [0, 0]], [0, 0.5]]")
    code, doc = run(capsys, "hilbert", d2_seeds, "--rho", str(path))
    assert code == 0 and doc["rho"] == str(path)
    assert run(capsys, "hilbert", d2_seeds, "--rho", "maxmixed")[1] == {**doc, "rho": "maxmixed"}


def test_hilbert_random_rho_deterministic(capsys, d2_seeds):
    code1, doc1 = run(capsys, "hilbert", d2_seeds, "--rho", "random", "--seed", "5")
    code2, doc2 = run(capsys, "hilbert", d2_seeds, "--rho", "random", "--seed", "5")
    assert code1 == code2 == 0
    assert doc1 == doc2


def test_cox_involution(capsys):
    code, doc = run(capsys, "cox", "one-minus", "involution")
    assert code == 0 and doc["passed"] is True
    code, doc = run(capsys, "cox", "square", "involution")
    assert code == 1 and doc["passed"] is False


def test_a_nan_in_the_report_prints_only_the_error_document(capsys, monkeypatch):
    """A report carrying NaN is refused before any of it is printed: exit 2,
    and stdout holds the error document alone."""
    from types import SimpleNamespace

    from qlprob import funceq

    report = SimpleNamespace(passed=True, max_residual=math.nan, worst_x=0.5, identity=False)
    monkeypatch.setattr(funceq, "check_involution", lambda rule, tolerance: report)
    assert main(["cox", "one-minus", "involution"]) == 2
    assert capsys.readouterr().out == (
        '{\n  "schema": 1,\n  "error": "Out of range float values are not JSON compliant: nan",\n'
        '  "kind": "ValueError"\n}\n')


def test_cox_assoc(capsys):
    code, doc = run(capsys, "cox", "sumprod", "assoc")
    assert code == 0
    assert doc["max_residual"] == 0.0


def test_cox_regraduate(capsys):
    code, doc = run(capsys, "cox", "sumprod", "regraduate")
    assert code == 0
    assert doc["max_residual"] < 1e-8
    assert len(doc["table"]) == 33


def test_cox_regraduate_rejects_max(capsys):
    code, doc = run(capsys, "cox", "max", "regraduate")
    assert code == 1
    assert doc["reason"] == "non-monotone"


def test_cox_unknown_rule(capsys):
    code, doc = run(capsys, "cox", "mystery", "involution")
    assert code == 2


def test_cox_samples_csv(capsys, tmp_path):
    path = tmp_path / "rule.csv"
    xs = [i / 16 for i in range(17)]
    path.write_text("\n".join(f"{x},{1 - x}" for x in xs))
    code, doc = run(capsys, "cox", str(path), "involution")
    assert code == 0 and doc["passed"] is True


@pytest.mark.parametrize("rows, check, line, want, got",
                         [("two-column.csv", "assoc", 2, 3, 2),
                          ("short.csv", "involution", 3, 2, 1),
                          ("0,0,0\n0,1,1\n1,0,1,0\n", "regraduate", 3, 3, 4),
                          ("0,1,1\n1,0,0\n", "involution", 1, 2, 3)],
                         ids=["binary-two-fields", "unary-one-field", "binary-four-fields",
                              "unary-three-fields"])
def test_cox_rows_need_exactly_arity_plus_one_fields(capsys, tmp_path, rows, check, line,
                                                      want, got):
    """A CSV row of the wrong width, as in the two fixtures of
    scripts/cli_jobs/, is refused with one error document naming its line
    and both widths, exit 2."""
    path = SCRIPTS / "cli_jobs" / rows
    if not rows.endswith(".csv"):
        path = tmp_path / "rule.csv"
        path.write_text(rows)
    code, doc = run(capsys, "cox", str(path), check)
    assert code == 2
    assert doc == {"schema": 1, "kind": "ValueError",
                   "error": f"line {line} of {path}: expected {want} fields, got {got}"}


@pytest.mark.parametrize("rows, check, error", [
    ("comments-only.csv", "regraduate", "two or more distinct x"),
    ("one-row.csv", "assoc", "two or more distinct x"),
    ("one-column.csv", "regraduate", "two or more distinct x"),
    ("one-column.csv", "assoc", "two or more distinct x"),
    ("repeated-point.csv", "regraduate", "each point once")])
def test_cox_binary_samples_off_a_grid_are_refused(capsys, rows, check, error):
    """Binary samples with no x or y extent, or with a point given twice,
    as in the fixtures of scripts/cli_jobs/, give one ValueError document
    and exit 2, not a traceback or a rule that keeps the last value."""
    code, doc = run(capsys, "cox", str(SCRIPTS / "cli_jobs" / rows), check)
    assert code == 2
    assert doc["kind"] == "ValueError" and error in doc["error"] and doc.keys() == {"schema", "kind", "error"}


# the optional flags each subcommand declares, each read by its cmd_* function
OPTIONS = {"classify": {"--dot"}, "states": {"--cap"},
           "check": {"--tolerance", "--exact", "--float"},
           "hilbert": {"--rho", "--scan", "--tolerance", "--seed", "--cap", "--dot"},
           "cox": {"--tolerance"}}


def test_each_subcommand_declares_only_the_options_it_reads():
    parser = cli._build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    declared = {name: {flag for action in p._actions for flag in action.option_strings
                       if flag not in ("-h", "--help")}
                for name, p in sub.choices.items()}
    assert declared == OPTIONS
    assert sum(map(len, declared.values())) == 12


@pytest.mark.parametrize("argv", [["classify", "l12", "--seed", "3"],
                                  ["states", "l12", "extremes", "--tolerance", "0.5"],
                                  ["check", "l12", str(DATA / "l12_quarter.val"), "--cap", "3"],
                                  ["hilbert", "SEEDS", "--exact"],
                                  ["cox", "sum", "assoc", "--dot"],
                                  ["check", "l12", str(DATA / "l12_quarter.val"), "--exact", "--float"]],
                         ids=["classify", "states", "check", "hilbert", "cox", "check-exact-float"])
def test_an_option_the_subcommand_does_not_read_is_a_usage_error(capsys, d2_seeds, argv):
    with pytest.raises(SystemExit) as err:
        main([d2_seeds if arg == "SEEDS" else arg for arg in argv])
    captured = capsys.readouterr()
    assert err.value.code == 2 and captured.out == ""
    assert "error:" in captured.err


def test_usage_error_exits_2():
    with pytest.raises(SystemExit) as err:
        main(["states", "l12", "nosuchmode"])
    assert err.value.code == 2


def test_repeat_runs_identical_bytes(capsys):
    main(["states", "l12", "extremes"])
    first = capsys.readouterr().out
    main(["states", "l12", "extremes"])
    second = capsys.readouterr().out
    assert first == second


def test_one_parser_serves_every_call(capsys, d2_seeds):
    """main() builds its parser once a process.  A run of mixed commands,
    with usage errors (exit 2) between valid calls and a --help, prints
    and exits as it does with a fresh parser for every call."""
    calls = [["classify", "l12"], ["states", "l12", "nosuchmode"], ["states", "mo:2", "find"],
             ["check", "l12", str(DATA / "l12_quarter.val"), "--float", "--tolerance", "0"],
             ["classify", "n5", "--exact", "--float"], ["classify", "n5"],
             ["hilbert", d2_seeds, "--rho", "random", "--seed", "3"], ["cox", "--help"],
             ["cox", "square", "involution"], ["states", "l12", "relations", "--cap", "0"]]

    def outcomes(fresh):
        seen = []
        for argv in calls:
            if fresh:
                cli._build_parser.cache_clear()
            try:
                code = main(argv)
            except SystemExit as stop:
                code = stop.code
            captured = capsys.readouterr()
            seen.append((code, captured.out, captured.err))
        return seen

    reused = outcomes(fresh=False)
    assert cli._build_parser() is cli._build_parser()
    assert [code for code, _, _ in reused] == [0, 2, 0, 0, 2, 0, 0, 0, 1, 2]
    assert outcomes(fresh=True) == reused
