"""Acceptance gate: the eight shipping criteria, each with a printed
verdict line and the runtime budget it must meet.

Run as `pytest tests/test_acceptance.py -v -s` to see one line per
criterion."""

import json
import math
import sys
import time
from contextlib import contextmanager
from fractions import Fraction

import numpy as np
import pytest

from qlprob import builders
from qlprob.classify import classify
from qlprob.cli import main
from qlprob.funceq import (
    NotRegraduable,
    builtin,
    check_associativity,
    check_involution,
    regraduate,
)
from qlprob.hilbert import (
    born,
    born_valuation,
    generate_sublattice,
    join_s,
    pure,
    random_density,
    subspace_from_vectors,
)
from qlprob.io import parse_lattice, serialize_lattice
from qlprob.states import (
    extreme_states,
    implied_affine_relations,
    inclusion_exclusion_scan,
    is_state,
    sample_states,
    subadditivity_scan,
)
from tests.conftest import DATA, d2_seed_subspaces, d3_seed_subspaces

F = Fraction


@contextmanager
def criterion(number, label, budget=None):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"criterion {number} ({label}): FAIL",
              file=sys.__stdout__, flush=True)
        raise
    elapsed = time.perf_counter() - start
    if budget is not None:
        assert elapsed < budget, f"criterion {number} took {elapsed:.2f}s, budget {budget}s"
    print(f"criterion {number} ({label}): PASS [{elapsed:.2f}s]",
          file=sys.__stdout__, flush=True)


def test_criterion_1_firefly_relations(capsys):
    with criterion(1, "firefly relation basis and sum identity", budget=1.0):
        code = main(["states", "l12", "relations"])
        out = capsys.readouterr().out
        assert code == 0
        displays = [r["display"] for r in json.loads(out)["relations"]]
        assert "l + r - f - b = 0" in displays

        l12 = builders.firefly_l12()
        for state in sample_states(l12, 1000, seed=0):
            total = sum(state.value(a) for a in ("l", "r", "f", "b", "n"))
            assert total == 2 - state.value("n")


def test_criterion_2_kolmogorov_recovery():
    with criterion(2, "set algebras recover the probability simplex", budget=2.0):
        for n in (2, 3, 4):
            ps = builders.powerset(n)
            vertices = extreme_states(ps)
            assert len(vertices) == n
            expected = set()
            for atom in ps.atoms:
                expected.add(tuple(
                    F(1) if ps.le(atom, e) else F(0) for e in range(ps.n)))
            assert {v.values for v in vertices} == expected
            for state in sample_states(ps, 100, seed=n):
                assert inclusion_exclusion_scan(ps, state, tolerance=0) == []


def test_criterion_3_born_valuations_are_states():
    with criterion(3, "Born valuations satisfy the state axioms", budget=10.0):
        fixtures = [
            (2, generate_sublattice(d2_seed_subspaces())),
            (3, generate_sublattice(d3_seed_subspaces())),
        ]
        for d, (ortho, embedding) in fixtures:
            rng = np.random.default_rng(0)
            for _ in range(100):
                rho = random_density(d, rng)
                valuation = born_valuation(rho, ortho, embedding)
                assert is_state(ortho, valuation, tolerance=1e-8).passed


def test_criterion_4_superadditivity_violation():
    with criterion(4, "pure state beats additivity on two lines", budget=1.0):
        r = 1 / math.sqrt(2)
        a = subspace_from_vectors(2, [[1, 0]])
        b = subspace_from_vectors(2, [[r, r]])
        rho = pure([0, 1])
        sa, sb = born(rho, a), born(rho, b)
        assert abs(sa + sb - 0.5) <= 1e-10
        assert abs(born(rho, join_s(a, b)) - 1.0) <= 1e-10

        ortho, embedding = generate_sublattice([a, b])
        valuation = born_valuation(rho, ortho, embedding)
        name_of = {}
        for name, sub in zip(ortho.names, embedding):
            if sub.same(a):
                name_of["a"] = name
            if sub.same(b):
                name_of["b"] = name
        hits = subadditivity_scan(ortho, valuation, tolerance=1e-9)
        target = tuple(sorted((name_of["a"], name_of["b"]),
                              key=ortho.index.__getitem__))
        defects = {h.pair: h.defect for h in hits}
        assert target in defects
        assert abs(defects[target] - 0.5) <= 1e-9
        # the mirror line through |0>-|1> is the only other defect
        assert len(hits) == 2
        assert all(abs(d - 0.5) <= 1e-9 for d in defects.values())


def test_criterion_5_axiom_ladder():
    with criterion(5, "axiom ladder across the menagerie", budget=2.0):
        assert classify(builders.powerset(3)).is_boolean

        for obj in (builders.firefly_l12(), builders.mo(2)):
            report = classify(obj)
            assert report.is_orthomodular and not report.is_distributive

        n5_report = classify(builders.n5())
        assert n5_report.is_modular is False
        n5 = builders.n5()
        x, y, bound = n5_report.witnesses["modular"].elements
        assert n5.le(x, bound)
        assert (n5.join(x, n5.meet(y, bound))
                != n5.meet(n5.join(x, y), bound))

        o6 = builders.o6()
        o6_report = classify(o6)
        assert o6_report.is_ortholattice and o6_report.is_orthomodular is False
        wa, wb = o6_report.witnesses["orthomodular"].elements
        assert o6.le(wa, wb)
        assert o6.join(wa, o6.meet(o6.neg[wa], wb)) != wb

        ortho, _ = generate_sublattice(d3_seed_subspaces())
        report = classify(ortho)
        assert report.is_modular and not report.is_distributive


def test_criterion_6_regraduation():
    with criterion(6, "combination rules regraduate to additivity", budget=5.0):
        involution = check_involution(builtin("one-minus"), tolerance=1e-12)
        assert involution.passed

        assoc = check_associativity(builtin("sumprod"), grid_size=33,
                                    tolerance=1e-10)
        assert assoc.passed

        result = regraduate(builtin("sumprod"))
        assert result.max_residual < 1e-8
        scale = math.log1p(result.anchor)
        deviation = max(
            abs(w - math.log1p(x) / scale)
            for x, w in zip(result.grid, result.values)
        )
        assert deviation < 1e-6

        with pytest.raises(NotRegraduable):
            regraduate(builtin("max"))


def test_criterion_7_strict_decomposition_defect():
    with criterion(7, "strict non-classical decomposition on the firefly box"):
        l12 = builders.firefly_l12()
        witnesses = []
        states = extreme_states(l12)
        for a in range(l12.n):
            for b in range(l12.n):
                if a == b:
                    continue
                low = l12.meet(a, l12.neg[b])
                high = l12.meet(a, b)
                for s in states:
                    if s.values[low] + s.values[high] < s.values[a]:
                        witnesses.append((l12.names[a], l12.names[b]))
        assert witnesses, "no strict decomposition defect found"

        ps = builders.powerset(4)
        for s in sample_states(ps, 100, seed=0):
            for a in range(ps.n):
                for b in range(ps.n):
                    parts = (s.values[ps.meet(a, ps.neg[b])]
                             + s.values[ps.meet(a, b)])
                    assert parts == s.values[a]


ACCEPTANCE_COMMANDS = [
    ["classify", "l12"],
    ["classify", "powerset:3"],
    ["classify", "mo:2"],
    ["classify", "n5"],
    ["classify", "o6"],
    ["states", "l12", "relations"],
    ["states", "l12", "extremes"],
    ["states", "powerset:2", "extremes"],
    ["states", "powerset:3", "extremes"],
    ["states", "powerset:4", "extremes"],
    ["states", "powerset:3", "find"],
    ["check", "l12", str(DATA / "l12_quarter.val")],
    ["cox", "one-minus", "involution"],
    ["cox", "sumprod", "assoc"],
    ["cox", "sumprod", "regraduate"],
    ["cox", "max", "regraduate"],
]


def test_criterion_8_round_trip_and_determinism(capsys, tmp_path):
    with criterion(8, "serialization fixpoint and bytewise determinism"):
        for path in sorted(DATA.glob("*.lat")):
            text = path.read_text()
            canonical = serialize_lattice(parse_lattice(text))
            assert serialize_lattice(parse_lattice(canonical)) == canonical

        r = 1 / math.sqrt(2)
        seeds = tmp_path / "seeds.json"
        seeds.write_text(json.dumps(
            [[[1.0, 0.0], [0.0, 0.0]], [[r, 0.0], [r, 0.0]]]))
        commands = ACCEPTANCE_COMMANDS + [
            ["hilbert", str(seeds), "--rho", "random", "--seed", "9",
             "--scan", "subadd"],
        ]
        for argv in commands:
            first_code = main(list(argv))
            first = capsys.readouterr().out
            second_code = main(list(argv))
            second = capsys.readouterr().out
            assert first_code == second_code
            assert first == second, f"nondeterministic output: {argv}"
