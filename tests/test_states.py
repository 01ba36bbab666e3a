"""State-space machinery: additivity systems, polytope vertices, affine
relation extraction, and the classical-defect scans.

Expected values below were frozen from hand computations on the small
fixtures (L12 has five extreme states, the n-atom set algebra has n
point masses, the quarter valuation is a state) before the solver code
existed."""

import json
from fractions import Fraction
from itertools import combinations
from math import gcd

import numpy as np

import pytest
from hypothesis import example, given, settings, strategies as st

from qlprob import builders, hilbert, states
from qlprob.cli import load_source, main
from qlprob.core import NotOrthomodular
from qlprob.io import lattice_from_document, parse_lattice
from qlprob.states import (
    DomainMismatch,
    Infeasible,
    NotAState,
    Valuation,
    build_state_system,
    extreme_states,
    find_state,
    implied_affine_relations,
    inclusion_exclusion_scan,
    is_state,
    sample_states,
    solve_in_unit_box,
    subadditivity_scan,
    valuation_from_document,
)
from tests.conftest import (
    DATA, d2_seed_subspaces, d3_seed_subspaces, greechie_text, petersen_blocks, two_plane_seeds,
)

F = Fraction
D3_SEEDS = DATA.parents[2] / "scripts" / "cli_jobs" / "d3.json"


def quarter(l12):
    vals = {"0": F(0), "1": F(1), "n": F(1, 2), "~n": F(1, 2)}
    for a in ("l", "r", "f", "b"):
        vals[a] = F(1, 4)
        vals["~" + a] = F(3, 4)
    return Valuation(l12, tuple(vals[name] for name in l12.names))


def test_system_shape(l12):
    """A valuation of 1/2 everywhere fails every state row once, in the
    system's order: bottom, top, then the 11 orthogonal pairs of L12
    without the bottom, in index order."""
    report = is_state(l12, Valuation(l12, (F(1, 2),) * l12.n))
    assert [v.kind for v in report.violations] == ["bottom", "top"] + ["additivity"] * 11
    pairs = [v.elements for v in report.violations[2:]]
    assert pairs == sorted(pairs, key=lambda p: (l12.index[p[0]], l12.index[p[1]]))
    assert all(abs(v.residual) == F(1, 2) for v in report.violations)


def test_quarter_valuation_is_exact_state(l12):
    report = is_state(l12, quarter(l12))
    assert report.passed
    assert report.violations == ()
    assert report.complement_residual == 0
    assert report.max_residual() == 0


def test_overweight_valuation_fails_additively(l12):
    vals = dict(quarter(l12).as_dict())
    vals.update({"l": F(1, 2), "r": F(1, 2), "~l": F(1, 2), "~r": F(1, 2),
                 "n": F(1, 2)})
    report = is_state(l12, Valuation(l12, tuple(vals[n] for n in l12.names)))
    assert not report.passed
    bad_pairs = {v.elements for v in report.violations}
    assert bad_pairs == {("l", "r"), ("l", "n"), ("r", "n")}
    assert all(abs(v.residual) == F(1, 2) for v in report.violations)


def test_range_violation_detected(l12):
    vals = dict(quarter(l12).as_dict())
    vals["l"] = F(5, 4)
    vals["~l"] = F(-1, 4)
    report = is_state(l12, Valuation(l12, tuple(vals[n] for n in l12.names)))
    kinds = {v.kind for v in report.violations}
    assert "range" in kinds


def test_non_orthomodular_refused(o6):
    with pytest.raises(NotOrthomodular):
        is_state(o6, Valuation(o6, (F(1, 2),) * o6.n))
    with pytest.raises(NotOrthomodular):
        extreme_states(o6)


def test_wrong_lattice_valuation(l12, mo2):
    with pytest.raises(DomainMismatch):
        is_state(mo2, quarter(l12))


def test_float_tolerance_band(l12):
    vals = {k: float(v) for k, v in quarter(l12).as_dict().items()}
    vals["l"] += 1e-12
    report = is_state(l12, Valuation(l12, tuple(vals[n] for n in l12.names)))
    assert report.passed
    vals["l"] += 1e-6
    report = is_state(l12, Valuation(l12, tuple(vals[n] for n in l12.names)))
    assert not report.passed


def test_firefly_extreme_states(l12):
    vertices = extreme_states(l12)
    assert len(vertices) == 5
    atom_supports = sorted(
        tuple(sorted(a for a in ("l", "r", "f", "b", "n") if v.value(a) == 1))
        for v in vertices
    )
    assert atom_supports == [
        ("b", "l"), ("b", "r"), ("f", "l"), ("f", "r"), ("n",)]
    for v in vertices:
        assert is_state(l12, v).passed
        assert v.is_exact()


@pytest.mark.parametrize("n", range(2, 8))
def test_powerset_extremes_are_point_masses(n):
    ps = builders.powerset(n)
    vertices = extreme_states(ps)
    assert len(vertices) == n
    seen = set()
    for v in vertices:
        mass = [a for a in ps.atoms if v.values[a] == 1]
        assert len(mass) == 1
        seen.add(mass[0])
        # every other element is the indicator of containing that atom
        atom = mass[0]
        for e in range(ps.n):
            expected = F(1) if ps.le(atom, e) else F(0)
            assert v.values[e] == expected
    assert seen == set(ps.atoms)


def test_mo2_has_four_extremes(mo2):
    assert len(extreme_states(mo2)) == 4


def test_extreme_cap_carries_partial(l12):
    from qlprob.core import CapExceeded

    with pytest.raises(CapExceeded) as err:
        extreme_states(l12, cap=2)
    assert err.value.partial is not None
    assert len(err.value.partial) == 2


def test_vertex_search_stops_at_the_ray_budget():
    """mo:11 has 2,048 vertices, under the cap; the search stops at the
    cut where its rays first pass the budget and says how many it kept."""
    from qlprob.core import CapExceeded

    with pytest.raises(CapExceeded, match=r"^vertex search kept 1025 rays, over 1024$"):
        extreme_states(builders.mo(11), cap=4096)


def test_find_state_uniform_on_powerset(p3):
    state = find_state(p3)
    for a in p3.atoms:
        assert state.values[a] == F(1, 3)
    assert is_state(p3, state).passed


def test_find_state_firefly(l12):
    state = find_state(l12)
    assert is_state(l12, state).passed
    assert state.value("n") == F(1, 5)
    assert state.value("l") == state.value("r") == F(2, 5)


def test_firefly_affine_relations(l12):
    relations = implied_affine_relations(l12)
    displays = [r.display() for r in relations]
    assert displays == ["f + b + n = 1", "l + r - f - b = 0"]


def _rank(rows):
    """Exact rank of a list of Fraction rows."""
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((r for r in rows if r[col]), None)
        if pivot is None:
            continue
        rows = [[x - r[col] / pivot[col] * y for x, y in zip(r, pivot)]
                for r in rows if r is not pivot]
        rank += 1
    return rank


@pytest.mark.parametrize("spec", [
    *(f"mo:{k}" for k in range(2, 7)),
    *(f"powerset:{k}" for k in range(2, 8)),
    "l12",
    pytest.param(str(DATA / "petersen.lat"), id="petersen.lat"),
])
def test_relations_hold_on_every_vertex(spec):
    """Every relation holds on every vertex, and the relations cut the
    atom space down to exactly the affine hull of the vertices."""
    _, ortho = load_source(spec)
    relations = implied_affine_relations(ortho)
    vertices = extreme_states(ortho)
    for rel in relations:
        for v in vertices:
            assert rel.holds(v)
    points = [[v.values[a] for a in ortho.atoms] for v in vertices]
    hull_rank = _rank([[x - y for x, y in zip(p, points[0])] for p in points[1:]])
    assert len(ortho.atoms) - len(relations) == hull_rank


@settings(max_examples=20, deadline=None)
@given(vertices=st.sets(st.integers(min_value=0, max_value=9), min_size=1))
@example(vertices=set(range(10)))
def test_atom_system_matches_the_full_system(vertices):
    """The block system in atom coordinates and the additivity system
    over all elements have solution sets of equal dimension; on diagrams
    of at most 4 blocks every vertex is a state obeying every relation."""
    text = greechie_text(petersen_blocks(sorted(vertices)))
    ortho = lattice_from_document(parse_lattice(text))
    relations = implied_affine_relations(ortho)
    coeffs = [list(row.coeffs) for row in build_state_system(ortho).rows]
    assert len(ortho.atoms) - len(relations) == ortho.n - _rank(coeffs)
    if len(vertices) <= 4:
        for v in extreme_states(ortho):
            assert is_state(ortho, v).passed
            assert all(rel.holds(v) for rel in relations)


def test_relations_and_vertices_skip_the_full_system(l12, monkeypatch, capsys):
    """Relations and vertices come from the blocks alone, and no command
    builds the full system: not check, not find (by vertices on mo:4, by
    the simplex fallback on mo:11), not a hilbert scan."""
    def refuse(ortho):
        raise AssertionError("build_state_system called")

    monkeypatch.setattr("qlprob.states.build_state_system", refuse)
    displays = [r.display() for r in implied_affine_relations(l12)]
    assert displays == ["f + b + n = 1", "l + r - f - b = 0"]
    supports = sorted(
        tuple(sorted(a for a in ("l", "r", "f", "b", "n") if v.value(a) == 1))
        for v in extreme_states(l12)
    )
    assert supports == [("b", "l"), ("b", "r"), ("f", "l"), ("f", "r"), ("n",)]
    for argv in (["check", "l12", str(DATA / "l12_quarter.val")], ["states", "mo:4", "find"],
                 ["states", "mo:11", "find"],
                 ["hilbert", str(D3_SEEDS), "--scan", "ie"]):
        assert main(argv) == 0
        doc = json.loads(capsys.readouterr().out)
        assert (doc.get("passed") or doc.get("verified") or doc["state_check"]["passed"]) is True


def dense_normalize(coeffs, rhs):
    """Coprime integers over every entry, leading coefficient positive."""
    denom = 1
    for c in list(coeffs) + [rhs]:
        denom = denom * c.denominator // gcd(denom, c.denominator)
    ints = [int(c * denom) for c in coeffs] + [int(rhs * denom)]
    g = 0
    for c in ints:
        g = gcd(g, abs(c))
    ints = [c // g for c in ints] if g > 1 else ints
    if next((c for c in ints if c), 0) < 0:
        ints = [-c for c in ints]
    return tuple(Fraction(c) for c in ints[:-1]), Fraction(ints[-1])


def dense_state_rows(ortho):
    """The state rows in their documented order (bottom, top, one
    additivity row per orthogonal pair in index order), normalised
    densely and deduplicated."""
    rows, seen = [], set()
    unit = [[F(int(k == e)) for k in range(ortho.n)] for e in range(ortho.n)]
    candidates = [(unit[ortho.bottom], F(0), "bottom"), (unit[ortho.top], F(1), "top")]
    for a, b in combinations(range(ortho.n), 2):
        if ortho.orthogonal(a, b):
            coeffs = [x - y - z for x, y, z in zip(unit[ortho.join(a, b)], unit[a], unit[b])]
            candidates.append((coeffs, F(0), f"add {ortho.names[a]} {ortho.names[b]}"))
    for coeffs, rhs, label in candidates:
        norm = dense_normalize(coeffs, rhs)
        if (any(norm[0]) or norm[1]) and norm not in seen:
            seen.add(norm)
            rows.append((*norm, label))
    return rows


@pytest.mark.parametrize("source", [
    "l12", "mo:4", "powerset:3", str(DATA / "petersen.lat"), "hilbert-2x2"],
    ids=["l12", "mo4", "powerset3", "petersen", "hilbert-2x2"])
def test_sparse_normalisation_gives_the_dense_rows(source):
    if source == "hilbert-2x2":
        ortho, _ = hilbert.generate_sublattice(two_plane_seeds(2, np.random.default_rng(5)))
    else:
        _, ortho = load_source(source)
    values = tuple(F(1 << e, 2 << ortho.n) for e in range(ortho.n))  # fails every row
    report = is_state(ortho, Valuation(ortho, values))
    assert [(v.elements, v.residual) for v in report.violations] == [
        ((ortho.names[ortho.bottom],) if label == "bottom" else (ortho.names[ortho.top],)
         if label == "top" else tuple(label.split()[1:]),
         sum(c * v for c, v in zip(coeffs, values)) - rhs)
        for coeffs, rhs, label in dense_state_rows(ortho)]
    relations = implied_affine_relations(ortho)
    assert len({id(c) for r in relations for c in r.coeffs if not c}) <= 1


@pytest.mark.parametrize("spec", ["powerset:6", str(DATA / "petersen.lat")],
                         ids=["powerset6", "petersen"])
def test_sparse_normalisation_keeps_the_relations(spec, monkeypatch):
    _, ortho = load_source(spec)
    relations = implied_affine_relations(ortho)
    monkeypatch.setattr(states, "_normalize", dense_normalize)
    assert relations == implied_affine_relations(ortho)


def test_powerset_affine_relations(p3):
    relations = implied_affine_relations(p3)
    assert [r.display() for r in relations] == ["{1} + {2} + {3} = 1"]


def test_relations_certify_every_state(l12):
    relations = implied_affine_relations(l12)
    for state in sample_states(l12, 50, seed=3):
        for rel in relations:
            assert rel.holds(state)


def test_inclusion_exclusion_on_concentrated_vertex(l12):
    target = next(v for v in extreme_states(l12)
                  if v.value("l") == 1 and v.value("f") == 1)
    hits = inclusion_exclusion_scan(l12, target)
    pairs = {h.pair: h for h in hits}
    assert ("l", "f") in pairs
    hit = pairs[("l", "f")]
    assert hit.defect == 1
    assert hit.strict_decomposition is True
    assert len(hits) == 8
    assert all(abs(h.defect) == 1 for h in hits)


def test_inclusion_exclusion_on_mo2(mo2):
    vals = {"0": F(0), "1": F(1), "a1": F(1), "a2": F(1),
            "~a1": F(0), "~a2": F(0)}
    v = Valuation(mo2, tuple(vals[n] for n in mo2.names))
    hits = inclusion_exclusion_scan(mo2, v)
    defects = {h.pair: h.defect for h in hits}
    assert defects == {("a1", "a2"): 1, ("~a1", "~a2"): -1}


def test_every_defect_of_an_exact_state_has_a_strict_decomposition():
    """A state is additive on a Boolean block, and a compatible pair, one
    with (a^b) v (a^~b) = a, lies in one, where s(a) + s(b) = s(a^b) +
    s(avb).  So each inclusion-exclusion hit of an exact state has a
    strict decomposition, on every vertex and the barycenter."""
    petersen = lattice_from_document(parse_lattice((DATA / "petersen.lat").read_text()))
    hits = []
    for ortho in (builders.firefly_l12(), builders.mo(3), petersen):
        for state in extreme_states(ortho) + [find_state(ortho)]:
            hits += inclusion_exclusion_scan(ortho, state, tolerance=0)
    assert len(hits) > 1000
    assert all(hit.strict_decomposition is True for hit in hits)


def test_boolean_states_never_defect():
    ps = builders.powerset(4)
    for state in sample_states(ps, 25, seed=11):
        assert inclusion_exclusion_scan(ps, state, tolerance=0) == []
        assert subadditivity_scan(ps, state, tolerance=0) == []


def test_scan_requires_a_state(l12):
    half = Valuation(l12, tuple(F(1, 2) for _ in range(12)))
    with pytest.raises(NotAState):
        inclusion_exclusion_scan(l12, half)


def test_subadditivity_quiet_on_spread_vertex(l12):
    vertex = next(v for v in extreme_states(l12) if v.value("n") == 1)
    assert subadditivity_scan(l12, vertex) == []
    assert inclusion_exclusion_scan(l12, vertex) == []


def test_sampled_states_reproducible(l12):
    a = sample_states(l12, 10, seed=42)
    b = sample_states(l12, 10, seed=42)
    assert [x.values for x in a] == [y.values for y in b]
    c = sample_states(l12, 10, seed=43)
    assert [x.values for x in a] != [y.values for y in c]


def test_sampled_states_on_empty_polytope_raise(l12, monkeypatch):
    monkeypatch.setattr("qlprob.states.extreme_states", lambda ortho: [])
    with pytest.raises(Infeasible, match="state polytope is empty"):
        sample_states(l12, 3, seed=0)


def test_sampled_states_all_pass(l12):
    for state in sample_states(l12, 100, seed=7):
        assert state.is_exact()
        assert is_state(l12, state).passed


@settings(max_examples=40, deadline=None)
@given(weights=st.lists(st.integers(min_value=0, max_value=100),
                        min_size=5, max_size=5).filter(lambda w: sum(w) > 0))
def test_convex_combinations_stay_states(weights):
    l12 = builders.firefly_l12()
    vertices = extreme_states(l12)
    total = sum(weights)
    mixed = tuple(
        sum(F(w, total) * v.values[e] for w, v in zip(weights, vertices))
        for e in range(l12.n)
    )
    assert is_state(l12, Valuation(l12, mixed)).passed


def test_block_restriction_is_classical(l12):
    """On each maximal Boolean block a state restricts to an ordinary
    finitely additive probability measure."""
    from qlprob.classify import maximal_blocks

    state = find_state(l12)
    for block in maximal_blocks(l12):
        members = set(block)
        for a, b in combinations(block, 2):
            if l12.meet(a, b) == l12.bottom and l12.join(a, b) in members:
                assert (state.values[l12.join(a, b)]
                        == state.values[a] + state.values[b])


def reference_solve_in_unit_box(rows, n: int) -> list[Fraction]:
    """The phase-I simplex as it was before its tableau carried the reduced
    costs: the same Bland's rule and box folding, with the duals and every
    column's reduced cost recomputed on each pass.  The solver is tested
    against it."""
    labels = [label for _, _, label in rows]
    # x_i + y_i = 1 folds the upper bounds into equality form
    eq = [(list(c) + [Fraction(0)] * n, r) for c, r, _ in rows]
    for i in range(n):
        slack = [Fraction(0)] * (2 * n)
        slack[i] = slack[n + i] = Fraction(1)
        eq.append((slack, Fraction(1)))
        labels.append(f"box {i}")
    flipped = [rhs < 0 for _, rhs in eq]
    m = len(eq)
    width = 2 * n + m
    tableau = []
    rhs_col = []
    for r, (coeffs, rhs) in enumerate(eq):
        if flipped[r]:
            coeffs = [-c for c in coeffs]
            rhs = -rhs
        row = coeffs + [Fraction(0)] * m
        row[2 * n + r] = Fraction(1)
        tableau.append(row)
        rhs_col.append(rhs)
    basis = [2 * n + r for r in range(m)]
    cost = [Fraction(0)] * (2 * n) + [Fraction(1)] * m

    while True:
        duals = [cost[basis[i]] for i in range(m)]
        entering = None
        for j in range(width):
            reduced = cost[j] - sum(
                duals[i] * tableau[i][j] for i in range(m) if tableau[i][j]
            )
            if reduced < 0:
                entering = j
                break
        if entering is None:
            break
        leaving = None
        best = None
        for i in range(m):
            a = tableau[i][entering]
            if a > 0:
                ratio = rhs_col[i] / a
                if best is None or ratio < best or (
                    ratio == best and basis[i] < basis[leaving]
                ):
                    best = ratio
                    leaving = i
        if leaving is None:
            raise Infeasible("phase-I objective unbounded; malformed system")
        inv = 1 / tableau[leaving][entering]
        tableau[leaving] = [c * inv for c in tableau[leaving]]
        rhs_col[leaving] *= inv
        for i in range(m):
            if i != leaving and tableau[i][entering]:
                f = tableau[i][entering]
                tableau[i] = [
                    x - f * y for x, y in zip(tableau[i], tableau[leaving])
                ]
                rhs_col[i] -= f * rhs_col[leaving]
        basis[leaving] = entering

    objective = sum(
        rhs_col[i] for i in range(m) if basis[i] >= 2 * n
    )
    if objective > 0:
        duals = [cost[basis[i]] for i in range(m)]
        certificate = {}
        for r in range(m):
            y = sum(duals[i] * tableau[i][2 * n + r] for i in range(m))
            if flipped[r]:
                y = -y
            if y:
                certificate[labels[r]] = y
        raise Infeasible("no point satisfies the system", certificate)
    x = [Fraction(0)] * n
    for i in range(m):
        if basis[i] < n:
            x[basis[i]] = rhs_col[i]
    return x


def solver_outcome(solve, rows, n):
    """x, or the Infeasible message and certificate."""
    try:
        return solve(rows, n)
    except Infeasible as err:
        return str(err), err.certificate


def assert_farkas(rows, n, certificate):
    """Farkas's conditions, exactly: over the x and slack columns, with box
    row i read as e_i + e_{n+i} = 1, sum y * row <= 0 componentwise and
    sum y * rhs > 0."""
    system = {label: (list(coeffs) + [F(0)] * n, rhs) for coeffs, rhs, label in rows}
    for i in range(n):
        system[f"box {i}"] = ([F(int(j in (i, n + i))) for j in range(2 * n)], F(1))
    assert certificate and set(certificate) <= set(system)
    combined = [sum(y * system[label][0][j] for label, y in certificate.items())
                for j in range(2 * n)]
    assert all(c <= 0 for c in combined)
    assert sum(y * system[label][1] for label, y in certificate.items()) > 0


def solve_checked(rows, n):
    """The solver's outcome, asserted equal to the reference's, and checked:
    x satisfies every row and the box; a certificate satisfies Farkas."""
    outcome = solver_outcome(solve_in_unit_box, rows, n)
    assert outcome == solver_outcome(reference_solve_in_unit_box, rows, n)
    if isinstance(outcome, tuple):
        assert outcome[0] == "no point satisfies the system"
        assert_farkas(rows, n, outcome[1])
    else:
        assert all(0 <= v <= 1 for v in outcome) and len(outcome) == n
        assert all(sum(c * v for c, v in zip(coeffs, outcome)) == rhs for coeffs, rhs, _ in rows)
    return outcome


small = st.fractions(min_value=-2, max_value=2, max_denominator=3)


@st.composite
def systems(draw):
    """n <= 6 unknowns and m <= 5 rows of small rationals; right sides of
    both signs, so some rows are flipped."""
    n = draw(st.integers(min_value=0, max_value=6))
    m = draw(st.integers(min_value=0, max_value=5))
    return [(draw(st.lists(small, min_size=n, max_size=n)), draw(small), f"r{k}")
            for k in range(m)], n


@settings(max_examples=300, deadline=None)
@given(systems())
@example(([([F(1)], F(0), "zero"), ([F(1)], F(1), "one")], 1))
@example(([([F(1), F(-1)], F(-1, 2), "flip"), ([F(1), F(1)], F(-1), "neg")], 2))
def test_solver_matches_the_reference(system):
    solve_checked(*system)


@pytest.mark.parametrize("spec", [
    *(f"mo:{k}" for k in range(1, 15)),
    *(f"powerset:{k}" for k in range(1, 7)),
    "l12",
    *(pytest.param(str(DATA / f"{name}.lat"), id=f"{name}.lat")
      for name in ("l12", "mo2", "petersen")),
    pytest.param("pentagon", id="pentagon"),
])
def test_solver_matches_the_reference_on_atom_rows(spec):
    """The rows find_state hands the solver, for every builder and shipped
    lattice that has a state system (n5 has no negation and o6 is not
    orthomodular), and for the Greechie pentagon."""
    if spec == "pentagon":
        ortho = lattice_from_document(parse_lattice(greechie_text(petersen_blocks(range(5)))))
    else:
        ortho = load_source(spec)[1]
    rows, _, _ = states._atom_system(ortho)
    x = solve_checked([(r[1:], -r[0], f"row {k}") for k, r in enumerate(rows)], len(ortho.atoms))
    assert isinstance(x, list)


def test_solver_simple_balance():
    rows = [
        ([F(1), F(1)], F(1), "sum"),
        ([F(1), F(-1)], F(0), "balance"),
    ]
    assert solve_in_unit_box(rows, 2) == [F(1, 2), F(1, 2)]


def test_solver_respects_box():
    rows = [([F(1), F(1)], F(3, 2), "sum")]
    x = solve_in_unit_box(rows, 2)
    assert sum(x) == F(3, 2)
    assert all(0 <= c <= 1 for c in x)


def test_solver_infeasibility_certificate():
    rows = [
        ([F(1)], F(0), "zero"),
        ([F(1)], F(1), "one"),
    ]
    with pytest.raises(Infeasible) as err:
        solve_in_unit_box(rows, 1)
    cert = err.value.certificate
    assert set(cert) <= {"zero", "one", "box 0"}
    assert_farkas(rows, 1, cert)


def test_solver_infeasible_beyond_box():
    rows = [([F(1), F(1)], F(3), "sum")]
    with pytest.raises(Infeasible) as err:
        solve_in_unit_box(rows, 2)
    assert_farkas(rows, 2, err.value.certificate)


def test_valuation_from_document_requires_totality(l12):
    with pytest.raises(DomainMismatch) as err:
        valuation_from_document(l12, (("l", F(1, 2)),))
    assert "missing" in str(err.value)
    with pytest.raises(DomainMismatch):
        valuation_from_document(
            l12, tuple(quarter(l12).as_dict().items()) + (("ghost", F(0)),))


def test_valuation_from_document_round_trip(l12):
    entries = tuple(quarter(l12).as_dict().items())
    v = valuation_from_document(l12, entries)
    assert is_state(l12, v).passed


def test_nan_values_are_out_of_range(l12):
    """Every bound test is false for a NaN, so the range test is written
    as containment: an all-NaN valuation fails at every element."""
    report = is_state(l12, Valuation(l12, (float("nan"),) * l12.n))
    assert not report.passed
    assert [v.elements for v in report.violations if v.kind == "range"] == [(e,) for e in l12.names]


def _reference_scans(ortho, valuation, tolerance):
    """(inclusion-exclusion hits, subadditivity hits) from the two loops
    the scans ran before they shared one walk, each behind its own check."""
    tolerance = states._tolerance(valuation, tolerance)
    report = is_state(ortho, valuation, tolerance)
    if not report.passed:
        raise NotAState(report)
    values, ie, subadd = valuation.values, [], []
    for a in range(ortho.n):
        for b in range(a + 1, ortho.n):
            meet = ortho.meet(a, b)
            join = ortho.join(a, b)
            defect = values[a] + values[b] - values[meet] - values[join]
            if abs(defect) > tolerance:
                rebuilt = ortho.join(meet, ortho.meet(a, ortho.neg[b]))
                ie.append(states.PairDefect((ortho.names[a], ortho.names[b]), defect, rebuilt != a))
            defect = values[ortho.join(a, b)] - values[a] - values[b]
            if defect > tolerance:
                subadd.append(states.PairDefect((ortho.names[a], ortho.names[b]), defect))
    return ie, subadd


def _scan_cases():
    """Exact vertices and a sampled state of l12 and mo2, the sampled
    state as floats, and Born valuations on the d2 and d3 closures."""
    cases = []
    for ortho in (builders.firefly_l12(), builders.mo(2)):
        sampled = sample_states(ortho, 1, seed=5)[0]
        cases += [(ortho, v) for v in extreme_states(ortho)]
        cases += [(ortho, sampled), (ortho, Valuation(ortho, tuple(map(float, sampled.values))))]
    rng = np.random.default_rng(9)
    for seeds in (d2_seed_subspaces(), d3_seed_subspaces()):
        ortho, embedding = hilbert.generate_sublattice(seeds)
        for rho in (hilbert.max_mixed(seeds[0].d), hilbert.random_density(seeds[0].d, rng)):
            cases.append((ortho, hilbert.born_valuation(rho, ortho, embedding)))
    return cases


def _fields(hits):
    return [(h.pair, repr(h.defect), type(h.defect), h.strict_decomposition) for h in hits]


@pytest.mark.parametrize("tolerance", [None, 0, 0.3])
def test_pair_scans_match_the_two_loops_they_replaced(tolerance):
    """Field for field and bit for bit, or NotAState from both; both
    scans find exact and float hits."""
    seen = set()
    for ortho, valuation in _scan_cases():
        try:
            ie, subadd = _reference_scans(ortho, valuation, tolerance)
        except NotAState:
            for scan in (inclusion_exclusion_scan, subadditivity_scan):
                with pytest.raises(NotAState):
                    scan(ortho, valuation, tolerance)
            continue
        assert _fields(inclusion_exclusion_scan(ortho, valuation, tolerance)) == _fields(ie)
        assert _fields(subadditivity_scan(ortho, valuation, tolerance)) == _fields(subadd)
        seen |= {("ie", type(h.defect)) for h in ie} | {("subadd", type(h.defect)) for h in subadd}
    assert seen == {(kind, t) for kind in ("ie", "subadd") for t in (Fraction, float)}
