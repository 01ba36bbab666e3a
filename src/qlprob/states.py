"""Probability valuations on orthomodular lattices.

A state assigns [0,1] values to elements with s(bottom)=0, s(top)=1 and
s(a∨b) = s(a) + s(b) whenever a is orthogonal to b.  The solution set of
these constraints is a convex polytope; this module generates the
constraint system, verifies candidate valuations, finds feasible points,
enumerates polytope vertices, and extracts the affine relations the
constraints force between atom values.

One elimination serves both relations and vertices: the state system is
reduced once, columns ordered (non-atoms, atoms, constant), so every
element becomes an affine form over free atom values, and the rows that
pivot on atoms are the relations between atoms.

All polytope work is exact: coefficients are Fractions throughout, and
equality claims in reports mean equality of rationals, not closeness.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import comb, gcd

from .core import CapExceeded, OrthoLattice
from .classify import require_orthomodular

FLOAT_TOLERANCE = 1e-9

# comb(candidate inequalities, free dimensions) budget for vertex search
ENUMERATION_BUDGET = 200_000


class Infeasible(Exception):
    """The constraint system admits no solution.

    certificate, when present, maps row labels to rational multipliers
    y with sum(y[r] * row_r) contradictory: nonnegative combination of
    the rows with right side > 0 and no positive left coefficient.
    """

    def __init__(self, message: str, certificate: dict | None = None):
        self.certificate = certificate
        super().__init__(message)


class DomainMismatch(Exception):
    pass


class NotAState(Exception):
    def __init__(self, report: "StateCheckReport"):
        self.report = report
        super().__init__("valuation fails the state constraints")


@dataclass(frozen=True)
class Valuation:
    lattice: OrthoLattice
    values: tuple

    def __post_init__(self):
        if len(self.values) != self.lattice.n:
            raise DomainMismatch(
                f"{len(self.values)} values for {self.lattice.n} elements"
            )

    def value(self, name: str):
        return self.values[self.lattice.index[name]]

    def as_dict(self) -> dict:
        return dict(zip(self.lattice.names, self.values))

    def is_exact(self) -> bool:
        return all(isinstance(v, (Fraction, int)) for v in self.values)


@dataclass(frozen=True)
class Row:
    """One equality: coeffs · s = rhs, coefficients indexed by element."""

    coeffs: tuple
    rhs: Fraction
    label: str

    def residual(self, values) -> Fraction | float:
        acc = sum(c * v for c, v in zip(self.coeffs, values) if c)
        return acc - self.rhs


@dataclass(frozen=True)
class StateSystem:
    variables: tuple[str, ...]
    rows: tuple[Row, ...]


@dataclass(frozen=True)
class Violation:
    kind: str
    elements: tuple[str, ...]
    residual: Fraction | float


@dataclass(frozen=True)
class StateCheckReport:
    passed: bool
    violations: tuple[Violation, ...]
    complement_residual: Fraction | float

    def max_residual(self):
        return max((abs(v.residual) for v in self.violations), default=0)


def _normalize(coeffs: list[Fraction], rhs: Fraction):
    """Scale to coprime integers with the leading coefficient positive."""
    denom = 1
    for c in list(coeffs) + [rhs]:
        denom = denom * c.denominator // gcd(denom, c.denominator)
    ints = [int(c * denom) for c in coeffs] + [int(rhs * denom)]
    g = 0
    for c in ints:
        g = gcd(g, abs(c))
    if g > 1:
        ints = [c // g for c in ints]
    lead = next((c for c in ints if c), 0)
    if lead < 0:
        ints = [-c for c in ints]
    return tuple(Fraction(c) for c in ints[:-1]), Fraction(ints[-1])


def build_state_system(ortho: OrthoLattice) -> StateSystem:
    """Equality rows for the state polytope, deduplicated and in a
    fixed order: bottom, top, then one additivity row per orthogonal
    pair taken in index order."""
    require_orthomodular(ortho)
    n = ortho.n
    zero = Fraction(0)
    rows: list[Row] = []
    seen = set()

    def push(coeffs, rhs, label):
        norm = _normalize(coeffs, rhs)
        if any(norm[0]) or norm[1]:
            if norm not in seen:
                seen.add(norm)
                rows.append(Row(norm[0], norm[1], label))

    base = [zero] * n
    coeffs = base.copy()
    coeffs[ortho.bottom] = Fraction(1)
    push(coeffs, zero, "bottom")
    coeffs = base.copy()
    coeffs[ortho.top] = Fraction(1)
    push(coeffs, Fraction(1), "top")
    for a in range(n):
        for b in range(a + 1, n):
            if not ortho.orthogonal(a, b):
                continue
            coeffs = base.copy()
            coeffs[ortho.join(a, b)] += Fraction(1)
            coeffs[a] -= Fraction(1)
            coeffs[b] -= Fraction(1)
            push(coeffs, zero, f"add {ortho.names[a]} {ortho.names[b]}")
    return StateSystem(variables=ortho.names, rows=tuple(rows))


def is_state(ortho: OrthoLattice, valuation: Valuation, tolerance=None) -> StateCheckReport:
    """Check every state constraint.  tolerance defaults to 0 for exact
    valuations and to FLOAT_TOLERANCE otherwise.  The complement law
    s(¬a) = 1 − s(a) is implied by the system; its worst residual is
    reported but does not decide passed."""
    if valuation.lattice is not ortho and valuation.lattice.names != ortho.names:
        raise DomainMismatch("valuation built for a different lattice")
    if tolerance is None:
        tolerance = 0 if valuation.is_exact() else FLOAT_TOLERANCE
    system = build_state_system(ortho)
    values = valuation.values
    violations: list[Violation] = []
    for i, v in enumerate(values):
        if v < -tolerance or v > 1 + tolerance:
            out = -v if v < 0 else v - 1
            violations.append(Violation("range", (ortho.names[i],), out))
    for row in system.rows:
        res = row.residual(values)
        if abs(res) > tolerance:
            if row.label == "bottom":
                kind, names = "bottom", (ortho.names[ortho.bottom],)
            elif row.label == "top":
                kind, names = "top", (ortho.names[ortho.top],)
            else:
                kind, names = "additivity", tuple(row.label.split()[1:])
            violations.append(Violation(kind, names, res))
    comp = max(
        abs(values[a] + values[ortho.neg[a]] - 1) for a in range(ortho.n)
    )
    return StateCheckReport(
        passed=not violations,
        violations=tuple(violations),
        complement_residual=comp,
    )


# -- exact linear algebra ---------------------------------------------------

def _rref(rows: list[list[Fraction]], width: int, order=None):
    """In-place reduced row echelon form over the first `width` columns,
    visited in `order`; trailing columns ride along as right sides.
    Returns (rows without zero rows, pivot column list)."""
    if order is None:
        order = range(width)
    rank = 0
    pivots = []
    for col in order:
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = 1 / rows[rank][col]
        rows[rank] = [c * inv for c in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                factor = rows[r][col]
                rows[r] = [x - factor * y for x, y in zip(rows[r], rows[rank])]
        pivots.append(col)
        rank += 1
    return rows[:rank], pivots


def _solve_square(matrix: list[list[Fraction]], rhs: list[Fraction]):
    """Solution of a small square system, or None when singular."""
    d = len(rhs)
    rows = [matrix[i] + [rhs[i]] for i in range(d)]
    reduced, pivots = _rref(rows, d)
    if len(pivots) < d:
        return None
    x = [Fraction(0)] * d
    for row, col in zip(reduced, pivots):
        x[col] = row[-1]
    return x


def _eliminate(ortho: OrthoLattice):
    """The one RREF of the state system, columns ordered (non-atoms,
    atoms, constant).  Finite OMLs are atomistic, so every non-atom is
    a pivot and the free columns are atoms.  Returns (exprs, relation
    rows): exprs[i] is the affine form (constant, coeffs over the free
    columns) of element i on the solution space; each relation row is
    [constant, atom coeffs...] of one atom-pivot row, homogeneous."""
    system = build_state_system(ortho)
    n = ortho.n
    atoms = list(ortho.atoms)
    atom_set = set(atoms)
    order = [c for c in range(n) if c not in atom_set] + atoms
    reduced, pivots = _rref(
        [list(r.coeffs) + [-r.rhs] for r in system.rows], n + 1, order + [n]
    )
    if n in pivots:
        raise Infeasible("equality system is inconsistent")
    pivot_row = dict(zip(pivots, reduced))
    free = [c for c in order if c not in pivot_row]
    exprs = []
    for i in range(n):
        if i in pivot_row:
            row = pivot_row[i]
            exprs.append((-row[n], tuple(-row[c] for c in free)))
        else:
            exprs.append((Fraction(0), tuple(Fraction(int(c == i)) for c in free)))
    relations = [
        [row[n]] + [row[a] for a in atoms]
        for col, row in pivot_row.items()
        if col in atom_set
    ]
    return exprs, relations


def _evaluate(expr, point):
    const, coeffs = expr
    return const + sum(c * t for c, t in zip(coeffs, point) if c)


def extreme_states(ortho: OrthoLattice, cap: int = 1024) -> list[Valuation]:
    """Vertices of the state polytope, in increasing value-tuple order.

    Enumerates solutions of square subsystems of tight box constraints
    in the reduced free-variable space; exact and exhaustive for the
    lattice sizes this library targets."""
    exprs, _ = _eliminate(ortho)
    d = len(exprs[0][1])
    if d == 0:
        values = tuple(e[0] for e in exprs)
        if any(v < 0 or v > 1 for v in values):
            raise Infeasible("fixed solution leaves the unit box")
        return [Valuation(ortho, values)]

    # each element contributes expr >= 0 and expr <= 1, as a . t <= c
    ineqs = set()
    for const, coeffs in exprs:
        if not any(coeffs):
            if const < 0 or const > 1:
                raise Infeasible("fixed coordinate leaves the unit box")
            continue
        for a, c in ((tuple(-x for x in coeffs), const), (coeffs, 1 - const)):
            na, nc = _normalize(list(a), c)
            ineqs.add((na, nc))
    ineqs = sorted(ineqs)
    if comb(len(ineqs), d) > ENUMERATION_BUDGET:
        raise CapExceeded(
            f"vertex search over {len(ineqs)} inequalities in {d} dimensions"
        )

    found = {}
    for subset in combinations(ineqs, d):
        point = _solve_square([list(a) for a, _ in subset], [c for _, c in subset])
        if point is None:
            continue
        values = tuple(_evaluate(e, point) for e in exprs)
        if all(0 <= v <= 1 for v in values):
            found[values] = None
    vertices = sorted(found)
    if len(vertices) > cap:
        raise CapExceeded(
            f"{len(vertices)} vertices exceed cap {cap}",
            partial=[Valuation(ortho, v) for v in vertices[:cap]],
        )
    return [Valuation(ortho, v) for v in vertices]


def find_state(ortho: OrthoLattice) -> Valuation:
    """A canonical exact state: the barycenter of the polytope vertices
    (the uniform measure on boolean lattices).  Falls back to a single
    simplex-found vertex when the vertex enumeration is out of reach."""
    try:
        vertices = extreme_states(ortho, cap=256)
    except CapExceeded:
        rows = [(r.coeffs, r.rhs, r.label) for r in build_state_system(ortho).rows]
        return Valuation(ortho, tuple(solve_in_unit_box(rows, ortho.n)))
    return _mix(ortho, vertices, [1] * len(vertices))


def _mix(ortho: OrthoLattice, vertices, weights) -> Valuation:
    """The convex combination of vertices with nonnegative integer
    weights of positive sum."""
    if not vertices:
        raise Infeasible("state polytope is empty")
    total = sum(weights)
    return Valuation(ortho, tuple(
        sum((w * v.values[i] for w, v in zip(weights, vertices)), Fraction(0)) / total
        for i in range(ortho.n)
    ))


def solve_in_unit_box(rows, n: int) -> list[Fraction]:
    """Phase-I simplex with Bland's rule for {A x = b, 0 <= x <= 1}.

    rows: list of (coeffs, rhs, label).  Returns an exact feasible x or
    raises Infeasible carrying a Farkas certificate: multipliers y per
    label with sum_y coeffs <= 0 componentwise (over x and slack
    columns) while sum_y rhs > 0."""
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


# -- affine relations over atoms --------------------------------------------

@dataclass(frozen=True)
class AffineRelation:
    """sum(coeffs[i] * s(atom_i)) = rhs over the lattice atom list."""

    atoms: tuple[str, ...]
    coeffs: tuple[Fraction, ...]
    rhs: Fraction

    def display(self) -> str:
        parts = []
        for name, c in zip(self.atoms, self.coeffs):
            if not c:
                continue
            sign = "-" if c < 0 else "+"
            mag = abs(c)
            term = name if mag == 1 else f"{mag}*{name}"
            if not parts:
                parts.append(term if c > 0 else f"-{term}")
            else:
                parts.append(f"{sign} {term}")
        lhs = " ".join(parts) if parts else "0"
        return f"{lhs} = {self.rhs}"

    def holds(self, valuation: Valuation) -> bool:
        total = sum(
            c * valuation.value(a) for a, c in zip(self.atoms, self.coeffs) if c
        )
        return total == self.rhs


def implied_affine_relations(ortho: OrthoLattice) -> list[AffineRelation]:
    """Basis of the affine relations every state satisfies between atom
    values.  Non-atom variables are eliminated first; the surviving
    rows are reduced again with the constant column leading, scaled to
    coprime integers, and oriented so the first atom coefficient is
    positive."""
    _, rows = _eliminate(ortho)
    atoms = tuple(ortho.names[a] for a in ortho.atoms)
    reduced, _ = _rref(rows, len(atoms) + 1)
    return [AffineRelation(atoms, *_normalize(row[1:], -row[0])) for row in reduced]


# -- classicality scans ------------------------------------------------------

@dataclass(frozen=True)
class PairDefect:
    pair: tuple[str, str]
    defect: Fraction | float
    strict_decomposition: bool | None = None


def _checked(ortho, valuation, tolerance):
    report = is_state(ortho, valuation, tolerance)
    if not report.passed:
        raise NotAState(report)


def inclusion_exclusion_scan(
    ortho: OrthoLattice, valuation: Valuation, tolerance=None
) -> list[PairDefect]:
    """Pairs where s(a)+s(b) − s(a∧b) − s(a∨b) is nonzero beyond
    tolerance.  Each hit records whether (a∧b)∨(a∧¬b) sits strictly
    below a, the lattice-side mechanism behind the defect."""
    if tolerance is None:
        tolerance = 0 if valuation.is_exact() else FLOAT_TOLERANCE
    _checked(ortho, valuation, tolerance)
    values = valuation.values
    out = []
    for a in range(ortho.n):
        for b in range(a + 1, ortho.n):
            meet = ortho.meet(a, b)
            join = ortho.join(a, b)
            defect = values[a] + values[b] - values[meet] - values[join]
            if abs(defect) > tolerance:
                rebuilt = ortho.join(meet, ortho.meet(a, ortho.neg[b]))
                strict = rebuilt != a
                out.append(
                    PairDefect(
                        (ortho.names[a], ortho.names[b]), defect, strict
                    )
                )
    return out


def subadditivity_scan(
    ortho: OrthoLattice, valuation: Valuation, tolerance=None
) -> list[PairDefect]:
    """Pairs with s(a∨b) > s(a) + s(b) beyond tolerance."""
    if tolerance is None:
        tolerance = 0 if valuation.is_exact() else FLOAT_TOLERANCE
    _checked(ortho, valuation, tolerance)
    values = valuation.values
    out = []
    for a in range(ortho.n):
        for b in range(a + 1, ortho.n):
            defect = values[ortho.join(a, b)] - values[a] - values[b]
            if defect > tolerance:
                out.append(PairDefect((ortho.names[a], ortho.names[b]), defect))
    return out


def sample_states(ortho: OrthoLattice, count: int, seed: int = 0) -> list[Valuation]:
    """Exact rational states drawn as random convex combinations of the
    polytope vertices; reproducible for a given seed."""
    vertices = extreme_states(ortho)
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        weights = [rng.randrange(1_000_000) for _ in vertices]
        out.append(_mix(ortho, vertices, weights if any(weights) else [1] * len(vertices)))
    return out


def valuation_from_document(ortho: OrthoLattice, entries) -> Valuation:
    """Build a total valuation from (name, value) pairs; every lattice
    element must appear exactly once."""
    table = dict(entries)
    missing = [name for name in ortho.names if name not in table]
    extra = [name for name in table if name not in ortho.index]
    if missing or extra:
        parts = []
        if missing:
            parts.append(f"missing {missing}")
        if extra:
            parts.append(f"unknown {extra}")
        raise DomainMismatch("; ".join(parts))
    return Valuation(ortho, tuple(table[name] for name in ortho.names))
