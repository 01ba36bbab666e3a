"""Probability valuations on orthomodular lattices.

A state assigns [0,1] values to elements with s(bottom)=0, s(top)=1 and
s(a∨b) = s(a) + s(b) whenever a is orthogonal to b.  The solution set of
these constraints is a convex polytope; this module generates the
constraint system, verifies candidate valuations, finds feasible points,
enumerates polytope vertices, and extracts the affine relations the
constraints force between atom values.

Relations and vertices come from the blocks, in atom coordinates.  In a
finite OML every orthogonal pair lies in a common block and every
element lies in some block; an element's value is the sum of its atoms
in any block that holds it.  So a state is fixed by its atom values
x >= 0, subject to one "atoms sum to 1" row per block and one agreement
row wherever two blocks share an element.  That small system has the
solutions of the full additivity system; build_state_system writes that
out only as the reference that is_state is tested against.  The
relations, the vertex search's system and the find fallback's simplex
share one Gauss-Jordan step, _pivot.

All polytope work is exact: coefficients are Fractions throughout, and
equality claims in reports mean equality of rationals, not closeness.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import gcd, lcm

from .core import CapExceeded, OrthoLattice, Record, Refusal, _bits
from .classify import iter_blocks, require_orthomodular

FLOAT_TOLERANCE = 1e-9
_ZERO, _ONE = Fraction(0), Fraction(1)

# the rays the vertex search may keep after any of its cuts
ENUMERATION_BUDGET = 1024


class Infeasible(Refusal):
    """The constraint system admits no solution.

    certificate, when present, maps row labels to rational multipliers
    y with sum(y[r] * row_r) contradictory: nonnegative combination of
    the rows with right side > 0 and no positive left coefficient.
    """

    def __init__(self, message: str, certificate: dict | None = None):
        self.certificate = certificate
        super().__init__(message)


class DomainMismatch(ValueError):
    pass


class NotAState(Refusal):
    def __init__(self, report: "StateCheckReport"):
        self.report = report
        super().__init__("valuation fails the state constraints")


class Valuation(Record):
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


class Row(Record):
    """One reference-system equality: coeffs · s = rhs, indexed by element."""

    coeffs: tuple
    rhs: Fraction
    label: str

    def residual(self, values) -> Fraction | float:
        acc = sum(c * v for c, v in zip(self.coeffs, values) if c)
        return acc - self.rhs


class StateSystem(Record):
    """The reference system of build_state_system."""
    variables: tuple[str, ...]
    rows: tuple[Row, ...]


class Violation(Record):
    kind: str
    elements: tuple[str, ...]
    residual: Fraction | float


class StateCheckReport(Record):
    passed: bool
    violations: tuple[Violation, ...]
    complement_residual: Fraction | float

    def max_residual(self):
        return max((abs(v.residual) for v in self.violations), default=0)


def _normalize(coeffs: list[Fraction], rhs: Fraction):
    """Scale to coprime integers with the leading coefficient positive.
    Only the nonzero entries are visited; every zero of the result is
    the same Fraction(0)."""
    nonzero = [(k, c) for k, c in enumerate(coeffs) if c]
    denom = rhs.denominator
    for _, c in nonzero:
        denom = denom * c.denominator // gcd(denom, c.denominator)
    ints = [int(c * denom) for _, c in nonzero] + [int(rhs * denom)]
    g = 0
    for c in ints:
        g = gcd(g, abs(c))
    if g > 1:
        ints = [c // g for c in ints]
    lead = next((c for c in ints if c), 0)
    if lead < 0:
        ints = [-c for c in ints]
    out = [_ZERO] * len(coeffs)
    for (k, _), c in zip(nonzero, ints):
        out[k] = Fraction(c)
    return tuple(out), Fraction(ints[-1])


def build_state_system(ortho: OrthoLattice) -> StateSystem:
    """The reference system: the state rows, deduplicated, in a fixed order:
    bottom, top, then one additivity row per orthogonal pair in index
    order.  No program path builds it; is_state walks the same rows."""
    require_orthomodular(ortho)
    n = ortho.n
    rows: list[Row] = []
    seen = set()

    def push(coeffs, rhs, label):
        norm = _normalize(coeffs, rhs)
        # every zero of norm is _ZERO, so its nonzero entries key the row
        key = (norm[1], *((k, c) for k, c in enumerate(norm[0]) if c is not _ZERO))
        if (len(key) > 1 or norm[1]) and key not in seen:
            seen.add(key)
            rows.append(Row(norm[0], norm[1], label))

    base = [_ZERO] * n
    coeffs = base.copy()
    coeffs[ortho.bottom] = Fraction(1)
    push(coeffs, _ZERO, "bottom")
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
            push(coeffs, _ZERO, f"add {ortho.names[a]} {ortho.names[b]}")
    return StateSystem(variables=ortho.names, rows=tuple(rows))


def _tolerance(valuation: Valuation, tolerance):
    """tolerance, or by default 0 for an exact valuation and FLOAT_TOLERANCE otherwise."""
    return (0 if valuation.is_exact() else FLOAT_TOLERANCE) if tolerance is None else tolerance


def is_state(ortho: OrthoLattice, valuation: Valuation, tolerance=None) -> StateCheckReport:
    """Check every state constraint.  tolerance defaults to 0 for exact
    valuations and to FLOAT_TOLERANCE otherwise.  The complement law
    s(¬a) = 1 − s(a) is implied by the system; its worst residual is
    reported but does not decide passed.  The rows are build_state_system's,
    walked with no system built: bottom, top, then s(a∨b) − s(a) − s(b)
    per orthogonal pair a < b without the bottom, signed as _normalize
    signs it and summed in index order as Row.residual sums it."""
    if valuation.lattice is not ortho and valuation.lattice.names != ortho.names:
        raise DomainMismatch("valuation built for a different lattice")
    tolerance = _tolerance(valuation, tolerance)
    require_orthomodular(ortho)
    values, names, bottom, top = valuation.values, ortho.names, ortho.bottom, ortho.top
    violations: list[Violation] = []
    for i, v in enumerate(values):
        if not -tolerance <= v <= 1 + tolerance:  # a NaN is out of range too
            violations.append(Violation("range", (names[i],), -v if v < 0 else v - 1))
    plus, minus = [_ONE * v for v in values], [-_ONE * v for v in values]
    rows = [("bottom", (bottom,), (plus[bottom],), _ZERO), ("top", (top,), (plus[top],), _ONE)]
    others = ((1 << ortho.n) - 1) ^ (1 << bottom)
    for a in _bits(others):
        for b in _bits(ortho.down[ortho.neg[a]] & (others >> a + 1 << a + 1)):
            c = ortho.join(a, b)
            terms = ((plus[c], minus[a], minus[b]) if c < a else (plus[a], minus[c], plus[b])
                     if c < b else (plus[a], plus[b], minus[c]))
            rows.append(("additivity", (a, b), terms, _ZERO))
    for kind, elements, terms, rhs in rows:
        res = sum(terms) - rhs
        if abs(res) > tolerance:
            violations.append(Violation(kind, tuple(names[e] for e in elements), res))
    comp = max(abs(values[a] + values[ortho.neg[a]] - 1) for a in range(ortho.n))
    return StateCheckReport(passed=not violations, violations=tuple(violations),
                            complement_residual=comp)


# -- exact linear algebra ---------------------------------------------------

def _pivot(rows: list[list[Fraction]], r: int, col: int):
    """One Gauss-Jordan step in place: scale row r to 1 at col and clear
    col from every other row, over row r's nonzero entries."""
    inv = 1 / rows[r][col]
    lead = rows[r] = [c * inv for c in rows[r]]
    nonzero = [j for j, y in enumerate(lead) if y]
    for k, row in enumerate(rows):
        factor = row[col]
        if k != r and factor:
            for j in nonzero:
                row[j] -= factor * lead[j]


def _rref(rows: list[list[Fraction]], width: int, order=None):
    """In-place reduced row echelon form over the first `width` columns,
    visited in `order`; trailing columns ride along as right sides.
    Returns (rows without zero rows, pivot column list)."""
    if order is None:
        order = range(width)
    pivots = []
    for col in order:
        rank = len(pivots)
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is not None:
            rows[rank], rows[pivot] = rows[pivot], rows[rank]
            _pivot(rows, rank, col)
            pivots.append(col)
    return rows[:len(pivots)], pivots


def _atom_system(ortho: OrthoLattice):
    """The state system in atom coordinates, reduced once with the atom
    columns first and the constant last.  Rows are [constant, atom
    coeffs...], read as constant + coeffs . x = 0: one "block atoms sum
    to 1" row per block, and one agreement row for each further block
    that holds an already-seen element.  Returns (rows, pivot columns,
    below): below[e] is the columns of the atoms under e in the first
    block that holds e, so a state's value at e is the sum of its atom
    values over below[e]."""
    column = {a: j for j, a in enumerate(ortho.atoms, 1)}
    rows, below = [], {}

    def row(constant, plus, minus=()):
        r = [Fraction(constant)] + [Fraction(0)] * len(column)
        for a in plus:
            r[column[a]] += 1
        for a in minus:
            r[column[a]] -= 1
        return r

    for block in iter_blocks(ortho):
        rows.append(row(-1, block[ortho.top]))
        for e, atoms in block.items():
            if e in below:
                rows.append(row(0, atoms, below[e]))
            else:
                below[e] = atoms
    reduced, pivots = _rref(rows, len(column) + 1, [*column.values(), 0])
    if 0 in pivots:
        raise Infeasible("equality system is inconsistent")
    return reduced, pivots, {e: [column[a] for a in atoms] for e, atoms in below.items()}


def extreme_states(ortho: OrthoLattice, cap: int = 1024) -> list[Valuation]:
    """Vertices of the state polytope, in increasing value-tuple order.

    Double description (Motzkin et al. 1953; Fukuda & Prodon 1996) over
    the atom system, homogenised by t in the constant column.  The free
    columns are the coordinates: start from the cone {t >= 0, free >=
    0}, whose rays are the unit vectors, and cut it with each pivot
    atom's x_p >= 0 in turn.  A ray is an integer vector over all the
    columns, its pivot entries fixed by the rows, with a bitmask of the
    columns cut so far on which it is zero; two rays on either side of
    a cut are adjacent, and span a new ray on it, when no third ray is
    zero on all they share.  The rays with t > 0 at the end, scaled to
    t = 1, are the vertices; the upper bounds x <= 1 follow from the
    block sums.  At most ENUMERATION_BUDGET rays are kept after a cut."""
    rows, pivots, below = _atom_system(ortho)
    coords = [j for j in range(len(ortho.atoms) + 1) if j not in pivots]
    rays = []
    for k in coords:
        ray = [Fraction(int(j == k)) for j in range(len(ortho.atoms) + 1)]
        for row, p in zip(rows, pivots):
            ray[p] = -row[k]
        scale = lcm(*(c.denominator for c in ray))
        rays.append(([int(c * scale) for c in ray], sum(1 << j for j in coords if j != k)))
    for p in pivots:
        zeros = [zero for _, zero in rays]
        positive = [(ray, zero) for ray, zero in rays if ray[p] > 0]
        negative = [(ray, zero) for ray, zero in rays if ray[p] < 0]
        rays = positive + [(ray, zero | 1 << p) for ray, zero in rays if ray[p] == 0]
        for pos, zp in positive:
            for neg, zn in negative:
                common = zp & zn
                if common.bit_count() >= len(coords) - 2 and sum(z & common == common for z in zeros) == 2:
                    ray = [pos[p] * a - neg[p] * b for a, b in zip(neg, pos)]
                    g = gcd(*ray)
                    rays.append(([c // g for c in ray], common | 1 << p))
        if len(rays) > ENUMERATION_BUDGET:
            raise CapExceeded(f"vertex search kept {len(rays)} rays, over {ENUMERATION_BUDGET}")
    found = [tuple(Fraction(sum(ray[j] for j in below[e]), ray[0]) for e in range(ortho.n))
             for ray, _ in rays if ray[0] > 0]
    if not found:
        raise Infeasible("state polytope is empty")
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
    simplex-found vertex when there are more than 256 vertices or the
    vertex search keeps more than ENUMERATION_BUDGET rays."""
    try:
        vertices = extreme_states(ortho, cap=256)
    except CapExceeded:  # one vertex of the atom system, mapped back through below
        rows, _, below = _atom_system(ortho)
        x = solve_in_unit_box([(r[1:], -r[0], f"row {k}") for k, r in enumerate(rows)], len(ortho.atoms))
        return Valuation(ortho, tuple(sum((x[j - 1] for j in below[e]), _ZERO) for e in range(ortho.n)))
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
    labels = [label for _, _, label in rows] + [f"box {i}" for i in range(n)]
    # x_i + y_i = 1 folds the upper bounds into equality form
    eq = [(list(c) + [_ZERO] * n, r) for c, r, _ in rows]
    for i in range(n):
        slack = [_ZERO] * (2 * n)
        slack[i] = slack[n + i] = _ONE
        eq.append((slack, _ONE))
    flipped = [rhs < 0 for _, rhs in eq]
    m = len(eq)
    # a row per equation, [x and slack coeffs, artificials, rhs], signed so
    # that rhs >= 0; the last row holds the phase-I reduced costs, each
    # column's cost (1 on an artificial) less its column sum
    tableau = []
    for r, (coeffs, rhs) in enumerate(eq):
        row = [-c if flipped[r] else c for c in coeffs + [rhs]]
        row[2 * n:2 * n] = [_ZERO] * m
        row[2 * n + r] = _ONE
        tableau.append(row)
    cost = [-sum(row[j] for row in tableau) for j in range(2 * n + m + 1)]
    cost[2 * n:2 * n + m] = [_ZERO] * m
    tableau.append(cost)
    basis = list(range(2 * n, 2 * n + m))

    while (entering := next((j for j, c in enumerate(cost[:-1]) if c < 0), None)) is not None:
        # Bland's ratio test: the least ratio, a tie to the lowest basic column
        ratios = [(tableau[i][-1] / tableau[i][entering], basis[i], i)
                  for i in range(m) if tableau[i][entering] > 0]
        if not ratios:
            raise Infeasible("phase-I objective unbounded; malformed system")
        _, _, leaving = min(ratios)
        _pivot(tableau, leaving, entering)
        basis[leaving] = entering

    if cost[-1] < 0:  # minus the sum of the artificials left in the basis
        certificate = {}
        for r in range(m):
            # y_r is 1 less the reduced cost of row r's artificial
            y = _ONE - cost[2 * n + r]
            if flipped[r]:
                y = -y
            if y:
                certificate[labels[r]] = y
        raise Infeasible("no point satisfies the system", certificate)
    x = [_ZERO] * n
    for i in range(m):
        if basis[i] < n:
            x[basis[i]] = tableau[i][-1]
    return x


# -- affine relations over atoms --------------------------------------------

class AffineRelation(Record):
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
    values: the atom system's rows reduced again with the constant
    column leading, scaled to coprime integers, and oriented so the
    first atom coefficient is positive."""
    rows, _, _ = _atom_system(ortho)
    atoms = tuple(ortho.names[a] for a in ortho.atoms)
    reduced, _ = _rref(rows, len(atoms) + 1)
    return [AffineRelation(atoms, *_normalize(row[1:], -row[0])) for row in reduced]


# -- classicality scans ------------------------------------------------------

class PairDefect(Record):
    pair: tuple[str, str]
    defect: Fraction | float
    strict_decomposition: bool | None = None


def _pair_scan(ortho: OrthoLattice, valuation: Valuation, tolerance, defect) -> list[PairDefect]:
    """A PairDefect for each pair a < b where defect(values, a, b,
    tolerance) returns its fields after the pair, once is_state passed
    at the resolved tolerance; NotAState otherwise."""
    tolerance = _tolerance(valuation, tolerance)
    report = is_state(ortho, valuation, tolerance)
    if not report.passed:
        raise NotAState(report)
    values, names, out = valuation.values, ortho.names, []
    for a in range(ortho.n):
        for b in range(a + 1, ortho.n):
            if hit := defect(values, a, b, tolerance):
                out.append(PairDefect((names[a], names[b]), *hit))
    return out


def inclusion_exclusion_scan(ortho: OrthoLattice, valuation: Valuation, tolerance=None) -> list[PairDefect]:
    """Pairs where s(a)+s(b) − s(a∧b) − s(a∨b) is nonzero beyond
    tolerance.  Each hit records whether (a∧b)∨(a∧¬b) sits strictly
    below a, the lattice-side mechanism behind the defect."""
    meet, join, neg = ortho.meet, ortho.join, ortho.neg

    def defect(values, a, b, tolerance):
        m = meet(a, b)
        d = values[a] + values[b] - values[m] - values[join(a, b)]
        if abs(d) > tolerance:
            return d, join(m, meet(a, neg[b])) != a

    return _pair_scan(ortho, valuation, tolerance, defect)


def subadditivity_scan(ortho: OrthoLattice, valuation: Valuation, tolerance=None) -> list[PairDefect]:
    """Pairs with s(a∨b) > s(a) + s(b) beyond tolerance."""
    join = ortho.join

    def defect(values, a, b, tolerance):
        d = values[join(a, b)] - values[a] - values[b]
        if d > tolerance:
            return (d,)

    return _pair_scan(ortho, valuation, tolerance, defect)


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
